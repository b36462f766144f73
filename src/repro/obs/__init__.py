"""Observability core: tracing, metrics, EXPLAIN — dependency-free.

One module-level switch governs the whole subsystem.  Disabled (the
default), every instrumentation point in the engine costs a single
early-return — :func:`span` hands back a shared no-op singleton and the
metric helpers return before touching the registry — so production hot
paths carry their probes for free (asserted by
``benchmarks/bench_obs_overhead.py``).  Enabled via :func:`configure`
(or ``REPRO_OBS`` in the environment), span trees flow to the configured
sinks, query latencies land in fixed-bucket histograms, and queries
slower than the threshold are captured by the slow-query log.

Typical wiring (the :func:`repro.open_system` facade does this for you)::

    from repro import obs

    ring = obs.RingBufferSink()
    obs.configure(sinks=[ring], slow_query_threshold_s=0.5)
    ...                       # run queries
    print(ring.last().render())          # the last query's span tree
    print(obs.metrics().render())        # counters / histograms
    print(obs.slow_log().render())       # offenders over the threshold

EXPLAIN (:mod:`repro.obs.explain`) is independent of the global switch:
it records one query under a context-local tracer, so
``QueryBuilder.explain()`` and ``EXPLAIN SELECT ...`` work even in a
fully disabled process.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.obs.explain import ExplainReport, PlanNode, profile
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
)
from repro.obs.sinks import ConsoleSink, JsonLinesSink, RingBufferSink, Sink
from repro.obs.slowlog import SlowQuery, SlowQueryLog
from repro.obs.trace import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    activate,
    current_span,
    current_tracer,
)

__all__ = [
    "Span", "Tracer", "NullSpan", "NULL_SPAN", "activate",
    "current_span", "current_tracer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "LATENCY_BUCKETS_S",
    "Sink", "RingBufferSink", "JsonLinesSink", "ConsoleSink",
    "SlowQuery", "SlowQueryLog",
    "PlanNode", "ExplainReport", "profile",
    "configure", "configure_from_env", "configure_mode", "disable", "enabled",
    "span", "count", "observe", "set_gauge", "metrics", "slow_log", "tracer",
]

#: Environment switch: "" / "0" off; "1" or "ring" → ring sink;
#: "console" → indented trees on stderr; "jsonl:<path>" → JSON lines.
OBS_ENV = "REPRO_OBS"
#: Environment override for the slow-query threshold, in seconds.
OBS_SLOW_ENV = "REPRO_OBS_SLOW_S"


class _State:
    __slots__ = ("on", "tracer", "registry", "slowlog")

    def __init__(self) -> None:
        self.on = False
        self.tracer: Tracer | None = None
        self.registry = MetricsRegistry()
        self.slowlog = SlowQueryLog()


_STATE = _State()


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def configure(
    *,
    sinks: Sequence[Sink] = (),
    slow_query_threshold_s: float | None = None,
    registry: MetricsRegistry | None = None,
) -> Tracer:
    """Enable observability globally; returns the installed tracer.

    ``sinks`` receive every finished root span tree; queries slower than
    ``slow_query_threshold_s`` (default: keep the current threshold) land
    in the slow-query log.  Calling again replaces the configuration.
    """
    if registry is not None:
        _STATE.registry = registry
    if slow_query_threshold_s is not None:
        _STATE.slowlog.threshold_s = slow_query_threshold_s
    _STATE.tracer = Tracer(sinks=list(sinks), slow_log=_STATE.slowlog)
    _STATE.on = True
    return _STATE.tracer


def disable() -> None:
    """Turn the subsystem off (the no-op fast path); metrics are retained."""
    _STATE.on = False
    _STATE.tracer = None


def enabled() -> bool:
    """True when observability is globally on."""
    return _STATE.on


def configure_from_env(environ: dict | None = None) -> bool:
    """Apply ``REPRO_OBS`` / ``REPRO_OBS_SLOW_S``; returns True if enabled.

    Used by the CLI and the test harness so a whole run can be traced
    without code changes (CI runs the tier-1 suite under
    ``REPRO_OBS=console`` to catch instrumentation-path-only crashes).
    """
    env = environ if environ is not None else os.environ
    mode = env.get(OBS_ENV, "")
    threshold = env.get(OBS_SLOW_ENV, "").strip()
    slow_s = float(threshold) if threshold else None
    return configure_mode(mode, slow_query_threshold_s=slow_s)


def configure_mode(
    mode: str, *, slow_query_threshold_s: float | None = None
) -> bool:
    """Configure from a mode string; returns True if tracing is now on.

    Modes mirror ``REPRO_OBS``: ``""``/``"0"``/``"off"`` disable;
    ``"1"``/``"ring"`` buffer span trees in memory; ``"console"`` prints
    them to stderr; ``"jsonl:<path>"`` appends them as JSON lines.  Only
    the keyword is case-insensitive; a path keeps its case.
    """
    keyword, sep, path = mode.strip().partition(":")
    keyword = keyword.lower() + sep
    if keyword in ("", "0", "false", "no", "off"):
        disable()
        return False
    if keyword in ("1", "true", "yes", "on", "ring"):
        sinks: list[Sink] = [RingBufferSink()]
    elif keyword == "console":
        sinks = [ConsoleSink()]
    elif keyword == "jsonl:":
        sinks = [JsonLinesSink(path)]
    else:
        raise ValueError(
            f"unrecognised {OBS_ENV}={mode!r} "
            "(use 1|ring|console|jsonl:<path>|0)"
        )
    configure(sinks=sinks, slow_query_threshold_s=slow_query_threshold_s)
    return True


# ---------------------------------------------------------------------------
# Hot-path API
# ---------------------------------------------------------------------------


def span(name: str, **attrs: object) -> Span | NullSpan:
    """A context-managed timed span, or the no-op singleton when off.

    A context-local tracer (installed by :func:`activate` — EXPLAIN,
    tests) takes precedence over the global one, so a single query can be
    recorded inside an otherwise untraced process.
    """
    tracer = current_tracer()
    if tracer is None:
        tracer = _STATE.tracer
        if tracer is None:
            return NULL_SPAN
    return tracer.span(name, **attrs)


def count(name: str, n: int = 1) -> None:
    """Increment a counter (no-op while disabled)."""
    if _STATE.on:
        _STATE.registry.counter(name).inc(n)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op while disabled)."""
    if _STATE.on:
        _STATE.registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (no-op while disabled)."""
    if _STATE.on:
        _STATE.registry.gauge(name).set(value)


def metrics() -> MetricsRegistry:
    """The global registry (readable even while disabled)."""
    return _STATE.registry


def slow_log() -> SlowQueryLog:
    """The global slow-query log."""
    return _STATE.slowlog


def tracer() -> Tracer | None:
    """The globally installed tracer (None while disabled)."""
    return _STATE.tracer
