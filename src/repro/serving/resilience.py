"""Deadlines, cooperative cancellation and circuit breakers for serving.

The read path must answer predictably even when it is overloaded or a
dependency is broken.  This module supplies the three primitives the
serving layer builds that guarantee from:

**Deadlines.**  A :class:`Deadline` is a per-query time budget plus a
cancel flag.  It travels through the executing query via a
:data:`contextvars.ContextVar`, so the group-by kernels, lattice
builds and partition scans — all of which run in the query's own
thread — can call :func:`checkpoint` at chunk boundaries without
threading a handle through every signature.  An expired deadline raises
:class:`~repro.errors.QueryTimeoutError`; an explicitly cancelled one
raises :class:`~repro.errors.QueryCancelledError`.  Checkpoints cost one
ContextVar read + one monotonic clock read — cheap enough for hot loops
at chunk granularity.

Deadlines form a chain: a per-query budget set without a serving
runtime (:func:`repro.olap.query.serving_scope`) is built with
``parent=`` any active outer deadline, so cancelling the outer deadline
also cancels the inner one, and the inner budget can only shorten the
outer one.  ``expires_at`` is the minimum over the chain.

**Circuit breakers.**  A :class:`CircuitBreaker` guards one dependency
(the materialised lattice, the result cache).  It is *closed* (requests
flow) until ``failure_threshold`` consecutive failures open it; while
*open* every ``allow()`` is refused until ``reset_after_s`` elapses,
then one *half-open* probe is let through — success closes the breaker,
failure re-opens it.  Refusal never fails a query: each guarded
dependency has a rung below it on the :data:`DEGRADATION_LADDER`
(lattice → base scan, cache → recompute) and the caller silently takes
that rung.

Breakers live in a process-global registry (like the obs sinks and the
fault plan) so every cube epoch and every snapshot shares one view of a
dependency's health, and ``ingest_health()``/``explain()`` can report
active degradations without plumbing.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from dataclasses import dataclass, field

from repro import obs
from repro.errors import QueryCancelledError, QueryTimeoutError

__all__ = [
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "checkpoint",
    "cooperative_sleep",
    "BreakerConfig",
    "CircuitBreaker",
    "breaker",
    "breakers_snapshot",
    "active_degradations",
    "reset_breakers",
    "DEGRADATION_LADDER",
]


# --------------------------------------------------------------------------
# Deadlines & cooperative cancellation
# --------------------------------------------------------------------------

class Deadline:
    """A cancellable time budget for one query.

    ``budget_s=None`` means no time limit — the deadline then only
    carries the cancel flag.  ``parent`` chains deadlines: expiry and
    cancellation both propagate down the chain (the effective expiry is
    the earliest in the chain; a cancelled ancestor cancels every
    descendant).
    """

    __slots__ = ("expires_at", "parent", "_clock", "_cancelled", "_why")

    def __init__(
        self,
        budget_s: float | None = None,
        *,
        parent: "Deadline | None" = None,
        clock=time.monotonic,
    ):
        self._clock = clock
        self.parent = parent
        own = clock() + budget_s if budget_s is not None else None
        inherited = parent.expires_at if parent is not None else None
        if own is None:
            self.expires_at = inherited
        elif inherited is None:
            self.expires_at = own
        else:
            self.expires_at = min(own, inherited)
        self._cancelled = threading.Event()
        self._why = ""

    # -- state ----------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """True once this deadline (or any ancestor) was cancelled."""
        node: Deadline | None = self
        while node is not None:
            if node._cancelled.is_set():
                return True
            node = node.parent
        return False

    @property
    def cancel_reason(self) -> str:
        node: Deadline | None = self
        while node is not None:
            if node._cancelled.is_set():
                return node._why
            node = node.parent
        return ""

    def expired(self) -> bool:
        """True once the effective time budget has run out."""
        return self.expires_at is not None and self._clock() >= self.expires_at

    def remaining(self) -> float | None:
        """Seconds left (``None`` = unbounded, clamped at 0.0)."""
        if self.expires_at is None:
            return None
        return max(0.0, self.expires_at - self._clock())

    # -- transitions ----------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Flip the cancel flag; every checkpoint downstream raises."""
        self._why = reason
        self._cancelled.set()

    # -- enforcement ----------------------------------------------------

    def check(self) -> None:
        """Raise the typed error if cancelled or expired, else return."""
        if self.cancelled:
            raise QueryCancelledError(
                f"query cancelled: {self.cancel_reason or 'cancelled'}"
            )
        if self.expired():
            raise QueryTimeoutError("query deadline exceeded")


_current: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_serving_deadline", default=None
)


def current_deadline() -> Deadline | None:
    """The deadline governing the calling context (``None`` = unbounded)."""
    return _current.get()


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None):
    """Bind ``deadline`` as the current deadline for the ``with`` body."""
    token = _current.set(deadline)
    try:
        yield deadline
    finally:
        _current.reset(token)


def checkpoint() -> None:
    """Cooperative cancellation point: raise if the current query is done.

    Call at chunk boundaries in long-running loops.  Free (one ContextVar
    read) when no deadline is active.
    """
    deadline = _current.get()
    if deadline is not None:
        deadline.check()


def cooperative_sleep(seconds: float, *, step_s: float = 0.005) -> None:
    """Sleep in short steps, honouring the current deadline between steps.

    Used by the fault-injection ``slow``/``stall`` modes so an injected
    delay cannot outlive the query it is delaying: the checkpoint inside
    the loop raises the typed timeout as soon as the deadline expires.
    """
    end = time.monotonic() + seconds
    while True:
        checkpoint()
        left = end - time.monotonic()
        if left <= 0:
            return
        time.sleep(min(step_s, left))


# --------------------------------------------------------------------------
# Circuit breakers
# --------------------------------------------------------------------------

#: The documented rung each guarded dependency falls to when its breaker
#: opens.  Queries never fail because a breaker refused — they degrade.
DEGRADATION_LADDER = {
    "lattice": "base-scan",
    "cache": "recompute",
}

_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning for one :class:`CircuitBreaker`.

    ``failure_threshold`` consecutive failures open the breaker;
    ``reset_after_s`` later one half-open probe is admitted, and
    ``half_open_probes`` successes in that state close it again.
    """

    failure_threshold: int = 3
    reset_after_s: float = 5.0
    half_open_probes: int = 1


@dataclass
class BreakerStats:
    """Monotonic transition/outcome counters for one breaker."""

    successes: int = 0
    failures: int = 0
    rejections: int = 0
    opens: int = 0

    def snapshot(self) -> dict:
        return {
            "successes": self.successes,
            "failures": self.failures,
            "rejections": self.rejections,
            "opens": self.opens,
        }


class CircuitBreaker:
    """closed → (N consecutive faults) → open → (timeout) → half-open.

    Thread-safe; all transitions happen under one small lock.  Callers
    use the ``allow()`` / ``record_success()`` / ``record_failure()``
    triple around the guarded operation and take the degradation rung
    when ``allow()`` returns ``False``.
    """

    def __init__(
        self,
        name: str,
        config: BreakerConfig | None = None,
        *,
        clock=time.monotonic,
    ):
        self.name = name
        self.config = config or BreakerConfig()
        self.stats = BreakerStats()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = _CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_successes = 0
        self._probe_in_flight = False

    # -- queries --------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """May a request use the guarded dependency right now?"""
        with self._lock:
            self._maybe_half_open()
            if self._state == _CLOSED:
                return True
            if self._state == _HALF_OPEN and not self._probe_in_flight:
                # exactly one probe at a time; concurrent queries keep
                # taking the degraded rung until the probe reports back
                self._probe_in_flight = True
                return True
            self.stats.rejections += 1
            return False

    # -- outcomes -------------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            self.stats.successes += 1
            self._probe_in_flight = False
            if self._state == _HALF_OPEN:
                self._half_open_successes += 1
                if self._half_open_successes >= self.config.half_open_probes:
                    self._transition(_CLOSED)
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self.stats.failures += 1
            self._probe_in_flight = False
            self._consecutive_failures += 1
            if self._state == _HALF_OPEN:
                self._transition(_OPEN)
            elif (
                self._state == _CLOSED
                and self._consecutive_failures >= self.config.failure_threshold
            ):
                self._transition(_OPEN)

    def release(self) -> None:
        """Give a granted ``allow()`` back without scoring an outcome.

        For exits that say nothing about the dependency's health (a
        simulated process crash unwinding through the guard): the
        half-open probe slot is freed so the next query may probe.
        """
        with self._lock:
            self._probe_in_flight = False

    def reset(self) -> None:
        """Force-close (tests and operator tooling)."""
        with self._lock:
            self._state = _CLOSED
            self._consecutive_failures = 0
            self._half_open_successes = 0
            self._probe_in_flight = False

    # -- internals (lock held) ------------------------------------------

    def _maybe_half_open(self) -> None:
        if (
            self._state == _OPEN
            and self._clock() - self._opened_at >= self.config.reset_after_s
        ):
            self._transition(_HALF_OPEN)

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        if state == _OPEN:
            self._opened_at = self._clock()
            self.stats.opens += 1
            obs.count(f"serving.breaker.{self.name}.open")
        elif state == _CLOSED:
            self._consecutive_failures = 0
            self._half_open_successes = 0
            obs.count(f"serving.breaker.{self.name}.close")
        else:  # half-open
            self._half_open_successes = 0
            self._probe_in_flight = False
        if obs.enabled():
            obs.set_gauge(
                f"serving.breaker.{self.name}.open_gauge",
                0 if state == _CLOSED else 1,
            )

    # -- introspection --------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "degrades_to": DEGRADATION_LADDER.get(self.name),
                **self.stats.snapshot(),
            }


_registry: dict[str, CircuitBreaker] = {}
_registry_lock = threading.Lock()


def breaker(name: str, config: BreakerConfig | None = None) -> CircuitBreaker:
    """The process-wide breaker for ``name`` (created on first use).

    An explicit ``config`` re-tunes an existing breaker in place (state
    and stats survive — only the thresholds change), so systems created
    with custom serving settings govern breakers other components
    already grabbed.
    """
    with _registry_lock:
        existing = _registry.get(name)
        if existing is None:
            existing = _registry[name] = CircuitBreaker(name, config)
        elif config is not None:
            existing.config = config
        return existing


def breakers_snapshot() -> dict:
    """JSON-ready state of every registered breaker."""
    with _registry_lock:
        items = list(_registry.items())
    return {name: brk.snapshot() for name, brk in items}


def active_degradations() -> dict:
    """``{dependency: rung}`` for every breaker not currently closed."""
    with _registry_lock:
        items = list(_registry.items())
    out = {}
    for name, brk in items:
        if brk.state != _CLOSED:
            out[name] = DEGRADATION_LADDER.get(name, "degraded")
    return out


def reset_breakers() -> None:
    """Force-close and forget every breaker (test isolation)."""
    with _registry_lock:
        for brk in _registry.values():
            brk.reset()
        _registry.clear()
