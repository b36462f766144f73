"""Bounded admission control for the query-serving path.

Unbounded queueing turns overload into latency collapse: every queued
query eventually runs, long after its caller gave up, stealing capacity
from queries that could still be answered in time.  The
:class:`AdmissionGate` bounds both dimensions instead:

* at most ``max_in_flight`` queries execute concurrently;
* at most ``max_queue`` more may *wait* (bounded by ``queue_timeout_s``
  and the query's own deadline);
* everything beyond that is **shed immediately** with a typed
  :class:`~repro.errors.ServingOverloadError` — the caller learns in
  well under 10 ms that the server is saturated, instead of after a
  multi-second queue tour.

:class:`ServingRuntime` packages the gate together with the circuit
breakers (one per rung of the degradation ladder) and the per-query
deadline installation; ``query_scope()`` is the single entry point the
query front-ends (`QueryBuilder`, MDX, DG-SQL) wrap around execution.
A re-entrancy guard makes nested engine calls (MDX tuple evaluation
calls ``cube.grand_total`` mid-query) ride the outer admission slot
rather than deadlocking against their own query.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from dataclasses import dataclass

from repro import obs
from repro.errors import ServingOverloadError
from repro.serving.resilience import (
    BreakerConfig,
    Deadline,
    breaker,
    deadline_scope,
)
from repro.storage.retry import get_policy

__all__ = [
    "ServingConfig",
    "AdmissionStats",
    "AdmissionGate",
    "ServingRuntime",
    "coerce_serving",
]


@dataclass(frozen=True)
class ServingConfig:
    """Limits for one serving runtime (``SystemConfig(serving=...)``).

    ``max_in_flight`` concurrent queries; ``max_queue`` more may wait up
    to ``queue_timeout_s`` for a slot.  ``default_deadline_s`` is applied
    to queries that arrive without their own deadline (``None`` =
    unbounded).  ``breaker_policy`` names a retry-policy registry entry
    (:func:`repro.storage.retry.get_policy`) whose knobs tune the
    circuit breakers: ``attempts`` → failure threshold, ``max_delay_s``
    → open-state reset delay.
    """

    max_in_flight: int = 8
    max_queue: int = 16
    queue_timeout_s: float = 1.0
    default_deadline_s: float | None = None
    breaker_policy: str = "serving.breaker"

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.queue_timeout_s <= 0:
            raise ValueError("queue_timeout_s must be > 0")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be > 0")


@dataclass
class AdmissionStats:
    """Monotonic admission accounting (snapshot for deltas)."""

    admitted: int = 0
    queued: int = 0
    shed_queue_full: int = 0
    shed_timeout: int = 0

    def snapshot(self) -> dict:
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "shed_queue_full": self.shed_queue_full,
            "shed_timeout": self.shed_timeout,
        }


class AdmissionGate:
    """Bounded concurrency + bounded wait queue, FIFO-fair, sheds fast."""

    def __init__(self, config: ServingConfig):
        self.config = config
        self.stats = AdmissionStats()
        self._cond = threading.Condition()
        self._in_flight = 0
        self._waiting = 0

    @contextlib.contextmanager
    def admitted(self, deadline: Deadline | None = None):
        """Hold one execution slot for the ``with`` body.

        Sheds with :class:`ServingOverloadError` when the wait queue is
        full (immediately) or the slot wait exceeds ``queue_timeout_s``.
        A deadline expiring *while queued* raises its own typed error via
        ``deadline.check()`` — the query never runs.
        """
        self._acquire(deadline)
        try:
            yield self
        finally:
            self._release()

    def _acquire(self, deadline: Deadline | None) -> None:
        cfg = self.config
        with self._cond:
            if self._in_flight < cfg.max_in_flight:
                self._in_flight += 1
                self.stats.admitted += 1
                return
            if self._waiting >= cfg.max_queue:
                # the fast shed: no waiting, no lock churn beyond this
                self.stats.shed_queue_full += 1
                obs.count("serving.admission.shed")
                raise ServingOverloadError(
                    f"serving queue full ({self._in_flight} in flight, "
                    f"{self._waiting} queued); query shed"
                )
            self._waiting += 1
            self.stats.queued += 1
            obs.count("serving.admission.queued")
            budget = cfg.queue_timeout_s
            if deadline is not None:
                left = deadline.remaining()
                if left is not None:
                    budget = min(budget, left)
            try:
                got = self._cond.wait_for(
                    lambda: self._in_flight < cfg.max_in_flight, timeout=budget
                )
                if deadline is not None and (deadline.expired() or deadline.cancelled):
                    # queue expiry surfaces as the query's own timeout,
                    # not as overload — the server wasn't refusing, the
                    # query ran out of budget while waiting.  Hand the
                    # wakeup on so the slot isn't stranded with us.
                    self._cond.notify()
                    deadline.check()
                if not got:
                    self.stats.shed_timeout += 1
                    obs.count("serving.admission.shed")
                    raise ServingOverloadError(
                        f"no serving slot within {cfg.queue_timeout_s:.3f}s; "
                        f"query shed"
                    )
                self._in_flight += 1
                self.stats.admitted += 1
            finally:
                self._waiting -= 1

    def _release(self) -> None:
        with self._cond:
            self._in_flight -= 1
            self._cond.notify()

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "in_flight": self._in_flight,
                "waiting": self._waiting,
                "max_in_flight": self.config.max_in_flight,
                "max_queue": self.config.max_queue,
                **self.stats.snapshot(),
            }


# Re-entrancy guard: nested engine calls inside an already-admitted query
# (MDX member evaluation → cube.grand_total → aggregate) must not try to
# take a second slot — with max_in_flight saturated that is a deadlock of
# the query against itself.
_in_query: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_serving_in_query", default=False
)


class ServingRuntime:
    """Admission gate + breakers + deadline policy for one system.

    Attached to a :class:`~repro.olap.cube.Cube` (and re-attached across
    epoch publishes, like the result cache) so every front-end that
    executes through the cube shares one set of limits.
    """

    def __init__(self, config: ServingConfig | None = None, **overrides):
        if config is None:
            config = ServingConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ServingConfig or keyword overrides")
        self.config = config
        self.gate = AdmissionGate(config)
        policy = get_policy(config.breaker_policy)
        breaker_config = BreakerConfig(
            failure_threshold=policy.attempts,
            reset_after_s=policy.max_delay_s,
        )
        # grab-or-retune the global breakers so this runtime's policy wins
        self.breakers = {
            name: breaker(name, breaker_config)
            for name in ("lattice", "cache")
        }

    @contextlib.contextmanager
    def query_scope(
        self,
        *,
        deadline: Deadline | None = None,
        budget_s: float | None = None,
    ):
        """Admit + install a deadline around one query execution.

        Nested invocations (same thread, inside an admitted query) are
        pass-throughs: they reuse the outer slot and deadline.
        """
        if _in_query.get():
            yield None
            return
        if deadline is None:
            budget = (
                budget_s if budget_s is not None else self.config.default_deadline_s
            )
            deadline = Deadline(budget)
        token = _in_query.set(True)
        try:
            with self.gate.admitted(deadline):
                with deadline_scope(deadline):
                    # the admission wait may have consumed the whole budget
                    deadline.check()
                    yield deadline
        finally:
            _in_query.reset(token)

    def snapshot(self) -> dict:
        """JSON-ready gate + breaker state (``ingest_health()`` payload)."""
        return {
            "admission": self.gate.snapshot(),
            "breakers": {
                name: brk.snapshot() for name, brk in self.breakers.items()
            },
        }


def coerce_serving(
    serving: "ServingRuntime | ServingConfig | bool | None",
) -> ServingRuntime | None:
    """Normalise the ``SystemConfig(serving=...)`` spellings.

    ``None``/``False`` → no admission control (the PR-5 behaviour);
    ``True`` → default limits; a :class:`ServingConfig` → those limits; a
    ready :class:`ServingRuntime` passes through (shared between
    systems).
    """
    if serving is None or serving is False:
        return None
    if serving is True:
        return ServingRuntime()
    if isinstance(serving, ServingRuntime):
        return serving
    if isinstance(serving, ServingConfig):
        return ServingRuntime(serving)
    raise TypeError(
        f"serving must be a ServingRuntime, ServingConfig, bool or None, "
        f"got {type(serving).__name__}"
    )
