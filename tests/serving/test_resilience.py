"""Deadlines, circuit breakers, admission control and the degradation
ladder — unit tests for the primitives plus end-to-end ladder checks on a
live system under injected serving faults."""

from __future__ import annotations

import contextlib
import threading
import time

import pytest

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator
from repro.errors import (
    InjectedFault,
    OLAPError,
    PermanentIngestError,
    QueryCancelledError,
    QueryTimeoutError,
    ServingOverloadError,
)
from repro.serving.admission import AdmissionGate, ServingConfig, ServingRuntime
from repro.serving.resilience import (
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    active_degradations,
    breaker,
    checkpoint,
    cooperative_sleep,
    current_deadline,
    deadline_scope,
)
from repro.storage import faults
from repro.storage.faults import FaultPlan, FaultRule, SimulatedCrash
from repro.storage.retry import RetryPolicy, get_policy, register_policy


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _fingerprint(grid) -> tuple:
    return (
        tuple(sorted(grid.row_keys)),
        tuple(sorted(grid.col_keys)),
        tuple(sorted(grid.cells.items())),
    )


# --------------------------------------------------------------------------
# Deadlines
# --------------------------------------------------------------------------

class TestDeadline:
    def test_expires_with_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(1.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(QueryTimeoutError):
            deadline.check()

    def test_unbounded_deadline_never_expires(self):
        deadline = Deadline()
        assert deadline.expires_at is None
        assert deadline.remaining() is None
        deadline.check()  # no error

    def test_child_inherits_the_earliest_expiry(self):
        clock = FakeClock()
        parent = Deadline(0.5, clock=clock)
        loose_child = Deadline(10.0, parent=parent, clock=clock)
        assert loose_child.expires_at == parent.expires_at
        tight_child = Deadline(0.1, parent=parent, clock=clock)
        assert tight_child.expires_at == pytest.approx(0.1)

    def test_cancel_propagates_to_descendants(self):
        parent = Deadline()
        child = Deadline(parent=parent)
        grandchild = Deadline(parent=child)
        parent.cancel("epoch retired")
        assert grandchild.cancelled
        with pytest.raises(QueryCancelledError, match="epoch retired"):
            grandchild.check()

    def test_cancelling_a_child_leaves_the_parent_alive(self):
        parent = Deadline()
        child = Deadline(parent=parent)
        child.cancel()
        assert not parent.cancelled
        parent.check()  # still fine

    def test_check_reports_cancellation_before_expiry(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        clock.advance(1.0)
        deadline.cancel("shutting down")
        with pytest.raises(QueryCancelledError):
            deadline.check()

    def test_checkpoint_is_free_without_a_scope(self):
        assert current_deadline() is None
        checkpoint()  # no error, no deadline installed

    def test_deadline_scope_installs_and_restores(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        with deadline_scope(deadline) as installed:
            assert installed is deadline
            assert current_deadline() is deadline
            clock.advance(2.0)
            with pytest.raises(QueryTimeoutError):
                checkpoint()
        assert current_deadline() is None

    def test_cooperative_sleep_honours_the_deadline(self):
        start = time.perf_counter()
        with deadline_scope(Deadline(0.02)):
            with pytest.raises(QueryTimeoutError):
                cooperative_sleep(10.0)
        assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------------------
# Circuit breakers
# --------------------------------------------------------------------------

class TestCircuitBreaker:
    def _breaker(self, clock: FakeClock) -> CircuitBreaker:
        return CircuitBreaker(
            "dep",
            BreakerConfig(failure_threshold=3, reset_after_s=5.0),
            clock=clock,
        )

    def test_opens_after_consecutive_failures(self):
        brk = self._breaker(FakeClock())
        for _ in range(2):
            brk.record_failure()
        assert brk.state == "closed"
        brk.record_failure()
        assert brk.state == "open"
        assert not brk.allow()
        assert brk.stats.opens == 1

    def test_a_success_resets_the_failure_streak(self):
        brk = self._breaker(FakeClock())
        brk.record_failure()
        brk.record_failure()
        brk.record_success()
        brk.record_failure()
        brk.record_failure()
        assert brk.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        brk = self._breaker(clock)
        for _ in range(3):
            brk.record_failure()
        assert not brk.allow()
        clock.advance(5.0)
        assert brk.state == "half-open"
        assert brk.allow()  # the probe
        assert not brk.allow()  # everyone else keeps the degraded rung

    def test_probe_success_closes_and_failure_reopens(self):
        clock = FakeClock()
        brk = self._breaker(clock)
        for _ in range(3):
            brk.record_failure()
        clock.advance(5.0)
        assert brk.allow()
        brk.record_success()
        assert brk.state == "closed"

        for _ in range(3):
            brk.record_failure()
        clock.advance(5.0)
        assert brk.allow()
        brk.record_failure()
        assert brk.state == "open"
        assert brk.stats.opens == 3

    def test_registry_returns_one_instance_and_retunes(self):
        first = breaker("shared-dep")
        again = breaker("shared-dep")
        assert first is again
        tuned = breaker("shared-dep", BreakerConfig(failure_threshold=7))
        assert tuned is first
        assert first.config.failure_threshold == 7

    def test_active_degradations_names_the_rung(self):
        brk = breaker("lattice")
        for _ in range(brk.config.failure_threshold):
            brk.record_failure()
        assert active_degradations() == {"lattice": "base-scan"}

    def test_snapshot_shape(self):
        snap = breaker("cache").snapshot()
        assert snap["state"] == "closed"
        assert snap["degrades_to"] == "recompute"
        for key in ("successes", "failures", "rejections", "opens"):
            assert snap[key] == 0


# --------------------------------------------------------------------------
# Retry-policy registry (shared by ingest and serving breakers)
# --------------------------------------------------------------------------

class TestPolicyRegistry:
    def test_named_defaults_exist(self):
        assert get_policy("ingest.default").attempts >= 1
        serving = get_policy("serving.breaker")
        assert serving.attempts >= 1
        assert serving.max_delay_s > 0

    def test_unknown_policy_is_a_permanent_error(self):
        with pytest.raises(PermanentIngestError, match="unknown retry policy"):
            get_policy("no.such.policy")

    def test_register_policy_round_trips(self):
        policy = RetryPolicy(attempts=9)
        register_policy("test.custom", policy)
        assert get_policy("test.custom") is policy

    def test_breaker_thresholds_come_from_the_policy(self):
        runtime = ServingRuntime(ServingConfig())
        policy = get_policy("serving.breaker")
        for brk in runtime.breakers.values():
            assert brk.config.failure_threshold == policy.attempts
            assert brk.config.reset_after_s == policy.max_delay_s


# --------------------------------------------------------------------------
# Admission gate + runtime
# --------------------------------------------------------------------------

@contextlib.contextmanager
def _held_slots(gate: AdmissionGate, count: int):
    """Hold ``count`` admission slots from background threads."""
    entered = threading.Semaphore(0)
    release = threading.Event()

    def hold() -> None:
        with gate.admitted(None):
            entered.release()
            release.wait(timeout=10.0)

    threads = [threading.Thread(target=hold, daemon=True) for _ in range(count)]
    for t in threads:
        t.start()
    for _ in range(count):
        assert entered.acquire(timeout=5.0)
    try:
        yield
    finally:
        release.set()
        for t in threads:
            t.join(timeout=10.0)


def _queued(gate: AdmissionGate, count: int):
    """Park ``count`` waiters in the gate's queue (they will time out)."""
    started = []
    for _ in range(count):
        t = threading.Thread(target=_swallow, args=(gate,), daemon=True)
        t.start()
        started.append(t)
    deadline = time.monotonic() + 5.0
    while gate.snapshot()["waiting"] < count:
        assert time.monotonic() < deadline, "queue failed to fill"
        time.sleep(0.001)
    return started


def _swallow(gate: AdmissionGate) -> None:
    with contextlib.suppress(ServingOverloadError, QueryTimeoutError):
        with gate.admitted(None):
            pass


class TestAdmission:
    def test_admits_up_to_capacity_then_queues(self):
        gate = AdmissionGate(ServingConfig(max_in_flight=2, max_queue=2))
        with _held_slots(gate, 2):
            snap = gate.snapshot()
            assert snap["in_flight"] == 2
            assert snap["admitted"] == 2

    def test_queue_full_sheds_immediately_with_typed_error(self):
        gate = AdmissionGate(
            ServingConfig(max_in_flight=1, max_queue=1, queue_timeout_s=5.0)
        )
        with _held_slots(gate, 1):
            _queued(gate, 1)
            start = time.perf_counter()
            with pytest.raises(ServingOverloadError, match="queue full"):
                with gate.admitted(None):
                    pass
            assert time.perf_counter() - start < 0.05
            assert gate.stats.shed_queue_full == 1

    def test_queue_wait_timeout_sheds(self):
        gate = AdmissionGate(
            ServingConfig(max_in_flight=1, max_queue=4, queue_timeout_s=0.05)
        )
        with _held_slots(gate, 1):
            with pytest.raises(ServingOverloadError, match="no serving slot"):
                with gate.admitted(None):
                    pass
            assert gate.stats.shed_timeout == 1

    def test_deadline_expiry_in_queue_is_a_timeout_not_overload(self):
        gate = AdmissionGate(
            ServingConfig(max_in_flight=1, max_queue=4, queue_timeout_s=5.0)
        )
        with _held_slots(gate, 1):
            with pytest.raises(QueryTimeoutError):
                with gate.admitted(Deadline(0.02)):
                    pass
        # the slot freed by the holder is not stranded: a fresh query runs
        with gate.admitted(None):
            assert gate.snapshot()["in_flight"] == 1

    def test_slot_released_on_exception(self):
        gate = AdmissionGate(ServingConfig(max_in_flight=1, max_queue=1))
        with pytest.raises(RuntimeError):
            with gate.admitted(None):
                raise RuntimeError("query failed")
        assert gate.snapshot()["in_flight"] == 0

    def test_query_scope_is_reentrant(self):
        runtime = ServingRuntime(ServingConfig(max_in_flight=1, max_queue=1))
        with runtime.query_scope() as outer:
            assert outer is current_deadline()
            # a nested aggregate (MDX member -> grand_total) reuses the
            # outer slot instead of deadlocking against itself
            with runtime.query_scope() as inner:
                assert inner is None
                assert current_deadline() is outer
        assert runtime.gate.snapshot()["admitted"] == 1

    def test_query_scope_applies_the_default_deadline(self):
        runtime = ServingRuntime(
            ServingConfig(default_deadline_s=0.02, queue_timeout_s=0.5)
        )
        with runtime.query_scope() as deadline:
            assert deadline.remaining() is not None
            time.sleep(0.03)
            with pytest.raises(QueryTimeoutError):
                checkpoint()

    def test_runtime_snapshot_shape(self):
        runtime = ServingRuntime(ServingConfig())
        snap = runtime.snapshot()
        assert set(snap) == {"admission", "breakers"}
        assert set(snap["breakers"]) == {"lattice", "cache"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(max_in_flight=0)
        with pytest.raises(ValueError):
            ServingConfig(max_queue=-1)
        with pytest.raises(ValueError):
            ServingConfig(queue_timeout_s=0)


# --------------------------------------------------------------------------
# The degradation ladder, end to end
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def system() -> DDDGMS:
    cohort = DiScRiGenerator(n_patients=60, seed=7).generate()
    built = DDDGMS(cohort)
    built.materialize_lattice()
    return built


def _fig4(system: DDDGMS):
    return (
        system.query().rows("age_band").columns("gender")
        .count_records("attendances")
        .where("personal.family_history_diabetes", "yes").execute()
    )


class TestDegradationLadder:
    def test_cache_faults_degrade_to_recompute(self, system):
        expected = _fingerprint(_fig4(system))
        system.attach_result_cache(True)
        try:
            plan = FaultPlan([FaultRule("serving.cache", mode="error", nth=0)])
            with faults.injected(plan):
                for _ in range(5):
                    assert _fingerprint(_fig4(system)) == expected
            cache_brk = breaker("cache")
            assert cache_brk.state == "open"
            assert active_degradations()["cache"] == "recompute"
            assert system.ingest_health()["degradations"] == {
                "cache": "recompute"
            }
        finally:
            system.attach_result_cache(None)

    def test_lattice_fault_falls_back_to_base_scan(self, system):
        expected = _fingerprint(_fig4(system))
        # hit 1 = the lattice lookup; hit 2 = the base scan, which succeeds
        plan = FaultPlan([FaultRule("serving.scan", mode="error", nth=1)])
        with faults.injected(plan):
            assert _fingerprint(_fig4(system)) == expected
            assert plan.hits("serving.scan") == 2
        assert breaker("lattice").stats.failures == 1

    def test_base_scan_fault_is_the_querys_own_error(self, system):
        # with the bottom rung broken there is nothing left to degrade to:
        # the typed injected error reaches the caller, never a wrong answer
        plan = FaultPlan([FaultRule("serving.scan", mode="error", nth=0)])
        with faults.injected(plan):
            with pytest.raises(InjectedFault):
                _fig4(system)

    def test_stalled_scan_times_out_within_the_budget(self, system):
        plan = FaultPlan([FaultRule("serving.scan", mode="stall", nth=0)])
        start = time.perf_counter()
        with faults.injected(plan):
            with pytest.raises(QueryTimeoutError):
                (system.query().rows("age_band").columns("gender")
                 .count_records("attendances").within(0.05).execute())
        assert time.perf_counter() - start < 1.0

    def test_half_open_lattice_probe_is_released_by_a_query_fault(self, system):
        # regression: the lattice rung re-raised OLAPError without telling
        # the breaker, so the half-open probe stayed "in flight" forever
        # and every later query was rejected onto the base scan
        brk = breaker(
            "lattice", BreakerConfig(failure_threshold=1, reset_after_s=0.0)
        )
        brk.record_failure()
        assert brk.state == "half-open"
        levels = ["conditions.age_band", "personal.gender"]
        with pytest.raises(OLAPError):
            system.cube.aggregate(levels, {"m": ("fbg", "median")})
        stats = system.cube.lattice.stats
        hits = stats.exact_hits + stats.rollup_hits
        for _ in range(5):
            system.cube.aggregate(levels)
        assert stats.exact_hits + stats.rollup_hits == hits + 5
        assert brk.stats.rejections == 0
        assert brk.state == "closed"

    def test_half_open_cache_probe_is_released_by_a_simulated_crash(self, system):
        # in-process chaos harnesses catch SimulatedCrash and carry on; the
        # crash says nothing about the cache, so the probe slot must free
        cache = system.attach_result_cache(True)
        try:
            brk = breaker(
                "cache", BreakerConfig(failure_threshold=1, reset_after_s=0.0)
            )
            brk.record_failure()
            plan = FaultPlan([FaultRule("serving.cache", mode="kill", nth=1)])
            with faults.injected(plan):
                with pytest.raises(SimulatedCrash):
                    _fig4(system)
                expected = _fingerprint(_fig4(system))
                assert _fingerprint(_fig4(system)) == expected
            assert brk.stats.rejections == 0
            assert brk.state == "closed"
            assert cache.stats.hits >= 1
        finally:
            system.attach_result_cache(None)

    def test_explain_reports_active_degradations(self, system):
        cache_brk = breaker("cache")
        for _ in range(cache_brk.config.failure_threshold):
            cache_brk.record_failure()
        report = (
            system.query().rows("age_band").columns("gender")
            .count_records("attendances").explain()
        )
        assert report.plan.attrs["degraded"] == "cache"

    def test_health_reports_serving_snapshot(self, system):
        runtime = system.attach_serving(True)
        try:
            _fig4(system)
            health = system.ingest_health()
            assert health["serving"]["admission"]["admitted"] >= 1
            assert set(health["serving"]["breakers"]) == {"lattice", "cache"}
            assert runtime is system.serving
        finally:
            system.attach_serving(None)
        assert system.ingest_health()["serving"] is None

    def test_overload_sheds_through_the_query_path(self, system):
        system.attach_serving(
            ServingConfig(max_in_flight=1, max_queue=1, queue_timeout_s=5.0)
        )
        try:
            gate = system.serving.gate
            with _held_slots(gate, 1):
                _queued(gate, 1)
                with pytest.raises(ServingOverloadError):
                    _fig4(system)
        finally:
            system.attach_serving(None)
