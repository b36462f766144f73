"""Shared fixtures: one small deterministic cohort per test session.

The cohort, warehouse and cube are expensive to build, so they are
session-scoped; tests must treat them as read-only (tests that mutate the
warehouse build their own via the factory fixtures).
"""

from __future__ import annotations

import pytest

from repro.discri.generator import DiScRiGenerator
from repro.discri.warehouse import DiscriWarehouse, build_discri_warehouse
from repro.olap.cube import Cube
from repro.tabular.table import Table

COHORT_SEED = 1234
COHORT_PATIENTS = 250


@pytest.fixture(autouse=True)
def _faults_from_env():
    """Arm the ``REPRO_FAULTS`` plan, with fresh hit counters, per test.

    Unset (the normal case) this is a no-op.  CI's fault-injection job
    exports a profile so every suite runs with the durability
    instrumentation armed; tests that need specific faults install their
    own plan via ``faults.injected``, which takes precedence.
    """
    from repro.storage import faults

    plan = faults.plan_from_env()
    if plan is None:
        yield
        return
    faults.install(plan)
    try:
        yield
    finally:
        faults.uninstall()


@pytest.fixture(autouse=True)
def _fresh_breakers():
    """Reset the process-global circuit breakers around every test.

    Breakers are deliberately process-wide (one lattice, one cache), so a
    test that trips one must not leak an open breaker — and its
    degraded rung — into the next test.
    """
    from repro.serving.resilience import reset_breakers

    reset_breakers()
    yield
    reset_breakers()


@pytest.fixture(scope="session", autouse=True)
def _obs_from_env():
    """Honour ``REPRO_OBS`` for the whole suite.

    CI runs tier-1 once with ``REPRO_OBS=console`` so a crash that only
    happens on the instrumentation path (a span attribute referencing a
    renamed variable, say) fails the build; unset, this is a no-op.
    """
    from repro import obs

    obs.configure_from_env()
    yield
    obs.disable()


@pytest.fixture(scope="session")
def cohort() -> Table:
    """A small deterministic DiScRi cohort (read-only)."""
    return DiScRiGenerator(n_patients=COHORT_PATIENTS, seed=COHORT_SEED).generate()


@pytest.fixture(scope="session")
def built(cohort) -> DiscriWarehouse:
    """The cohort's warehouse build (read-only)."""
    return build_discri_warehouse(cohort)


@pytest.fixture(scope="session")
def cube(built) -> Cube:
    """A cube over the session warehouse (read-only)."""
    return Cube(built.warehouse)


@pytest.fixture()
def fresh_built() -> DiscriWarehouse:
    """A private warehouse build for tests that mutate dimensions."""
    table = DiScRiGenerator(n_patients=80, seed=99).generate()
    return build_discri_warehouse(table)


@pytest.fixture()
def tiny_table() -> Table:
    """A tiny mixed-type table reused across tabular tests."""
    return Table.from_rows(
        [
            {"pid": 1, "sex": "F", "age": 61, "fbg": 7.2},
            {"pid": 2, "sex": "M", "age": 45, "fbg": 5.1},
            {"pid": 3, "sex": "F", "age": 72, "fbg": None},
            {"pid": 4, "sex": None, "age": 58, "fbg": 6.3},
        ]
    )
