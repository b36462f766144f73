"""``ingest_health()["planner"]`` is the planner's own snapshot."""

from __future__ import annotations

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator


def test_ingest_health_reports_the_planner_snapshot():
    system = DDDGMS(DiScRiGenerator(n_patients=30, seed=5).generate())
    system.materialize_lattice()
    system.cube.aggregate(["conditions.age_band", "personal.gender"])
    system.cube.aggregate(
        ["personal.gender"],
        {"patients": ("cardinality.patient_id", "nunique")},
    )

    planner_health = system.ingest_health()["planner"]
    assert planner_health == system.planner.snapshot()
    # the covered roll-up was routed to a node; the distinct count had
    # no covering node, so it scanned and is counted as a lattice fallback
    assert planner_health == {"routes_chosen": {"node": 1}}
    assert system.cube.lattice.stats.fallbacks == 1
