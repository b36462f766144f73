"""``ingest_health()["planner"]`` is the attached planner's own snapshot."""

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
    assert set(planner_health) == {
        "active", "cost_model", "workload", "routes_chosen",
    }
    calibrations = planner_health["workload"]["calibrations"]
    assert set(calibrations) == {"node", "base"}
    assert calibrations["node"]["samples"] == 1  # the covered roll-up
    assert calibrations["base"]["samples"] == 1  # distinct counts scan
    assert planner_health["routes_chosen"] == {"node:cold_stats": 1}

    system.attach_planner(None)
    assert system.ingest_health()["planner"] is None
