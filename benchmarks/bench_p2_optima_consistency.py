"""P2 — optimal aggregates stay consistent under dimension changes.

Paper §IV (Decision Optimisation): "outcomes can be reviewed by removing
existing or adding further dimensions.  Optimal aggregates would be
consistent regardless of the changes to dimensions."  This bench finds
the worst mean-FBG cell over (age band, gender), perturbs the dimensional
model (remove exercise/ECG, add a synthetic outcome dimension) and checks
the optimum never moves.
"""

from repro.optimize.consistency import check_dimension_consistency
from repro.warehouse.feedback import outcome_dimension


def test_p2_consistency_under_dimension_changes(benchmark, emit, built):
    # the check only reads the warehouse, so the shared `built` fixture serves
    extra = outcome_dimension("synthetic_outcome", ["improved", "stable", "worse"])

    def check():
        return check_dimension_consistency(
            built.warehouse,
            ["conditions.age_band", "personal.gender"],
            "fbg",
            aggregation="mean",
            direction="max",
            min_records=10,
            removable=["exercise", "ecg", "pressure"],
            addable=[(extra, None)],
        )

    report = benchmark(check)
    emit("p2_optima_consistency", report.summary())
    assert report.consistent
    assert len(report.perturbations) == 4
