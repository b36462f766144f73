"""Assembly of the Fig 3 DiScRi warehouse from the generated cohort.

Runs the clinical ETL pipeline (clean → discretise → cardinality) and
loads the result into the paper's dimensional model: Personal Information,
Medical Condition, Fasting Bloods, Limb Health, Exercise Routine, Blood
Pressure, ECG and Cardinality dimensions around a Medical Measures fact
table.  The age drill hierarchy (Table I bands → 10-year → 5-year) powers
the Fig 5/6 drill-downs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.discri.schemes import (
    AGE_BAND_5_SCHEME,
    AGE_BAND_10_SCHEME,
    AGE_SCHEME,
    BMI_SCHEME,
    CHOLESTEROL_SCHEME,
    FBG_SCHEME,
    HT_YEARS_SCHEME,
    LYING_DBP_SCHEME,
)
from repro.etl.cleaning import MissingValuePolicy, RangeRule
from repro.etl.incremental import EtlDeltaState, capture_etl_state
from repro.etl.pipeline import (
    CardinalityStep,
    CleaningStep,
    DeduplicateStep,
    DeriveStep,
    DiscretizationStep,
    Pipeline,
    PipelineResult,
)
from repro.tabular.table import Table
from repro.warehouse.attribute import Hierarchy
from repro.warehouse.dimension import Dimension
from repro.warehouse.dynamic import DynamicWarehouse
from repro.warehouse.fact import Measure
from repro.warehouse.loader import DimensionSpec, WarehouseLoader


def _reflex_knees_ankles(row: dict) -> str:
    """The §II predictor: absent reflexes in the knees *and* the ankles."""
    knee_absent = "absent" in (
        row.get("reflex_knee_left"), row.get("reflex_knee_right")
    )
    ankle_absent = "absent" in (
        row.get("reflex_ankle_left"), row.get("reflex_ankle_right")
    )
    return "absent" if (knee_absent and ankle_absent) else "present"


def _ewing_risk(row: dict) -> str | None:
    """Ewing-battery CAN risk category from the abnormal-test share."""
    score = row.get("ewing_score")
    if score is None:
        return None
    if score < 0.2:
        return "normal"
    if score < 0.5:
        return "early"
    return "definite"


def discri_pipeline() -> Pipeline:
    """The trial's transformation pipeline (paper §V.A)."""
    return Pipeline(
        [
            DeduplicateStep("patient_id", "visit_date"),
            CleaningStep(
                missing={
                    "fbg": MissingValuePolicy.MEDIAN,
                    "lying_dbp_avg": MissingValuePolicy.MEDIAN,
                    "lying_sbp_avg": MissingValuePolicy.MEDIAN,
                    "bmi": MissingValuePolicy.MEDIAN,
                },
                range_rules=[
                    RangeRule("fbg", low=2.0, high=30.0),
                    RangeRule("lying_sbp_avg", low=70, high=250, action="clip"),
                    RangeRule("lying_dbp_avg", low=35, high=140, action="clip"),
                    RangeRule("bmi", low=12, high=70),
                    RangeRule("chol_total", low=1.5, high=15.0),
                ],
            ),
            DiscretizationStep("age", AGE_SCHEME, output="age_band"),
            DiscretizationStep("age", AGE_BAND_10_SCHEME, output="age_band10"),
            DiscretizationStep("age", AGE_BAND_5_SCHEME, output="age_band5"),
            DiscretizationStep("fbg", FBG_SCHEME, output="fbg_band"),
            DiscretizationStep(
                "diagnostic_ht_years", HT_YEARS_SCHEME, output="ht_years_band"
            ),
            DiscretizationStep(
                "lying_dbp_avg", LYING_DBP_SCHEME, output="dbp_band"
            ),
            DiscretizationStep("bmi", BMI_SCHEME, output="bmi_band"),
            DiscretizationStep(
                "chol_total", CHOLESTEROL_SCHEME, output="chol_band"
            ),
            DeriveStep(
                "reflex_knees_ankles",
                _reflex_knees_ankles,
                dtype="str",
                description="combined knee+ankle reflex absence (§II predictor)",
            ),
            DeriveStep(
                "ewing_risk", _ewing_risk, dtype="str",
                description="Ewing battery CAN risk category",
            ),
            DeriveStep(
                "visit_year",
                lambda row: row["visit_date"].year,
                dtype="int",
                description="calendar year of attendance",
            ),
            CardinalityStep("patient_id", "visit_date", output="visit_number"),
        ]
    )


def _dimensions() -> list[DimensionSpec]:
    personal = Dimension(
        "personal",
        {
            "gender": "str",
            "family_history_diabetes": "str",
            "education_level": "str",
            "smoking_status": "str",
        },
    )
    medical = Dimension(
        "conditions",
        {
            "diabetes_status": "str",
            "develops_diabetes": "str",
            "age_band": "str",
            "age_band10": "str",
            "age_band5": "str",
            "hypertension": "str",
            "ht_years_band": "str",
            "can_status": "str",
            "arthritis": "str",
        },
        hierarchies=[
            Hierarchy("age_drill", ["age_band", "age_band10", "age_band5"])
        ],
    )
    bloods = Dimension(
        "bloods",
        {"fbg_band": "str", "chol_band": "str", "bmi_band": "str"},
    )
    limbs = Dimension(
        "limbs",
        {
            "reflex_knees_ankles": "str",
            "reflex_knee_left": "str",
            "reflex_ankle_left": "str",
            "monofilament_left": "str",
        },
    )
    exercise = Dimension(
        "exercise",
        {"exercise_frequency": "str", "exercise_intensity": "str"},
    )
    pressure = Dimension(
        "pressure",
        {"dbp_band": "str", "bp_medication": "str"},
    )
    ecg = Dimension(
        "ecg",
        {"ewing_risk": "str", "af_present": "str"},
    )
    cardinality = Dimension(
        "cardinality",
        {"patient_id": "int", "visit_number": "int", "visit_year": "int"},
    )
    return [
        DimensionSpec(personal),
        DimensionSpec(medical),
        DimensionSpec(bloods),
        DimensionSpec(limbs),
        DimensionSpec(exercise),
        DimensionSpec(pressure),
        DimensionSpec(ecg),
        DimensionSpec(cardinality),
    ]


def _measures() -> list[Measure]:
    return [
        Measure.of("fbg", "float", "mean"),
        Measure.of("hba1c", "float", "mean"),
        Measure.of("bmi", "float", "mean"),
        Measure.of("lying_sbp_avg", "float", "mean"),
        Measure.of("lying_dbp_avg", "float", "mean"),
        Measure.of("sdnn", "float", "mean"),
        Measure.of("ewing_score", "float", "mean"),
        Measure.of("medication_count", "float", "mean"),
    ]


@dataclass
class DiscriWarehouse:
    """The built warehouse plus the ETL audit and the transformed table."""

    warehouse: DynamicWarehouse
    etl_result: PipelineResult
    #: positions (in the *source* batch) of rows that reached the fact table
    kept_indices: list[int]

    #: source rows diverted to quarantine across ETL + load
    rows_quarantined: int = 0

    #: the loader that built the star schema — retained so delta ingests
    #: can append facts to the same dimensions instead of rebuilding
    loader: WarehouseLoader | None = None

    #: cross-batch ETL state for incremental maintenance (None when the
    #: pipeline shape is ineligible; see :mod:`repro.etl.incremental`)
    delta_state: "EtlDeltaState | None" = None

    #: why no delta state was captured (None when ``delta_state`` is set)
    delta_reason: str | None = None

    @property
    def transformed(self) -> Table:
        """The post-ETL visit table (wide, with bands and cardinality)."""
        return self.etl_result.table


def build_discri_warehouse(
    source: Table,
    *,
    quarantine=None,
    batch: str = "",
) -> DiscriWarehouse:
    """ETL the cohort table and load the Fig 3 star schema.

    With a quarantine sink, malformed source rows divert to it (tagged
    with ``batch``) at whichever step rejects them — ETL transforms or
    star-schema load — and the build carries on with the valid rows; the
    returned :class:`DiscriWarehouse` then reports which source positions
    actually landed in the fact table, with the transformed table pruned
    to match.
    """
    pipeline = discri_pipeline()
    result = pipeline.run(source, quarantine=quarantine, batch=batch)
    # Capture the cross-batch ETL state *before* load pruning: cardinality
    # ordinals are assigned to every post-ETL row whether or not it later
    # survives the load, and dedup/fill statistics see the raw source.
    delta_state, delta_reason = capture_etl_state(pipeline, source, result.table)
    loader = WarehouseLoader(
        "discri", "medical_measures", _dimensions(), _measures()
    )
    report = loader.load(
        result.table,
        quarantine=quarantine,
        batch=batch,
        source_indices=result.kept_indices,
    )
    kept = result.kept_indices
    if report.quarantined_indices:
        dropped = set(report.quarantined_indices)
        survivors = [
            i for i in range(result.table.num_rows) if i not in dropped
        ]
        result.table = result.table.take(survivors)
        kept = [kept[i] for i in survivors]
    problems = loader.schema.check_integrity()
    if problems:  # pragma: no cover - loader guarantees integrity
        raise AssertionError(f"integrity violations after load: {problems[:3]}")
    return DiscriWarehouse(
        DynamicWarehouse(loader.schema),
        result,
        kept,
        rows_quarantined=len(result.quarantined) + report.rows_quarantined,
        loader=loader,
        delta_state=delta_state,
        delta_reason=delta_reason,
    )
