"""Seeded inputs: cohort, follow-up batches, distinct queries and the stream.

Everything here is a pure function of ``(workload, seed)``.  The system
under test never sees the seed — it receives the generated tables and the
query specifications only.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import permutations

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.tabular.table import Table

from benchmarks.e2e.workloads import Workload

#: the generator averages ~2.8 visits per patient; asking for one patient
#: per 2.2 wanted rows always leaves enough rows to cut to the exact count
_ROWS_PER_PATIENT = 2.2


@dataclass(frozen=True)
class QuerySpec:
    """One clinician query as data: a builder chain or an MDX text."""

    qid: int
    #: the latency class the query belongs to when nothing caches it
    kind: str
    rows: tuple[str, ...] = ()
    columns: tuple[str, ...] = ()
    #: ``(target, aggregation)``; ``None`` counts fact rows
    measure: tuple[str, str] | None = None
    filters: tuple[tuple[str, tuple], ...] = ()
    mdx: str | None = None


@dataclass(frozen=True)
class Inputs:
    cohort: Table
    batches: tuple[Table, ...]
    queries: tuple[QuerySpec, ...]
    #: indices into ``queries``, replayed unchanged by every warm pass
    stream: tuple[int, ...]

    def fingerprint(self) -> str:
        """Digest of the generated inputs (the smoke test compares seeds)."""
        h = hashlib.sha256()
        for table in (self.cohort, *self.batches):
            for name in ("patient_id", "visit_id", "fbg"):
                h.update(repr(table.column(name).to_list()).encode())
        h.update(repr(self.queries).encode())
        h.update(repr(self.stream).encode())
        return h.hexdigest()[:16]


def _exact_rows(rows: int, seed: int) -> Table:
    patients = int(rows / _ROWS_PER_PATIENT) + 2
    table = DiScRiGenerator(n_patients=patients, seed=seed).generate()
    if table.num_rows < rows:  # pragma: no cover - guarded by the ratio
        raise ValueError(f"generator produced {table.num_rows} < {rows} rows")
    return table.head(rows)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    cohort = _exact_rows(workload.cohort_rows, seed)
    batches = []
    patient_offset = max(cohort.column("patient_id").to_list())
    visit_offset = max(cohort.column("visit_id").to_list())
    for index in range(workload.batches):
        batch = offset_identifiers(
            _exact_rows(workload.batch_rows, seed + 1000 + index),
            patient_offset,
            visit_offset,
        )
        patient_offset = max(batch.column("patient_id").to_list())
        visit_offset = max(batch.column("visit_id").to_list())
        batches.append(batch)
    rng = random.Random(seed * 7919 + 17)
    queries = make_queries(workload, rng, cohort)
    return Inputs(cohort, tuple(batches), queries, make_stream(workload, rng))


# ---------------------------------------------------------------------------
# Query families
# ---------------------------------------------------------------------------

_AGE_LEVELS = ("age_band", "age_band10", "age_band5")

#: (rows-level placeholder is the age level) column level, measure, the
#: filtered level, and the MDX spelling of that measure for the slicer
_FIGURES = (
    ("personal.gender", None, "personal.family_history_diabetes", None),
    (
        "personal.gender",
        ("cardinality.patient_id", "nunique"),
        "conditions.diabetes_status",
        "DISTINCTCOUNT([cardinality].[patient_id])",
    ),
    ("conditions.ht_years_band", None, "conditions.hypertension", None),
)


def _bracket(level: str) -> str:
    dimension, attribute = level.split(".")
    return f"[{dimension}].[{attribute}]"


def _paper_queries(rng: random.Random) -> list[QuerySpec]:
    """Fig 4/5/6 builder queries, their MDX texts, age-band drill-downs."""
    builders: list[QuerySpec] = []
    mdx: list[QuerySpec] = []
    for column, measure, filtered, mdx_measure in _FIGURES:
        for age in _AGE_LEVELS:
            rows = f"conditions.{age}"
            for value in ("yes", "no"):
                builders.append(QuerySpec(
                    0, "builder", (rows,), (column,), measure,
                    ((filtered, (value,)),),
                ))
                slicer = f"{_bracket(filtered)}.[{value}]"
                if mdx_measure:
                    slicer = f"({slicer}, {mdx_measure})"
                mdx.append(QuerySpec(0, "mdx", mdx=(
                    f"SELECT {_bracket(column)}.MEMBERS ON COLUMNS, "
                    f"{_bracket(rows)}.MEMBERS ON ROWS FROM discri "
                    f"WHERE {slicer}"
                )))
    for age in _AGE_LEVELS:
        # the unfiltered denominators of the Fig 5 rate computation, and
        # the mean-FBG grid of the scalability bench
        builders.append(QuerySpec(
            0, "builder", (f"conditions.{age}",), ("personal.gender",),
            ("cardinality.patient_id", "nunique"),
        ))
        builders.append(QuerySpec(
            0, "builder", (f"conditions.{age}",), ("personal.gender",),
            ("fbg", "mean"), (("conditions.diabetes_status", ("yes",)),),
        ))
    builders.append(QuerySpec(
        0, "builder", ("bloods.fbg_band",), ("conditions.age_band10",),
        None, (("personal.gender", ("F",)),),
    ))
    builders.append(QuerySpec(
        0, "builder", ("bloods.fbg_band",), ("conditions.age_band10",),
        None, (("personal.gender", ("M",)),),
    ))
    rng.shuffle(mdx)
    # 26 builder + 14 MDX: the median lands inside the builder mode and
    # the 95th percentile inside the MDX mode, neither on the boundary
    return builders + mdx[:14]


#: low-cardinality levels crossed into grids by the synthetic families
_PAIR_LEVELS = (
    "conditions.age_band", "conditions.age_band10", "personal.gender",
    "personal.family_history_diabetes", "conditions.diabetes_status",
    "conditions.ht_years_band", "conditions.hypertension",
    "bloods.fbg_band", "bloods.bmi_band", "pressure.dbp_band",
    "exercise.exercise_frequency", "ecg.ewing_risk",
)
_PAIR_MEASURES = (
    None, ("fbg", "mean"), ("bmi", "mean"), ("lying_sbp_avg", "max"),
    ("hba1c", "min"), ("cardinality.patient_id", "nunique"),
)
_VALUE_FILTERS = (
    ("conditions.diabetes_status", ("yes",)),
    ("conditions.hypertension", ("yes",)),
    ("personal.family_history_diabetes", ("yes",)),
    ("personal.gender", ("F",)),
)


def _grids(rng: random.Random) -> list[tuple]:
    grids = [
        (rows, columns, measure)
        for rows, columns in permutations(_PAIR_LEVELS, 2)
        for measure in _PAIR_MEASURES
    ]
    rng.shuffle(grids)
    return grids


#: out of every 20 queries of the pair family: 5 a lattice node can
#: answer, 2 unfiltered scans, 13 filtered scans.  Fixed shares keep the
#: slowest mode (filtered scans) at 65%, so neither the median of a cold
#: sweep nor the 95th percentile of a cache-missing stream sits on a mode
#: boundary, whatever the seed.
_COVERED_OF_20 = 5
_UNFILTERED_OF_20 = 2


def _covered_grids(rng: random.Random) -> list[tuple]:
    """Grids the default lattice answers: levels, measure and filter all
    inside one materialised node, aggregation decomposable."""
    grids = []
    for group in DDDGMS.DEFAULT_LATTICE_GROUPS:
        for rows, columns in permutations(group, 2):
            (spare,) = set(group) - {rows, columns}
            inside = [f for f in _VALUE_FILTERS if f[0] == spare]
            for measure in _PAIR_MEASURES:
                if measure is not None and measure[1] == "nunique":
                    continue
                for filters in [(), *((f,) for f in inside)]:
                    grids.append((rows, columns, measure, filters))
    rng.shuffle(grids)
    return grids


def _pair_queries(rng: random.Random, count: int) -> list[QuerySpec]:
    """Level-pair x measure x filter grids in fixed shares of each mode."""
    covered = iter(_covered_grids(rng))
    scans = (
        (rows, columns, measure) for rows, columns, measure in _grids(rng)
        # no node holds both levels, so whatever the filter these scan
        if not any(
            {rows, columns} <= set(group)
            for group in DDDGMS.DEFAULT_LATTICE_GROUPS
        )
    )
    out = []
    for index in range(count):
        slot = index % 20
        if slot < _COVERED_OF_20:
            rows, columns, measure, filters = next(covered)
        else:
            rows, columns, measure = next(scans)
            filters = (
                () if slot < _COVERED_OF_20 + _UNFILTERED_OF_20
                else (rng.choice(_VALUE_FILTERS),)
            )
        out.append(QuerySpec(0, "scan", (rows,), (columns,), measure, filters))
    return out


def _filtered_queries(
    rng: random.Random, count: int, cohort: Table
) -> list[QuerySpec]:
    """50% year-band filters, 30% value filters, 20% unfiltered."""
    years = sorted({d.year for d in cohort.column("visit_date").to_list() if d})
    out = []
    for index, (rows, columns, measure) in enumerate(_grids(rng)[:count]):
        slot = index % 10
        if slot < 5:
            width = rng.randint(1, 3)
            start = rng.randrange(len(years) - width + 1)
            span = tuple(years[start:start + width])
            out.append(QuerySpec(
                0, "band", (rows,), (columns,), measure,
                (("cardinality.visit_year", span),),
            ))
        elif slot < 8:
            out.append(QuerySpec(
                0, "value", (rows,), (columns,), measure,
                (rng.choice(_VALUE_FILTERS),),
            ))
        else:
            out.append(QuerySpec(0, "unfiltered", (rows,), (columns,), measure))
    return out


def make_queries(
    workload: Workload, rng: random.Random, cohort: Table
) -> tuple[QuerySpec, ...]:
    if workload.family == "paper":
        queries = _paper_queries(rng)
        rng.shuffle(queries)
        queries = queries[:workload.distinct]
    elif workload.family == "pairs":
        queries = _pair_queries(rng, workload.distinct)
    elif workload.family == "filtered":
        queries = _filtered_queries(rng, workload.distinct, cohort)
    else:
        raise ValueError(f"unknown query family {workload.family!r}")
    rng.shuffle(queries)
    return tuple(
        QuerySpec(qid, q.kind, q.rows, q.columns, q.measure, q.filters, q.mdx)
        for qid, q in enumerate(queries)
    )


def make_stream(workload: Workload, rng: random.Random) -> tuple[int, ...]:
    n = workload.distinct
    if workload.zipf is not None:
        # each rank gets its expected number of draws (largest remainders
        # make up the total) and only the order is random, so the share of
        # popular queries — hence the cache hit ratio — is the same for
        # every seed
        weights = [1.0 / (rank + 1) ** workload.zipf for rank in range(n)]
        scale = workload.stream / sum(weights)
        quota = [int(w * scale) for w in weights]
        by_remainder = sorted(
            range(n), key=lambda r: weights[r] * scale - quota[r], reverse=True
        )
        for rank in by_remainder[:workload.stream - sum(quota)]:
            quota[rank] += 1
        draws = [rank for rank in range(n) for _ in range(quota[rank])]
        rng.shuffle(draws)
        return tuple(draws)
    stream: list[int] = []
    while len(stream) < workload.stream:
        lap = list(range(n))
        rng.shuffle(lap)
        stream.extend(lap)
    return tuple(stream[:workload.stream])
