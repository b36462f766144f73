"""Property: loaded rows + quarantined rows exactly partition a dirty batch.

For any input batch — arbitrary mixes of clean rows, out-of-scheme values,
null dates and null patient keys — a resilient pipeline run must account
for every input row exactly once: either it survives into the output table
(its input position in ``kept_indices``) or it is quarantined (its input
position in exactly one entry's ``source_index``).  No loss, no
duplication, and the surviving rows are byte-identical to the strict run
over just the clean subset.

Property: strict ≡ resilient.  There is one pipeline; a run without a sink
is the same run with nowhere to divert.  So it raises exactly when the
run with a sink quarantines something, what it raises is the first
quarantine entry's error, and when nothing is rejected the two results
are equal.
"""

import datetime as dt

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.etl.discretization import Bin, DiscretizationScheme
from repro.etl.pipeline import (
    CardinalityStep,
    DeriveStep,
    DiscretizationStep,
    Pipeline,
)
from repro.etl.quarantine import ListSink
from repro.tabular.table import Table

BOUNDED = DiscretizationScheme(
    "bounded", [Bin("lo", 0.0, 5.0), Bin("hi", 5.0, 10.0)]
)

SCHEMA = {"pid": "int", "d": "date", "x": "float"}


@st.composite
def batches(draw):
    n = draw(st.integers(0, 30))
    rows = []
    for i in range(n):
        rows.append(
            {
                "pid": draw(st.integers(1, 4)),
                # None dates fail the derive step (no .year) and, if they
                # survived, the cardinality step
                "d": draw(
                    st.one_of(
                        st.none(),
                        st.dates(dt.date(2005, 1, 1), dt.date(2010, 12, 31)),
                    )
                ),
                # values outside [0, 10) are not covered by the scheme;
                # None legitimately discretises to a null band
                "x": draw(
                    st.one_of(
                        st.none(),
                        st.floats(-20.0, 20.0, allow_nan=False),
                    )
                ),
            }
        )
    return rows


def _pipeline():
    # no dedup / row-dropping policy steps: every disappearance must be a
    # quarantine entry for the partition property to be exact
    return Pipeline(
        [
            DiscretizationStep("x", BOUNDED),
            DeriveStep("year", lambda row: row["d"].year, dtype="int"),
            CardinalityStep("pid", "d"),
        ]
    )


@given(rows=batches())
@settings(max_examples=60, deadline=None)
def test_partition_no_loss_no_duplication(rows):
    table = Table.from_rows(rows, schema=SCHEMA) if rows else Table.empty(SCHEMA)
    sink = ListSink()
    result = _pipeline().run(table, quarantine=sink, batch="prop")

    kept = result.kept_indices
    quarantined = [entry.source_index for entry in sink.entries]

    # exact partition of the input positions
    assert len(set(kept)) == len(kept)
    assert len(set(quarantined)) == len(quarantined)
    assert set(kept).isdisjoint(quarantined)
    assert set(kept) | set(quarantined) == set(range(len(rows)))
    assert result.table.num_rows == len(kept)
    assert result.quarantined == sink.entries

    # every quarantined entry carries its pristine source row
    for entry in sink.entries:
        assert entry.row == rows[entry.source_index]

    # survivors match a strict run over just the clean subset
    clean_rows = [rows[i] for i in sorted(kept)]
    clean = (
        Table.from_rows(clean_rows, schema=SCHEMA)
        if clean_rows
        else Table.empty(SCHEMA)
    )
    strict = _pipeline().run(clean)
    assert result.table.to_rows() == strict.table.to_rows()


@given(rows=batches())
@settings(max_examples=60, deadline=None)
def test_no_sink_raises_iff_a_sink_quarantines(rows):
    table = Table.from_rows(rows, schema=SCHEMA) if rows else Table.empty(SCHEMA)
    pipeline = _pipeline()
    sink = ListSink()
    diverted = pipeline.run(table, quarantine=sink, batch="prop")
    try:
        strict = pipeline.run(table, batch="prop")
    except Exception as exc:  # noqa: BLE001 - step funcs raise anything
        raised = exc
    else:
        raised = None

    if not sink.entries:
        assert raised is None
        assert strict.table.equals(diverted.table)
        assert strict.audit == diverted.audit
        assert strict.kept_indices == diverted.kept_indices
        assert strict.quarantined == []
        return

    assert raised is not None, "a sink quarantined rows the strict run accepted"
    step_order = {step.name: i for i, step in enumerate(pipeline.steps)}
    first = min(
        sink.entries, key=lambda e: (step_order[e.step], e.source_index)
    )
    assert (type(raised).__name__, str(raised)) == (
        first.error_type, first.reason
    )
