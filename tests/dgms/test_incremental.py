"""Incremental lattice maintenance (delta folding) through the DGMS loop.

The acceptance bar, per DESIGN.md §"Incremental maintenance":

* a delta-folded system answers **byte-equal** to a twin that full-rebuilds
  on every ingest — flat view, lattice nodes, and query results alike;
* the delta/rebuild decision table is honoured: disabled maintenance,
  back-dated visits and an operational store that ran ahead of the
  warehouse (interrupted batch) each force a full rebuild with a recorded
  reason, and the system returns to the delta path afterwards;
* the new ``lattice.delta_merge`` fault boundary retries transients,
  degrades on permanent faults, and a kill there recovers to a warehouse
  identical to a clean pass;
* interleavings of ingest / fold_feedback / materialize / snapshot reads
  (hypothesis model-based machine) never let the two systems diverge, and
  pinned snapshots keep answering their own epoch.

All cohorts are sanitised onto a 1/32 binary grid with the median-fill
columns made non-null, so delta-folded float sums are exactly equal to
full-rebuild sums (see ``repro.olap.delta``) and every batch is
delta-eligible unless a test deliberately breaks eligibility.
"""

import warnings

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.dgms import system as system_module
from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.etl.quarantine import QuarantineStore
from repro.storage import faults
from repro.storage.faults import FaultPlan, FaultRule, SimulatedCrash
from repro.tabular.table import Table
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry

#: measure source columns — these feed float sums, so they live on a grid
MEASURE_COLS = (
    "fbg", "hba1c", "bmi", "lying_sbp_avg", "lying_dbp_avg",
    "sdnn", "ewing_score", "medication_count",
)

#: columns the cleaning step median-fills; kept non-null so fill values
#: cannot drift between the base build and a delta batch
FILL_DEFAULTS = {
    "fbg": 8.0, "lying_dbp_avg": 80.0, "lying_sbp_avg": 120.0, "bmi": 25.0,
}


def _snap_grid(table: Table) -> Table:
    """Exactly-representable measures + non-null fill columns."""
    rows = table.to_rows()
    for row in rows:
        for name in MEASURE_COLS:
            if row.get(name) is not None:
                row[name] = round(row[name] * 32) / 32
        for name, default in FILL_DEFAULTS.items():
            if row.get(name) is None:
                row[name] = default
    return Table.from_rows(rows, schema=dict(table.schema))


def _cohort(n_patients=20, seed=7):
    return _snap_grid(DiScRiGenerator(n_patients=n_patients, seed=seed).generate())


def _batch_for(source, n_patients=6, seed=99):
    batch = DiScRiGenerator(n_patients=n_patients, seed=seed).generate()
    return _snap_grid(
        offset_identifiers(
            batch,
            max(source.column("patient_id").to_list()),
            max(source.column("visit_id").to_list()),
        )
    )


def _builder(name="clinician_flag"):
    return (
        FeedbackDimensionBuilder(name)
        .add(FeedbackEntry("watch", lambda row: row.get("bloods.fbg_band") == "diabetic"))
        .add(FeedbackEntry("clear", lambda row: True))
    )


QUERIES = (
    (["conditions.age_band", "personal.gender"], {"n": ("records", "size")}),
    (["conditions.age_band10"], {"patients": ("cardinality.patient_id", "nunique")}),
    (["personal.gender"], {"mean_fbg": ("fbg", "mean"), "n": ("records", "size")}),
    ([], {"lo": ("fbg", "min"), "hi": ("fbg", "max"), "s": ("sdnn", "mean")}),
)


def _canon(table: Table) -> list[tuple]:
    return sorted(tuple(sorted(r.items(), key=lambda kv: kv[0])) for r in table.to_rows())


def _assert_twins_equal(system: DDDGMS, model: DDDGMS) -> None:
    """Flat view byte-equal; every reference query byte-equal."""
    assert system.cube.flat.to_rows() == model.cube.flat.to_rows()
    for levels, aggs in QUERIES:
        got = system.cube.snapshot().aggregate(list(levels), dict(aggs))
        want = model.cube.aggregate(list(levels), dict(aggs))
        assert _canon(got) == _canon(want)


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    faults.uninstall()


class TestDeltaParity:
    """The parity oracle: delta-folded == full-rebuilt, bit for bit."""

    def test_delta_system_equals_full_rebuild_twin(self):
        source = _cohort()
        system = DDDGMS(source)
        model = DDDGMS(source, incremental=False)
        system.materialize_lattice()
        model.materialize_lattice()

        for i, seed in enumerate((99, 123)):
            batch = _batch_for(system.source, seed=seed)
            a = system.ingest_visits(batch, batch=f"y{i + 2}")
            b = model.ingest_visits(batch, batch=f"y{i + 2}")
            assert a == b == batch.num_rows
            _assert_twins_equal(system, model)

        assert system.maintenance["delta_publishes"] == 2
        assert system.maintenance["full_rebuilds"] == 0
        assert model.maintenance["delta_publishes"] == 0
        assert model.maintenance["full_rebuilds"] == 2

    def test_folded_lattice_nodes_bit_identical_to_rebuilt(self):
        source = _cohort()
        system = DDDGMS(source)
        model = DDDGMS(source, incremental=False)
        system.materialize_lattice()
        model.materialize_lattice()
        batch = _batch_for(system.source)
        system.ingest_visits(batch, batch="y2")
        model.ingest_visits(batch, batch="y2")

        folded = system.cube.lattice
        rebuilt = model.cube.lattice
        assert folded is not None and rebuilt is not None
        assert folded.is_fresh() and rebuilt.is_fresh()
        assert len(folded._nodes) == len(rebuilt._nodes)
        by_grain = {tuple(n.levels): n for n in rebuilt._nodes}
        for node in folded._nodes:
            assert node.table.equals(by_grain[tuple(node.levels)].table)

    def test_feedback_fold_retags_then_delta_keys_match_replay(self):
        source = _cohort()
        system = DDDGMS(source)
        model = DDDGMS(source, incremental=False)
        system.materialize_lattice()
        system.fold_feedback(_builder())
        model.fold_feedback(_builder())
        assert system.maintenance["retags"] == 1
        assert system.cube.lattice is not None and system.cube.lattice.is_fresh()

        # the next batch resolves feedback keys through the resolver on
        # the delta path and through a full predicate replay on the model
        batch = _batch_for(system.source)
        system.ingest_visits(batch, batch="y2")
        model.ingest_visits(batch, batch="y2")
        assert system.maintenance["delta_publishes"] == 1
        _assert_twins_equal(system, model)
        assert "clinician_flag.assessment" in system.cube.flat.column_names


class TestFallbackDecisionTable:
    def test_disabled_maintenance_always_rebuilds(self):
        source = _cohort(n_patients=10)
        system = DDDGMS(source, incremental=False)
        system.ingest_visits(_batch_for(source, n_patients=3), batch="y2")
        assert system.maintenance == {
            "delta_publishes": 0,
            "full_rebuilds": 1,
            "retags": 0,
            "last_fallback_reason": "incremental maintenance disabled",
            "fallback_reasons": {"incremental maintenance disabled": 1},
        }

    def test_back_dated_visit_forces_rebuild_then_delta_resumes(self):
        source = _cohort(n_patients=10)
        system = DDDGMS(source)
        model = DDDGMS(source, incremental=False)

        # a follow-up visit for an existing patient, dated *before* their
        # latest known visit: cardinality ordinals would renumber
        row = max(source.to_rows(), key=lambda r: r["visit_id"])
        import datetime as dt

        row = {**row, "visit_id": row["visit_id"] + 1,
               "visit_date": dt.date(2001, 1, 1)}
        back_dated = Table.from_rows([row], schema=dict(source.schema))
        for sys_ in (system, model):
            sys_.ingest_visits(back_dated, batch="y2")
        assert system.maintenance["full_rebuilds"] == 1
        assert "predates" in system.maintenance["last_fallback_reason"]
        _assert_twins_equal(system, model)

        # eligibility is restored once the rebuild resynced the ledger
        batch = _batch_for(system.source, n_patients=3)
        for sys_ in (system, model):
            sys_.ingest_visits(batch, batch="y3")
        assert system.maintenance["delta_publishes"] == 1
        _assert_twins_equal(system, model)

    def test_interrupted_batch_disqualifies_delta_until_resync(
        self, monkeypatch
    ):
        monkeypatch.setattr(system_module, "INGEST_CHUNK_ROWS", 8)
        source = _cohort()
        system = DDDGMS(source, quarantine=QuarantineStore())
        batch = _batch_for(source, n_patients=8)
        faults.install(FaultPlan([FaultRule("ingest.oltp", mode="kill", nth=2)]))
        with pytest.raises(SimulatedCrash):
            system.ingest_visits(batch, batch="y2")
        faults.uninstall()

        # the operational store kept the first chunk; the warehouse did
        # not — the resumed ingest must not trust the delta ledger
        system.ingest_visits(batch, batch="y2")
        assert system.maintenance["full_rebuilds"] == 1
        assert "lags the operational store" in (
            system.maintenance["last_fallback_reason"]
        )
        health = system.ingest_health()
        assert health["incremental"] is True
        assert health["maintenance"]["fallback_reasons"] == {
            "warehouse lags the operational store (interrupted batch)": 1
        }

        # a clean follow-up batch rides the delta path again, and the
        # whole history matches an uninterrupted twin
        follow_up = _batch_for(system.source, n_patients=3, seed=5)
        system.ingest_visits(follow_up, batch="y3")
        assert system.maintenance["delta_publishes"] == 1

        model = DDDGMS(source, incremental=False)
        model.ingest_visits(batch, batch="y2")
        model.ingest_visits(follow_up, batch="y3")
        _assert_twins_equal(system, model)


class TestDeltaMergeFaults:
    """The fold-forward boundary: retry, degrade, recover."""

    def test_transient_delta_merge_heals_with_backoff(self):
        source = _cohort()
        system = DDDGMS(source, quarantine=QuarantineStore())
        system.materialize_lattice()
        faults.install(
            FaultPlan([FaultRule("lattice.delta_merge", mode="transient", nth=1)])
        )
        system.ingest_visits(_batch_for(source), batch="y2")
        health = system.ingest_health()
        assert health["retries_by_boundary"] == {"lattice.delta_merge": 1}
        assert health["degraded"] == {}
        assert system.maintenance["delta_publishes"] == 1
        assert system.cube.lattice is not None and system.cube.lattice.is_fresh()

    def test_permanent_delta_merge_degrades_then_recovers(self):
        source = _cohort()
        system = DDDGMS(source, quarantine=QuarantineStore())
        system.materialize_lattice()
        faults.install(
            FaultPlan([FaultRule("lattice.delta_merge", mode="permanent", nth=1)])
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            accepted = system.ingest_visits(_batch_for(source), batch="y2")
        faults.uninstall()

        # the epoch moved (the batch is queryable); only the lattice fell
        assert accepted > 0
        assert system.maintenance["delta_publishes"] == 1
        assert "lattice" in system.ingest_health()["degraded"]
        assert system.cube.lattice is None
        assert any("lattice" in str(w.message) for w in caught)
        grid = (
            system.query().rows("bloods.fbg_band").count_records("n").execute()
        )
        assert grid.cells

        # the next clean ingest re-materialises and clears the flag
        system.ingest_visits(
            _batch_for(system.source, n_patients=3, seed=5), batch="y3"
        )
        assert system.ingest_health()["degraded"] == {}
        assert system.cube.lattice is not None and system.cube.lattice.is_fresh()

    def test_kill_at_delta_merge_recovers_to_clean_pass(self, tmp_path):
        source = _cohort()
        batch = _batch_for(source)

        clean = DDDGMS(source, durable_root=tmp_path / "clean")
        clean.materialize_lattice()
        clean.ingest_visits(batch, batch="y2")
        reference = sorted(map(str, clean.cube.flat.to_rows()))

        root = tmp_path / "sys"
        system = DDDGMS(source, durable_root=root)
        system.materialize_lattice()
        faults.install(
            FaultPlan([FaultRule("lattice.delta_merge", mode="kill", nth=1)])
        )
        try:
            system.ingest_visits(batch, batch="y2")
        except SimulatedCrash:
            pass
        finally:
            faults.uninstall()

        recovered = DDDGMS.recover(root)
        recovered.ingest_visits(batch, batch="y2")
        assert sorted(map(str, recovered.cube.flat.to_rows())) == reference


class TestLazyHistoryReads:
    """Reading ``transformed``/``source`` folds delta parts without a lock."""

    @pytest.mark.parametrize("view", ["transformed", "source"])
    def test_batch_ingested_inside_the_fold_is_kept(self, view, monkeypatch):
        """An ingest that lands while a read is folding is not lost."""
        source = _cohort()
        system = DDDGMS(source)
        first = _batch_for(source, seed=99)
        system.ingest_visits(first, batch="y2")
        second = _batch_for(source.append(first), seed=100)
        fold = Table.concat_all
        armed = [True]

        def concat_with_ingest(cls, tables):
            parts = list(tables)  # the fold has read its input ...
            if armed.pop() if armed else False:
                # ... when the writer commits the next batch
                system.ingest_visits(second, batch="y3")
            return fold(parts)

        monkeypatch.setattr(Table, "concat_all", classmethod(concat_with_ingest))
        getattr(system, view)
        monkeypatch.undo()
        assert not armed, "the read never folded"
        assert system.maintenance["delta_publishes"] == 2
        stored = system.operational_store.row_count("attendances")
        assert stored == source.num_rows + first.num_rows + second.num_rows
        assert system.transformed.num_rows == stored
        assert system.source.num_rows == stored
        assert system.cube.flat.num_rows == stored


class _DeltaVsRebuildMachine(RuleBasedStateMachine):
    """Random interleavings of the public write/read surface.

    The system under test keeps incremental maintenance on; the model is
    an ``incremental=False`` twin fed the exact same calls.  After every
    step the flat views and reference queries must be byte-equal, and
    snapshots pinned at any earlier epoch must still answer exactly what
    they answered when pinned.
    """

    LATTICE_GROUPS = (
        ("conditions.age_band", "personal.gender"),
        ("bloods.fbg_band",),
    )

    def __init__(self):
        super().__init__()
        source = _cohort(n_patients=8, seed=3)
        self.system = DDDGMS(source)
        self.model = DDDGMS(source, incremental=False)
        self.batch_no = 0
        self.folds = 0
        self.pinned: list[tuple[object, list[tuple]]] = []

    @rule(n=st.integers(1, 3), seed=st.integers(0, 2**16))
    def ingest(self, n, seed):
        batch = _batch_for(self.system.source, n_patients=n, seed=seed)
        self.batch_no += 1
        a = self.system.ingest_visits(batch, batch=f"b{self.batch_no}")
        b = self.model.ingest_visits(batch, batch=f"b{self.batch_no}")
        assert a == b

    @rule()
    def fold(self):
        self.folds += 1
        name = f"risk_{self.folds}"
        self.system.fold_feedback(_builder(name))
        self.model.fold_feedback(_builder(name))

    @rule()
    def materialize(self):
        self.system.materialize_lattice(self.LATTICE_GROUPS)

    @rule()
    def pin_snapshot(self):
        snap = self.system.current_epoch()
        levels, aggs = QUERIES[0]
        seen = _canon(snap.aggregate(list(levels), dict(aggs)))
        self.pinned.append((snap, seen))
        del self.pinned[:-2]  # keep the last two epochs pinned

    @invariant()
    def twins_agree_and_snapshots_hold(self):
        _assert_twins_equal(self.system, self.model)
        levels, aggs = QUERIES[0]
        for snap, seen in self.pinned:
            assert _canon(snap.aggregate(list(levels), dict(aggs))) == seen


_MACHINE_SETTINGS = settings(
    max_examples=5, stateful_step_count=5, deadline=None
)


def test_interleavings_vector_kernels():
    run_state_machine_as_test(_DeltaVsRebuildMachine, settings=_MACHINE_SETTINGS)
