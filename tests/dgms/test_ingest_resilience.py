"""Fault-tolerant ingest through the DGMS closed loop.

The acceptance bar: a kill injected at *every* named ingest boundary,
followed by ``DDDGMS.recover()`` and a re-ingest of the same batch, must
yield a warehouse identical to a clean single pass; dirty batches load
their valid rows and quarantine the rest with typed reasons; transient
faults retry with backoff; a permanently failing lattice degrades to
un-materialised queries instead of failing the batch.
"""

import datetime as dt
import warnings

import pytest

from repro.dgms import system as system_module
from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.errors import PermanentIngestError
from repro.etl.quarantine import QuarantineStore
from repro.knowledge.findings import Evidence, FindingKind
from repro.storage import StorageEngine, checkpoint, faults
from repro.storage.faults import FaultPlan, FaultRule, SimulatedCrash
from repro.tabular.table import Table
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry

INGEST_BOUNDARIES = [
    "ingest.oltp",
    "ingest.rebuild",
    "ingest.quarantine",
    "ingest.feedback",
    "ingest.lattice",
    "ingest.checkpoint",
]

#: WAL-level write points also crossed by a durable ingest
STORAGE_BOUNDARIES = ["wal.append", "wal.commit"]


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    faults.uninstall()


@pytest.fixture()
def small_chunks(monkeypatch):
    """Commit OLTP ingest in 8-row chunks, so a crash can land mid-batch."""
    monkeypatch.setattr(system_module, "INGEST_CHUNK_ROWS", 8)


def _cohort():
    return DiScRiGenerator(n_patients=30, seed=7).generate()


def _batch_for(source, n_patients=8, seed=99):
    batch = DiScRiGenerator(n_patients=n_patients, seed=seed).generate()
    return offset_identifiers(
        batch,
        max(source.column("patient_id").to_list()),
        max(source.column("visit_id").to_list()),
    )


def _builder():
    return FeedbackDimensionBuilder("clinician_flag").add(
        FeedbackEntry("watch", lambda row: row.get("fbg_band") == "diabetic")
    )


def _warehouse_rows(system):
    return sorted(map(str, system.cube.flat.to_rows()))


@pytest.fixture(scope="module")
def clean_reference(tmp_path_factory):
    """One uninterrupted durable run: fold + ingest, no faults."""
    root = tmp_path_factory.mktemp("clean") / "sys"
    source = _cohort()
    system = DDDGMS(source, durable_root=root)
    system.fold_feedback(_builder())
    batch = _batch_for(source)
    system.ingest_visits(batch, batch="y2")
    return {
        "rows": _warehouse_rows(system),
        "dimensions": list(system.warehouse.dimension_names),
        "source": source,
        "batch": batch,
    }


class TestKillRecoverReingest:
    @pytest.mark.parametrize(
        "boundary", INGEST_BOUNDARIES + STORAGE_BOUNDARIES
    )
    def test_recovery_matches_clean_single_pass(
        self, boundary, clean_reference, tmp_path, small_chunks
    ):
        root = tmp_path / "sys"
        system = DDDGMS(clean_reference["source"], durable_root=root)
        system.fold_feedback(_builder())
        # nth=2 so the first crossing (and for chunked OLTP, the first
        # committed chunk) survives — a genuinely mid-batch crash
        faults.install(FaultPlan([FaultRule(boundary, mode="kill", nth=2)]))
        try:
            system.ingest_visits(clean_reference["batch"], batch="y2")
        except SimulatedCrash:
            pass
        finally:
            faults.uninstall()

        recovered = DDDGMS.recover(root, feedback_builders=[_builder()])
        recovered.ingest_visits(clean_reference["batch"], batch="y2")
        assert _warehouse_rows(recovered) == clean_reference["rows"]
        assert list(recovered.warehouse.dimension_names) == (
            clean_reference["dimensions"]
        )

    def test_resumed_ingest_skips_landed_rows(
        self, clean_reference, tmp_path, small_chunks
    ):
        """The committed chunk of an interrupted batch is not re-counted."""
        root = tmp_path / "sys"
        system = DDDGMS(clean_reference["source"], durable_root=root)
        faults.install(FaultPlan([FaultRule("ingest.oltp", mode="kill", nth=2)]))
        with pytest.raises(SimulatedCrash):
            system.ingest_visits(clean_reference["batch"], batch="y2")
        faults.uninstall()

        recovered = DDDGMS.recover(root)
        already = recovered.source.num_rows - clean_reference["source"].num_rows
        assert already == 8  # exactly the first committed chunk
        accepted = recovered.ingest_visits(clean_reference["batch"], batch="y2")
        assert accepted == clean_reference["batch"].num_rows - already

    def test_reingest_is_idempotent(self, clean_reference, tmp_path):
        root = tmp_path / "sys"
        system = DDDGMS(clean_reference["source"], durable_root=root)
        system.ingest_visits(clean_reference["batch"], batch="y2")
        before = _warehouse_rows(system)
        assert system.ingest_visits(clean_reference["batch"], batch="y2") == 0
        assert _warehouse_rows(system) == before


def _kb_state(system) -> dict:
    """Everything the base knows, by key: kind, claim, tags, evidence, status."""
    return {
        key: (f.kind, f.statement, f.tags, tuple(f.evidence), f.status)
        for key, f in system.knowledge_base._findings.items()
    }


def _record(key, weight):
    return lambda system: system.record_finding(
        key, FindingKind.TREND, f"claim {key}", source="test",
        description=f"weight {weight}", weight=weight, tags=[key, "kb"],
    )


def _promote_ready(system):
    return system.knowledge_base.promote_ready()


#: per operation: unarmed setup steps, then ``(step, armed)`` pairs.  Each
#: arms two commits (and, for the two-promotion commit, two appends in
#: one), so a kill at ``nth=1`` and at ``nth=2`` both land inside it.
KB_OPERATIONS = {
    "record_finding": ([], [(_record("a", 1.0), True), (_record("a", 2.0), True)]),
    "promote_ready": (
        [_record("a", 3.0), _record("b", 3.0)],
        [(_promote_ready, True), (_record("c", 3.0), False), (_promote_ready, True)],
    ),
}


@pytest.fixture(scope="module")
def kb_clean_states():
    """Per operation, the base's state before each step and after the last."""
    states = {}
    for name, (setup, steps) in KB_OPERATIONS.items():
        system = DDDGMS(_cohort())
        for step in setup:
            step(system)
        states[name] = [_kb_state(system)]
        for step, _ in steps:
            step(system)
            states[name].append(_kb_state(system))
    return states


class TestKnowledgeBaseRecovery:
    def test_findings_survive_recovery(self, tmp_path):
        """Record, reinforce per batch, promote, retire; recover the same base."""
        root = tmp_path / "sys"
        source = _cohort()
        system = DDDGMS(source, durable_root=root)
        system.record_finding(
            "loop.fbg", FindingKind.TREND, "fbg band rises with age",
            source="olap", description="initial build", tags=["glucose", "age"],
        )
        system.knowledge_base.record(
            "loop.bmi", FindingKind.AGGREGATE, "bmi is flat across bands",
            Evidence("olap", "initial build", 0.5, recorded=dt.date(2013, 4, 8)),
            tags=["bmi"],
        )
        history = source
        for year in (2, 3, 4):
            batch = _batch_for(history, seed=90 + year)
            system.ingest_visits(batch, batch=f"y{year}")
            history = history.append(batch)
            system.record_finding(
                "loop.fbg", FindingKind.TREND, "fbg band rises with age",
                source="olap", description=f"batch y{year}",
            )
            if year == 3:
                # later events come back from the log, earlier ones from
                # the generation's column block
                checkpoint(system.operational_store, root / "snaps")
        assert [f.key for f in system.knowledge_base.promote_ready()] == [
            "loop.fbg"
        ]
        system.knowledge_base.retire("loop.bmi", "contradicted by batch y4")
        before = _kb_state(system)
        promoted = {f.key for f in system.knowledge_base.promoted()}
        del system

        recovered = DDDGMS.recover(root)
        assert _kb_state(recovered) == before
        assert {f.key for f in recovered.knowledge_base.promoted()} == promoted
        fbg = recovered.knowledge_base.get("loop.fbg")
        assert [e.description for e in fbg.evidence] == [
            "initial build", "batch y2", "batch y3", "batch y4",
        ]

        # the recovered base journals on: a new finding survives the next crash
        recovered.record_finding(
            "loop.new", FindingKind.FEEDBACK, "a later finding",
            source="clinician", description="after recovery",
        )
        after = _kb_state(recovered)
        del recovered
        assert _kb_state(DDDGMS.recover(root)) == after

    def test_root_without_the_events_table_recovers(self, tmp_path, monkeypatch):
        """A root written before the journal existed gains the table."""
        root = tmp_path / "sys"
        create_table = StorageEngine.create_table

        def without_events(self, name, *args, **kwargs):
            if name != "knowledge_events":
                return create_table(self, name, *args, **kwargs)

        monkeypatch.setattr(StorageEngine, "create_table", without_events)
        DDDGMS(_cohort(), durable_root=root)
        monkeypatch.undo()
        recovered = DDDGMS.recover(root)
        assert len(recovered.knowledge_base) == 0
        _record("a", 1.0)(recovered)
        before = _kb_state(recovered)
        del recovered
        assert _kb_state(DDDGMS.recover(root)) == before


class TestKillDuringKnowledgeCommit:
    @pytest.mark.parametrize("nth", [1, 2])
    @pytest.mark.parametrize("point", ["wal.append", "wal.commit", "wal.sync"])
    @pytest.mark.parametrize("operation", sorted(KB_OPERATIONS))
    def test_event_is_whole_or_absent(
        self, operation, point, nth, kb_clean_states, tmp_path
    ):
        setup, steps = KB_OPERATIONS[operation]
        states = kb_clean_states[operation]
        root = tmp_path / "sys"
        system = DDDGMS(_cohort(), durable_root=root)
        for step in setup:
            step(system)
        plan = FaultPlan([FaultRule(point, mode="kill", nth=nth)])
        crashed_at = None
        for index, (step, armed) in enumerate(steps):
            assert _kb_state(system) == states[index]
            if armed:
                faults.install(plan)
            try:
                step(system)
            except SimulatedCrash:
                crashed_at = index
                break
            finally:
                faults.uninstall()
        assert crashed_at is not None, f"{point}@{nth} never fired"
        # the failed commit left every finding, evidence list and status
        # exactly as it was before the call
        assert _kb_state(system) == states[crashed_at]
        del system

        recovered = _kb_state(DDDGMS.recover(root))
        assert recovered in (states[crashed_at], states[crashed_at + 1])


class TestDirtyBatch:
    def test_valid_rows_load_and_rest_quarantine_typed(self):
        source = _cohort()
        store = QuarantineStore()
        system = DDDGMS(source, quarantine=store)
        batch = _batch_for(source, n_patients=5, seed=31)
        rows = batch.to_rows()
        rows[0]["visit_date"] = None  # derive step fails on .year
        dirty = Table.from_rows(rows, schema=dict(source.schema))

        accepted = system.ingest_visits(dirty, batch="y2")
        assert accepted == dirty.num_rows
        assert store.counts("step") == {"derive": 1}
        (entry,) = store.rows()
        assert entry.error_type == "AttributeError"
        assert entry.batch == "y2"
        # the valid rows are all queryable facts
        assert system.cube.flat.num_rows == source.num_rows + accepted - 1

    def test_redrive_after_repair(self):
        import datetime as dt

        source = _cohort()
        store = QuarantineStore()
        system = DDDGMS(source, quarantine=store)
        batch = _batch_for(source, n_patients=5, seed=31)
        rows = batch.to_rows()
        rows[0]["visit_date"] = None
        system.ingest_visits(
            Table.from_rows(rows, schema=dict(source.schema)), batch="y2"
        )
        before = system.cube.flat.num_rows

        report = system.redrive_quarantine(
            repair=lambda row: {
                **row, "visit_date": row["visit_date"] or dt.date(2009, 5, 1)
            }
        )
        assert report.attempted == 1 and report.succeeded == 1
        assert len(store) == 0
        assert system.cube.flat.num_rows == before + 1

    def test_unrepaired_rows_stay_quarantined(self):
        source = _cohort()
        store = QuarantineStore()
        system = DDDGMS(source, quarantine=store)
        batch = _batch_for(source, n_patients=3, seed=31)
        rows = batch.to_rows()
        rows[0]["visit_date"] = None
        system.ingest_visits(
            Table.from_rows(rows, schema=dict(source.schema)), batch="y2"
        )
        report = system.redrive_quarantine()  # no repair: still broken
        assert report.succeeded == 0
        assert len(store) == 1


class TestRetryAndDegradation:
    def test_transient_fault_heals_with_backoff(self, tmp_path):
        # incremental=False: this exercises the full-rebuild boundary,
        # which a delta publish legitimately never crosses
        source = _cohort()
        system = DDDGMS(
            source, durable_root=tmp_path / "sys", incremental=False
        )
        faults.install(
            FaultPlan([FaultRule("ingest.rebuild", mode="transient", nth=1)])
        )
        system.ingest_visits(_batch_for(source), batch="y2")
        health = system.ingest_health()
        assert health["retries_by_boundary"] == {"ingest.rebuild": 1}
        assert health["retries_total"] == 1
        assert health["degraded"] == {}

    def test_exhausted_transients_fail_permanent(self, tmp_path):
        source = _cohort()
        system = DDDGMS(source, durable_root=tmp_path / "sys")
        rules = [
            FaultRule("ingest.oltp", mode="transient", nth=n)
            for n in range(1, system.retry_policy.attempts + 1)
        ]
        faults.install(FaultPlan(rules))
        with pytest.raises(PermanentIngestError, match="ingest.oltp"):
            system.ingest_visits(_batch_for(source), batch="y2")

    def test_permanent_lattice_fault_degrades_then_recovers(self, tmp_path):
        # incremental=False: ``ingest.lattice`` guards the full
        # re-materialisation; the delta path's fold has its own boundary
        # (``lattice.delta_merge``, tested in test_incremental.py)
        source = _cohort()
        system = DDDGMS(
            source, durable_root=tmp_path / "sys", incremental=False
        )
        system.materialize_lattice()
        faults.install(
            FaultPlan([FaultRule("ingest.lattice", mode="permanent", nth=1)])
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            accepted = system.ingest_visits(_batch_for(source), batch="y2")
        faults.uninstall()

        # the batch landed; the lattice did not
        assert accepted > 0
        assert "lattice" in system.ingest_health()["degraded"]
        assert system.cube.lattice is None
        assert any("lattice" in str(w.message) for w in caught)
        # un-materialised queries still answer
        grid = (
            system.query().rows("bloods.fbg_band")
            .count_records("n").execute()
        )
        assert grid.cells

        # the next clean ingest re-materialises and clears the flag
        next_batch = _batch_for(system.source, n_patients=3, seed=5)
        system.ingest_visits(next_batch, batch="y3")
        assert system.ingest_health()["degraded"] == {}
        assert system.cube.lattice is not None

    def test_fold_feedback_is_idempotent_in_resilient_mode(self):
        source = _cohort()
        system = DDDGMS(source, quarantine=QuarantineStore())
        first = system.fold_feedback(_builder())
        second = system.fold_feedback(_builder())
        assert first is second
        assert (
            list(system.warehouse.dimension_names).count("clinician_flag") == 1
        )

    def test_recover_warns_on_unmatched_fold_journal(self, tmp_path):
        root = tmp_path / "sys"
        system = DDDGMS(_cohort(), durable_root=root)
        system.fold_feedback(_builder())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recovered = DDDGMS.recover(root)  # no builders supplied
        assert any("clinician_flag" in str(w.message) for w in caught)
        assert "clinician_flag" not in recovered.warehouse.dimension_names


class TestHealthSurface:
    def test_ingest_health_shape(self, tmp_path):
        system = DDDGMS(_cohort(), durable_root=tmp_path / "sys")
        health = system.ingest_health()
        assert health["resilient"] is True
        assert health["durable"] is True
        assert health["quarantined_total"] == 0
        # the constructor checkpoints, which truncates the durable WAL
        assert health["wal_committed_seq"] == 0
        assert health["data_version"] == 1

    def test_wal_seq_advances_without_checkpoint(self):
        system = DDDGMS(_cohort(), quarantine=QuarantineStore())
        assert system.ingest_health()["wal_committed_seq"] > 0

    def test_strict_system_reports_non_resilient(self):
        system = DDDGMS(_cohort())
        health = system.ingest_health()
        assert health["resilient"] is False
        assert health["durable"] is False
