"""The DD-DGMS facade: every Fig 2 component behind one object."""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro import obs
from repro.errors import (
    IngestError,
    OLAPError,
    PermanentIngestError,
    ReproError,
)
from repro.discri.warehouse import DiscriWarehouse, build_discri_warehouse
from repro.etl.incremental import commit_delta, run_delta
from repro.etl.pipeline import AuditEntry
from repro.etl.quarantine import (
    ListSink,
    QuarantinedRow,
    QuarantineStore,
    RedriveReport,
    commit_staged,
    divert,
    stage,
)
from repro.knowledge.kb import (
    EVENTS_SCHEMA,
    EVENTS_TABLE,
    KnowledgeBase,
    KnowledgeEvent,
    event_row,
    events_from_rows,
)
from repro.knowledge.findings import Evidence, FindingKind
from repro.mining.awsum import AWSumClassifier
from repro.mining.naive_bayes import NaiveBayesClassifier
from repro.obs.explain import ExplainReport
from repro.olap.crosstab import Crosstab
from repro.olap.cube import Cube, CubeRuntime, CubeSnapshot
from repro.olap.mdx.evaluator import execute_mdx
from repro.olap.query import QueryBuilder
from repro.planner import QueryPlanner
from repro.serving import resilience
from repro.serving.admission import ServingConfig, ServingRuntime, coerce_serving
from repro.serving.cache import CacheConfig, ResultCache, coerce_cache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.olap.materialized import MaterializedCube
from repro.optimize.consistency import ConsistencyReport, check_dimension_consistency
from repro.prediction.trajectory import TrajectoryPredictor
from repro.storage import faults
from repro.storage.engine import StorageEngine
from repro.storage.persistence import (
    checkpoint,
    checkpoint_if_due,
    checkpoint_status,
)
from repro.storage.persistence import recover as _recover
from repro.storage.retry import RetryPolicy, get_policy, with_retry
from repro.storage.wal import WriteAheadLog
from repro.tabular.expressions import col
from repro.tabular.table import Table
from repro.viz.svg import crosstab_to_svg
from repro.warehouse.dimension import UNKNOWN_KEY
from repro.warehouse.feedback import FeedbackDimensionBuilder
from repro.warehouse.star import SnowflakeDimension

#: OLTP journal of folded feedback dimensions, used by :meth:`DDDGMS.recover`
#: to replay the closed loop after a crash.
_FOLD_TABLE = "feedback_folds"

#: rows per OLTP ingest transaction of a system with a quarantine sink —
#: small enough that a crash mid-batch loses little, large enough that the
#: per-commit fsync amortises
INGEST_CHUNK_ROWS = 256


class _Parts:
    """A table held as the parts it was appended in.

    A writer never changes a holder: appending a part makes a new one.
    A read folds the parts and caches the fold on the holder it read, so
    a batch appended meanwhile lands in the writer's new holder and is
    never lost, and the read path needs no lock.
    """

    __slots__ = ("parts",)

    def __init__(self, *parts: Table):
        self.parts = parts

    def plus(self, part: Table) -> "_Parts":
        return _Parts(*self.parts, part)

    def table(self) -> Table:
        parts = self.parts
        if len(parts) > 1:
            parts = self.parts = (Table.concat_all(parts),)
        return parts[0]


def _take_transformed(built: DiscriWarehouse) -> _Parts:
    """The build's post-ETL table, moved into a history holder.

    The holder becomes its one owner, so a fold frees the parts it
    replaced instead of the build keeping the first one alive.
    """
    table, built.etl_result.table = built.etl_result.table, None
    return _Parts(table)


def _insert_visits(
    engine: StorageEngine,
    rows: Table,
    positions: Sequence[int],
    quarantine,
    batch: str,
) -> list[int]:
    """One OLTP transaction: one batch insert of ``rows``.

    ``positions[i]`` is row ``i``'s position in the ingested batch.
    Returns the store's row id of every accepted row, in write order.  A
    structurally invalid row (null/duplicate ``visit_id``, schema
    violation) goes through :func:`~repro.etl.quarantine.divert`: the
    insert stores only the rows it accepts, so a diverted row leaves no
    partial state behind, and a re-raised error rolls the whole
    transaction back.
    """
    with engine.transaction():
        accepted, rejected = engine.insert("attendances", rows)
        for position, error in rejected:
            divert(
                quarantine, "oltp", rows.row(position), error,
                batch=batch, source_index=positions[position],
            )
    return accepted


@dataclass(frozen=True)
class SystemConfig:
    """Session configuration consumed once by :func:`repro.open_system`.

    ``observability`` takes the ``REPRO_OBS`` mode strings (``""`` off,
    ``"ring"`` in-memory span trees, ``"console"`` stderr trees,
    ``"jsonl:<path>"`` JSON lines); queries slower than
    ``slow_query_threshold_s`` land in :func:`repro.obs.slow_log`.
    ``materialize_lattice`` precomputes the figure-shaped aggregate
    lattice so roll-ups are answered from nodes instead of fact scans.

    ``cache`` attaches a versioned query-result cache (``True`` for the
    default budget, an ``int`` byte budget, a
    :class:`~repro.serving.cache.CacheConfig`, or a ready
    :class:`~repro.serving.cache.ResultCache` to share between systems);
    hits are byte-identical to a fresh recompute and ingest invalidates
    by epoch bump.

    ``serving`` bounds the read path (DESIGN.md §"Overload &
    degradation"): ``True`` for default limits, a
    :class:`~repro.serving.admission.ServingConfig` for explicit ones, or
    a ready :class:`~repro.serving.admission.ServingRuntime` to share.
    Configured, every query passes a bounded admission gate (overload
    sheds fast with :class:`~repro.errors.ServingOverloadError`), runs
    under the configured default deadline, and broken dependencies
    degrade one rung down the documented ladder instead of failing the
    query.  ``None``/``False`` keeps the historical unbounded behaviour.

    ``storage`` partitions the flat view into a compressed columnar
    store (DESIGN.md §"Partitioned storage"): ``True`` for automatic
    partitioning + encodings, a
    :class:`~repro.storage.columnar.StorageConfig` for explicit choices
    (partitioning spec, per-column encodings).  Filtered
    queries then prune partitions via zone maps before any kernel runs —
    answers stay byte-identical.
    """

    observability: str = ""
    slow_query_threshold_s: float | None = None
    materialize_lattice: bool = False
    promotion_threshold: float = 3.0
    cache: "ResultCache | CacheConfig | int | bool | None" = None
    serving: "ServingRuntime | ServingConfig | bool | None" = None
    storage: "object | bool | None" = None


class DDDGMS:
    """Data-Driven Decision Guidance Management System.

    Construct from a raw visit-level source table (e.g. the output of
    :class:`repro.discri.DiScRiGenerator`); the constructor runs the
    clinical ETL and loads the Fig 3 warehouse.  Every paper feature is a
    method:

    ==========================  =====================================
    paper Fig 2 component        API
    ==========================  =====================================
    DB / OLTP                    :attr:`operational_store`, :meth:`oltp_lookup`
    Data warehouse               :attr:`warehouse`
    Reporting (OLAP)             :meth:`olap`, :meth:`mdx`
    Prediction                   :meth:`trajectory_predictor`
    Visualisation                :meth:`visualize`
    Decision optimisation        :meth:`check_optimum_consistency`
    Data analytics               :meth:`isolate_cube_slice`, :meth:`awsum`
    Knowledge base               :attr:`knowledge_base`, :meth:`record_finding`
    Feedback loop                :meth:`fold_feedback`
    ==========================  =====================================
    """

    def __init__(
        self,
        source: Table,
        promotion_threshold: float = 3.0,
        *,
        durable_root: "str | Path | None" = None,
        quarantine=None,
        incremental: bool = True,
        _operational: StorageEngine | None = None,
    ):
        self.durable_root = Path(durable_root) if durable_root is not None else None
        if quarantine is None and self.durable_root is not None:
            quarantine = QuarantineStore.open(self.durable_root / "quarantine")
        #: dead-letter sink for rows an ingest stage rejects; without one
        #: a rejected row's error aborts its batch (see :meth:`_intake`)
        self.quarantine = quarantine
        #: whether ingest may publish O(batch) delta epochs instead of
        #: rebuilding the warehouse from scratch (it always *may* fall
        #: back; ``False`` forces the full rebuild on every batch)
        self.incremental = incremental
        #: incremental-maintenance ledger, surfaced via :meth:`ingest_health`
        self.maintenance: dict = {
            "delta_publishes": 0,
            "full_rebuilds": 0,
            "retags": 0,
            "last_fallback_reason": None,
            "fallback_reasons": {},
        }
        #: backoff schedule for transient faults at ingest boundaries
        #: (the shared registry default; see repro.storage.retry)
        self.retry_policy = get_policy("ingest.default")
        #: retries performed so far, per ingest boundary
        self._retry_counts: dict[str, int] = {}
        #: write-path checkpoints skipped as not yet due since the last
        #: one this process took (see storage.persistence.checkpoint_if_due)
        self._checkpoints_deferred = 0
        #: degraded subsystems (name -> reason), e.g. an unmaterialised lattice
        self.degraded: dict[str, str] = {}
        #: serialises ingest/fold/redrive against each other; readers never
        #: take it — they pin epochs instead (see DESIGN.md serving model)
        self._writer_lock = threading.RLock()
        #: result cache, admission gate, route counts and storage config —
        #: one holder shared by reference with every cube this system
        #: builds, so a rebuilt successor cube serves with the same objects
        self.runtime = CubeRuntime()
        with obs.span("dgms.build", rows=source.num_rows):
            fresh_store = _operational is None
            with obs.span("dgms.load_operational"):
                if fresh_store:
                    _operational = self._load_operational(
                        source,
                        wal=self._fresh_wal(),
                        quarantine=self.quarantine,
                    )
                    # the canonical source is what the OLTP store accepted
                    source = _operational.scan("attendances")
                self.operational_store = _operational
            self._source = _Parts(source)
            #: rows of ``attendances`` reflected in the analytical layers
            #: vs. rows the OLTP store holds — divergence (an interrupted
            #: batch) disqualifies the next delta publish
            self._covered_rows = source.num_rows
            self._oltp_rows = source.num_rows
            with obs.span("dgms.etl_and_warehouse"):
                self._built: DiscriWarehouse = build_discri_warehouse(
                    source, quarantine=self.quarantine, batch="initial"
                )
            #: the post-ETL history: the build's table, then each delta batch
            self._transformed = _take_transformed(self._built)
            self.warehouse = self._built.warehouse
            self.etl_audit = self._built.etl_result.audit
            # managed: readers never flatten a half-mutated warehouse; only
            # the writer's explicit publish (at commit) moves the epoch
            self.cube = Cube(self.warehouse, managed=True, runtime=self.runtime)
            self.knowledge_base = KnowledgeBase(
                promotion_threshold, journal=self._journal_knowledge
            )
            #: feedback builders folded so far, replayed after every re-ingest
            self._feedback_builders: list[FeedbackDimensionBuilder] = []
            #: lattice level-groups to re-materialise after every re-ingest
            self._lattice_groups: list[list[str]] | None = None
            #: bumped on every ingest batch
            self.data_version = 1
            if self.durable_root is not None and fresh_store:
                self._checkpoint_durable()

    def _fresh_wal(self) -> WriteAheadLog | None:
        if self.durable_root is None:
            return None
        self.durable_root.mkdir(parents=True, exist_ok=True)
        return WriteAheadLog(self.durable_root / "wal.log")

    @staticmethod
    def _load_operational(
        source: Table,
        wal: WriteAheadLog | None = None,
        quarantine=None,
        batch: str = "initial",
    ) -> StorageEngine:
        """Mirror the raw source into the OLTP engine (the "DB" of Fig 2).

        One :func:`_insert_visits` transaction: with a quarantine sink
        structurally invalid rows divert there, without one the first
        aborts the load.
        """
        engine = StorageEngine(wal) if wal is not None else StorageEngine()
        engine.create_table(
            "attendances", dict(source.schema), primary_key="visit_id"
        )
        engine.create_table(
            _FOLD_TABLE, {"fold_id": "int", "dimension": "str"},
            primary_key="fold_id",
        )
        engine.create_table(EVENTS_TABLE, EVENTS_SCHEMA, primary_key="event_id")
        _insert_visits(
            engine, source, range(source.num_rows), quarantine, batch
        )
        engine.create_index("attendances", "patient_id")
        return engine

    @classmethod
    def recover(
        cls,
        durable_root: "str | Path",
        promotion_threshold: float = 3.0,
        *,
        quarantine=None,
        feedback_builders: Sequence[FeedbackDimensionBuilder] = (),
    ) -> "DDDGMS":
        """Rebuild a durable system from disk after a crash.

        Recovers the operational store (newest valid snapshot generation +
        WAL replay) and the quarantine store, rebuilds the warehouse over
        the recovered history, replays the knowledge-base events, and
        replays the feedback-fold journal against the supplied
        ``feedback_builders`` (predicates are code, so the caller must
        provide the builders; journal entries with no matching builder
        are skipped with a warning).  ``promotion_threshold`` governs
        promotions from here on; a replayed promotion stands.
        Re-ingesting the batch that was interrupted is then idempotent:
        rows whose ``visit_id`` already landed are skipped, not
        duplicated.
        """
        root = Path(durable_root)
        engine = _recover(root / "snaps", root / "wal.log")
        if EVENTS_TABLE not in engine.table_names():
            # a root written before the knowledge base was journaled; a
            # table reaches the catalog only through a generation
            engine.create_table(EVENTS_TABLE, EVENTS_SCHEMA, primary_key="event_id")
            checkpoint(engine, root / "snaps")
        if quarantine is None:
            quarantine = QuarantineStore.open(root / "quarantine")
        source = engine.scan("attendances")
        system = cls(
            source,
            promotion_threshold,
            durable_root=root,
            quarantine=quarantine,
            _operational=engine,
        )
        for event in events_from_rows(engine.scan(EVENTS_TABLE).iter_rows()):
            system.knowledge_base.apply(event)
        by_name = {builder.name: builder for builder in feedback_builders}
        for row in engine.scan(_FOLD_TABLE).iter_rows():
            name = str(row["dimension"])
            builder = by_name.get(name)
            if builder is None:
                warnings.warn(
                    f"feedback dimension {name!r} was folded before the "
                    f"crash but no matching builder was supplied; skipping",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            system.fold_feedback(builder)
        return system

    # ------------------------------------------------------------------
    # Lazily-concatenated history views
    # ------------------------------------------------------------------

    @property
    def source(self) -> Table:
        """The raw visit history (delta batches concatenated on demand).

        A delta ingest appends its batch as an O(1) part; the first
        direct read folds the parts into one table.  Published epochs
        never read through here — they carry their own row blocks.
        """
        return self._source.table()

    def _source_columns(self) -> list[str]:
        """Source column names without forcing the lazy concatenation."""
        return self._source.parts[0].column_names

    @property
    def transformed(self) -> Table:
        """The post-ETL visit table (delta batches folded in on read)."""
        return self._transformed.table()

    # ------------------------------------------------------------------
    # Serving: epochs + result cache
    # ------------------------------------------------------------------

    def attach_result_cache(
        self, cache: "ResultCache | CacheConfig | int | bool | None"
    ) -> ResultCache | None:
        """Attach (or detach, with ``None``) the versioned result cache.

        Accepts every ``SystemConfig(cache=...)`` spelling.  The cache
        lives in the shared :attr:`runtime`, so it survives ingest
        rebuilds; epoch-unique keys guarantee entries computed on an old
        epoch are never served for a new one.
        """
        self.runtime.cache = coerce_cache(cache)
        return self.runtime.cache

    @property
    def result_cache(self) -> ResultCache | None:
        """The attached result cache, if any."""
        return self.runtime.cache

    def attach_serving(
        self, serving: "ServingRuntime | ServingConfig | bool | None"
    ) -> ServingRuntime | None:
        """Attach (or detach, with ``None``) admission control + breakers.

        Accepts every ``SystemConfig(serving=...)`` spelling.  The limits
        govern the *system*, not one epoch: every rebuilt cube shares the
        runtime.
        """
        self.runtime.serving = coerce_serving(serving)
        return self.runtime.serving

    @property
    def planner(self) -> QueryPlanner:
        """The lattice's route chooser; its route counts span rebuilds."""
        return self.runtime.planner

    @property
    def serving(self) -> ServingRuntime | None:
        """The attached serving runtime (admission + breakers), if any."""
        return self.runtime.serving

    def attach_storage(self, storage) -> "object | None":
        """Attach (or detach, with ``None``) partitioned columnar storage.

        Accepts every ``SystemConfig(storage=...)`` spelling
        (:class:`~repro.storage.columnar.StorageConfig`, a mapping of its
        fields, ``True`` for defaults).  Every ingest-rebuilt successor
        cube inherits the config; if the current cube has already
        published an epoch, a fresh store-backed epoch is published
        immediately (a re-materialised lattice is the caller's job).
        Returns the coerced config.
        """
        with self._writer_lock:
            self.cube.attach_storage(storage)
            if self.cube._state is not None:
                state = self.cube.publish()
                self._cache_epoch_published(state.epoch)
        return self.runtime.storage

    def compact_storage(self):
        """Merge the current epoch's delta segments (writer-serialised).

        Publishes a compacted store as a new epoch; pinned snapshots keep
        the old segments.  No-op (returns ``None``) without a
        partitioned store.
        """
        with self._writer_lock:
            state = self.cube.compact_storage()
            if state is not None:
                self._cache_epoch_published(state.epoch)
            return state

    def _storage_health(self) -> "dict | None":
        """Segment/encoding stats for ``ingest_health()`` (None if unused)."""
        if self.runtime.storage is None:
            return None
        state = self.cube._state
        if state is None or state.store is None:
            return {"attached": True, "built": False}
        return {"attached": True, "built": True, **state.store.stats()}

    @property
    def epoch(self) -> int:
        """The currently published epoch id (bumps on every commit)."""
        return self.cube.epoch

    def current_epoch(self) -> CubeSnapshot:
        """Pin the current epoch for a consistent multi-query read.

        Every query on the returned snapshot answers from the same
        committed state, no matter how many ingests commit meanwhile —
        the unit of snapshot isolation for report generation.
        """
        return self.cube.snapshot()

    def _commit_cube(self, cube: Cube) -> None:
        """Publish-on-commit: force the epoch off to the side, then swap.

        The epoch state (flatten + qualified attributes) is built on the
        writer thread *before* ``self.cube`` moves, so readers either see
        the old cube (old epoch, fully intact) or the new cube with its
        epoch ready — never a half-built state.
        """
        state = cube._current_state()
        self.cube = cube
        self._cache_epoch_published(state.epoch)

    def _cache_epoch_published(self, epoch: int) -> None:
        if self.runtime.cache is not None:
            self.runtime.cache.on_epoch_published(epoch)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def oltp_lookup(self, visit_id: int) -> dict[str, object] | None:
        """Point query on the operational store (OLTP reporting)."""
        return self.operational_store.get_by_pk("attendances", visit_id)

    def patient_history(self, patient_id: int) -> list[dict[str, object]]:
        """All attendances of one patient, oldest first."""
        rows = self.operational_store.find("attendances", "patient_id", patient_id)
        rows.sort(key=lambda r: r["visit_date"])
        return rows

    def query(self) -> QueryBuilder:
        """Start a drag-and-drop-style OLAP query on the cube.

        This is the canonical programmatic entry point: chain
        ``.rows()/.columns()/.measure()/.where()`` and finish with
        ``.execute()`` (or ``.explain()`` for the measured plan).
        """
        return self.cube.query()

    def olap(self) -> QueryBuilder:
        """Alias of :meth:`query` (the paper's "Reporting — OLAP" name)."""
        return self.query()

    def mdx(self, query: str) -> Crosstab | ExplainReport:
        """Execute an MDX query against the cube.

        An ``EXPLAIN``-prefixed query returns an
        :class:`~repro.obs.explain.ExplainReport` (grid in ``.result``)
        instead of the bare :class:`~repro.olap.crosstab.Crosstab`.
        """
        return execute_mdx(self.cube, query)

    def explain(self, query: "str | QueryBuilder") -> ExplainReport:
        """Measured plan/profile for an MDX string or a built query.

        Accepts MDX text (the ``EXPLAIN`` prefix is implied) or a
        :class:`~repro.olap.query.QueryBuilder` from :meth:`query`.  The
        report names the lattice node or base scan that answered, with
        rows scanned and wall time per stage; the result grid rides along
        in ``.result``.
        """
        if isinstance(query, QueryBuilder):
            return query.explain()
        if isinstance(query, str):
            if not query.lstrip().upper().startswith("EXPLAIN"):
                query = f"EXPLAIN {query}"
            report = execute_mdx(self.cube, query)
            assert isinstance(report, ExplainReport)
            return report
        raise OLAPError(
            f"explain() takes MDX text or a QueryBuilder, got {type(query).__name__}"
        )

    def materialize_lattice(
        self, level_groups: Sequence[Sequence[str]] | None = None
    ) -> "MaterializedCube":
        """Precompute aggregate lattice nodes and route queries through them.

        Materialises the given groups — or, with no argument, one node
        per figure-shaped roll-up (the Fig 4–6 level combinations).  The
        groups are remembered and re-materialised after every
        :meth:`ingest_visits` rebuild.
        """
        from repro.olap.materialized import MaterializedCube

        if level_groups is None:
            level_groups = self.DEFAULT_LATTICE_GROUPS
        groups = [list(group) for group in level_groups]
        lattice = MaterializedCube(self.cube).materialize(groups)
        self.cube.attach_lattice(lattice)
        self._lattice_groups = groups
        return lattice

    #: figure-shaped roll-ups used by :meth:`materialize_lattice` default
    DEFAULT_LATTICE_GROUPS: tuple[tuple[str, ...], ...] = (
        (
            "conditions.age_band", "personal.gender",
            "personal.family_history_diabetes",
        ),
        ("conditions.age_band10", "personal.gender", "conditions.diabetes_status"),
        ("conditions.age_band10", "conditions.ht_years_band", "conditions.hypertension"),
    )

    # ------------------------------------------------------------------
    # Prediction / visualisation
    # ------------------------------------------------------------------

    def episodes(self, value_column: str = "fbg", min_support: int = 1) -> Table:
        """Per-patient temporal-abstraction episodes of one measure.

        Uses the clinical scheme for the measure when one exists (FBG by
        default), giving the qualitative "patient was Diabetic from X to
        Y" view of paper §IV's temporal abstraction.
        """
        from repro.discri.schemes import clinical_schemes
        from repro.etl.temporal import episodes_table

        schemes = clinical_schemes()
        if value_column not in schemes:
            raise ReproError(
                f"no clinical scheme for {value_column!r} "
                f"(have: {', '.join(sorted(schemes))})"
            )
        return episodes_table(
            self.source, "patient_id", "visit_date", value_column,
            schemes[value_column], min_support=min_support,
        )

    def trajectory_predictor(
        self, similarity_attributes: Sequence[str] | None = None
    ) -> TrajectoryPredictor:
        """Time-course predictor over the transformed visit data."""
        rows = self.transformed.to_rows()
        return TrajectoryPredictor(
            rows,
            patient_key="patient_id",
            order_key="visit_number",
            stage_key="fbg_band",
            similarity_attributes=similarity_attributes,
        )

    def visualize(self, crosstab: Crosstab, title: str, path=None) -> str:
        """Render an OLAP outcome as SVG (paper Figs 5/6 style)."""
        return crosstab_to_svg(crosstab, title, path)

    # ------------------------------------------------------------------
    # Decision optimisation / analytics
    # ------------------------------------------------------------------

    def check_optimum_consistency(
        self,
        levels: Sequence[str],
        target: str,
        aggregation: str = "mean",
        direction: str = "max",
        min_records: int = 10,
        removable: Sequence[str] | None = None,
    ) -> ConsistencyReport:
        """Validate an optimal aggregate against dimension changes."""
        return check_dimension_consistency(
            self.warehouse,
            levels,
            target,
            aggregation=aggregation,
            direction=direction,
            min_records=min_records,
            removable=removable,
        )

    def isolate_cube_slice(self, **level_values: object) -> list[dict]:
        """Dice the flattened cube and return rows for mining.

        Keyword names are levels (bare attribute names are resolved);
        values are the member to fix.  This is the paper's "cubes of data
        ... can be isolated using OLAP and further analysed using data
        mining algorithms".
        """
        flat = self.cube.flat
        predicate = None
        for level, value in level_values.items():
            qualified = self.cube.check_level(level)
            clause = col(qualified).eq(value)
            predicate = clause if predicate is None else (predicate & clause)
        rows = (flat.filter(predicate) if predicate is not None else flat).to_rows()
        # strip the dimension prefixes for model-friendly keys
        return [
            {key.split(".", 1)[-1]: value for key, value in row.items()}
            for row in rows
        ]

    def awsum(
        self, target: str, features: Sequence[str], min_support: int = 10,
        rows: list[dict] | None = None,
    ) -> AWSumClassifier:
        """Fit AWSum on the transformed visit data (or a supplied slice)."""
        data = rows if rows is not None else self.transformed.to_rows()
        return AWSumClassifier(min_support=min_support).fit(
            data, target, list(features)
        )

    def classifier(
        self, target: str, features: Sequence[str],
        rows: list[dict] | None = None,
    ) -> NaiveBayesClassifier:
        """Fit the default probabilistic classifier on visit data."""
        data = rows if rows is not None else self.transformed.to_rows()
        return NaiveBayesClassifier().fit(data, target, list(features))

    # ------------------------------------------------------------------
    # Knowledge / feedback loop
    # ------------------------------------------------------------------

    def record_finding(
        self,
        key: str,
        kind: FindingKind,
        statement: str,
        source: str,
        description: str,
        weight: float = 1.0,
        tags: Sequence[str] = (),
    ):
        """Record an outcome as a knowledge-base finding."""
        return self.knowledge_base.record(
            key, kind, statement,
            Evidence(source=source, description=description, weight=weight),
            tags=tags,
        )

    def fold_feedback(self, builder: FeedbackDimensionBuilder):
        """Fold clinician feedback into the warehouse as a new dimension.

        The builder is remembered so its predicates replay automatically
        after the next :meth:`ingest_visits` rebuild.  The fold is
        idempotent (an already-folded dimension is returned, not
        re-added), retried on transient faults at the ``ingest.feedback``
        boundary, journaled in the operational store for :meth:`recover`,
        and checkpointed when the system is durable.
        """
        with self._writer_lock, obs.span(
            "dgms.fold_feedback", dimension=builder.name
        ):
            prev_state = self.cube._state
            old_lattice = self.cube.lattice

            def fold():
                if builder.name in self.warehouse.dimension_names:
                    return self.warehouse.schema.dimensions[builder.name]
                return self.warehouse.fold_feedback(builder)

            dimension = self._with_retry("ingest.feedback", fold)
            if all(b.name != builder.name for b in self._feedback_builders):
                self._feedback_builders.append(builder)
            self._journal_fold(builder.name)
            # the in-place fold never touches the published epoch's flat
            # view; publishing moves readers to the folded state
            state = self.cube.publish()
            if not self._retag_lattice(old_lattice, prev_state, state):
                self._lattice_or_degrade()
            self._cache_epoch_published(state.epoch)
            self._checkpoint_if_durable()
            return dimension

    def _retag_lattice(self, old_lattice, prev_state, new_state) -> bool:
        """Carry the lattice across a feedback fold without recomputing.

        A fold appends a dimension *column*; every existing cell of every
        materialised node is untouched, so the fresh lattice can simply be
        retagged to the folded epoch.  Queries grouping by the new
        dimension miss the lattice and scan — correct, just unaccelerated
        until the next materialisation.
        """
        if (
            not self.incremental
            or self._lattice_groups is None
            or old_lattice is None
            or prev_state is None
            or not old_lattice.fresh_for_state(prev_state)
        ):
            return False
        self.cube.attach_lattice(old_lattice.retag(new_state))
        self.maintenance["retags"] += 1
        obs.count("dgms.fold.lattice_retag")
        return True

    def ingest_visits(self, new_visits: Table, *, batch: str | None = None) -> int:
        """Accumulate a new batch of attendances (the screening clinic's
        yearly intake) and refresh every layer.

        The batch must carry the source schema with fresh ``visit_id``
        values.  The operational store takes the rows transactionally;
        the analytical layers then refresh **incrementally** where
        possible — the appended rows run through the delta form of the
        ETL, append to the live star schema, and publish an O(batch)
        delta epoch with the lattice folded forward — and fall back to
        the full rebuild (combined-history ETL + warehouse + lattice
        re-materialisation, with folded feedback re-derived) whenever the
        delta algebra cannot express the change: schema/dimension drift,
        fill-value or cardinality drift, an interrupted earlier batch, or
        ``incremental=False``.  Both paths produce bit-identical query
        answers; :meth:`ingest_health` reports which path each batch
        took under ``"maintenance"``.  Returns the number of ingested
        rows.

        Every batch takes the same sequence — OLTP intake, read back the
        stored rows, delta publish or else a rebuild off to the side,
        quarantine commit, feedback replay, lattice, checkpoint, commit —
        and every named boundary (``ingest.oltp``, ``ingest.rebuild``,
        ``ingest.quarantine``, ``ingest.feedback``, ``ingest.lattice``,
        ``ingest.checkpoint``) retries transient faults with backoff;
        permanent lattice failure degrades to un-materialised queries
        instead of failing the batch.  With a quarantine sink —
        :class:`DDDGMS` built with ``quarantine=...`` or
        ``durable_root=...`` — a malformed row diverts to the dead-letter
        store at whichever stage rejects it.  Without one there is
        nowhere to divert: the row's own error aborts the batch (see
        :meth:`_intake` for exactly what differs).
        """
        if new_visits.num_rows == 0:
            return 0
        batch = batch or f"batch-{self.data_version + 1}"
        with self._writer_lock, obs.span(
            "dgms.ingest", rows=new_visits.num_rows, batch=batch
        ):
            with self._intake(new_visits, batch) as accepted_ids:
                # The delta batch is the rows the inserts just stored,
                # coercion included: the full-rebuild path sources from
                # scan("attendances"), so anything else would let the
                # parity oracle diverge on the next rebuild.
                stored = self.operational_store.scan(
                    "attendances", row_ids=accepted_ids
                ).select(self._source_columns())
                if not self._try_ingest_delta(stored, batch=batch):
                    source, built, cube, _ = self._rebuild_staged(batch)
                    # the checkpoint precedes the commit: if it fails for
                    # good the batch aborts with the old epoch still serving
                    self._checkpoint_if_durable()
                    self._commit_rebuilt(source, built, cube)
            self.data_version += 1
            obs.count("dgms.ingest.batches")
            if hasattr(self.quarantine, "__len__"):
                obs.set_gauge("ingest.quarantine.size", len(self.quarantine))
        return len(accepted_ids)

    @contextmanager
    def _intake(self, new_visits: Table, batch: str) -> Iterator[list[int]]:
        """Write the batch into the OLTP store; yields the stored row ids.

        The only place ingest asks whether there is a quarantine sink,
        and what it decides is three values.  With a sink, a row the
        store rejects is diverted, the batch commits in chunks of
        :data:`INGEST_CHUNK_ROWS` (a crash mid-batch loses little), and
        rows whose ``visit_id`` already landed are skipped, so re-running an
        interrupted batch resumes instead of duplicating.  Without one, a
        rejected row raises (the rule of
        :func:`~repro.etl.quarantine.divert`), the batch is one
        transaction that the error rolls back, and an already-present
        ``visit_id`` is such an error rather than a resume.

        The rest of the batch runs inside the ``with`` block because a
        later stage can reject a row the store accepted.  With a sink the
        rows stay and the next ingest rebuilds from them; without one the
        batch is all-or-nothing to the end, so the accepted rows come
        back out and the store, like the published epoch, never saw it.
        """
        store = self.operational_store
        rows = new_visits.select(self._source_columns())
        offered = rows.num_rows
        positions = list(range(offered))
        all_or_nothing = self.quarantine is None
        if all_or_nothing:
            chunk_rows = offered
        else:
            chunk_rows = INGEST_CHUNK_ROWS
            # a probe of the key index, no stored row is decoded
            positions = [
                i
                for i, key in enumerate(rows.column("visit_id").to_list())
                if key is None or not store.has_pk("attendances", key)
            ]
            if len(positions) < offered:
                rows = rows.take(positions)
        accepted_ids: list[int] = []
        with obs.span(
            "dgms.ingest.oltp",
            rows=len(positions), skipped=offered - len(positions),
        ):
            for start in range(0, len(positions), chunk_rows):
                chunk = range(start, min(start + chunk_rows, len(positions)))
                chunk_ids = self._with_retry(
                    "ingest.oltp",
                    lambda chunk=chunk: _insert_visits(
                        store,
                        rows.take(chunk) if len(chunk) < rows.num_rows else rows,
                        positions[chunk.start:chunk.stop],
                        self.quarantine,
                        batch,
                    ),
                )
                accepted_ids.extend(chunk_ids)
                # counted per committed chunk: a later crash leaves the
                # ledger showing the warehouse behind the OLTP store,
                # which disqualifies the next delta publish
                self._oltp_rows += len(chunk_ids)
        try:
            yield accepted_ids
        except Exception:
            if all_or_nothing:
                with store.transaction():
                    for row_id in accepted_ids:
                        store.delete("attendances", row_id)
                self._oltp_rows -= len(accepted_ids)
            raise

    # -- staging, rebuild and commit --------------------------------------

    def _rebuild_staged(
        self, batch: str
    ) -> tuple[Table, DiscriWarehouse, Cube, ListSink | None]:
        """Rebuild every analytical layer *off to the side*.

        ETL + warehouse + cube over the whole stored history, quarantine
        commit, feedback replay, lattice — the fallback of every ingest
        and the only path a redrive has (it rewrites history).  Returns
        ``(source, built, cube, staged)`` without touching any
        published handle — readers keep the old epoch until the caller
        hands the result to :meth:`_commit_rebuilt`, and a permanently
        failing step aborts with the old epoch still serving.
        """
        source = self.operational_store.scan("attendances")

        def rebuild():
            staged = stage(self.quarantine)
            built = build_discri_warehouse(source, quarantine=staged, batch=batch)
            cube = Cube(built.warehouse, managed=True, runtime=self.runtime)
            return built, cube, staged

        with obs.span("dgms.ingest.rebuild"):
            built, cube, staged = self._with_retry("ingest.rebuild", rebuild)
        self._with_retry(
            "ingest.quarantine", lambda: commit_staged(staged, self.quarantine)
        )
        with obs.span(
            "dgms.ingest.feedback_replay", builders=len(self._feedback_builders)
        ):
            self._with_retry(
                "ingest.feedback", lambda: self._replay_feedback(built.warehouse)
            )
        self._lattice_or_degrade(cube)
        return source, built, cube, staged

    def _commit_rebuilt(
        self, source: Table, built: DiscriWarehouse, cube: Cube
    ) -> None:
        """Swap a :meth:`_rebuild_staged` result in for the published state."""
        self._source = _Parts(source)
        self._transformed = _take_transformed(built)
        self._covered_rows = self._oltp_rows = source.num_rows
        self._built = built
        self.warehouse = built.warehouse
        self.etl_audit = built.etl_result.audit
        self._commit_cube(cube)
        self.maintenance["full_rebuilds"] += 1

    def _checkpoint_if_durable(self) -> None:
        if self.durable_root is not None:
            self._with_retry("ingest.checkpoint", self._checkpoint_durable)

    # -- incremental maintenance (delta folding) -------------------------

    def _delta_ineligible_reason(self, batch_rows: int) -> str | None:
        """Why this batch cannot be published as a delta (None = it can).

        The decision table of DESIGN.md "Incremental maintenance": any
        schema/dimension drift, missing cross-batch ETL state, or a
        warehouse that lags the OLTP store (an interrupted earlier batch)
        forces the full rebuild.
        """
        if not self.incremental:
            return "incremental maintenance disabled"
        if self._built.loader is None:
            return "warehouse build retained no loader"
        if self._built.delta_state is None:
            return self._built.delta_reason or "no cross-batch ETL state"
        if self.cube._state is None:  # caller primes this; guard anyway
            return "no published epoch to extend"
        if self.cube._state.schema_version != self.cube._current_version():
            return "dimension schema changed since the published epoch"
        if self._covered_rows + batch_rows != self._oltp_rows:
            return "warehouse lags the operational store (interrupted batch)"
        return None

    def _note_delta_fallback(self, reason: str) -> None:
        self.maintenance["last_fallback_reason"] = reason
        per: dict = self.maintenance["fallback_reasons"]
        per[reason] = per.get(reason, 0) + 1
        obs.count("dgms.ingest.delta_fallback")

    def _try_ingest_delta(self, batch_tbl: Table, *, batch: str) -> bool:
        """Attempt an O(batch) delta publish; ``False`` → caller rebuilds.

        Runs the incremental ETL over just the appended rows, loads them
        into the *live* star schema (readers are safe: published epochs
        snapshot their row blocks), flattens only the appended fact
        slice, publishes a delta epoch and folds the lattice forward.
        Every ineligible or surprising condition falls back to the full
        rebuild instead of guessing — the fallback is always correct.
        """
        if self.cube._state is None and self.incremental:
            # nothing published yet (no query ran): pin the pre-batch
            # epoch now so there is a base to extend — the flatten costs
            # what the fallback rebuild would have paid anyway, and the
            # warehouse does not yet contain this batch's rows
            self.cube._current_state()
        reason = self._delta_ineligible_reason(batch_tbl.num_rows)
        if reason is None:
            base = self._source.parts[0]
            if (
                batch_tbl.column_names != base.column_names
                or batch_tbl.schema != base.schema
            ):
                reason = "batch schema differs from the source history"
        if reason is not None:
            self._note_delta_fallback(reason)
            return False
        state = self._built.delta_state
        prev_state = self.cube._state
        old_lattice = self.cube.lattice
        staged = stage(self.quarantine)
        try:
            with obs.span("dgms.ingest.delta", rows=batch_tbl.num_rows):
                outcome = run_delta(
                    state, batch_tbl, quarantine=staged, batch_tag=batch
                )
                if outcome.fallback_reason is not None:
                    self._note_delta_fallback(outcome.fallback_reason)
                    return False
                delta_tbl = outcome.table
                loader = self._built.loader
                fact_start = loader.schema.fact.num_rows
                report = loader.load(
                    delta_tbl,
                    quarantine=staged,
                    batch=batch,
                    source_indices=outcome.kept_indices,
                    extra_keys=self._feedback_key_resolver(),
                )
                if report.quarantined_indices:
                    dropped = set(report.quarantined_indices)
                    delta_tbl = delta_tbl.take(
                        [
                            i
                            for i in range(delta_tbl.num_rows)
                            if i not in dropped
                        ]
                    )
                delta_flat = loader.schema.flatten(start=fact_start)
                new_state = self.cube.publish_delta(delta_flat)
        except Exception as exc:  # noqa: BLE001 - fallback must be total
            # any failure before the publish leaves readers on the old
            # epoch; the full rebuild replaces the (possibly partially
            # loaded) warehouse wholesale, so nothing leaks
            self._note_delta_fallback(f"{type(exc).__name__}: {exc}")
            return False
        # -- committed: the delta epoch is published ----------------------
        commit_delta(state, outcome)
        self._source = self._source.plus(batch_tbl)
        self._covered_rows += batch_tbl.num_rows
        self._transformed = self._transformed.plus(delta_tbl)
        self.etl_audit.append(
            AuditEntry(
                "delta",
                outcome.audit
                or f"batch {batch!r}: +{delta_tbl.num_rows} rows",
            )
        )
        if staged:
            self._with_retry(
                "ingest.quarantine",
                lambda: commit_staged(staged, self.quarantine),
            )
        self._cache_epoch_published(new_state.epoch)
        self.maintenance["delta_publishes"] += 1
        obs.count("dgms.ingest.delta_publish")
        self._fold_lattice_forward(
            old_lattice, prev_state, new_state, delta_flat
        )
        self._checkpoint_if_durable()
        return True

    def _fold_lattice_forward(
        self, old_lattice, prev_state, new_state, delta_flat: Table
    ) -> None:
        """Carry the materialised lattice to the delta epoch.

        Folds per-node aggregate deltas into the previous epoch's node
        tables (the O(batch) path).  A stale or missing lattice is fully
        re-materialised instead; a permanently failing fold degrades to
        un-materialised queries, exactly like :meth:`_lattice_or_degrade`.
        """
        if self._lattice_groups is None:
            return
        if old_lattice is None or not old_lattice.fresh_for_state(prev_state):
            # nothing valid to fold forward — rebuild from scratch
            self._lattice_or_degrade()
            return

        def fold():
            faults.fire("lattice.delta_merge")
            return old_lattice.fold_delta(new_state, delta_flat)

        try:
            folded = self._with_retry("lattice.delta_merge", fold)
        except PermanentIngestError as exc:
            self._degrade_lattice(
                self.cube, "lattice delta-merge", exc, stacklevel=4
            )
        else:
            self.cube.attach_lattice(folded)
            self.degraded.pop("lattice", None)

    def _feedback_key_resolver(self):
        """Surrogate-key resolver for folded feedback dimensions.

        A delta load feeds the loader's original dimension specs, but the
        fact grain may have grown feedback dimensions since; this closure
        replays each remembered builder's predicate rules over the
        would-be flattened row — base dimensions, measures, then earlier
        feedback verdicts, exactly the order a full-rebuild replay sees —
        and returns the extra ``{dimension: key}`` entries.
        """
        builders = list(self._feedback_builders)
        if not builders:
            return None
        loader = self._built.loader
        schema = loader.schema

        def resolve(source_row: dict, keys: dict) -> dict:
            flat_row: dict[str, object] = {}
            for dim_name, key in keys.items():
                dimension = schema.dimensions[dim_name]
                member = (
                    dimension.member_resolved(key)
                    if isinstance(dimension, SnowflakeDimension)
                    else dimension.member(key)
                )
                for attr, value in member.items():
                    flat_row[f"{dim_name}.{attr}"] = value
            for measure in loader.measures:
                flat_row[measure.name] = source_row.get(
                    loader.measure_columns[measure.name]
                )
            extra: dict[str, int] = {}
            for builder in builders:
                dimension = schema.dimensions.get(builder.name)
                if dimension is None:  # pragma: no cover - fold journals it
                    continue
                key = UNKNOWN_KEY
                for entry in builder.entries:
                    if entry.predicate(flat_row):
                        key = dimension.add_member(
                            {
                                builder.attribute: entry.label,
                                "author": entry.author,
                                "rationale": entry.rationale,
                            }
                        )
                        break
                extra[builder.name] = key
                # later builders may reference this verdict, mirroring the
                # full replay where each fold flattens the previous ones
                member = (
                    dimension.member(key)
                    if key != UNKNOWN_KEY
                    else {attr: None for attr in dimension.attributes}
                )
                for attr, value in member.items():
                    flat_row[f"{builder.name}.{attr}"] = value
            return extra

        return resolve

    def _replay_feedback(self, warehouse) -> None:
        for builder in self._feedback_builders:
            if builder.name not in warehouse.dimension_names:
                warehouse.fold_feedback(builder)

    def _lattice_or_degrade(self, cube: Cube | None = None) -> None:
        """Re-materialise the lattice; on permanent failure, degrade.

        The lattice is an accelerator, not ground truth — so a permanently
        failing re-materialisation detaches it and lets queries fall back
        to base-table scans, with a warning and a ``degraded`` flag,
        rather than failing the whole ingest.  During ingest ``cube`` is
        the *staged* cube, so the lattice — like the flat view — is built
        fully off to the side before the commit swap makes it visible.
        """
        if cube is None:
            cube = self.cube
        if self._lattice_groups is None:
            return
        from repro.olap.materialized import MaterializedCube

        def rematerialize():
            lattice = MaterializedCube(cube).materialize(self._lattice_groups)
            cube.attach_lattice(lattice)

        try:
            self._with_retry("ingest.lattice", rematerialize)
        except PermanentIngestError as exc:
            self._degrade_lattice(
                cube, "lattice re-materialisation", exc, stacklevel=3
            )
        else:
            self.degraded.pop("lattice", None)

    def _degrade_lattice(
        self, cube: Cube, what: str, exc: PermanentIngestError, stacklevel: int
    ) -> None:
        """Detach ``cube``'s lattice after ``what`` failed for good.

        Queries fall back to base-table scans; the ``degraded`` flag and
        a warning (at the caller's ``stacklevel``) say so until the next
        successful ingest clears it.
        """
        cube.detach_lattice()
        self.degraded["lattice"] = str(exc)
        obs.count("ingest.degraded")
        warnings.warn(
            f"{what} failed; queries fall back to un-materialised scans "
            f"until the next successful ingest: {exc}",
            RuntimeWarning,
            stacklevel=stacklevel + 1,
        )

    def _with_retry(self, point: str, fn):
        def on_retry(p: str, attempt: int, exc: BaseException, delay: float):
            self._retry_counts[p] = self._retry_counts.get(p, 0) + 1

        return with_retry(point, fn, policy=self.retry_policy, on_retry=on_retry)

    def _journal_fold(self, name: str) -> None:
        engine = self.operational_store
        existing = {
            row["dimension"] for row in engine.scan(_FOLD_TABLE).iter_rows()
        }
        if name in existing:
            return
        with engine.transaction():
            engine.insert(
                _FOLD_TABLE, {"fold_id": len(existing) + 1, "dimension": name}
            )

    def _journal_knowledge(self, events: list[KnowledgeEvent]) -> None:
        """Commit knowledge-base events to the operational store, as one
        transaction (the base applies them only once this returns)."""
        engine = self.operational_store
        with self._writer_lock:
            first = engine.row_count(EVENTS_TABLE) + 1
            with engine.transaction():
                for offset, event in enumerate(events):
                    engine.insert(EVENTS_TABLE, event_row(event, first + offset))

    def _checkpoint_durable(self) -> None:
        """Checkpoint both durable stores — each only when it is due.

        Every commit is already durable in its store's WAL; this only
        bounds how much log a recovery replays.
        """
        snaps = self.durable_root / "snaps"
        if checkpoint_if_due(self.operational_store, snaps) is None:
            self._checkpoints_deferred += 1
        else:
            self._checkpoints_deferred = 0
        if isinstance(self.quarantine, QuarantineStore):
            self.quarantine.checkpoint()

    def _checkpoint_health(self) -> "dict | None":
        """Generation/WAL sizes for ``ingest_health()`` (None if not durable)."""
        if self.durable_root is None:
            return None
        status = checkpoint_status(
            self.operational_store, self.durable_root / "snaps"
        )
        del status["due"]  # the write path acts on it; health reports sizes
        status["deferred"] = self._checkpoints_deferred
        return status

    # -- health / re-drive ----------------------------------------------

    def ingest_health(self) -> dict:
        """Operational health of the ingest path, metrics-independent.

        Quarantine totals, retry counts per boundary, degraded-mode flags
        and the WAL's committed high-water mark — the dictionary behind
        ``python -m repro stats`` and the ``quarantine`` CLI, usable with
        observability disabled.
        """
        q = self.quarantine
        is_store = isinstance(q, QuarantineStore)
        runtime = self.runtime
        return {
            "resilient": q is not None,
            "durable": self.durable_root is not None,
            "quarantined_total": len(q) if hasattr(q, "__len__") else 0,
            "quarantined_by_step": q.counts("step") if is_store else {},
            "quarantined_by_error": q.counts("error_type") if is_store else {},
            "retries_total": sum(self._retry_counts.values()),
            "retries_by_boundary": dict(sorted(self._retry_counts.items())),
            "degraded": dict(self.degraded),
            "wal_committed_seq": self.operational_store.wal.committed_seq,
            "checkpoint": self._checkpoint_health(),
            "data_version": self.data_version,
            "epoch": self.epoch,
            "incremental": self.incremental,
            "maintenance": {
                **self.maintenance,
                "fallback_reasons": dict(self.maintenance["fallback_reasons"]),
            },
            "planner": runtime.planner.snapshot(),
            "result_cache": (
                runtime.cache.stats_snapshot()
                if runtime.cache is not None
                else None
            ),
            "serving": (
                runtime.serving.snapshot()
                if runtime.serving is not None
                else None
            ),
            "storage": self._storage_health(),
            #: breakers are process-global — report them even without a
            #: configured runtime so chaos harnesses see degradations
            "degradations": resilience.active_degradations(),
        }

    def redrive_quarantine(
        self, *, repair=None, batch: str = "redrive"
    ) -> RedriveReport:
        """Re-ingest dead-letter rows (optionally repaired) and purge winners.

        ``repair`` is an optional ``dict -> dict`` applied to each stored
        row before the attempt — the "after fixing the scheme or the
        data" half of the quarantine workflow.  Each row is upserted into
        the operational store, the warehouse is rebuilt, and entries whose
        rows now load cleanly are removed from the store; rows that still
        fail stay quarantined under their fresh diagnosis.
        """
        if not isinstance(self.quarantine, QuarantineStore):
            raise IngestError(
                "re-drive needs a QuarantineStore sink (system built with "
                "quarantine=QuarantineStore(...) or durable_root=...)"
            )
        store = self.quarantine

        def handler(entries: list[QuarantinedRow]) -> list[int]:
            upserted: list[QuarantinedRow] = []
            for entry in entries:
                row = {
                    name: entry.row.get(name)
                    for name in self._source_columns()
                }
                vid = row.get("visit_id")
                if vid is None:
                    continue  # unaddressable: stays quarantined
                try:
                    with self.operational_store.transaction():
                        if self.operational_store.has_pk("attendances", vid):
                            self.operational_store.update_by_pk(
                                "attendances", vid, row
                            )
                        else:
                            self.operational_store.insert("attendances", row)
                except ReproError:
                    continue  # still structurally invalid: stays
                upserted.append(entry)
            # repaired rows change earlier batches: always a full rebuild
            source, built, cube, staged = self._rebuild_staged(batch)
            self._commit_rebuilt(source, built, cube)
            still_bad = {e.row.get("visit_id") for e in staged.entries}
            return [
                e.entry_id
                for e in upserted
                if e.row.get("visit_id") not in still_bad
            ]

        with self._writer_lock, obs.span("dgms.redrive", entries=len(store)):
            report = store.redrive(handler, repair=repair)
            self._checkpoint_if_durable()
            self.data_version += 1
        return report
