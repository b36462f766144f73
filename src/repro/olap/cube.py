"""The OLAP cube: multidimensional aggregation over a star schema.

Concurrency model (the serving layer, DESIGN.md §"Serving & epochs"):
all per-version derived data — the flattened view, the cached group-bys,
the qualified-attribute map — lives in one immutable-after-build
:class:`CubeState` (an **epoch**).  Readers pin the current state once
per query; writers build the next state off to the side and publish it
with a single reference swap (:meth:`Cube.publish`), so a query running
concurrently with an ingest finishes on the epoch it started on and can
never observe a torn rebuild or alias an old group-by against a new flat
view.  :meth:`Cube.snapshot` hands out an explicit pinned read view.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Mapping, NamedTuple, Sequence

from repro import obs
from repro.errors import (
    OLAPError,
    QueryCancelledError,
    QueryTimeoutError,
    UnknownLevelError,
)
from repro.olap.aggregates import validate_aggregation
from repro.planner.router import QueryPlanner
from repro.serving import resilience
from repro.serving.epoch import next_epoch_id
from repro.serving.resilience import checkpoint
from repro.storage import faults
from repro.storage.faults import SimulatedCrash
from repro.tabular.expressions import Expression, col
from repro.tabular.groupby import GroupBy
from repro.tabular.table import Table
from repro.warehouse.attribute import Hierarchy
from repro.warehouse.dynamic import DynamicWarehouse
from repro.warehouse.star import StarSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.olap.materialized import MaterializedCube
    from repro.olap.query import QueryBuilder
    from repro.serving.admission import ServingRuntime
    from repro.serving.cache import ResultCache
    from repro.storage.columnar import PartitionedStore, StorageConfig


class CubeState:
    """One committed epoch: the flat view plus every cache derived from it.

    Instances are immutable once published, except the group-by cache,
    which only ever *adds* entries over the state's own (frozen) flat
    view under the state's lock — so sharing a state between reader
    threads is safe, and holding a stale state keeps serving a fully
    consistent old snapshot rather than a mix of versions.
    """

    __slots__ = (
        "epoch", "schema_version", "qattrs", "groupbys", "lock",
        "_flat", "_parts", "store",
    )

    def __init__(
        self,
        epoch: int,
        schema_version: int,
        flat: Table | None,
        qattrs: dict[str, tuple[str, str]],
        *,
        parts: Sequence[Table] | None = None,
        store: "PartitionedStore | None" = None,
    ):
        if flat is None and not parts and store is None:
            raise OLAPError("CubeState needs a flat view or parts to build one")
        self.epoch = epoch
        self.schema_version = schema_version
        #: either the materialised flat view, or None while ``_parts``
        #: holds the predecessor's view plus appended row blocks — a
        #: delta publish stays O(batch) and the concatenation happens on
        #: the first read that actually needs the full view.  With a
        #: partitioned ``store`` attached, None means the flat view is
        #: decoded from the store's segments on the first read that
        #: actually needs it — filtered scans never force it.
        self._flat = flat
        self._parts: list[Table] | None = (
            list(parts) if flat is None and parts else None
        )
        #: partitioned columnar segments holding exactly this epoch's
        #: rows (immutable, like the state itself); None when the epoch
        #: runs on the classic monolithic flat view
        self.store = store
        self.qattrs = qattrs
        self.groupbys: dict[tuple[str, ...], GroupBy] = {}
        self.lock = threading.Lock()

    @property
    def flat(self) -> Table:
        """The epoch's flat view (concatenated/decoded on first access)."""
        flat = self._flat
        if flat is None:
            with self.lock:
                flat = self._flat
                if flat is None:
                    if self._parts is not None:
                        flat = Table.concat_all(self._parts)
                    else:
                        # store-backed epoch: decode all segments back
                        # into exact flat-view row order
                        flat = self.store.to_table()  # type: ignore[union-attr]
                    self._flat = flat
        return flat

    @property
    def num_rows(self) -> int:
        """Row count of the flat view, without forcing a lazy concat."""
        if self._flat is not None:
            return self._flat.num_rows
        with self.lock:
            if self._flat is not None:
                return self._flat.num_rows
            if self._parts is not None:
                return sum(part.num_rows for part in self._parts)
            return self.store.num_rows  # type: ignore[union-attr]

    def scan_filter(
        self, filters: "Expression | None"
    ) -> "tuple[Table, object | None]":
        """Partition-aware ``flat.filter``: ``(rows, ScanStats | None)``.

        Store-backed epochs prune segments via zone maps and fan the
        surviving scans out (byte-identical to the flat filter); classic
        epochs fall through to the monolithic path with ``None`` stats.
        """
        if self.store is not None:
            return self.store.scan_filter(filters)
        flat = self.flat
        return (flat if filters is None else flat.filter(filters)), None

    def scan(self, predicate: "Expression | None" = None):
        """Iterate the epoch's rows partition by partition.

        Yields decoded per-segment chunks for store-backed epochs
        (pruned by zone maps); a single flat-view chunk otherwise.
        """
        if self.store is not None:
            for _segment, chunk in self.store.scan(predicate):
                yield chunk
        else:
            yield self.flat

    def flat_is(self, table: Table) -> bool:
        """Identity test against the materialised flat view.

        False while the view is still lazy — callers comparing flat-view
        identity (the pre-epoch freshness API) then conservatively treat
        the state as different.
        """
        return self._flat is not None and self._flat is table

    def parts_snapshot(self) -> list[Table]:
        """The row blocks a successor epoch extends (thread-safe)."""
        with self.lock:
            if self._flat is not None:
                return [self._flat]
            if self._parts is not None:
                return list(self._parts)
        # store-backed and not yet decoded: the decoded flat view is the
        # single block (forces the decode outside the state lock)
        return [self.flat]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CubeState(epoch={self.epoch}, v{self.schema_version}, "
            f"{self.num_rows} rows, {len(self.groupbys)} groupbys)"
        )


def plan_key(
    levels: Sequence[str],
    aggregations: Mapping[str, tuple[str, str]],
    filters: Expression | None,
    force: bool,
) -> Hashable:
    """Canonical, hashable identity of one aggregate request.

    Level order matters (it is the output column order); aggregation
    entries are order-insensitive, so the two spellings of the same
    request share a key.  Filters key on their ``describe()`` rendering,
    which ``repr``s every operand — distinct values or value types can
    not collide.
    """
    return (
        tuple(levels),
        tuple(sorted(
            (out, target, func)
            for out, (target, func) in aggregations.items()
        )),
        filters.describe() if filters is not None else None,
        bool(force),
    )


def _partition_detail(stats) -> str:
    """Per-partition est/actual/timing detail as a compact JSON string.

    Lives in a span attribute (scalars only survive every sink), parsed
    back by :meth:`repro.obs.explain.ExplainReport.partition_stats`.
    """
    import json

    return json.dumps(stats.partitions, separators=(",", ":"))


@dataclass(slots=True)
class CubeRuntime:
    """What a cube serves *with*: cache, admission, route counts, storage config.

    One small mutable holder, shared **by reference**: ``DDDGMS`` creates
    one and hands it to every cube it builds (and every snapshot those
    cubes pin), so attaching or detaching a component is a single field
    assignment that the current cube and all its successors see — there
    is nothing to re-attach after a rebuild.  A bare ``Cube(schema)``
    gets an empty one of its own.  The lattice is *not* here: it pins an
    epoch, so it belongs to the cube.
    """

    #: versioned result cache (epoch ids are process-unique, so entries
    #: of one cube can never alias a successor's state)
    cache: "ResultCache | None" = None
    #: admission gate + default deadline for the query front-ends
    serving: "ServingRuntime | None" = None
    #: the lattice's route chooser and its per-kind route counts
    planner: QueryPlanner = field(default_factory=QueryPlanner)
    #: partitioning/encoding of every *future* epoch build
    storage: "StorageConfig | None" = None


class AggregatePlan(NamedTuple):
    """One aggregate request, resolved once and carried down the pipeline."""

    #: qualified grouping levels, in output column order
    levels: tuple[str, ...]
    #: output column -> (target, function), defaulted to the record count
    aggregations: Mapping[str, tuple[str, str]]
    filters: Expression | None
    force: bool
    #: canonical request identity (:func:`plan_key`) — the cache key
    key: Hashable


def _guarded(dependency: str, fn: Callable, *args) -> tuple[bool, object]:
    """Run ``fn(*args)`` behind ``dependency``'s breaker: ``(answered, value)``.

    The single implementation of the degradation ladder (DESIGN.md
    §"The read pipeline"): every rung that can be skipped — cache get,
    lattice, cache put — calls through here, and ``answered=False`` tells
    the caller to take the next rung down.  Every exit from a granted
    ``allow()`` reports back to the breaker:

    * a dependency fault (any other exception) scores a failure and
      degrades, as does a breaker that refuses outright;
    * deadline expiry and cancellation are the *query's* outcome and
      propagate, but still count against the tier that stalled, so a
      wedged dependency opens its breaker and later queries skip it;
    * an :class:`OLAPError` is the query's own fault — the dependency
      answered, so it scores a success and propagates;
    * a :class:`SimulatedCrash` says nothing about the dependency: the
      probe is released unscored and the crash propagates.
    """
    brk = resilience.breaker(dependency)
    if brk.allow():
        try:
            value = fn(*args)
        except (QueryTimeoutError, QueryCancelledError):
            brk.record_failure()
            raise
        except OLAPError:
            brk.record_success()
            raise
        except SimulatedCrash:
            brk.release()
            raise
        except Exception:
            brk.record_failure()
        else:
            brk.record_success()
            return True, value
    obs.count(f"serving.degraded.{dependency}")
    return False, None


def _cache_get(cache: "ResultCache", epoch: int, key: Hashable) -> Table | None:
    faults.fire("serving.cache")
    return cache.get(epoch, key)


def _cache_put(cache: "ResultCache", epoch: int, key: Hashable, table: Table) -> None:
    faults.fire("serving.cache")
    cache.put(epoch, key, table)


class _CubeReads:
    """The read API over one pinned ``(state, lattice, runtime)``.

    Shared by :class:`Cube` (which pins its current epoch per call) and
    :class:`CubeSnapshot` (pinned for life): metadata, level validation
    and the one aggregate pipeline, :meth:`_aggregate`.
    """

    #: implicit measure: number of fact rows in the cell
    RECORDS = "records"

    name: str
    schema: StarSchema
    runtime: CubeRuntime
    _lattice: "MaterializedCube | None"

    def _current_state(self) -> CubeState:
        """The epoch this reader answers from."""
        raise NotImplementedError

    @property
    def epoch(self) -> int:
        """The epoch id reads answer from (process-unique per publish)."""
        return self._current_state().epoch

    @property
    def flat(self) -> Table:
        """The denormalised fact+dimension view of that epoch."""
        return self._current_state().flat

    @property
    def lattice(self) -> "MaterializedCube | None":
        """The attached materialised lattice, if any."""
        return self._lattice

    @property
    def planner(self) -> QueryPlanner:
        """The route chooser the lattice consults (and its route counts)."""
        return self.runtime.planner

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------

    def qualified_attributes(
        self, state: CubeState | None = None
    ) -> dict[str, tuple[str, str]]:
        """``"dim.attr"`` → (dimension, attribute), cached per epoch.

        Rebuilding this mapping walks every dimension; callers (level
        validation, hierarchies) hit it on every query, so it is built
        once when the epoch is published.
        """
        return (state or self._current_state()).qattrs

    @property
    def levels(self) -> list[str]:
        """All qualified levels (``dim.attr``)."""
        return list(self.qualified_attributes())

    @property
    def measure_names(self) -> list[str]:
        """Fact measures plus the implicit record count."""
        return list(self.schema.fact.measures) + [self.RECORDS]

    def check_level(self, level: str, state: CubeState | None = None) -> str:
        """Validate a level name, returning it; raises with suggestions."""
        qattrs = self.qualified_attributes(state)
        if level in qattrs:
            return level
        # allow bare attribute names when unambiguous
        matches = [q for q, (_, attr) in qattrs.items() if attr == level]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise UnknownLevelError(
                f"level {level!r} is ambiguous: {', '.join(matches)}"
            )
        raise UnknownLevelError(
            f"unknown level {level!r} (known: {', '.join(qattrs)})"
        )

    def hierarchy_for(self, level: str) -> tuple[str, Hierarchy] | None:
        """(dimension, hierarchy) containing the given level, if any."""
        state = self._current_state()
        dim_name, attr = state.qattrs[self.check_level(level, state)]
        hierarchy = self.schema.dimension(dim_name).hierarchy_for_level(attr)
        if hierarchy is None:
            return None
        return dim_name, hierarchy

    def level_members(self, level: str) -> list[object]:
        """Distinct values of a level, in value order."""
        state = self._current_state()
        qualified = self.check_level(level, state)
        return state.flat.column(qualified).unique()

    def scan(self, predicate: Expression | None = None):
        """Iterate the epoch's rows partition by partition."""
        return self._current_state().scan(predicate)

    def grand_total(
        self,
        aggregations: Mapping[str, tuple[str, str]] | None = None,
        filters: Expression | None = None,
    ) -> dict[str, object]:
        """Single-row aggregate over the whole (possibly filtered) cube."""
        return self.aggregate([], aggregations, filters).row(0)

    def slice_values(self, level: str, value: object) -> Expression:
        """Predicate fixing one level to one member (a slice)."""
        return col(self.check_level(level)).eq(value)

    def query(self) -> "QueryBuilder":
        """Start a fluent query against this reader (drag-and-drop analogue)."""
        from repro.olap.query import QueryBuilder

        return QueryBuilder(self)

    # ------------------------------------------------------------------
    # The read pipeline: plan → cache → route → execute → put
    # ------------------------------------------------------------------

    def _plan(
        self,
        state: CubeState,
        levels: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]] | None = None,
        filters: Expression | None = None,
        force: bool = False,
    ) -> AggregatePlan:
        """Resolve one request against ``state`` — once per query.

        Everything later stages need is decided here and carried in the
        record: the qualified levels, the defaulted aggregations and the
        cache key.
        """
        qualified = tuple([self.check_level(level, state) for level in levels])
        aggregations = dict(
            aggregations or {self.RECORDS: (self.RECORDS, "size")}
        )
        return AggregatePlan(
            qualified, aggregations, filters, bool(force),
            plan_key(qualified, aggregations, filters, force),
        )

    def _aggregate(
        self,
        state: CubeState,
        lattice: "MaterializedCube | None",
        levels: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]] | None = None,
        filters: Expression | None = None,
        force: bool = False,
    ) -> Table:
        """One aggregation against one pinned epoch — the whole read path.

        Linear, stage for stage (DESIGN.md §"The read pipeline"):
        **plan** once → **cache probe** → **route + execute** (a lattice
        node, or the base scan) → **cache put**.  The cache and lattice
        rungs each run behind
        :func:`_guarded` and degrade one rung down on dependency faults:
        a broken cache means recompute (never a failed query), a broken
        lattice means a base scan.  The base scan is the bottom rung —
        its typed errors propagate.
        """
        checkpoint()
        with obs.span(
            "cube.aggregate",
            cube=self.name,
            levels=",".join(levels) if levels else "<grand total>",
            filtered=filters is not None,
            epoch=state.epoch,
        ) as sp:
            degraded = resilience.active_degradations()
            if degraded:
                sp.set(degraded=",".join(sorted(degraded)))
            plan = self._plan(state, levels, aggregations, filters, force)

            cache = self.runtime.cache
            cached: Table | None = None
            if cache is not None:
                answered, cached = _guarded(
                    "cache", _cache_get, cache, state.epoch, plan.key
                )
                if answered:
                    sp.set(cache="hit" if cached is not None else "miss")
                else:
                    cache = None  # recompute rung (skip the put too)

            result = cached
            if result is None:
                if lattice is not None and lattice.fresh_for_state(state):
                    _, result = _guarded("lattice", lattice.answer, plan, state)
                if result is None:
                    result = self._scan_base(plan, state)
            sp.set(cells=result.num_rows)
            if cached is None and cache is not None:
                # stored only after full success: a timed-out or
                # cancelled query never reaches this line
                _guarded("cache", _cache_put, cache, state.epoch, plan.key, result)
            return result

    def _grouped(self, state: CubeState, keys: tuple[str, ...]) -> GroupBy:
        """A cached ``GroupBy`` over the epoch's flat view for ``keys``.

        The ``GroupBy`` memoises its key factorisation, so repeated
        ``aggregate()`` calls within one epoch pay the grouping cost
        once.  The cache lives *in the state*: a new epoch starts empty,
        and old epochs keep theirs — no cross-epoch aliasing.
        """
        with state.lock:
            grouped = state.groupbys.get(keys)
            if grouped is None:
                obs.count("olap.groupby_cache.miss")
                grouped = state.flat.groupby(*keys)
                state.groupbys[keys] = grouped
            else:
                obs.count("olap.groupby_cache.hit")
            return grouped

    def _scan_base(self, plan: AggregatePlan, state: CubeState) -> Table:
        """The base route: aggregate by scanning the epoch's fact rows.

        The bottom rung of the ladder and the reference every other
        route is checked against; also how lattice nodes are built.
        """
        qualified = plan.levels
        filters = plan.filters
        obs.count("olap.aggregate.base_scans")
        with obs.span("scan.base", source="fact table") as scan_sp:
            # the zone-map row guess lands on the span before the scan,
            # next to the rows_scanned the scan then measures
            scan_sp.set(est_rows=QueryPlanner.estimate_base_rows(state, filters))
            # bottom rung of the degradation ladder: the serving.scan
            # fault point fires un-wrapped here — there is nothing left
            # to degrade to, so injected errors propagate typed
            faults.fire("serving.scan")
            checkpoint()
            if state.store is not None and filters is not None:
                # partitioned scan: zone maps prune segments before any
                # kernel runs; answers stay byte-identical to the flat
                # filter (rows come back in flat-view order)
                table, stats = state.store.scan_filter(filters)
                scan_sp.set(
                    predicate=filters.describe(),
                    partitions_scanned=stats.segments_scanned,
                    partitions_pruned=stats.segments_pruned,
                    segments_total=stats.segments_total,
                    partition_detail=_partition_detail(stats),
                )
                scan_sp.set(
                    rows_scanned=stats.rows_scanned, rows_kept=table.num_rows
                )
            else:
                flat = state.flat
                if filters is None:
                    table = flat
                else:
                    table = flat.filter(filters)
                    scan_sp.set(predicate=filters.describe())
                if state.store is not None:
                    # unfiltered scan over a partitioned epoch: nothing
                    # to prune, but the contract fields stay present
                    total = len(state.store.segments)
                    scan_sp.set(
                        partitions_scanned=total,
                        partitions_pruned=0,
                        segments_total=total,
                    )
                scan_sp.set(rows_scanned=flat.num_rows, rows_kept=table.num_rows)

        specs: dict[str, tuple[str, str]] = {}
        for out_name, (target, func) in plan.aggregations.items():
            if target == self.RECORDS:
                if func not in ("size", "count"):
                    raise OLAPError(
                        f"the implicit {self.RECORDS!r} measure only supports "
                        f"size/count, not {func!r}"
                    )
                anchor = qualified[0] if qualified else table.column_names[0]
                specs[out_name] = (anchor, "size")
            elif target in self.schema.fact.measures:
                validate_aggregation(
                    self.schema.fact.measures[target], func, plan.force
                )
                specs[out_name] = (target, func)
            else:
                level = self.check_level(target, state)
                if func not in ("count", "nunique", "size", "min", "max"):
                    raise OLAPError(
                        f"level {target!r} only supports count/nunique/size/"
                        f"min/max, not {func!r}"
                    )
                specs[out_name] = (level, func)

        checkpoint()
        if qualified and filters is None:
            # unchanged flat view: reuse the epoch's cached key
            # factorisation
            grouped = self._grouped(state, qualified)
        else:
            # a filtered slice, or no levels: the grand total is the
            # zero-key group-by, one group over every row
            grouped = table.groupby(*qualified)
        return grouped.agg(**specs).sort_by(*qualified)


class Cube(_CubeReads):
    """A queryable cube built over a star schema's flattened view.

    *Levels* are qualified dimension attributes (``"personal.age_band"``);
    *measures* are the fact measures plus the implicit ``"records"``
    count.  The flattened view is computed once per epoch and cached;
    ``refresh()``/``publish()`` build a new epoch after the underlying
    (dynamic) schema changes.

    Aggregation requests are ``output_name=(target, aggregation)`` where
    ``target`` is a measure or any level (levels support ``count`` /
    ``nunique`` — that is how "number of patients" is asked for, via
    ``nunique`` over the patient identifier attribute).

    With ``managed=True`` (the DD-DGMS serving mode) the cube never
    rebuilds lazily on schema-version drift: only an explicit
    :meth:`publish` (called by the writer after its mutation commits)
    swaps epochs, so reader threads cannot flatten a half-mutated
    warehouse.  Unmanaged cubes keep the historical auto-refresh-on-drift
    behaviour for single-threaded use.

    ``runtime`` is the :class:`CubeRuntime` the cube serves with; pass
    one to share cache / admission / planner / storage config between
    cubes (``DDDGMS`` does, across rebuilds).  The ``attach_*`` methods
    assign its fields.
    """

    def __init__(
        self,
        schema: StarSchema | DynamicWarehouse,
        name: str | None = None,
        *,
        managed: bool = False,
        runtime: CubeRuntime | None = None,
    ):
        self._dynamic = schema if isinstance(schema, DynamicWarehouse) else None
        self.schema = schema.schema if isinstance(schema, DynamicWarehouse) else schema
        self.name = name or self.schema.name
        self._managed = managed
        self._state: CubeState | None = None
        self._rebuild_lock = threading.RLock()
        self._lattice: "MaterializedCube | None" = None
        self.runtime = runtime if runtime is not None else CubeRuntime()

    def _current_version(self) -> int:
        return self._dynamic.version if self._dynamic is not None else 1

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------

    def _current_state(self) -> CubeState:
        """The pinned-readable current epoch (built lazily on first use).

        Unmanaged cubes also rebuild here when the dynamic schema version
        drifted; managed cubes serve the published epoch untouched until
        the writer calls :meth:`publish`.
        """
        state = self._state
        if state is not None and (
            self._managed or state.schema_version == self._current_version()
        ):
            return state
        with self._rebuild_lock:
            state = self._state
            version = self._current_version()
            if state is not None and (
                self._managed or state.schema_version == version
            ):
                return state
            return self._build_state()

    def _build_state(self) -> CubeState:
        """Build and swap in a fresh epoch (caller holds the rebuild lock)."""
        obs.count("olap.flat.rebuild")
        with obs.span("cube.flatten", cube=self.name) as sp:
            flat = self.schema.flatten()
            sp.set(rows=flat.num_rows)
        store = None
        storage = self.runtime.storage
        if storage is not None:
            from repro.storage.columnar import PartitionedStore

            with obs.span("storage.partition", cube=self.name) as part_sp:
                store = PartitionedStore.build(flat, storage)
                part_sp.set(
                    segments=len(store.segments),
                    partitions=store.partition_count(),
                )
        state = CubeState(
            epoch=next_epoch_id(),
            schema_version=self._current_version(),
            # store-backed epochs keep the just-flattened view too: it is
            # already materialised, so dropping it would only force an
            # immediate re-decode on the first unfiltered aggregate
            flat=flat,
            qattrs=self.schema.qualified_attributes(),
            store=store,
        )
        self._state = state
        obs.set_gauge("serving.epoch", state.epoch)
        return state

    def publish(self) -> CubeState:
        """Eagerly build the next epoch and atomically swap it in.

        The writer-side half of publish-on-commit: the flatten and the
        qualified-attribute walk happen on the calling (writer) thread;
        readers keep the old epoch until the swap and then pick the new
        one up on their next query.  Returns the published state.
        """
        with self._rebuild_lock:
            return self._build_state()

    def publish_delta(self, delta_flat: Table) -> CubeState:
        """Publish the next epoch by *extending* the current flat view.

        The incremental-maintenance publish path: ``delta_flat`` holds the
        flattened form of exactly the fact rows appended since the current
        epoch (same column layout).  The new state references the old
        epoch's row blocks plus the delta and concatenates lazily, so the
        publish itself is O(batch) — the whole point of delta folding.
        Readers pinned to the old epoch are untouched.

        Only valid for appends under an unchanged schema; dimension
        changes (a different qualified-attribute set) must go through
        :meth:`publish` instead.
        """
        with self._rebuild_lock:
            prev = self._state
            if prev is None:
                return self._build_state()
            version = self._current_version()
            if version != prev.schema_version:
                raise OLAPError(
                    "publish_delta on a changed schema "
                    f"(v{prev.schema_version} -> v{version}): full publish "
                    "required"
                )
            if prev.store is not None:
                # partitioned epoch: append the delta as fresh segments
                # routed through the store's resolved spec — O(batch),
                # and the predecessor's segments are shared, not copied
                if delta_flat.num_rows and (
                    delta_flat.column_names != list(prev.store.schema)
                    or delta_flat.schema != prev.store.schema
                ):
                    raise OLAPError(
                        "publish_delta: appended rows do not match the "
                        "epoch's flat-view schema; full publish required"
                    )
                store = (
                    prev.store.append(delta_flat)
                    if delta_flat.num_rows
                    else prev.store
                )
                state = CubeState(
                    epoch=next_epoch_id(),
                    schema_version=version,
                    flat=None,
                    qattrs=prev.qattrs,
                    store=store,
                )
                self._state = state
                obs.count("olap.flat.delta_publish")
                obs.count("storage.segment.appends")
                obs.set_gauge("serving.epoch", state.epoch)
                return state
            parts = prev.parts_snapshot()
            if delta_flat.num_rows:
                if (
                    delta_flat.column_names != parts[0].column_names
                    or delta_flat.schema != parts[0].schema
                ):
                    raise OLAPError(
                        "publish_delta: appended rows do not match the "
                        "epoch's flat-view schema; full publish required"
                    )
                parts.append(delta_flat)
            state = CubeState(
                epoch=next_epoch_id(),
                schema_version=version,
                flat=None,
                qattrs=prev.qattrs,
                parts=parts,
            )
            self._state = state
            obs.count("olap.flat.delta_publish")
            obs.set_gauge("serving.epoch", state.epoch)
            return state

    def refresh(self) -> None:
        """Force a rebuild of the flattened view (and dependent caches).

        Lazy: the next access builds the new epoch.  Old epochs held by
        in-flight readers (via :meth:`snapshot`) stay fully intact —
        caches belong to the epoch, not the cube, so a stale ``GroupBy``
        can never be replayed against a newer flat view.
        """
        with self._rebuild_lock:
            self._state = None

    def snapshot(self) -> "CubeSnapshot":
        """A pinned, immutable read view of the current epoch."""
        state = self._current_state()
        return CubeSnapshot(self, state, self._lattice)

    def compact_storage(self) -> CubeState | None:
        """Merge delta segments back to one segment per partition.

        Publishes the compacted store as a **new epoch** — readers
        pinned to the old epoch (and any :class:`CubeSnapshot` taken
        mid-compaction) keep the old segments untouched, so a
        half-compacted table is never observable.  Fires the
        ``storage.compaction`` fault point before the swap: a kill
        leaves the old epoch current.  Returns the new state, or None
        when the current epoch has no partitioned store.
        """
        with self._rebuild_lock:
            prev = self._state
            if prev is None or prev.store is None:
                return None
            with obs.span("storage.compact", cube=self.name) as sp:
                compacted = prev.store.compact()
                sp.set(
                    segments_before=len(prev.store.segments),
                    segments_after=len(compacted.segments),
                )
                # commit point: a crash here must leave the old epoch
                # serving its (uncompacted but complete) segments
                faults.fire("storage.compaction")
                state = CubeState(
                    epoch=next_epoch_id(),
                    schema_version=prev.schema_version,
                    flat=None,
                    qattrs=prev.qattrs,
                    store=compacted,
                )
                self._state = state
            obs.count("storage.compactions")
            obs.set_gauge("serving.epoch", state.epoch)
            return state

    # ------------------------------------------------------------------
    # What the cube serves with
    # ------------------------------------------------------------------

    def attach_lattice(self, lattice: "MaterializedCube") -> None:
        """Route future ``aggregate`` calls through a materialised lattice.

        The lattice answers covered queries from precomputed cells and
        falls back to the base scan otherwise; it deactivates itself
        automatically when the flat view it was built from is replaced.
        """
        if lattice.cube is not self:
            raise OLAPError("lattice was materialised over a different cube")
        self._lattice = lattice

    def detach_lattice(self) -> None:
        """Stop consulting the attached lattice (if any)."""
        self._lattice = None

    def attach_result_cache(self, cache: "ResultCache | None") -> None:
        """Serve repeated aggregates from ``cache`` (keyed by epoch + plan).

        ``None`` detaches.
        """
        self.runtime.cache = cache

    def attach_serving(self, serving: "ServingRuntime | None") -> None:
        """Put future query execution under ``serving``'s admission gate.

        ``None`` detaches (unbounded serving, the historical behaviour).
        """
        self.runtime.serving = serving

    def attach_storage(self, config: "StorageConfig | bool | None") -> None:
        """Partition future epochs into a compressed columnar store.

        Takes effect at the next epoch build (``publish`` / first query):
        the flat view is sharded per ``config.partitioning`` into
        encoded segments with zone maps, filtered base scans prune and
        scan per partition, and ``publish_delta`` appends segments
        instead of lazy row blocks.  ``None``/``False`` detaches (future
        epochs revert to the monolithic flat view); already-published
        store-backed epochs are immutable and keep serving as built.
        """
        from repro.storage.columnar import coerce_storage

        self.runtime.storage = coerce_storage(config)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def aggregate(
        self,
        levels: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]] | None = None,
        filters: Expression | None = None,
        force: bool = False,
    ) -> Table:
        """Group facts by ``levels`` and aggregate.

        ``aggregations`` maps output column → (target, function); when
        omitted the record count is returned.  ``filters`` restricts the
        fact rows before grouping (a dice).  Returns a table with one row
        per populated cell, sorted by the level columns.

        With a lattice attached (:meth:`attach_lattice`), covered queries
        are answered from precomputed cells instead of the fact scan.
        The epoch is pinned once at entry: the whole aggregation runs
        against one committed snapshot regardless of concurrent ingest.
        """
        return self._aggregate(
            self._current_state(), self._lattice,
            levels, aggregations, filters, force,
        )

    def __repr__(self) -> str:
        return (
            f"Cube({self.name!r}, {self.flat.num_rows} facts, "
            f"{len(self.levels)} levels, measures=[{', '.join(self.measure_names)}])"
        )


class CubeSnapshot(_CubeReads):
    """An immutable read view pinned to one published epoch.

    The same read API as :class:`Cube` (``check_level`` / ``aggregate``
    / ``query`` / metadata), so query builders and the MDX evaluator run
    against it unchanged — but every answer comes from the pinned
    ``(state, lattice)``, no matter how many ingests commit meanwhile.
    The :class:`CubeRuntime` is the owning cube's, shared live.  Obtain
    one from :meth:`Cube.snapshot` or ``DDDGMS.current_epoch()``.
    """

    def __init__(
        self,
        cube: Cube,
        state: CubeState,
        lattice: "MaterializedCube | None" = None,
    ):
        self._state = state
        # only carry a lattice that was materialised from this very epoch
        self._lattice = (
            lattice
            if lattice is not None and lattice.fresh_for_state(state)
            else None
        )
        self.name = cube.name
        self.schema = cube.schema
        self.runtime = cube.runtime

    def _current_state(self) -> CubeState:
        return self._state

    @property
    def store(self):
        """The pinned epoch's partitioned store (None when monolithic)."""
        return self._state.store

    def aggregate(
        self,
        levels: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]] | None = None,
        filters: Expression | None = None,
        force: bool = False,
    ) -> Table:
        """Like :meth:`Cube.aggregate`, but always on the pinned epoch."""
        return self._aggregate(
            self._state, self._lattice, levels, aggregations, filters, force
        )

    def __repr__(self) -> str:
        return (
            f"CubeSnapshot({self.name!r}, epoch={self.epoch}, "
            f"{self.flat.num_rows} facts)"
        )
