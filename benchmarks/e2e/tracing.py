"""Harness-owned spans around calls into each ``repro`` layer.

The traced run wraps public functions and methods of the program *from
the outside* (spans inside the program are a later change): every wrapped
call records ``name, start, end, parent`` in memory, and the tree is
written out once, when the run ends.  The untraced run installs nothing,
so end-to-end timings never pay for a wrapper.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import os
import sys
import time
from typing import Callable

_now = time.perf_counter

#: spans the harness opens itself; they are not layers, so coverage looks
#: through them to the layer calls beneath
HARNESS_PREFIXES = ("phase.", "harness.")


class Tracer:
    """An in-memory span tree for one single-threaded run."""

    def __init__(self) -> None:
        #: parallel arrays, indexed by span id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def begin(self, name: str, **attrs) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        if attrs:
            self.attrs[sid] = attrs
        self._stack.append(sid)
        self.starts.append(_now())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = _now()
        popped = self._stack.pop()
        if popped != sid:  # pragma: no cover - wrappers nest by construction
            raise RuntimeError(
                f"span {self.names[sid]!r} closed while {self.names[popped]!r} is open"
            )

    def annotate(self, sid: int, **attrs) -> None:
        self.attrs.setdefault(sid, {}).update(attrs)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = self.begin(name, **attrs)
        try:
            yield sid
        finally:
            self.end(sid)

    # -- reading the tree ------------------------------------------------

    def duration(self, sid: int) -> float:
        return self.ends[sid] - self.starts[sid]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.names]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                kids[parent].append(sid)
        return kids

    def within(self, root: int) -> range:
        """Every descendant of ``root`` (not ``root`` itself).

        Ids are handed out in start order on one thread, so a span's
        descendants are exactly the ids after it that start before it ends.
        """
        return range(
            root + 1, bisect.bisect_left(self.starts, self.ends[root], root + 1)
        )

    def layer_time(self, root: int, kids: list[list[int]]) -> float:
        """Time under ``root`` spent inside named layer calls."""
        total = 0.0
        for sid in kids[root]:
            if self.names[sid].startswith(HARNESS_PREFIXES):
                total += self.layer_time(sid, kids)
            else:
                total += self.duration(sid)
        return total

    def self_times(self, kids: list[list[int]]) -> list[float]:
        return [
            self.duration(sid) - sum(self.duration(k) for k in kids[sid])
            for sid in range(len(self.names))
        ]

    def to_payload(self) -> dict:
        origin = self.starts[0] if self.starts else 0.0
        return {
            "columns": ["id", "name", "start_s", "end_s", "parent", "attrs"],
            "spans": [
                [
                    sid, self.names[sid],
                    round(self.starts[sid] - origin, 7),
                    round(self.ends[sid] - origin, 7),
                    self.parents[sid], self.attrs.get(sid),
                ]
                for sid in range(len(self.names))
            ],
        }


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, func: Callable,
          before: Callable | None, after: Callable | None) -> Callable:
    @functools.wraps(func)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        if before is not None:
            tracer.annotate(sid, **before(*args, **kwargs))
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.end(sid)
        if after is not None:
            tracer.annotate(sid, **after(result))
        return result

    return traced


def _wrap_scope(tracer: Tracer, name: str, func: Callable) -> Callable:
    """Wrap a context-manager factory: one span for entry, one for exit.

    The body of the ``with`` block is *not* inside either span — what is
    measured is what the scope itself costs (admission and release).
    """

    @functools.wraps(func)
    @contextlib.contextmanager
    def traced(*args, **kwargs):
        manager = func(*args, **kwargs)
        with tracer.span(name):
            value = manager.__enter__()
        try:
            yield value
        except BaseException:
            with tracer.span(name):
                swallowed = manager.__exit__(*sys.exc_info())
            if not swallowed:
                raise
        else:
            with tracer.span(name):
                manager.__exit__(None, None, None)

    return traced


class Instrumentation:
    """Installs span wrappers on public callables and removes them again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls: type, attr: str, name: str, *,
               before: Callable | None = None,
               after: Callable | None = None, scope: bool = False) -> None:
        original = cls.__dict__[attr]
        is_static = isinstance(original, staticmethod)
        is_class = isinstance(original, classmethod)
        func = original.__func__ if (is_static or is_class) else original
        wrapped = (
            _wrap_scope(self.tracer, name, func)
            if scope
            else _wrap(self.tracer, name, func, before, after)
        )
        if is_static:
            wrapped = staticmethod(wrapped)
        elif is_class:
            wrapped = classmethod(wrapped)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def function(self, module, attr: str, name: str, *,
                 before: Callable | None = None,
                 after: Callable | None = None) -> None:
        """Wrap a module-level function wherever ``repro`` imported it."""
        original = getattr(module, attr)
        wrapped = _wrap(self.tracer, name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for global_name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, global_name, original))
                    setattr(mod, global_name, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Instrumentation:
    """Wrap the public entry points of every ``repro`` layer.

    Span names are ``<layer>.<operation>``; the layer is the ``repro``
    subpackage the callable lives in.
    """
    from repro.discri import warehouse as discri_warehouse
    from repro.etl import incremental
    from repro.etl.pipeline import Pipeline
    from repro.mining.awsum import AWSumClassifier
    from repro.olap import crosstab
    from repro.olap.cube import Cube
    from repro.olap.materialized import MaterializedCube
    from repro.olap.mdx import evaluator as mdx_evaluator
    from repro.olap.mdx import parser as mdx_parser
    from repro.optimize import consistency
    from repro.planner.router import QueryPlanner
    from repro.prediction.trajectory import TrajectoryPredictor
    from repro.serving.admission import ServingRuntime
    from repro.serving.cache import ResultCache
    from repro.storage import persistence as storage_persistence
    from repro.storage.columnar.store import PartitionedStore
    from repro.storage.engine import StorageEngine
    from repro.storage.wal import WriteAheadLog
    from repro.tabular.groupby import GroupBy
    from repro.tabular.table import Table
    from repro.warehouse.dynamic import DynamicWarehouse
    from repro.warehouse.loader import WarehouseLoader
    from repro.warehouse.star import StarSchema

    inst = Instrumentation(tracer)

    def wal_size(engine, directory, **kwargs) -> dict:
        # the log sits beside the snapshot directory it is truncated into
        path = os.path.join(os.path.dirname(os.fspath(directory)), "wal.log")
        return {"wal_bytes": os.path.getsize(path) if os.path.exists(path) else 0}

    def scan_stats(result) -> dict:
        table, stats = result
        return {
            "segments_total": stats.segments_total,
            "segments_pruned": stats.segments_pruned,
            "rows_scanned": stats.rows_scanned,
            "rows_kept": table.num_rows,
        }

    # storage: the OLTP engine, its log, snapshots
    inst.method(StorageEngine, "create_table", "storage.create_table")
    inst.method(StorageEngine, "create_index", "storage.create_index")
    inst.method(StorageEngine, "insert", "storage.insert")
    inst.method(StorageEngine, "get_by_pk", "storage.get")
    inst.method(StorageEngine, "scan", "storage.scan")
    inst.method(WriteAheadLog, "commit", "storage.wal_commit")
    inst.function(storage_persistence, "checkpoint", "storage.checkpoint",
                  before=wal_size)
    inst.function(storage_persistence, "recover", "storage.recover")
    # etl
    inst.method(Pipeline, "run", "etl.run", after=lambda r: {
        "rows_out": r.table.num_rows, "quarantined": len(r.quarantined),
    })
    inst.function(incremental, "capture_etl_state", "etl.capture_state")
    inst.function(incremental, "run_delta", "etl.delta", after=lambda o: {
        "quarantined": len(o.quarantined),
    })
    # warehouse
    inst.function(discri_warehouse, "build_discri_warehouse", "warehouse.build")
    inst.method(WarehouseLoader, "load", "warehouse.load")
    inst.method(StarSchema, "flatten", "warehouse.flatten")
    inst.method(DynamicWarehouse, "fold_feedback", "warehouse.fold_feedback")
    # olap
    inst.method(Cube, "aggregate", "olap.aggregate")
    inst.method(Cube, "publish", "olap.publish")
    inst.method(Cube, "publish_delta", "olap.publish_delta")
    inst.method(Cube, "attach_storage", "olap.attach_storage")
    inst.method(MaterializedCube, "materialize", "olap.lattice_build")
    inst.method(MaterializedCube, "fold_delta", "olap.fold_delta")
    inst.method(MaterializedCube, "aggregate", "olap.lattice_aggregate")
    inst.method(crosstab.Crosstab, "from_aggregate", "olap.crosstab")
    inst.function(mdx_parser, "parse_mdx", "olap.mdx.parse")
    inst.function(mdx_evaluator, "execute_mdx", "olap.mdx.execute")
    # planner / serving
    inst.method(QueryPlanner, "choose_route", "planner.choose_route")
    inst.method(QueryPlanner, "classify", "planner.classify")
    inst.method(QueryPlanner, "estimate_base_rows", "planner.estimate_rows")
    inst.method(ResultCache, "get", "serving.cache_get")
    inst.method(ResultCache, "put", "serving.cache_put")
    inst.method(ResultCache, "on_epoch_published", "serving.cache_invalidate")
    inst.method(ServingRuntime, "query_scope", "serving.admission", scope=True)
    # columnar segments and the kernels
    inst.method(PartitionedStore, "build", "storage.columnar.build")
    inst.method(PartitionedStore, "append", "storage.columnar.append")
    inst.method(PartitionedStore, "scan_filter", "storage.columnar.scan_filter",
                after=scan_stats)
    inst.method(PartitionedStore, "to_table", "storage.columnar.decode")
    inst.method(Table, "filter", "tabular.filter")
    inst.method(Table, "groupby", "tabular.groupby")
    inst.method(GroupBy, "agg", "tabular.groupby_agg")
    inst.method(Table, "to_rows", "tabular.to_rows")
    # guidance features
    inst.method(AWSumClassifier, "fit", "mining.awsum_fit")
    inst.method(TrajectoryPredictor, "__init__", "prediction.fit")
    inst.method(TrajectoryPredictor, "predict_next_stage", "prediction.predict")
    inst.function(consistency, "check_dimension_consistency",
                  "optimize.consistency")
    return inst
