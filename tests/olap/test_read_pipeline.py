"""The shape of the one read path: plan → cache → route → execute → put.

Every way a request can travel through ``Cube.aggregate`` produces one
``cube.aggregate`` span whose children and attributes name the stages it
took, builds its plan exactly once, asks the router at most once, makes
the zone-map row estimate only when it scans the base table (a cache hit
or a lattice answer estimates nothing), and serves with whatever the
shared :class:`~repro.olap.cube.CubeRuntime` holds at that moment.
"""

from __future__ import annotations

import pytest

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.obs.explain import profile
from repro.olap.cube import Cube
from repro.olap.materialized import MaterializedCube
from repro.planner import QueryPlanner
from repro.serving.cache import ResultCache
from repro.storage.columnar import PartitioningSpec, StorageConfig
from repro.tabular.expressions import col

from tests.planner._star import LEVELS, build_cube, default_rows

AGGS = {"n": ("records", "size"), "total": ("m", "sum")}


@pytest.fixture()
def calls(monkeypatch):
    """Per-query call counts of the planner's estimate and route entry points."""
    counts = {"estimate_base_rows": 0, "choose_route": 0}
    for name in counts:
        original = QueryPlanner.__dict__[name]
        static = isinstance(original, staticmethod)
        func = original.__func__ if static else original

        def counted(*args, _name=name, _func=func, **kwargs):
            counts[_name] += 1
            return _func(*args, **kwargs)

        monkeypatch.setattr(
            QueryPlanner, name, staticmethod(counted) if static else counted
        )
    return counts


def _planned_cube(groups=None, *, cache=False, storage=None) -> Cube:
    cube = build_cube(default_rows(), storage=storage)
    if groups is not None:
        cube.attach_lattice(MaterializedCube(cube).materialize(groups))
    if cache:
        cube.attach_result_cache(ResultCache())
    return cube


def _trace(calls, reader, levels, filters=None):
    """Run one aggregate; return its ``cube.aggregate`` plan node."""
    calls.update(estimate_base_rows=0, choose_route=0)
    _result, plan = profile(
        "query", lambda: reader.aggregate(levels, AGGS, filters=filters)
    )
    roots = [node for node in plan.walk() if node.op == "cube.aggregate"]
    assert len(roots) == 1
    return roots[0]


def _ops(node) -> list[str]:
    """The pipeline stages under ``node`` (kernel spans left out)."""
    return [
        child.op for child in node.walk()
        if child.op in ("lattice.lookup", "scan.base")
    ]


class TestOnePathPerRequest:
    def test_bare_cube_scans_with_nothing_attached(self, calls):
        cube = build_cube(default_rows())
        root = _trace(calls, cube, ["d1.a"])
        assert _ops(root) == ["scan.base"]
        assert "cache" not in root.attrs
        scan = root.find("scan.base")
        assert scan.attrs["est_rows"] == scan.attrs["rows_scanned"]
        assert calls == {"estimate_base_rows": 1, "choose_route": 0}

    def test_cache_hit_stops_after_the_probe(self, calls):
        cube = _planned_cube([list(LEVELS)], cache=True)
        cube.aggregate(["d1.a"], AGGS)
        root = _trace(calls, cube, ["d1.a"])
        assert root.attrs["cache"] == "hit"
        assert _ops(root) == []
        assert calls == {"estimate_base_rows": 0, "choose_route": 0}

    def test_cache_miss_routes_to_a_covering_node(self, calls):
        cube = _planned_cube([list(LEVELS)], cache=True)
        root = _trace(calls, cube, ["d1.a"])
        assert root.attrs["cache"] == "miss"
        assert _ops(root) == ["lattice.lookup"]
        lookup = root.find("lattice.lookup")
        assert lookup.attrs["outcome"] == "rollup"
        assert "fallback_reason" not in lookup.attrs
        assert calls == {"estimate_base_rows": 0, "choose_route": 1}

    def test_cache_miss_without_a_covering_node_scans(self, calls):
        cube = _planned_cube([["d1.a"]], cache=True)
        root = _trace(calls, cube, ["d2.c"])
        assert root.attrs["cache"] == "miss"
        assert _ops(root) == ["lattice.lookup", "scan.base"]
        lookup = root.find("lattice.lookup")
        assert lookup.attrs["fallback_reason"] == "no_covering_node"
        assert "est_rows" in root.find("scan.base").attrs
        assert calls == {"estimate_base_rows": 1, "choose_route": 1}

    def test_snapshot_of_an_older_epoch_scans_its_own_rows(self, calls):
        cube = _planned_cube([list(LEVELS)])
        pinned = cube.snapshot()
        cube.publish()
        cube.lattice.materialize([list(LEVELS)])  # moves on to the new epoch
        root = _trace(calls, pinned, ["d1.a"])
        # the lattice the snapshot carries now describes another epoch:
        # the route stage skips it, so the epoch guard is never reached
        assert root.attrs["epoch"] == pinned.epoch != cube.epoch
        assert cube.lattice.stats.fallbacks == 0
        assert _ops(root) == ["scan.base"]
        assert calls == {"estimate_base_rows": 1, "choose_route": 0}

    def test_store_backed_filtered_scan_reports_partitions(self, calls):
        storage = StorageConfig(
            partitioning=PartitioningSpec(hash_column="d1.a", hash_partitions=3)
        )
        cube = _planned_cube(storage=storage)
        root = _trace(calls, cube, ["d1.b"], filters=col("d1.a").eq("a1"))
        assert _ops(root) == ["scan.base"]
        scan = root.find("scan.base")
        assert {
            "partitions_scanned", "partitions_pruned", "segments_total",
            "est_rows",
        } <= set(scan.attrs)
        assert scan.attrs["partitions_pruned"] >= 1
        assert calls == {"estimate_base_rows": 1, "choose_route": 0}

    def test_degraded_rungs_are_named_on_the_span(self, calls):
        from repro.serving.resilience import breaker

        cube = _planned_cube([list(LEVELS)], cache=True)
        brk = breaker("cache")
        for _ in range(brk.config.failure_threshold):
            brk.record_failure()
        root = _trace(calls, cube, ["d1.a"])
        assert root.attrs["degraded"] == "cache"
        assert "cache" not in root.attrs  # the rung was skipped, not probed
        assert _ops(root) == ["lattice.lookup"]


class TestOneRuntimeAcrossRebuilds:
    def test_successor_cubes_share_the_runtime_without_reattaching(
        self, monkeypatch
    ):
        source = DiScRiGenerator(n_patients=20, seed=7).generate()
        system = DDDGMS(source)
        cache = system.attach_result_cache(True)
        serving = system.attach_serving(True)
        planner = system.planner
        first_cube, runtime = system.cube, system.cube.runtime
        assert runtime is system.runtime

        for hook in (
            "attach_result_cache", "attach_serving", "attach_storage",
        ):
            def refuse(self, *args, _hook=hook, **kwargs):
                raise AssertionError(f"{_hook} re-attached during ingest")

            monkeypatch.setattr(Cube, hook, refuse)

        def batch(seed):
            history = system.source
            return offset_identifiers(
                DiScRiGenerator(n_patients=4, seed=seed).generate(),
                max(history.column("patient_id").to_list()),
                max(history.column("visit_id").to_list()),
            )

        def serves_with_the_same_objects():
            cube = system.cube
            return (
                cube.runtime is runtime
                and cube.snapshot().runtime is runtime
                and (runtime.cache, runtime.serving, runtime.planner)
                == (cache, serving, planner)
            )

        system.ingest_visits(batch(101))  # delta publish: same cube, new epoch
        assert system.maintenance["delta_publishes"] == 1
        assert system.cube is first_cube
        assert serves_with_the_same_objects()

        system.incremental = False
        system.ingest_visits(batch(102))  # full rebuild: a successor cube
        assert system.maintenance["full_rebuilds"] == 1
        assert system.cube is not first_cube
        assert serves_with_the_same_objects()
        # and the successor really serves through them: the computed
        # answer is routed by the shared planner, the repeat hits the cache
        system.materialize_lattice()
        routed, hits = planner.route_counts.get("node", 0), cache.stats.hits
        system.cube.aggregate(["personal.gender"])
        system.cube.aggregate(["personal.gender"])
        assert planner.route_counts["node"] == routed + 1
        assert cache.stats.hits == hits + 1
