"""The ``plan-bench`` harness (``python -m repro plan-bench``).

Measures the adaptive-materialization claim (DESIGN.md §"Cost-based
planning") and records it in ``BENCH_planner.json``: on a skewed 80/20
workload, materializing only the workload's hot nodes — chosen by the
HRU-style greedy selector from recorded statistics — answers the
workload nearly as fast as materializing everything, while spending a
fraction of the node budget.

One synthetic star, one deterministic query sequence, three configs:

* **lattice-off** — every query is a base scan.  Running this config
  first doubles as the *seed workload*: the attached planner records
  plan frequencies and calibrates its base-scan rate from it.
* **lattice-on** — every distinct query shape gets a materialized
  node: the latency floor, at maximum storage cost.
* **adaptive** — :func:`repro.planner.adaptive.select_nodes` picks
  nodes from the recorded workload under a node budget; the planner
  routes covered queries through them and the rest fall back to
  zone-map-pruned base scans.

The workload is 80% two hot heavy roll-ups, the rest coarser roll-ups
of the same dimensions (covered by the hot nodes) plus a small tail of
uncovered-but-selective queries — the shape clinical dashboard traffic
actually has, and the shape the 1.2x-of-full gate needs to be honest
about: the tail pays real scans in the adaptive config.

Headline numbers the CI gate reads: ``speedup_vs_off`` (>= 2x),
``ratio_vs_on`` (<= 1.2x), ``budget_fraction_used`` (<= 0.5) and the
``parity_ok`` oracle (every adaptive answer byte-identical to the base
scan).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.olap.cube import Cube
from repro.olap.materialized import MaterializedCube
from repro.planner.adaptive import select_nodes
from repro.planner.router import PlannerConfig, QueryPlanner
from repro.tabular.expressions import col
from repro.tabular.table import Table
from repro.warehouse.dimension import Dimension
from repro.warehouse.fact import Measure
from repro.warehouse.loader import DimensionSpec, WarehouseLoader


def _rows(rng: np.random.Generator, n: int) -> Table:
    return Table.from_columns(
        {
            "site": [f"s{int(v)}" for v in rng.integers(0, 12, n)],
            "ward": [f"w{int(v)}" for v in rng.integers(0, 8, n)],
            "month": [int(v) for v in rng.integers(1, 13, n)],
            "year": [int(v) for v in rng.integers(2005, 2013, n)],
            "band": [f"b{int(v)}" for v in rng.integers(0, 6, n)],
            "stays": [int(v) for v in rng.integers(0, 50, n)],
            "score": [int(v) for v in rng.integers(0, 1000, n)],
        }
    )


def _loader() -> WarehouseLoader:
    return WarehouseLoader(
        "load", "visits",
        [
            DimensionSpec(Dimension("place", {"site": "str", "ward": "str"})),
            DimensionSpec(Dimension("when", {"month": "int", "year": "int"})),
            DimensionSpec(Dimension("cohort", {"band": "str"})),
        ],
        [Measure.of("stays", "int", "sum", additive=True),
         Measure.of("score", "int", "sum", additive=True)],
    )


#: (levels, aggregations, filter factory) per query shape.  The hot
#: shapes are *filtered* roll-ups — the dashboard "one cohort / one
#: site" slice — which matters for the measurement: unfiltered group-bys
#: hit the cube's per-epoch factorization cache and cost almost nothing
#: even as base scans, so an honest base-vs-node comparison needs
#: predicates that force a fresh filter + group-by per query.
HOT_SHAPES = (
    (
        ["place.site", "when.year"],
        {"stays": ("stays", "sum"), "n": ("records", "size")},
        (lambda: col("cohort.band").eq("b2")),
    ),
    (
        ["cohort.band", "when.month"],
        {"score": ("score", "sum"), "mean_score": ("score", "mean")},
        (lambda: col("place.ward").eq("w3")),
    ),
)
COVERED_SHAPES = (
    (["place.site"], {"stays": ("stays", "sum")}, None),
    (["when.year"], {"n": ("records", "size")}, None),
    (["cohort.band"], {"score": ("score", "max")}, None),
    (["when.month"], {"score": ("score", "sum")}, None),
)
#: the uncovered tail: ward-level slices of one year — selective enough
#: that the year-banded store prunes 7/8 of the segments
UNCOVERED_SHAPES = tuple(
    (
        ["place.ward"],
        {"stays": ("stays", "sum")},
        (lambda year=year: col("when.year").eq(year)),
    )
    for year in (2006, 2009)
)
ALL_SHAPES = HOT_SHAPES + COVERED_SHAPES + UNCOVERED_SHAPES


def _workload(rng: np.random.Generator, queries: int) -> list[int]:
    """Shape index per query: 80% hot, 15% covered roll-ups, 5% tail."""
    picks = []
    for _ in range(queries):
        r = rng.random()
        if r < 0.8:
            picks.append(int(rng.integers(0, len(HOT_SHAPES))))
        elif r < 0.95:
            picks.append(
                len(HOT_SHAPES) + int(rng.integers(0, len(COVERED_SHAPES)))
            )
        else:
            picks.append(
                len(HOT_SHAPES) + len(COVERED_SHAPES)
                + int(rng.integers(0, len(UNCOVERED_SHAPES)))
            )
    return picks


def _run_workload(cube: Cube, sequence: list[int]) -> float:
    started = time.perf_counter()
    for index in sequence:
        levels, aggregations, predicate = ALL_SHAPES[index]
        filters = predicate() if predicate is not None else None
        cube.aggregate(levels, aggregations, filters=filters)
    return time.perf_counter() - started


def _build_cube(rows: Table) -> Cube:
    from repro.storage.columnar import PartitioningSpec, StorageConfig

    loader = _loader()
    loader.load(rows)
    cube = Cube(loader.schema, managed=True)
    cube.attach_storage(
        StorageConfig(
            partitioning=PartitioningSpec(band_column="when.year", band_width=1)
        )
    )
    cube.publish()
    return cube


def run_planner_bench(
    rows: int = 24_000,
    queries: int = 300,
    repeats: int = 3,
    budget_nodes: int = 8,
    seed: int = 11,
    out: "Path | str" = "BENCH_planner.json",
) -> dict:
    """Run the three configs and write ``BENCH_planner.json``."""
    rng = np.random.default_rng(seed)
    data = _rows(rng, rows)
    sequence = _workload(rng, queries)

    # -- lattice off: base scans, and the planner's seed workload -------
    cube = _build_cube(data)
    planner = QueryPlanner(PlannerConfig(budget_nodes=budget_nodes))
    cube.attach_planner(planner)
    t_off = statistics.median(
        _run_workload(cube, sequence) for _ in range(repeats)
    )

    # -- full lattice: every distinct shape materialized ----------------
    full_groups = []
    seen = set()
    for levels, _aggs, predicate in ALL_SHAPES:
        wanted = set(levels)
        if predicate is not None:
            wanted |= set(predicate().columns())
        key = tuple(sorted(wanted))
        if key not in seen:
            seen.add(key)
            full_groups.append(list(key))
    full_lattice = MaterializedCube(cube).materialize(full_groups)
    cube.attach_lattice(full_lattice)
    t_on = statistics.median(
        _run_workload(cube, sequence) for _ in range(repeats)
    )

    # -- adaptive: greedy selection from the recorded workload ----------
    state = cube._current_state()
    selection = select_nodes(
        planner.stats,
        planner.cost,
        available_levels=state.qattrs,
        cardinality=lambda level: len(state.flat.column(level).unique()),
        flat_rows=state.num_rows,
        budget_nodes=budget_nodes,
        min_gain_fraction=0.1,
    )
    adaptive_lattice = MaterializedCube(cube).materialize(selection.groups)
    cube.attach_lattice(adaptive_lattice)
    t_adaptive = statistics.median(
        _run_workload(cube, sequence) for _ in range(repeats)
    )

    # -- parity oracle: every shape, adaptive route vs base scan --------
    parity = True
    for levels, aggregations, predicate in ALL_SHAPES:
        filters = predicate() if predicate is not None else None
        routed = cube.aggregate(levels, aggregations, filters=filters)
        oracle = cube._scan_base(
            cube._plan(state, levels, aggregations, filters), state
        ).table
        parity = parity and routed.equals(oracle)

    speedup = t_off / t_adaptive if t_adaptive > 0 else None
    ratio = t_adaptive / t_on if t_on > 0 else None
    budget_fraction = (
        len(selection.groups) / budget_nodes if budget_nodes else 0.0
    )
    gates = {
        "speedup_vs_off_min": 2.0,
        "ratio_vs_on_max": 1.2,
        "budget_fraction_max": 0.5,
    }
    ok = bool(
        parity
        and speedup is not None
        and speedup >= gates["speedup_vs_off_min"]
        and ratio is not None
        and ratio <= gates["ratio_vs_on_max"]
        and budget_fraction <= gates["budget_fraction_max"]
    )
    payload = {
        "bench": "planner",
        "config": {
            "rows": rows,
            "queries": queries,
            "repeats": repeats,
            "budget_nodes": budget_nodes,
            "seed": seed,
            "shapes": len(ALL_SHAPES),
        },
        "cpu_count": os.cpu_count(),
        "lattice_off_s": round(t_off, 6),
        "lattice_on_s": round(t_on, 6),
        "adaptive_s": round(t_adaptive, 6),
        "speedup_vs_off": round(speedup, 2) if speedup else None,
        "ratio_vs_on": round(ratio, 3) if ratio else None,
        "nodes_full": len(full_groups),
        "nodes_selected": len(selection.groups),
        "budget_nodes": budget_nodes,
        "budget_fraction_used": round(budget_fraction, 3),
        "selection": selection.to_dict(),
        "planner": planner.snapshot(),
        "parity_ok": parity,
        "gates": gates,
        "ok": ok,
    }
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def format_summary(payload: dict) -> str:
    lines = ["== cost-based planning / adaptive materialization =="]
    lines.append(
        f"workload: {payload['config']['queries']} queries over "
        f"{payload['config']['rows']:,} rows, "
        f"{payload['config']['shapes']} shapes (80/20 skew)"
    )
    lines.append(
        f"lattice off {payload['lattice_off_s'] * 1e3:9.1f} ms   "
        f"full lattice {payload['lattice_on_s'] * 1e3:9.1f} ms   "
        f"adaptive {payload['adaptive_s'] * 1e3:9.1f} ms"
    )
    lines.append(
        f"adaptive vs off: {payload['speedup_vs_off']}x faster   "
        f"vs full: {payload['ratio_vs_on']}x   "
        f"nodes {payload['nodes_selected']}/{payload['budget_nodes']} budget "
        f"({payload['nodes_full']} full)"
    )
    lines.append(f"parity oracle: {'ok' if payload['parity_ok'] else 'FAILED'}")
    lines.append(f"gates: {'ok' if payload['ok'] else 'FAILED'}")
    return "\n".join(lines)
