"""The four workloads: sizes, attached subsystems and latency modes.

Every workload has the same phase shape (see :mod:`benchmarks.e2e.loop`),
so every end-to-end metric is defined on every workload; what differs is
which layers the read and write paths cross.  Sizes were chosen so a
whole run fits the contract's time cap with three rounds of the closed
loop — patient counts were scaled down for that, sample counts were not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: visit rows of the initial cohort / of every follow-up batch (the
    #: generator's output is cut to exactly this many rows so the amount
    #: of work does not drift with the seed)
    cohort_rows: int
    batch_rows: int
    batches: int
    #: which query family :func:`benchmarks.e2e.inputs.make_queries` draws
    family: str
    distinct: int
    #: executions per warm pass (every round replays it at least once)
    stream: int
    #: Zipf exponent of the stream (``None`` = every distinct query once
    #: per ``distinct`` draws, shuffled)
    zipf: float | None = None
    lattice: bool = False
    #: ``None`` no cache, ``0`` the default budget, else ``max_entries``
    cache_entries: int | None = None
    serving: bool = False
    storage: bool = False
    #: re-run the cold sweep and one warm pass after every publish
    reads_after_publish: bool = False
    #: latency modes, fastest first; a sample's mode is ``hit``/``node``
    #: when the cache or a lattice node answered it, else its query kind
    modes: tuple[tuple[str, ...], ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="loop_paper",
            why="the paper's own trial on a default system: per-row storage, "
                "ETL and warehouse load dominate, queries are small base scans",
            cohort_rows=800, batch_rows=60, batches=5,
            family="paper", distinct=40, stream=1000,
            modes=(("builder",), ("mdx",)),
        ),
        Workload(
            name="serve_skewed",
            why="Zipf reads through admission, a result cache smaller than "
                "the working set, the planner and the lattice",
            cohort_rows=900, batch_rows=60, batches=3,
            family="pairs", distinct=150, stream=2000,
            zipf=1.1, lattice=True, cache_entries=40, serving=True,
            modes=(("hit",), ("node",), ("scan",)),
        ),
        Workload(
            name="scan_filtered",
            why="filtered scans over partitioned columnar segments with no "
                "cache or lattice: zone-map pruning versus full-scan cost",
            cohort_rows=900, batch_rows=60, batches=3,
            family="filtered", distinct=200, stream=400,
            storage=True,
            modes=(("band", "unfiltered"), ("value",)),
        ),
        Workload(
            name="ingest_serve",
            why="writes beside reads: every batch bumps the epoch under "
                "cache, lattice, serving and storage together",
            cohort_rows=500, batch_rows=40, batches=5,
            family="pairs", distinct=30, stream=400,
            lattice=True, cache_entries=0, serving=True, storage=True,
            reads_after_publish=True,
            modes=(("hit",), ("node",), ("scan",)),
        ),
    )
}


def scaled(workload: Workload, scale: str) -> Workload:
    """``full`` is the benchmark; ``tiny`` is the smoke test's size."""
    if scale == "full":
        return workload
    if scale != "tiny":
        raise ValueError(f"unknown scale {scale!r} (full, tiny)")
    return replace(
        workload,
        cohort_rows=170,
        batch_rows=20,
        batches=min(workload.batches, 2),
        distinct=min(workload.distinct, 30),
        stream=120,
    )
