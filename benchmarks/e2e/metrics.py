"""From rounds and spans to the metrics named in ``BENCHMARK.json``.

Sampling rules that make the timings repeat (each is a guard below):

* a percentile is reported only with at least ten samples beyond it;
* cold and warm samples are disjoint: a cold sample is the first
  execution of a distinct query at an epoch, a warm sample comes from a
  replay of the fixed stream afterwards;
* the median and the 95th percentile of a warm pass must each sit at
  least ten percentile points inside one latency mode — a rank on a mode
  boundary flips between two latencies from run to run;
* every warm pass replays the same stream and the run reports the best
  pass, because interference only ever adds time.
"""

from __future__ import annotations

import bisect
import math
import statistics
from collections import Counter

from benchmarks.e2e.loop import Pass, Round
from benchmarks.e2e.tracing import Tracer
from benchmarks.e2e.workloads import Workload

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "build_s": ("s", "lower"),
    "cold_query_p50_ms": ("ms", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p95_ms": ("ms", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "ingest_to_query_p50_s": ("s", "lower"),
    "guidance_s": ("s", "lower"),
    "recover_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "durable_bytes_per_row": ("B/row", "lower"),
}

PER_LAYER = {
    "storage.load_s": ("s", "lower"),
    "storage.wal_bytes_per_row": ("B/row", "lower"),
    "storage.checkpoint_s": ("s", "lower"),
    "storage.checkpoint_bytes": ("B", "lower"),
    "storage.recover_s": ("s", "lower"),
    "storage.wal_records_replayed": ("count", "lower"),
    "etl.run_s": ("s", "lower"),
    "etl.rows_out_per_row_in": ("ratio", "higher"),
    "etl.delta_s": ("s", "lower"),
    "etl.quarantined_rows": ("count", "lower"),
    "warehouse.load_s": ("s", "lower"),
    "warehouse.fold_feedback_s": ("s", "lower"),
    "olap.flatten_s": ("s", "lower"),
    "olap.aggregate_ms": ("ms", "lower"),
    "olap.lattice_build_s": ("s", "lower"),
    "olap.lattice_cells": ("count", "lower"),
    "olap.lattice_exact_hits": ("count", "higher"),
    "olap.lattice_rollup_hits": ("count", "higher"),
    "olap.lattice_fallbacks": ("count", "lower"),
    "olap.publish_delta_s": ("s", "lower"),
    "olap.fold_delta_s": ("s", "lower"),
    "olap.mdx.parse_ms": ("ms", "lower"),
    "olap.mdx.execute_ms": ("ms", "lower"),
    "planner.choose_us": ("us", "lower"),
    "planner.routes_node": ("count", "higher"),
    "planner.routes_scan": ("count", "lower"),
    "serving.cache_hit_ratio": ("ratio", "higher"),
    "serving.cache_hit_ratio_post_publish": ("ratio", "higher"),
    "serving.cache_evictions": ("count", "lower"),
    "serving.cache_get_us": ("us", "lower"),
    "serving.admission_us": ("us", "lower"),
    "serving.shed": ("count", "lower"),
    "storage.columnar.build_s": ("s", "lower"),
    "storage.columnar.encoded_bytes": ("B", "lower"),
    "storage.columnar.segments": ("count", "lower"),
    "storage.columnar.scan_band_ms": ("ms", "lower"),
    "storage.columnar.scan_value_ms": ("ms", "lower"),
    "storage.columnar.partitions_pruned_ratio": ("ratio", "higher"),
    "storage.columnar.rows_scanned_per_row_returned": ("ratio", "lower"),
    "storage.columnar.append_s": ("s", "lower"),
    "tabular.filter_ms": ("ms", "lower"),
    "tabular.groupby_ms": ("ms", "lower"),
    "mining.awsum_s": ("s", "lower"),
    "prediction.fit_s": ("s", "lower"),
    "optimize.consistency_s": ("s", "lower"),
    "dgms.delta_publishes": ("count", "higher"),
    "dgms.full_rebuilds": ("count", "lower"),
    "dgms.build_self_s": ("s", "lower"),
    "dgms.query_self_ms": ("ms", "lower"),
    "dgms.ingest_self_s": ("s", "lower"),
    "dgms.coverage_build": ("ratio", "higher"),
    "dgms.coverage_query": ("ratio", "higher"),
    "dgms.coverage_ingest": ("ratio", "higher"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
}

#: per-layer metrics that are counts (or ratios of counts): with one seed
#: they must read the same on every traced run
EXACT_PER_LAYER = (
    "storage.wal_bytes_per_row", "storage.checkpoint_bytes",
    "storage.wal_records_replayed", "etl.rows_out_per_row_in",
    "etl.quarantined_rows", "olap.lattice_cells", "serving.cache_hit_ratio",
    "serving.cache_hit_ratio_post_publish", "serving.cache_evictions",
    "serving.shed", "storage.columnar.encoded_bytes",
    "storage.columnar.segments", "storage.columnar.partitions_pruned_ratio",
    "storage.columnar.rows_scanned_per_row_returned", "dgms.delta_publishes",
    "dgms.full_rebuilds",
)

#: counts that must repeat exactly between rounds and between runs
#: (lattice hit and planner route counts are reported but not held to
#: this: once calibrated, the planner routes on measured times)
EXACT_COUNTS = (
    "source_rows", "durable_bytes", "checkpoint_bytes", "delta_publishes",
    "full_rebuilds", "quarantined_rows", "cache_hits", "cache_misses",
    "cache_evictions", "shed", "lattice_cells", "segments", "encoded_bytes",
    "wal_records_replayed",
)



def exact_counts(rnd: Round) -> dict[str, float]:
    """A round's repeatable counts.

    The warm phase is time-boxed, so whole-run cache totals depend on how
    many passes fitted; the first pass of the round is always there and
    always sees the same state, so its counters are the ones reported.
    """
    merged = all_counts(rnd)
    return {key: merged[key] for key in EXACT_COUNTS}


def all_counts(rnd: Round) -> dict[str, float]:
    """System counts plus the tallies of the round's fixed work."""
    pass0, fixed = rnd.tallies["pass0"], rnd.tallies["fixed"]
    post = rnd.tallies.get("post", dict.fromkeys(fixed, 0))
    merged = dict(rnd.counts)
    for key in ("cache_hits", "cache_misses", "cache_evictions"):
        merged[key] = pass0[key]
    merged["post_publish_hits"] = post["cache_hits"]
    merged["post_publish_misses"] = post["cache_misses"]
    for key in ("lattice_exact", "lattice_rollup", "lattice_fallback",
                "routes_node", "routes_base"):
        merged[key] = fixed[key]
    return merged


_MIN_BEYOND = 10
_MODE_MARGIN = 10.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    return n - math.ceil(q / 100.0 * n)


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


def mode_shares(workload: Workload, modes: list[str]) -> list[tuple[str, float]]:
    """Share of a pass's samples in each latency mode, fastest first."""
    seen = Counter(modes)
    shares = []
    for group in workload.modes:
        count = sum(seen.pop(mode, 0) for mode in group)
        shares.append(("+".join(group), count / len(modes)))
    if seen:
        raise ValueError(f"samples in undeclared modes: {sorted(seen)}")
    return shares


def guard_pass(workload: Workload, pass_: Pass) -> list[str]:
    """Why this pass may not be reported (empty when it may)."""
    problems = []
    n = len(pass_.latencies)
    for q in (50.0, 95.0):
        if samples_beyond(n, q) < _MIN_BEYOND:
            problems.append(
                f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it"
            )
    edge = 0.0
    shares = [s for s in mode_shares(workload, pass_.modes) if s[1] > 0]
    for name, share in shares[:-1]:
        edge += 100.0 * share
        for q in (50.0, 95.0):
            if abs(q - edge) < _MODE_MARGIN:
                problems.append(
                    f"p{q:g} is {abs(q - edge):.1f} points from the edge of "
                    f"mode {name!r} at {edge:.1f}%"
                )
    return problems


def guard_run(workload: Workload, rounds: list[Round]) -> list[str]:
    """Sample-size, disjointness, mode and exactness guards for a run."""
    problems = []
    cold = len(rounds[0].cold)
    if samples_beyond(cold, 50.0) < _MIN_BEYOND:
        problems.append(f"cold p50 has only {cold} samples a round")
    for index, rnd in enumerate(rounds):
        # disjoint by construction: every cold sample is appended by the
        # cold sweep, every warm one by a stream replay; what can go
        # wrong is a sweep that did not cover the distinct set
        sweeps = 1 + (workload.batches if workload.reads_after_publish else 0)
        if len(rnd.cold) != sweeps * workload.distinct:
            problems.append(
                f"round {index}: {len(rnd.cold)} cold samples, expected "
                f"{sweeps} sweeps of {workload.distinct}"
            )
        # one line per distinct problem, however many passes share it
        seen: dict[str, int] = {}
        for pass_ in rnd.passes:
            for problem in guard_pass(workload, pass_):
                seen[problem] = seen.get(problem, 0) + 1
        problems += [
            f"round {index}, {n} of {len(rnd.passes)} passes: {problem}"
            for problem, n in seen.items()
        ]
    first = exact_counts(rounds[0])
    for rnd in rounds[1:]:
        for key, value in exact_counts(rnd).items():
            if value != first[key]:
                problems.append(
                    f"count {key} differs between rounds: {first[key]} vs {value}"
                )
    return problems


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


def end_to_end(setups: list[float], rounds: list[Round],
               peak_rss_mb: float) -> tuple[dict[str, float], dict[str, int]]:
    """Metric values plus the sample count behind each timing.

    Every timing is computed per round (per pass for the warm metrics)
    and the run reports the best one: the rounds repeat identical work,
    and whatever else the host is doing can only add time to a round.
    ``setup_s`` is the median of its repetitions, as the contract asks.
    """
    passes = [p for r in rounds for p in r.passes]
    counts = rounds[0].counts
    values = {
        "setup_s": statistics.median(setups),
        "build_s": min(r.build_s for r in rounds),
        "cold_query_p50_ms": 1e3 * min(percentile(r.cold, 50) for r in rounds),
        "query_p50_ms": 1e3 * min(percentile(p.latencies, 50) for p in passes),
        "query_p95_ms": 1e3 * min(percentile(p.latencies, 95) for p in passes),
        "queries_per_s": max(
            len(p.latencies) / sum(p.latencies) for p in passes
        ),
        "ingest_to_query_p50_s": min(
            statistics.median(r.ingest_s) for r in rounds
        ),
        "guidance_s": min(r.guidance_s for r in rounds),
        "recover_s": min(r.recover_s for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "durable_bytes_per_row": counts["durable_bytes"] / counts["source_rows"],
    }
    per_pass = len(passes[0].latencies)
    samples = {
        "setup_s": len(setups),
        "build_s": len(rounds),
        "cold_query_p50_ms": len(rounds[0].cold),
        "query_p50_ms": per_pass,
        "query_p95_ms": per_pass,
        "queries_per_s": per_pass,
        "ingest_to_query_p50_s": len(rounds[0].ingest_s),
        "guidance_s": len(rounds),
        "recover_s": len(rounds),
    }
    return values, samples


# ---------------------------------------------------------------------------
# Per layer (traced run)
# ---------------------------------------------------------------------------


class SpanIndex:
    """Queries over one round's slice of the span tree."""

    def __init__(self, tracer: Tracer, root: int) -> None:
        self.t = tracer
        self.kids = tracer.children()
        self.root = root
        self.phases = {
            tracer.names[sid][len("phase."):]: sid
            for sid in self.kids[root]
            if tracer.names[sid].startswith("phase.")
        }
        #: span ids by name, each list in start order
        self.by_name: dict[str, list[int]] = {}
        for sid in tracer.within(root):
            self.by_name.setdefault(tracer.names[sid], []).append(sid)

    def under(self, ancestor: int, name: str) -> list[int]:
        """Descendants of ``ancestor`` with this name, oldest first."""
        ids = self.by_name.get(name, [])
        inside = self.t.within(ancestor)
        return ids[bisect.bisect_left(ids, inside.start):
                   bisect.bisect_left(ids, inside.stop)]

    def durations(self, ancestor: int, *names: str) -> list[float]:
        return [
            self.t.duration(sid)
            for name in names
            for sid in self.under(ancestor, name)
        ]

    def total(self, phase: str, *names: str) -> float:
        return sum(self.durations(self.phases[phase], *names))

    def per_parent_sum(self, ancestor: int, *names: str) -> list[float]:
        """Seconds in the named calls, summed per calling span."""
        sums: dict[int, float] = {}
        for name in names:
            for sid in self.under(ancestor, name):
                parent = self.t.parents[sid]
                sums[parent] = sums.get(parent, 0.0) + self.t.duration(sid)
        return list(sums.values())

    def coverage(self, phase: str) -> tuple[float, float]:
        """``(self seconds, covered share)`` of one phase."""
        sid = self.phases[phase]
        whole = self.t.duration(sid)
        covered = self.t.layer_time(sid, self.kids)
        return whole - covered, covered / whole if whole else 0.0

    def layer_self_seconds(self, phase: str) -> dict[str, float]:
        """Exclusive seconds per layer inside a phase (for the span file)."""
        selfs = self.t.self_times(self.kids)
        out: dict[str, float] = {}
        for sid in self.t.within(self.phases[phase]):
            name = self.t.names[sid]
            layer = name.rsplit(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + selfs[sid]
        return {k: round(v, 6) for k, v in sorted(out.items())}


def _median(values: list[float], scale: float = 1.0) -> float:
    """Scaled median; 0.0 when the workload never made the call."""
    return scale * statistics.median(values) if values else 0.0


def _layer_values(ix: SpanIndex, rnd: Round, cohort_rows: int) -> dict[str, float]:
    t = ix.t
    build, ingest = ix.phases["build"], ix.phases["ingest"]
    batches = ix.under(ingest, "phase.ingest_batch")
    reference = ix.under(ix.root, "harness.reference")[0]
    warm = ix.phases["warm"]

    def per_batch(*names: str) -> float:
        return statistics.median(sum(ix.durations(b, *names)) for b in batches)

    etl_runs = ix.under(build, "etl.run")
    rows_out = sum(t.attrs[sid]["rows_out"] for sid in etl_runs)
    warehouse_build = sum(ix.durations(build, "warehouse.build"))
    etl_build = sum(ix.durations(build, "etl.run", "etl.capture_state"))
    wal_bytes = sum(
        t.attrs[sid]["wal_bytes"] for sid in ix.under(build, "storage.checkpoint")
    )

    scans = {"band": [], "value": []}
    pruned = total_segments = scanned = kept = 0
    for query in ix.under(warm, "harness.query"):
        kind = t.attrs[query]["kind"]
        for sid in ix.under(query, "storage.columnar.scan_filter"):
            if kind in scans:
                scans[kind].append(t.duration(sid))
            attrs = t.attrs[sid]
            pruned += attrs["segments_pruned"]
            total_segments += attrs["segments_total"]
            scanned += attrs["rows_scanned"]
            kept += attrs["rows_kept"]

    warm_queries = ix.under(warm, "harness.query")
    warm_busy = sum(t.duration(sid) for sid in warm_queries)
    warm_layers = sum(t.layer_time(sid, ix.kids) for sid in warm_queries)
    build_self, build_cov = ix.coverage("build")
    ingest_self, ingest_cov = ix.coverage("ingest")

    counts = all_counts(rnd)
    lookups = counts["cache_hits"] + counts["cache_misses"]
    post_lookups = counts["post_publish_hits"] + counts["post_publish_misses"]
    admissions = ix.per_parent_sum(warm, "serving.admission")
    mdx_runs = [
        t.duration(sid) - sum(ix.durations(sid, "olap.mdx.parse"))
        for sid in ix.under(warm, "olap.mdx.execute")
    ]
    return {
        "storage.load_s": ix.total(
            "build", "storage.create_table", "storage.create_index",
            "storage.insert", "storage.wal_commit",
        ),
        "storage.wal_bytes_per_row": wal_bytes / cohort_rows,
        "storage.checkpoint_s": per_batch("storage.checkpoint"),
        "storage.checkpoint_bytes": counts["checkpoint_bytes"],
        "storage.recover_s": ix.total("recover", "storage.recover"),
        "storage.wal_records_replayed": counts["wal_records_replayed"],
        "etl.run_s": etl_build,
        "etl.rows_out_per_row_in": rows_out / cohort_rows,
        "etl.delta_s": per_batch("etl.delta"),
        "etl.quarantined_rows": counts["quarantined_rows"],
        "warehouse.load_s": warehouse_build - etl_build,
        "warehouse.fold_feedback_s": ix.total("guidance", "warehouse.fold_feedback"),
        "olap.flatten_s": counts["flatten_s"],
        "olap.aggregate_ms": _median(ix.durations(reference, "olap.aggregate"), 1e3),
        "olap.lattice_build_s": ix.total("build", "olap.lattice_build"),
        "olap.lattice_cells": counts["lattice_cells"],
        "olap.lattice_exact_hits": counts["lattice_exact"],
        "olap.lattice_rollup_hits": counts["lattice_rollup"],
        "olap.lattice_fallbacks": counts["lattice_fallback"],
        "olap.publish_delta_s": per_batch("olap.publish_delta"),
        "olap.fold_delta_s": per_batch("olap.fold_delta"),
        "olap.mdx.parse_ms": _median(ix.durations(warm, "olap.mdx.parse"), 1e3),
        "olap.mdx.execute_ms": _median(mdx_runs, 1e3),
        "planner.choose_us": _median(
            ix.durations(warm, "planner.choose_route"), 1e6
        ),
        "planner.routes_node": counts["routes_node"],
        "planner.routes_scan": counts["routes_base"],
        "serving.cache_hit_ratio": counts["cache_hits"] / lookups if lookups else 0.0,
        "serving.cache_hit_ratio_post_publish": (
            counts["post_publish_hits"] / post_lookups if post_lookups else 0.0
        ),
        "serving.cache_evictions": counts["cache_evictions"],
        "serving.cache_get_us": _median(
            ix.durations(warm, "serving.cache_get"), 1e6
        ),
        "serving.admission_us": _median(admissions, 1e6),
        "serving.shed": counts["shed"],
        "storage.columnar.build_s": ix.total("build", "storage.columnar.build"),
        "storage.columnar.encoded_bytes": counts["encoded_bytes"],
        "storage.columnar.segments": counts["segments"],
        "storage.columnar.scan_band_ms": _median(scans["band"], 1e3),
        "storage.columnar.scan_value_ms": _median(scans["value"], 1e3),
        "storage.columnar.partitions_pruned_ratio": (
            pruned / total_segments if total_segments else 0.0
        ),
        "storage.columnar.rows_scanned_per_row_returned": (
            scanned / kept if kept else 0.0
        ),
        "storage.columnar.append_s": per_batch("storage.columnar.append"),
        "tabular.filter_ms": _median(ix.durations(reference, "tabular.filter"), 1e3),
        "tabular.groupby_ms": _median(
            ix.per_parent_sum(reference, "tabular.groupby", "tabular.groupby_agg"),
            1e3,
        ),
        "mining.awsum_s": ix.total("guidance", "mining.awsum_fit"),
        "prediction.fit_s": ix.total("guidance", "prediction.fit"),
        "optimize.consistency_s": ix.total("guidance", "optimize.consistency"),
        "dgms.delta_publishes": counts["delta_publishes"],
        "dgms.full_rebuilds": counts["full_rebuilds"],
        "dgms.build_self_s": build_self,
        "dgms.query_self_ms": (
            1e3 * (warm_busy - warm_layers) / len(warm_queries)
        ),
        "dgms.ingest_self_s": ingest_self / len(batches),
        "dgms.coverage_build": build_cov,
        "dgms.coverage_query": warm_layers / warm_busy if warm_busy else 0.0,
        "dgms.coverage_ingest": ingest_cov,
    }


def per_layer(tracer: Tracer, round_roots: list[int], rounds: list[Round],
              cohort_rows: int, overhead_ratio: float) -> tuple[dict[str, float], list[dict]]:
    """Every per-layer metric over the traced rounds, plus phase breakdowns."""
    per_round = []
    breakdowns = []
    for root, rnd in zip(round_roots, rounds):
        ix = SpanIndex(tracer, root)
        per_round.append(_layer_values(ix, rnd, cohort_rows))
        breakdowns.append({
            phase: {
                "seconds": round(tracer.duration(sid), 6),
                "coverage": round(ix.coverage(phase)[1], 4),
                "layer_self_s": ix.layer_self_seconds(phase),
            }
            for phase, sid in ix.phases.items()
        })
    # a timing is the best traced round's, like the end-to-end timings;
    # counts and ratios are the first traced round's
    values = {
        name: (
            min(r[name] for r in per_round)
            if PER_LAYER[name][0] in ("s", "ms", "us")
            else per_round[0][name]
        )
        for name in per_round[0]
    }
    values["obs.trace_overhead_ratio"] = overhead_ratio
    return values, breakdowns
