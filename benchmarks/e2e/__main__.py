"""``python -m benchmarks.e2e run|selfcheck`` — the human front end.

Every workload runs in a fresh subprocess of ``bench.py`` (the contract
entry), one after the other, so neither heap state nor ``ru_maxrss``
leaks from one workload into the next.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.metrics import EXACT_PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = ROOT / "BENCHMARK.json"


def _contract() -> dict:
    return json.loads(CONTRACT.read_text())


def _run_once(workload: str, seed: int, seconds: float, trace: bool,
              scale: str) -> dict:
    """One ``bench.py`` subprocess; its whole result as a dict."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "bench.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--scale", scale, "--json",
        ],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{workload}: no result (exit {done.returncode})\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _print_result(result: dict) -> None:
    print(
        f"{result['workload']}  seed={result['seed']}  "
        f"attempted={result['attempted']}  failed={result['failed']}  "
        f"inputs={result['inputs']}"
    )
    samples = result.get("samples", {})
    for name, metric in result["metrics"].items():
        count = f"n={samples[name]}" if name in samples else ""
        print(f"  {name:<46} {metric['value']:>14.4f} {metric['unit']:<6} {count}")
    shares = ", ".join(f"{m} {s:.1%}" for m, s in result["modes"].items())
    print(f"  latency modes of a warm pass: {shares}")
    for phase in result.get("phases", [])[:1]:
        for name, detail in phase.items():
            print(
                f"  phase {name:<9} {detail['seconds']:>8.3f} s  "
                f"coverage {detail['coverage']:.2f}"
            )
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")
    for problem in result["guards"]:
        print(f"  GUARD: {problem}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def cmd_run(args) -> int:
    contract = _contract()
    names = [args.workload] if args.workload else [
        w["name"] for w in contract["workloads"]
    ]
    seconds = args.seconds if args.seconds else contract["run_seconds"]
    failed = 0
    for name in names:
        result = _run_once(name, args.seed, seconds, args.trace, args.scale)
        _print_result(result)
        failed += result["failed"]
    return 1 if failed else 0


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (the contract's rule)."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def cmd_selfcheck(args) -> int:
    """Two interleaved sets of runs of the same code must agree."""
    contract = _contract()
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    names = [args.workload] if args.workload else [
        w["name"] for w in contract["workloads"]
    ]
    sets = [
        {name: [] for name in names} for _ in range(args.sets)
    ]
    for run in range(args.runs):
        for index in range(args.sets):
            for name in names:
                print(f"run {run + 1}/{args.runs} set {index + 1} {name}",
                      file=sys.stderr)
                sets[index][name].append(_run_once(
                    name, args.seed, contract["run_seconds"], False, "full"
                ))

    traced = {
        name: [
            _run_once(name, args.seed, contract["run_seconds"], True, "full")
            for _ in range(args.sets)
        ]
        for name in names
    }

    breaches = 0
    report: dict = {"seed": args.seed, "sets": args.sets, "runs": args.runs,
                    "workloads": {}}
    for name in names:
        results = [r for one in sets for r in one[name]]
        entry: dict = {"metrics": {}, "counts_exact": True}
        failed = sum(r["failed"] for r in results + traced[name])
        if failed:
            breaches += 1
            entry["failed_operations"] = failed
        first = results[0]["counts"]
        for other in results[1:]:
            if other["counts"] != first or other["inputs"] != results[0]["inputs"]:
                entry["counts_exact"] = False
        drifting = [
            metric for metric in EXACT_PER_LAYER
            if len({run["metrics"][metric]["value"] for run in traced[name]}) > 1
        ]
        if drifting:
            entry["counts_exact"] = False
            entry["drifting_layer_counts"] = drifting
        if not entry["counts_exact"]:
            breaches += 1
        print(f"{name}: counts exact: {entry['counts_exact']}, "
              f"failed operations: {failed}")
        for metric, spec in metrics.items():
            medians = [
                statistics.median(r["metrics"][metric]["value"] for r in one[name])
                for one in sets
            ]
            worse = max(medians) if spec["better"] == "lower" else min(medians)
            base = min(medians) if spec["better"] == "lower" else max(medians)
            difference = abs(worse - base) / base
            spreads = [
                _spread([r["metrics"][metric]["value"] for r in one[name]])
                for one in sets
            ] if args.runs >= 2 else []
            ok = difference <= spec["bound"]
            breaches += not ok
            entry["metrics"][metric] = {
                "set_medians": medians, "difference": difference,
                "spreads": spreads, "bound": spec["bound"], "ok": ok,
            }
            print(
                f"  {metric:<24} sets differ {difference:7.2%}  "
                f"spread {max(spreads, default=0.0):7.2%}  "
                f"bound {spec['bound']:.0%}  {'ok' if ok else 'BREACH'}"
            )
        report["workloads"][name] = entry
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "selfcheck.json").write_text(json.dumps(report, indent=1))
    print(f"{breaches} breach(es); report in {out / 'selfcheck.json'}")
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads, print every metric")
    run.add_argument("--workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=0.0,
                     help="warm-pass budget (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", action="store_true",
                     help="the separate traced run: per-layer metrics")
    run.add_argument("--scale", choices=("full", "tiny"), default="full")
    run.set_defaults(func=cmd_run)
    check = commands.add_parser(
        "selfcheck", help="two interleaved sets of runs must agree"
    )
    check.add_argument("--sets", type=int, default=2)
    check.add_argument("--runs", type=int, default=5)
    check.add_argument("--seed", type=int, default=1)
    check.add_argument("--workload")
    check.set_defaults(func=cmd_selfcheck)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
