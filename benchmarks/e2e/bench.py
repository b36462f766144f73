"""Contract entry: one workload, one JSON line.

``python3 benchmarks/e2e/bench.py --workload NAME --seed N --seconds S
--trace 0|1`` runs from the root of a checkout, builds nothing (the
program is pure Python under ``src/``), and prints as its last line of
standard output ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--json", action="store_true",
                        help="print the whole result, not the contract line")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    from benchmarks.e2e import runner
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload (have: {', '.join(WORKLOADS)})")
    result = runner.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if args.json:
        print(json.dumps(result))
    else:
        print(runner.contract_line(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
