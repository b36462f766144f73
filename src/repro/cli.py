"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — simulate a DiScRi cohort and write it as CSV;
* ``report``   — build the DD-DGMS and write the markdown trial report;
* ``mdx``      — run an MDX query against the cohort's cube (an
  ``EXPLAIN`` prefix prints the measured plan instead of the grid);
* ``figures``  — print the paper's Fig 4/5/6 reproductions;
* ``dictionary`` — write the attribute data dictionary;
* ``stats``    — run the figure workload under tracing and print the
  metrics registry, ingest health, slow-query log and last span tree;
* ``quarantine`` — list, inspect or re-drive dead-letter rows of a
  durable system (``list`` / ``show <id>`` / ``redrive [--set k=v]``);
* ``serve-bench`` — serving load harness: result-cache speedup and
  reader threads against a live writer; writes ``BENCH_serving.json``;
* ``bench-incremental`` — incremental maintenance harness: p50 delta
  publish latency vs history scale and vs a full rebuild, plus the
  delta/rebuild parity oracle; writes ``BENCH_incremental.json``;
* ``bench-overload`` — overload harness: admission-gate shed latency,
  4x-oversubscribed readers under injected serving chaos with a
  recompute oracle, and deadline enforcement under a stalled cache;
  writes ``BENCH_overload.json``;
* ``bench-partition`` — partitioned-storage harness: pruned-vs-full
  byte parity, zone-map scan speedup at 10x rows,
  and dict/RLE encoding memory savings; writes ``BENCH_partition.json``;
* ``sweep`` — chaos scenario sweep: the full closed loop (ingest, OLAP,
  mining, prediction, optimisation, feedback-fold) fleet-run under a
  fault matrix with crash isolation, per-scenario deadlines and a
  resumable ledger; writes ``BENCH_scenarios.json``.

A cohort can come from ``--cohort file.csv`` (as written by ``generate``)
or be simulated on the fly with ``--patients/--seed``.  Every command
honours ``REPRO_OBS`` / ``REPRO_OBS_SLOW_S`` (see :mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import sys
from pathlib import Path

from repro import obs
from repro.dgms.report import generate_trial_report
from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator
from repro.etl.quarantine import QuarantineStore
from repro.olap.operations import drill_down
from repro.tabular.csvio import read_csv, write_csv
from repro.tabular.table import Table


def _add_cohort_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cohort", type=Path, default=None,
        help="cohort CSV (as written by 'generate'); omit to simulate",
    )
    parser.add_argument("--patients", type=int, default=300,
                        help="patients to simulate when no --cohort is given")
    parser.add_argument("--seed", type=int, default=42,
                        help="simulation seed")


def _load_cohort(args: argparse.Namespace) -> Table:
    if args.cohort is not None:
        return read_csv(args.cohort)
    return DiScRiGenerator(n_patients=args.patients, seed=args.seed).generate()


def _cmd_generate(args: argparse.Namespace) -> int:
    cohort = DiScRiGenerator(n_patients=args.patients, seed=args.seed).generate()
    write_csv(cohort, args.out)
    print(
        f"wrote {cohort.num_rows} attendances of "
        f"{cohort.column('patient_id').n_unique()} patients "
        f"({len(cohort.column_names)} columns) to {args.out}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    system = DDDGMS(_load_cohort(args))
    generate_trial_report(system, path=args.out)
    print(f"trial report written to {args.out}")
    return 0


def _cmd_mdx(args: argparse.Namespace) -> int:
    system = DDDGMS(_load_cohort(args))
    result = system.mdx(args.query)
    if isinstance(result, obs.ExplainReport):
        print(result.to_text())
    else:
        print(result.to_text(with_totals=args.totals))
    return 0


def _run_figure_workload(system: DDDGMS) -> None:
    """The Fig 4–6 query mix, exercised once for ``stats``."""
    system.query().rows("age_band").columns("gender").count_records(
        "attendances"
    ).where("personal.family_history_diabetes", "yes").execute()
    system.query().rows("age_band10").columns("gender").count_distinct(
        "cardinality.patient_id", name="patients"
    ).where("conditions.diabetes_status", "yes").execute()
    system.query().rows("age_band10").columns("ht_years_band").count_records(
        "cases"
    ).where("conditions.hypertension", "yes").execute()
    system.mdx(
        "SELECT [personal].[gender].MEMBERS ON COLUMNS, "
        "[conditions].[age_band].MEMBERS ON ROWS FROM [discri] "
        "WHERE [personal].[family_history_diabetes].[yes]"
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    ring = obs.RingBufferSink()
    obs.configure(sinks=[ring], slow_query_threshold_s=args.slow)
    if args.durable is not None:
        system = DDDGMS.recover(args.durable)
    else:
        # a quarantine sink makes the command resilient to dirty cohort
        # CSVs: bad rows land in the (in-memory) dead-letter store and
        # show up under "ingest health" instead of aborting the command
        system = DDDGMS(_load_cohort(args), quarantine=QuarantineStore())
    if args.lattice:
        system.materialize_lattice()
    if args.serving:
        system.attach_serving(True)
    _run_figure_workload(system)

    print("== metrics ==")
    print(obs.metrics().render())
    print("\n== ingest health ==")
    health = system.ingest_health()
    for key, value in health.items():
        if key in ("maintenance", "serving", "checkpoint"):
            continue  # given their own sections below
        print(f"{key:<24} {value}")
    checkpoint = health.get("checkpoint")
    if checkpoint is not None:
        # why the log is the size it is: it is replayed, not folded into
        # a new generation, until it outgrows the newest one
        print("\n== checkpoint ==")
        for key, value in checkpoint.items():
            print(f"{key:<24} {value}")
    print("\n== maintenance ==")
    maintenance = health.get("maintenance") or {}
    for key in sorted(maintenance):
        print(f"{key:<24} {maintenance[key]}")
    lattice = system.cube.lattice
    if lattice is not None:
        print("\n== lattice ==")
        for key, value in lattice.snapshot().items():
            print(f"{key:<24} {value}")
        print(f"{'summary':<24} {lattice.stats.summary()}")
    serving = health.get("serving")
    if serving is not None:
        print("\n== serving ==")
        for key in sorted(serving["admission"]):
            print(f"admission.{key:<14} {serving['admission'][key]}")
        for name, snap in sorted(serving["breakers"].items()):
            print(f"breaker.{name:<16} {snap['state']} "
                  f"(failures={snap['failures']}, opens={snap['opens']}, "
                  f"degrades_to={snap['degrades_to']})")
    if health.get("degradations"):
        print(f"\n{'degradations':<24} {','.join(health['degradations'])}")
    last = ring.last()
    if last is not None:
        print("\n== last span tree ==")
        print(last.render())
    slow = obs.slow_log()
    print(f"\n== slow queries (> {slow.threshold_s:g} s) ==")
    print(slow.render() if len(slow) else "(none)")
    return 0


def _coerce_cli_value(text: str):
    """``--set`` value syntax: int, float, ISO date, ``null`` or string."""
    text = text.strip()
    if text.lower() in ("null", "none"):
        return None
    for parse in (int, float, _dt.date.fromisoformat):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _cmd_quarantine(args: argparse.Namespace) -> int:
    root = Path(args.root)
    if args.action == "redrive":
        system = DDDGMS.recover(root)
        repair = None
        if args.set:
            changes = {}
            for pair in args.set:
                key, sep, value = pair.partition("=")
                if not sep or not key.strip():
                    print(f"bad --set {pair!r} (expected column=value)",
                          file=sys.stderr)
                    return 2
                changes[key.strip()] = _coerce_cli_value(value)

            def repair(row, changes=changes):
                return {**row, **changes}

        report = system.redrive_quarantine(repair=repair)
        print(report.summary())
        print(f"{len(system.quarantine)} rows remain quarantined")
        # rows that re-quarantined mean the repair did not take: surface
        # it in the exit code so scripts notice
        return 3 if report.requeued > 0 else 0

    store = QuarantineStore.open(root / "quarantine")
    try:
        if args.action == "show":
            if args.entry_id is None:
                print("quarantine show needs an entry id", file=sys.stderr)
                return 2
            entry = store.get(args.entry_id)
            print(entry.describe())
            for key in sorted(entry.row):
                print(f"  {key:<28} {entry.row[key]!r}")
            return 0
        # list (the default)
        entries = store.rows()
        print(f"{len(entries)} quarantined rows "
              f"(by step: {store.counts('step') or '{}'})")
        for entry in entries:
            print(f"  {entry.describe()}")
        return 0
    finally:
        store.close()


def _cmd_dictionary(args: argparse.Namespace) -> int:
    from repro.discri.dictionary import generate_data_dictionary

    cohort = _load_cohort(args) if args.with_stats else None
    generate_data_dictionary(cohort, path=args.out)
    print(f"data dictionary written to {args.out}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    system = DDDGMS(_load_cohort(args))

    print("Fig 4 — family history of diabetes by age group and gender")
    fig4 = (
        system.olap().rows("age_band").columns("gender")
        .count_records("attendances")
        .where("personal.family_history_diabetes", "yes")
        .execute().sorted_rows()
    )
    print(fig4.to_text(with_totals=True))

    print("\nFig 5 — diabetics by age band and gender (drilled to 5-year bands)")
    coarse = (
        system.olap().rows("age_band10").columns("gender")
        .count_distinct("cardinality.patient_id", name="patients")
        .where("conditions.diabetes_status", "yes").build()
    )
    fig5 = drill_down(coarse, system.cube, "age_band10").execute(
        system.cube
    ).sorted_rows()
    print(fig5.to_text(with_totals=True))

    print("\nFig 6 — years since HT diagnosis by age band (drilled)")
    ht = (
        system.olap().rows("age_band10").columns("ht_years_band")
        .count_records("cases")
        .where("conditions.hypertension", "yes").build()
    )
    fig6 = drill_down(ht, system.cube, "age_band10").execute(
        system.cube
    ).sorted_rows()
    print(fig6.to_text(with_totals=True))
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serving.bench import format_summary, run_serving_bench

    payload = run_serving_bench(
        patients=args.patients,
        seed=args.seed,
        readers=args.readers,
        duration_s=args.duration,
        out=args.out,
    )
    print(format_summary(payload))
    print(f"full results written to {args.out}")
    return 0


def _cmd_bench_incremental(args: argparse.Namespace) -> int:
    from repro.serving.bench_incremental import (
        format_summary,
        run_incremental_bench,
    )

    try:
        scales = tuple(
            sorted({int(part) for part in args.scales.split(",") if part})
        )
    except ValueError:
        print(f"bad --scales {args.scales!r} (expected e.g. '1,10')",
              file=sys.stderr)
        return 2
    payload = run_incremental_bench(
        base_rows=args.rows,
        delta_rows=args.delta_rows,
        scales=scales,
        repeats=args.repeats,
        seed=args.seed,
        out=args.out,
    )
    print(format_summary(payload))
    print(f"full results written to {args.out}")
    return 0


def _cmd_bench_overload(args: argparse.Namespace) -> int:
    from repro.serving.bench_overload import (
        format_summary,
        run_overload_bench,
    )

    payload = run_overload_bench(
        patients=args.patients,
        seed=args.seed,
        oversubscription=args.oversubscription,
        duration_s=args.duration,
        out=args.out,
    )
    print(format_summary(payload))
    print(f"full results written to {args.out}")
    return 0 if payload["ok"] else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios.bench import (
        format_summary,
        list_matrix,
        run_sweep,
    )

    if args.list:
        print(list_matrix(seed=args.seed))
        return 0
    payload = run_sweep(
        root=args.root,
        out=args.out,
        jobs=args.jobs,
        fresh=args.fresh,
        seed=args.seed,
        deadline_s=args.deadline,
        progress=lambda message: print(message, flush=True),
    )
    print(format_summary(payload))
    print(f"full results written to {args.out}")
    return 0 if payload["ok"] else 1


def _cmd_bench_partition(args: argparse.Namespace) -> int:
    from repro.storage.columnar.bench import (
        format_summary,
        run_partition_bench,
    )

    payload = run_partition_bench(
        patients=args.patients,
        scale=args.scale,
        seed=args.seed,
        repeats=args.repeats,
        out=args.out,
    )
    print(format_summary(payload))
    print(f"full results written to {args.out}")
    return 0 if payload["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DD-DGMS: data-driven decision guidance for clinical "
                    "scientists (ICDEW 2013 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="simulate a DiScRi cohort and write CSV"
    )
    generate.add_argument("--patients", type=int, default=300)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--out", type=Path, required=True)
    generate.set_defaults(func=_cmd_generate)

    report = commands.add_parser(
        "report", help="write the markdown trial report"
    )
    _add_cohort_arguments(report)
    report.add_argument("--out", type=Path, required=True)
    report.set_defaults(func=_cmd_report)

    mdx = commands.add_parser("mdx", help="run an MDX query")
    _add_cohort_arguments(mdx)
    mdx.add_argument("query", help="the MDX text")
    mdx.add_argument("--totals", action="store_true",
                     help="append row/column totals")
    mdx.set_defaults(func=_cmd_mdx)

    figures = commands.add_parser(
        "figures", help="print the Fig 4/5/6 reproductions"
    )
    _add_cohort_arguments(figures)
    figures.set_defaults(func=_cmd_figures)

    dictionary = commands.add_parser(
        "dictionary", help="write the 273-attribute data dictionary"
    )
    _add_cohort_arguments(dictionary)
    dictionary.add_argument("--out", type=Path, required=True)
    dictionary.add_argument(
        "--with-stats", action="store_true",
        help="include observed null rates / distinct counts from the cohort",
    )
    dictionary.set_defaults(func=_cmd_dictionary)

    stats = commands.add_parser(
        "stats", help="trace the figure workload; print metrics + span trees"
    )
    _add_cohort_arguments(stats)
    stats.add_argument(
        "--slow", type=float, default=0.25,
        help="slow-query threshold in seconds (default 0.25)",
    )
    stats.add_argument(
        "--lattice", action="store_true",
        help="precompute the figure-shaped aggregate lattice first",
    )
    stats.add_argument(
        "--serving", action="store_true",
        help="attach default admission control + circuit breakers so the "
             "serving section shows live gate/breaker state",
    )
    stats.add_argument(
        "--durable", type=Path, default=None,
        help="recover the system from this durable root instead of "
             "building from a cohort (shows real ingest health)",
    )
    stats.set_defaults(func=_cmd_stats)

    quarantine = commands.add_parser(
        "quarantine",
        help="list / inspect / re-drive dead-letter rows of a durable system",
    )
    quarantine.add_argument(
        "action", choices=["list", "show", "redrive"], nargs="?",
        default="list", help="what to do (default: list)",
    )
    quarantine.add_argument(
        "entry_id", type=int, nargs="?", default=None,
        help="entry id for 'show'",
    )
    quarantine.add_argument(
        "--root", type=Path, required=True,
        help="durable system root (as passed to DDDGMS(durable_root=...))",
    )
    quarantine.add_argument(
        "--set", action="append", default=[], metavar="COLUMN=VALUE",
        help="for 'redrive': repair each row before the attempt "
             "(repeatable; value parses as int/float/ISO date/null/str)",
    )
    quarantine.set_defaults(func=_cmd_quarantine)

    serve = commands.add_parser(
        "serve-bench",
        help="serving load harness: cache speedup, readers vs live "
             "writer; writes BENCH_serving.json",
    )
    serve.add_argument(
        "--patients", type=int, default=200,
        help="patients in the simulated serving cohort (default 200)",
    )
    serve.add_argument("--seed", type=int, default=42, help="simulation seed")
    serve.add_argument(
        "--readers", type=int, default=8,
        help="concurrent reader threads (default 8)",
    )
    serve.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds of live-writer load (default 2.0)",
    )
    serve.add_argument(
        "--out", type=Path, default=Path("BENCH_serving.json"),
        help="result JSON path (default ./BENCH_serving.json)",
    )
    serve.set_defaults(func=_cmd_serve_bench)

    incremental = commands.add_parser(
        "bench-incremental",
        help="incremental maintenance harness: delta publish p50 vs "
             "history scale, rebuild speedup and the parity oracle; "
             "writes BENCH_incremental.json",
    )
    incremental.add_argument(
        "--rows", type=int, default=20_000,
        help="fact rows at scale 1x (default 20000)",
    )
    incremental.add_argument(
        "--delta-rows", type=int, default=500,
        help="rows per appended delta batch (default 500)",
    )
    incremental.add_argument(
        "--scales", default="1,10",
        help="comma-separated history multipliers (default '1,10')",
    )
    incremental.add_argument(
        "--repeats", type=int, default=5,
        help="timed publishes per scale (default 5; p50 is reported)",
    )
    incremental.add_argument("--seed", type=int, default=7,
                             help="synthetic data seed")
    incremental.add_argument(
        "--out", type=Path, default=Path("BENCH_incremental.json"),
        help="result JSON path (default ./BENCH_incremental.json)",
    )
    incremental.set_defaults(func=_cmd_bench_incremental)

    overload = commands.add_parser(
        "bench-overload",
        help="overload harness: shed latency, oversubscribed chaos "
             "readers with a recompute oracle, deadline enforcement; "
             "writes BENCH_overload.json",
    )
    overload.add_argument(
        "--patients", type=int, default=150,
        help="patients in the simulated cohort (default 150)",
    )
    overload.add_argument("--seed", type=int, default=42,
                          help="simulation seed")
    overload.add_argument(
        "--oversubscription", type=int, default=4,
        help="reader threads per admission slot (default 4)",
    )
    overload.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds of chaos reader load (default 2.0)",
    )
    overload.add_argument(
        "--out", type=Path, default=Path("BENCH_overload.json"),
        help="result JSON path (default ./BENCH_overload.json)",
    )
    overload.set_defaults(func=_cmd_bench_overload)

    partition = commands.add_parser(
        "bench-partition",
        help="partitioned-storage harness: pruned-vs-full parity, "
             "zone-map scan speedup at scale, encoding memory savings; "
             "writes BENCH_partition.json",
    )
    partition.add_argument(
        "--patients", type=int, default=1200,
        help="base cohort patients; speedup runs at scale x this (default 1200)",
    )
    partition.add_argument(
        "--scale", type=int, default=10,
        help="row multiplier for the speedup phase (default 10)",
    )
    partition.add_argument("--seed", type=int, default=42,
                           help="simulation seed")
    partition.add_argument(
        "--repeats", type=int, default=7,
        help="timing repeats per probe, best-of (default 7)",
    )
    partition.add_argument(
        "--out", type=Path, default=Path("BENCH_partition.json"),
        help="result JSON path (default ./BENCH_partition.json)",
    )
    partition.set_defaults(func=_cmd_bench_partition)

    sweep = commands.add_parser(
        "sweep",
        help="chaos scenario sweep: crash-isolated fleet runs of the full "
             "closed loop under a fault matrix; writes BENCH_scenarios.json",
    )
    sweep.add_argument(
        "--root", type=Path, default=Path("sweep-out"),
        help="sweep ledger root; re-runs resume only missing/failed "
             "scenarios (default ./sweep-out)",
    )
    sweep.add_argument(
        "--out", type=Path, default=Path("BENCH_scenarios.json"),
        help="result JSON path (default ./BENCH_scenarios.json)",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: cpu count - 1)",
    )
    sweep.add_argument("--seed", type=int, default=7,
                       help="matrix base seed (default 7)")
    sweep.add_argument(
        "--deadline", type=float, default=120.0,
        help="per-scenario wall-clock deadline in seconds (default 120)",
    )
    sweep.add_argument(
        "--fresh", action="store_true",
        help="ignore recorded outcomes and re-run every scenario",
    )
    sweep.add_argument(
        "--list", action="store_true",
        help="print the scenario matrix and exit without running",
    )
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the exit code."""
    obs.configure_from_env()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
