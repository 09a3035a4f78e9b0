"""Benchmark runner CLI: ``python -m repro.bench``.

Subcommands::

    python -m repro.bench list
    python -m repro.bench run --smoke                 # -> BENCH_smoke.json
    python -m repro.bench run --only fig8 --only eq1  # subset, full matrices
    python -m repro.bench run --smoke --out path.json --repeats 3
    python -m repro.bench run --only bakeoff_orderers --name bakeoff
    python -m repro.bench compare baseline.json candidate.json
    python -m repro.bench report a.json b.json --names baseline,candidate
    python -m repro.bench report BENCH_full.json --by orderer
    python -m repro.bench history append BENCH_full.json --dir benchmarks/history

``compare`` exits 0 when the candidate reproduces every baseline value
exactly, 1 on any moved or missing unit (the gate of
:mod:`repro.bench.report`), 2 on usage/schema errors.
``report`` (the same module's N-way analysis) and ``history`` exit 0
on success, 2 on usage/schema errors.
"""

from __future__ import annotations

import argparse
import sys


def cmd_list(_args) -> int:
    from repro.bench import suite  # noqa: F401 - populates the registry
    from repro.bench.harness import REGISTRY

    for benchmark in REGISTRY:
        full = sum(1 for _ in benchmark.points("full"))
        smoke = sum(1 for _ in benchmark.points("smoke"))
        print(
            f"{benchmark.name:<20} {full:>4} points "
            f"({smoke} smoke)  {benchmark.description.splitlines()[0]}"
        )
    return 0


def cmd_run(args) -> int:
    from repro.bench import suite  # noqa: F401 - populates the registry
    from repro.bench.harness import (
        REGISTRY,
        render_suite,
        run_suite,
        write_result,
    )

    mode = "smoke" if args.smoke else "full"
    run_name = args.name or mode
    try:
        benchmarks = REGISTRY.select(args.only)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    progress = None if args.quiet else lambda line: print(f"  {line}", flush=True)
    result = run_suite(
        benchmarks,
        run_name=run_name,
        mode=mode,
        repeats=args.repeats,
        base_seed=args.seed,
        progress=progress,
        phases=args.phases,
    )
    path = args.out or f"BENCH_{run_name}.json"
    write_result(result, path)
    if not args.quiet:
        print()
        print(render_suite(result))
    print(f"\n[written to {path}]")
    return 0


def cmd_compare(args) -> int:
    from repro.bench.harness import SchemaError, load_result
    from repro.bench.report import compare_results, gate

    try:
        report = compare_results(
            load_result(args.baseline), load_result(args.candidate)
        )
    except (OSError, ValueError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    code = gate(report)
    if code != 0:
        print("bench-compare: FAIL", file=sys.stderr)
    return code


def cmd_report(args) -> int:
    import os

    from repro.bench.harness import SchemaError, load_history
    from repro.bench.report import (
        ReportError,
        build_report,
        render_github_summary,
        render_html,
        render_markdown,
        report_to_json_dict,
    )

    names = None
    if args.names is not None:
        names = [n.strip() for n in args.names.split(",") if n.strip()]
    try:
        snapshots = load_history(args.history) if args.history else None
        report = build_report(
            args.results,
            by_axis=args.by,
            names=names,
            history_snapshots=snapshots,
        )
    except (OSError, ReportError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    markdown = render_markdown(report, full_detail=args.full_detail)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"[markdown written to {args.out}]")
    else:
        print(markdown)
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(markdown))
        print(f"[html written to {args.html}]")
    if args.json:
        import json as json_module

        with open(args.json, "w", encoding="utf-8") as fh:
            json_module.dump(
                report_to_json_dict(report), fh, indent=2, allow_nan=False
            )
            fh.write("\n")
        print(f"[json written to {args.json}]")
    if args.github_summary:
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a", encoding="utf-8") as fh:
                fh.write(render_github_summary(report))
                fh.write("\n")
            print(f"[ranking appended to {summary_path}]")
        else:
            print(
                "[--github-summary: GITHUB_STEP_SUMMARY not set, skipped]",
                file=sys.stderr,
            )
    return 0


def cmd_history(args) -> int:
    from repro.bench.harness import SchemaError, append_history, load_history

    if args.history_command == "append":
        try:
            path = append_history(args.result, args.dir, cap=args.cap)
        except (OSError, ValueError, SchemaError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"[snapshot written to {path}]")
        return 0
    # list
    try:
        snapshots = load_history(args.dir)
    except (OSError, ValueError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, document in snapshots:
        print(
            f"{name}  run={document.get('run_name')} "
            f"mode={document.get('mode')} "
            f"benchmarks={len(document.get('benchmarks', []))}"
        )
    print(f"{len(snapshots)} snapshot(s) in {args.dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Declarative benchmark harness (see docs/BENCHMARKS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered benchmarks")

    run_parser = sub.add_parser("run", help="run registered benchmarks")
    run_parser.add_argument(
        "--smoke", action="store_true",
        help="run the seconds-fast smoke matrices instead of the full ones",
    )
    run_parser.add_argument(
        "--only", action="append", default=None, metavar="PATTERN",
        help="run only benchmarks whose name contains PATTERN (repeatable)",
    )
    run_parser.add_argument(
        "--repeats", type=int, default=1,
        help="measurements per matrix point (default 1)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed of the repeats (default 0)",
    )
    run_parser.add_argument(
        "--name", default=None,
        help="run name recorded in the result (default: smoke/full)",
    )
    run_parser.add_argument(
        "--out", default=None,
        help="output path (default: BENCH_<name>.json in the cwd)",
    )
    run_parser.add_argument(
        "--phases", action="store_true",
        help="attach a repro.obs hub per repeat and embed per-phase "
        "latency breakdowns in the result (benchmarks that build an "
        "ordering service only)",
    )
    run_parser.add_argument("--quiet", action="store_true")

    compare_parser = sub.add_parser(
        "compare",
        help="gate a candidate result against a baseline: any moved or "
        "missing value fails",
    )
    compare_parser.add_argument("baseline")
    compare_parser.add_argument("candidate")

    report_parser = sub.add_parser(
        "report",
        help="N-way statistical ranking report over result documents",
    )
    report_parser.add_argument(
        "results", nargs="+",
        help="result JSON files: two+ (one variant each), or exactly "
        "one with --by AXIS",
    )
    report_parser.add_argument(
        "--by", default=None, metavar="AXIS",
        help="split a single result file into variants along a matrix "
        "axis (e.g. --by orderer on the bakeoff benchmark)",
    )
    report_parser.add_argument(
        "--names", default=None, metavar="A,B,...",
        help="comma-separated variant names for the result files "
        "(default: each document's run_name)",
    )
    report_parser.add_argument(
        "--out", default=None,
        help="write the markdown report here (default: stdout)",
    )
    report_parser.add_argument(
        "--json", default=None,
        help="also write the repro-bench-report/1 JSON document here",
    )
    report_parser.add_argument(
        "--html", default=None,
        help="also write a self-contained HTML rendering here "
        "(tables only, inline CSS, no plots)",
    )
    report_parser.add_argument(
        "--history", default=None, metavar="DIR",
        help="render regression-history sparklines from the snapshot "
        "directory (see 'history append')",
    )
    report_parser.add_argument(
        "--full-detail", action="store_true",
        help="render every significant pairwise matrix (no per-benchmark cap)",
    )
    report_parser.add_argument(
        "--github-summary", action="store_true",
        help="append the ranking section to $GITHUB_STEP_SUMMARY when set",
    )

    history_parser = sub.add_parser(
        "history", help="manage regression-history snapshots"
    )
    history_sub = history_parser.add_subparsers(
        dest="history_command", required=True
    )
    append_parser = history_sub.add_parser(
        "append", help="snapshot a result document into the history dir"
    )
    append_parser.add_argument("result", help="a repro-bench-result/1 file")
    append_parser.add_argument(
        "--dir", default="benchmarks/history",
        help="history directory (default benchmarks/history)",
    )
    append_parser.add_argument(
        "--cap", type=int, default=30,
        help="retain at most this many snapshots (default 30)",
    )
    list_parser = history_sub.add_parser(
        "list", help="list the snapshots in the history dir"
    )
    list_parser.add_argument(
        "--dir", default="benchmarks/history",
        help="history directory (default benchmarks/history)",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "history":
        return cmd_history(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
