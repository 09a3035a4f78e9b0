"""Observability CLI: ``python -m repro.obs``.

Subcommands::

    python -m repro.obs report                       # attribution report
    python -m repro.obs report --seed 7 --rate 800
    python -m repro.obs report --trace trace.json    # + Chrome trace
    python -m repro.obs report --cid 12              # pick the critical path
    python -m repro.obs trace --out trace.json       # trace export only

``report`` exits non-zero when the phase-sum/harness cross-check
fails (the CI acceptance gate).  Exported traces are validated against
the trace-event JSON schema before they are written; open them at
https://ui.perfetto.dev or in ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.report import SMOKE, cross_check, render_report, run_scenario
from repro.ordering.backends import OpenLoop
from repro.smart.view import bft_group_size, max_faults


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--orderers", type=int, default=4, help="ordering cluster size"
    )
    parser.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds of simulated load (default 2.0)",
    )
    parser.add_argument(
        "--rate", type=float, default=500.0, help="offered load, tx/s"
    )
    parser.add_argument("--envelope-size", type=int, default=1024)
    parser.add_argument("--block-size", type=int, default=10)


def _row(args):
    """The smoke row with the command line's fields replaced."""
    f = max_faults(args.orderers)
    return replace(
        SMOKE,
        seed=args.seed,
        f=f,
        delta=args.orderers - bft_group_size(f),
        block_size=args.block_size,
        load=OpenLoop(args.rate, args.duration, args.envelope_size),
    )


def cmd_report(args) -> int:
    result = run_scenario(_row(args))
    print(render_report(result, cid=args.cid))
    if args.trace:
        path = write_chrome_trace(chrome_trace(result.obs.tracer), args.trace)
        print(f"\n[chrome trace validated and written to {path}]")
    ok, _ = cross_check(result)
    if not ok:
        print("repro.obs report: cross-check FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_trace(args) -> int:
    result = run_scenario(_row(args))
    path = write_chrome_trace(chrome_trace(result.obs.tracer), args.out)
    print(f"[chrome trace validated and written to {path}]")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability reports and trace export "
        "(see docs/OBSERVABILITY.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report_parser = sub.add_parser(
        "report", help="run a seeded scenario and print the attribution report"
    )
    _add_scenario_args(report_parser)
    report_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also export the Chrome trace-event JSON to PATH",
    )
    report_parser.add_argument(
        "--cid", type=int, default=None,
        help="consensus instance for the critical-path section "
        "(default: the median decided instance)",
    )

    trace_parser = sub.add_parser(
        "trace", help="run a seeded scenario and export only the trace"
    )
    _add_scenario_args(trace_parser)
    trace_parser.add_argument("--out", default="obs-trace.json", metavar="PATH")

    args = parser.parse_args(argv)
    if args.command == "report":
        return cmd_report(args)
    return cmd_trace(args)


if __name__ == "__main__":
    sys.exit(main())
