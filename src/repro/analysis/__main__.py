"""CLI for the protocol-aware analysis layer.

Subcommands:

- ``check [paths...]`` (the default): run the static DET/PROTO rules.
- ``flow``: the MsgFlow interprocedural message-flow/taint analysis
  (FLOW001-003), with optional graph artifacts (``--graph``/``--dot``).
- ``detsan``: the runtime determinism sanitizer (every default
  scenario double-run under two hash seeds, all views diffed).
- ``racesan``: the schedule-race sanitizer (K tie-break permutations
  per scenario, semantic-digest diff, RACESAN001).
- ``capture``: one scenario run to a JSON record -- what ``detsan``
  spawns once per hash seed, and what the pin ledger's smoke goldens pin.
- ``rules``: print the rule catalog.

Exit status everywhere: 0 clean, 1 findings/divergence, 2 internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine, flow, sanitizer
from .rules import CATALOG
from .suppress import (
    DETSAN_RULES,
    FLOW_RULES,
    RACESAN_RULES,
    UNKNOWN_SUPPRESSION,
)


def _add_run_args(parser: argparse.ArgumentParser, rate: float) -> None:
    parser.add_argument("--seed", type=int, default=sanitizer.DEFAULT_SEED)
    parser.add_argument(
        "--duration", type=float, default=sanitizer.DEFAULT_DURATION
    )
    parser.add_argument("--rate", type=float, default=rate)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="protocol-aware static analysis + determinism sanitizer",
    )
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("check", help="run the static DET/PROTO rules")
    check.add_argument(
        "paths",
        nargs="*",
        default=list(engine.DEFAULT_PATHS),
        help="files/directories to analyze (default: src/repro)",
    )
    check.add_argument("--json", dest="json_out", default=None)

    flow_cmd = sub.add_parser(
        "flow", help="MsgFlow message-flow/taint analysis (FLOW001-003)"
    )
    flow_cmd.add_argument(
        "paths",
        nargs="*",
        default=list(flow.DEFAULT_FLOW_PATHS),
        help="files/directories to analyze (default: protocol packages)",
    )
    flow_cmd.add_argument("--json", dest="json_out", default=None)
    flow_cmd.add_argument(
        "--graph", dest="graph_out", default=None, help="graph JSON artifact"
    )
    flow_cmd.add_argument(
        "--dot", dest="dot_out", default=None, help="GraphViz DOT artifact"
    )

    det = sub.add_parser("detsan", help="runtime determinism sanitizer")
    _add_run_args(det, sanitizer.DETSAN_RATE)
    det.add_argument("--json", dest="json_out", default=None)

    race = sub.add_parser("racesan", help="schedule-race sanitizer")
    race.add_argument(
        "--scenario",
        dest="scenarios",
        action="append",
        choices=sanitizer.SCENARIO_NAMES,
        default=None,
        help="scenario to permute (repeatable; default: every default row)",
    )
    race.add_argument(
        "--permutations",
        "-k",
        type=int,
        default=sanitizer.DEFAULT_PERMUTATIONS,
        help="tie-break permutations per scenario",
    )
    _add_run_args(race, sanitizer.RACESAN_RATE)
    race.add_argument("--json", dest="json_out", default=None)

    capture = sub.add_parser(
        "capture", help="one scenario run to a JSON record"
    )
    capture.add_argument(
        "--scenario", default="smoke", choices=sanitizer.SCENARIO_NAMES
    )
    _add_run_args(capture, sanitizer.RACESAN_RATE)  # capture_record's own
    capture.add_argument("--tie-seed", dest="tie_seed", type=int, default=None)
    capture.add_argument("--out", required=True)

    sub.add_parser("rules", help="print the rule catalog")

    args = parser.parse_args(argv)

    if args.command in (None, "check"):
        paths = getattr(args, "paths", list(engine.DEFAULT_PATHS))
        json_out = getattr(args, "json_out", None)
        return engine.run(paths, json_out=json_out)
    if args.command == "flow":
        return flow.run(
            args.paths,
            json_out=args.json_out,
            graph_out=args.graph_out,
            dot_out=args.dot_out,
        )
    if args.command == "racesan":
        return sanitizer.run_racesan(
            scenarios=args.scenarios or sanitizer.DEFAULT_SCENARIOS,
            permutations=args.permutations,
            seed=args.seed,
            duration=args.duration,
            rate=args.rate,
            json_out=args.json_out,
        )
    if args.command == "detsan":
        return sanitizer.run_detsan(
            seed=args.seed,
            duration=args.duration,
            rate=args.rate,
            json_out=args.json_out,
        )
    if args.command == "capture":
        record = sanitizer.capture_record(
            scenario=args.scenario,
            seed=args.seed,
            duration=args.duration,
            rate=args.rate,
            tie_seed=args.tie_seed,
        )
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, sort_keys=True) + "\n")
        return 0
    if args.command == "rules":
        for rule_id in sorted(CATALOG):
            rule = CATALOG[rule_id]
            scope = ""
            if rule.only_under:
                scope = f" [only under {', '.join(rule.only_under)}]"
            elif rule.exempt_paths:
                scope = f" [exempt: {', '.join(rule.exempt_paths)}]"
            print(f"{rule_id}  {rule.title}{scope}")
        flow_titles = {
            "FLOW001": "tainted message data mutates protocol state "
            "before verification",
            "FLOW002": "message class with no reachable handler or no sender",
            "FLOW003": "dispatch entry or handler outside the flow graph",
        }
        for rule_id in FLOW_RULES:
            print(f"{rule_id}  {flow_titles[rule_id]}")
        for rule_id in DETSAN_RULES:
            print(f"{rule_id}  runtime divergence (see docs/ANALYSIS.md)")
        for rule_id in RACESAN_RULES:
            print(
                f"{rule_id}  semantics diverge across tie-break permutations"
            )
        print(f"{UNKNOWN_SUPPRESSION}  suppression names an unknown rule")
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
