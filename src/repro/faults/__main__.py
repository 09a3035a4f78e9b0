"""CLI for the fault-schedule explorer.

Examples::

    python -m repro.faults --seeds 25
    python -m repro.faults --seeds 5 --envelopes 16      # quick smoke
    python -m repro.faults --seed 17 --trace             # one seed, full trace
    python -m repro.faults --seeds 100 --shrink          # minimize failures

Exit status is non-zero when any seed violates an invariant.
"""

from __future__ import annotations

import argparse
import sys

from repro.faults.explorer import (
    PROFILES,
    ExplorerConfig,
    run_seed,
    shrink_schedule,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Randomized fault-schedule exploration of the BFT "
        "ordering service (seeded, reproducible, shrinkable).",
    )
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of consecutive seeds to run (default 25)")
    parser.add_argument("--start-seed", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly this one seed (overrides --seeds)")
    parser.add_argument("--f", type=int, default=1, dest="f",
                        help="fault threshold; n = 3f+1 replicas (default 1)")
    parser.add_argument("--n", type=int, default=None,
                        help="replica count; must equal 3f+1 (sugar for --f)")
    parser.add_argument("--envelopes", type=int, default=24,
                        help="envelopes submitted per run (default 24)")
    parser.add_argument("--max-events", type=int, default=4,
                        help="max fault events per schedule (default 4)")
    parser.add_argument("--heal-at", type=float, default=3.0,
                        help="simulated time when all faults heal (default 3.0)")
    parser.add_argument("--deadline", type=float, default=60.0,
                        help="simulated-time liveness budget (default 60.0)")
    parser.add_argument("--profile", choices=tuple(PROFILES), default="default",
                        help="schedule space and what it runs against -- " +
                        "; ".join(f"'{name}': {profile.summary}"
                                  for name, profile in PROFILES.items()))
    parser.add_argument("--shrink", action="store_true",
                        help="minimize failing schedules by event removal")
    parser.add_argument("--trace", action="store_true",
                        help="print the full fault trace of every run")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write a JSON report (per-seed outcomes, fault "
                        "schedules, and the traces of failing runs) to PATH")
    parser.add_argument("--quiet", action="store_true",
                        help="only print failures and the summary line")
    return parser


def config_from_args(args: argparse.Namespace) -> ExplorerConfig:
    f = args.f
    if args.n is not None:
        if (args.n - 1) % 3:
            raise SystemExit(f"--n must be 3f+1 (got {args.n})")
        f = (args.n - 1) // 3
    return ExplorerConfig(
        f=f,
        envelopes=args.envelopes,
        max_events=args.max_events,
        heal_at=args.heal_at,
        deadline=args.deadline,
        profile=args.profile,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.start_seed, args.start_seed + args.seeds))

    failures = 0
    records = []
    for seed in seeds:
        result = run_seed(seed, cfg)
        records.append({
            "seed": seed,
            "ok": result.ok,
            "schedule": [event.describe() for event in result.events],
            "violations": [str(v) for v in result.violations],
            "submitted": result.submitted,
            "delivered": result.delivered,
            "sim_time": result.sim_time,
            "ledger_digest": result.ledger_digest,
            "trace_digest": result.trace_digest,
            # full traces only where they matter: failures, or on request
            "trace": result.trace if (args.trace or not result.ok) else None,
        })
        status = "ok" if result.ok else "VIOLATION"
        line = (
            f"seed {seed:>5}  {status:<9}  events={len(result.events)}  "
            f"delivered={result.delivered}/{result.submitted}  "
            f"t={result.sim_time:.2f}s  ledger={result.ledger_digest[:12]}"
        )
        if not result.ok or not args.quiet:
            print(line)
        if args.trace and result.trace:
            for entry in result.trace:
                print(f"    {entry}")
        if not result.ok:
            failures += 1
            for violation in result.violations:
                print(f"    {violation}")
            for event in result.events:
                print(f"    schedule: {event.describe()}")
            if args.shrink:
                minimal, shrunk_result = shrink_schedule(
                    seed, result.events, cfg
                )
                print(f"    shrunk to {len(minimal)} event(s):")
                for event in minimal:
                    print(f"      {event.describe()}")
                for violation in shrunk_result.violations:
                    print(f"      still violates -- {violation}")

    print(
        f"explored {len(seeds)} seed(s): "
        f"{len(seeds) - failures} ok, {failures} violation(s)"
    )
    if args.out:
        import json

        document = {
            "config": {
                "f": cfg.f,
                "envelopes": cfg.envelopes,
                "max_events": cfg.max_events,
                "heal_at": cfg.heal_at,
                "deadline": cfg.deadline,
                "profile": cfg.profile,
            },
            "seeds": len(seeds),
            "violations": failures,
            "runs": records,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
        print(f"[fault-explorer report written to {args.out}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
