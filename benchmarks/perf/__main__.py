"""All seven workloads with one command, for people.

    PYTHONPATH=src python -m benchmarks.perf run [--seed N] [--only W] [--quick]
    PYTHONPATH=src python -m benchmarks.perf repeat [--seed N] [--only W] [--quick]

``run`` measures every workload (untraced repeats, then one traced
run), checks every run's output, prints every metric by name with its
unit, and writes ``out/results.json`` and ``out/trace-<workload>.json``.
``repeat`` runs the set twice and fails if the two disagree by more
than a metric's bound, or at all on a ``sim_*`` metric or exact
counter.  Both exit non-zero on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

from benchmarks.perf import measure
from benchmarks.perf.workloads import (
    END_TO_END,
    RUN_SECONDS,
    WORKLOADS,
    per_layer_metrics,
)


def measure_workload(name: str, seed: int, quick: bool, traced: bool) -> Dict[str, Any]:
    """Measure one workload; ``quick`` is for smoke use only."""
    scale = measure.QUICK_SCALE if quick else 1.0
    untraced = measure.untraced_repeats(
        name, seed, scale,
        seconds=0.0 if quick else RUN_SECONDS,
        min_repeats=2 if quick else 3,
    )
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "repeats": len(untraced),
        "end_to_end": measure.end_to_end(untraced),
        "whole_run_host_cpu_s_per_sim_s": measure.whole_run_reference(untraced),
        "counters": untraced[0]["counters"],
        "outcome": untraced[0]["outcome"],
        "latency_samples": untraced[0]["latency_samples"],
        "failures": measure.cross_check(untraced),
    }
    profile = None
    if traced and not quick:
        profile = measure.run_worker(name, seed, scale, len(untraced), "profile")
        result["per_layer"] = measure.per_layer(untraced, profile)
    result["trace_file"] = measure.write_trace(name, untraced, profile)
    return result


def print_workload(result: Dict[str, Any]) -> None:
    outcome = result["outcome"]
    print(
        f"\n== {result['workload']}  seed={result['seed']}  repeats={result['repeats']}"
        f"  offered={outcome['offered']} committed={outcome['committed']}"
        f" refused={outcome['refused']}  latency samples={result['latency_samples']}"
    )
    for name, unit, better, bound, _ in END_TO_END:
        value = result["end_to_end"][name]
        print(f"  {name:<28} {value:>16.6f} {unit:<10} ({better} is better, bound {bound})")
    ref = result["whole_run_host_cpu_s_per_sim_s"]
    print(
        "  raw whole-run host_cpu_s_per_sim_s, for reference: "
        f"min {ref['min']:.4f}  q1 {ref['q1']:.4f}  median {ref['median']:.4f}"
        f"  q3 {ref['q3']:.4f}  max {ref['max']:.4f}"
    )
    for name, unit, _better in per_layer_metrics():
        if name in result.get("per_layer", {}):
            print(f"  {name:<28} {result['per_layer'][name]:>16.6f} {unit}")
    for failure in result["failures"]:
        print(f"  INCORRECT: {failure}")


def run_set(names: List[str], seed: int, quick: bool, traced: bool) -> List[Dict[str, Any]]:
    if quick:
        print("QUICK MODE: windows / 5, two repeats, no traced run -- smoke use only, "
              "these numbers are not measurements")
    results = []
    for name in names:
        result = measure_workload(name, seed, quick, traced)
        print_workload(result)
        results.append(result)
    return results


def compare_sets(first: List[dict], second: List[dict]) -> List[str]:
    """Print both values of every end-to-end metric; return violations."""
    violations = []
    print("\n== repeat: two sets of runs of the same commit")
    for a, b in zip(first, second):
        for name, _unit, better, bound, _ in END_TO_END:
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            relative = (y - x) / x
            line = (f"  {a['workload']:<22} {name:<24} {x:>14.6f} {y:>14.6f} "
                    f"{relative:>+9.4f}  bound {bound}")
            exact = name.startswith("sim_")
            if (exact and x != y) or abs(relative) > bound:
                line += "  VIOLATION"
                violations.append(f"{a['workload']} {name}: {x} vs {y}")
            print(line)
        if a["counters"] != b["counters"]:
            violations.append(f"{a['workload']}: exact counters differ between sets")
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    parser.add_argument("command", choices=("run", "repeat"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", choices=sorted(WORKLOADS))
    parser.add_argument("--quick", action="store_true",
                        help="smoke use only: windows / 5, two repeats, no traced run")
    args = parser.parse_args(argv)
    names = [args.only] if args.only else list(WORKLOADS)

    if args.command == "run":
        results = run_set(names, args.seed, args.quick, traced=True)
        os.makedirs(measure.OUT_DIR, exist_ok=True)
        path = os.path.join(measure.OUT_DIR, "results.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"quick": args.quick, "claim": None, "results": results},
                      handle, indent=1)
        print(f"\nwrote {path}")
        problems = [f for result in results for f in result["failures"]]
    else:
        first = run_set(names, args.seed, args.quick, traced=False)
        second = run_set(names, args.seed, args.quick, traced=False)
        problems = [f for result in first + second for f in result["failures"]]
        problems += compare_sets(first, second)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
