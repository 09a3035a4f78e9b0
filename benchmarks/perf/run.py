"""The benchmark's one command, in the form BENCHMARK.json names.

    python3 benchmarks/perf/run.py --workload lan_n10_sat --seed 0 \\
        --seconds 15 --trace 0

runs one workload for ``--seconds`` of wall time and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  For all
seven workloads at once, with tables, use ``python -m benchmarks.perf``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def main(argv=None) -> int:
    from benchmarks.perf import measure
    from benchmarks.perf.workloads import (
        END_TO_END,
        RUN_SECONDS,
        WORKLOADS,
        per_layer_metrics,
    )

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # fail here, before any worker starts, when the program is not there
    import repro  # noqa: F401

    if args.trace:
        # two untraced repeats for the exact counters and the overhead
        # ratio, whatever --seconds says; the traced run is the third
        untraced = measure.untraced_repeats(
            args.workload, args.seed, 1.0, seconds=0.0, min_repeats=2
        )
        traced = measure.run_worker(args.workload, args.seed, 1.0, 2, "profile")
        values = measure.per_layer(untraced, traced)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        measure.write_trace(args.workload, untraced, traced)
    else:
        untraced = measure.untraced_repeats(
            args.workload, args.seed, 1.0, args.seconds, min_repeats=3
        )
        values = measure.end_to_end(untraced)
        units = {name: unit for name, unit, *_ in END_TO_END}
    failures = measure.cross_check(untraced)
    for failure in failures:
        print(f"INCORRECT {args.workload}: {failure}", file=sys.stderr)
    outcome = untraced[0]["outcome"]
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": outcome["offered"],
                # refusals by design (admission control, MVCC) are explicit
                # outcomes carried by sim_commit_share; failed counts
                # envelopes that were neither committed nor refused
                "failed": outcome["offered"] - outcome["committed"] - outcome["refused"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
