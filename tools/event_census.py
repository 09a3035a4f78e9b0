#!/usr/bin/env python
"""What one performance workload's events are: a census by callback.

    python tools/event_census.py --workload <name> [--scale 1.0]
    make event-census WORKLOAD=<name> [SCALE=1.0]

Runs one ``full`` repeat of the workload at seed 0 through the
benchmark's own ``benchmarks/perf/worker.py::run_job`` (imported, never
edited) twice: once as the benchmark runs it, and once with the
measured window -- from the window's first ``mark`` to its last -- run
by a copy of the kernel's ``run(until=...)`` loop that tallies every
event it dispatches by its callback's ``__qualname__``.  The traced run
must reproduce every ``sim_*`` value of the untraced one, and its tally
must sum to the window's ``sim.core.events``; the tool exits 1 if not.
Then it prints:

- the window's events per callback, most first, with their share;
- for each timer callback that returns at an epoch guard when a later
  arming superseded it (:data:`GUARDED`), its fires and its *no-op*
  fires: those that put nothing on the heap, so the event did nothing
  a later one depends on (docs/KERNEL.md, "An event only where
  simulated time passes").

Exits 1 if the run fails ``verify``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import functools
import gc
import heapq
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent
for _path in (REPO / "src", REPO):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

#: the timer callbacks that carry (or carried) an epoch guard
GUARDED = (
    "TimeToCutMachine._when_due",
    "SmartBFTNode._send_prepare",
    "SmartBFTNode._heartbeat_tick",
    "SmartBFTNode._watchdog_tick",
)


def callback_name(fn: Callable[..., Any]) -> str:
    while isinstance(fn, functools.partial):
        fn = fn.func
    name = getattr(fn, "__qualname__", None)
    return name if isinstance(name, str) else type(fn).__qualname__


class WindowTally:
    """The kernel's ``run(until=...)`` loop (``sim/core.py``), event for
    event, plus a count per callback and a heap-size test around each
    guarded one."""

    def __init__(self, sim):
        self.sim = sim
        self.events: Counter = Counter()
        self.noops: Counter = Counter()

    def run(self, until: float) -> None:
        sim = self.sim
        heap = sim._heap
        pop = heapq.heappop
        events, noops = self.events, self.noops
        sim._running = True
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                time, _seq, fn, args = heap[0]
                if fn is None:
                    handle = args
                    if handle.cancelled:
                        pop(heap)
                        continue
                    if time > until:
                        break
                    fn, args = handle.fn, handle.args
                    handle.cancel()
                elif time > until:
                    break
                pop(heap)
                sim.now = time
                sim._processed += 1
                name = callback_name(fn)
                events[name] += 1
                if name in GUARDED:
                    size = len(heap)
                    fn(*args)
                    if len(heap) == size:
                        noops[name] += 1
                else:
                    fn(*args)
            if sim.now < until:
                sim.now = until
        finally:
            sim._running = False
            if gc_was_enabled:
                gc.enable()


def traced_job(workload: str, scale: float) -> tuple:
    """``run_job`` with the window's events tallied: (result, tally)."""
    from benchmarks.perf import adapter
    from benchmarks.perf.worker import run_job

    tallies = []
    build = adapter.build

    def build_traced(*args):
        deployment = build(*args)
        mark = deployment.mark

        def traced_mark():
            # the window's first mark installs the tally, its last
            # removes it (the kernel's own loop runs warm-up and drain)
            sim = deployment.sim
            if not tallies:
                tallies.append(WindowTally(sim))
                sim.run = tallies[0].run
            else:
                del sim.run
            return mark()

        deployment.mark = traced_mark
        return deployment

    adapter.build = build_traced
    try:
        result = run_job(job(workload, scale))
    finally:
        adapter.build = build
    return result, tallies[0]


def job(workload: str, scale: float) -> Dict[str, Any]:
    return {"workload": workload, "seed": 0, "scale": scale, "repeat": 0, "mode": "full"}


def census(workload: str, scale: float) -> int:
    from benchmarks.perf.worker import run_job

    untraced = run_job(job(workload, scale))
    result, tally = traced_job(workload, scale)
    total = result["counters"]["sim.core.events"]
    problems = [
        f"{name}: traced {value!r}, untraced {untraced['sim'][name]!r}"
        for name, value in result["sim"].items()
        if value != untraced["sim"][name]
    ]
    if sum(tally.events.values()) != total:
        problems.append(f"tally {sum(tally.events.values())} != window events {total}")
    failures = result["failures"]

    print(f"workload {workload}  seed 0  scale {scale}")
    print(f"window events {total:9d}  over {result['window_envs']} envelopes")
    print(f"sim_*         {'equal to an untraced run' if not problems else '; '.join(problems)}")
    print(f"verify        {'ok' if not failures else '; '.join(failures)}")
    print("events per callback:")
    print(f"{'events':>9} {'share':>7}  callback")
    for name, count in sorted(tally.events.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:9d} {count / total:7.2%}  {name}")
    print("no-op fires at the epoch guards:")
    print(f"{'fires':>9} {'no-op':>9} {'share':>7}  callback")
    for name in GUARDED:
        noops = tally.noops[name]
        print(f"{tally.events[name]:9d} {noops:9d} {noops / total:7.2%}  {name}")
    return 1 if problems or failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--scale", type=float, default=1.0, help="warm-up and window factor")
    args = parser.parse_args(argv)
    from benchmarks.perf.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; one of {', '.join(sorted(WORKLOADS))}"
        )
    return census(args.workload, args.scale)


if __name__ == "__main__":
    sys.exit(main())
