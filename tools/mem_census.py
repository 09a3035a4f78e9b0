#!/usr/bin/env python
"""Where one performance workload's memory goes: a tracemalloc census.

    python tools/mem_census.py --workload <name> [--scale 1.0] [--top 15]
    make mem-census WORKLOAD=<name> [SCALE=1.0] [TOP=15]

Runs one ``full`` repeat of the workload at seed 0 through the
benchmark's own ``benchmarks/perf/worker.py::run_job`` (imported, never
edited) -- build, warm-up, the measured window, drain, report, verify --
with tracemalloc tracing from before the build.  The deployment is kept
alive past the run, so the census sees what it holds at the end, and
after every run slice (the warm-up, each window slice, each drain step)
the traced memory is sampled: a slice that ends at a new high replaces
the kept snapshot.  Then it prints:

- ``ru_maxrss``, the process's peak RSS (tracing included: tracemalloc
  keeps a record per live block, so this reads above the benchmark's
  untraced ``host_peak_rss_mb``);
- the traced memory at exit and its peak over the run;
- the ``--top`` allocation sites holding the most memory at exit, one
  source line each, with its live block count and bytes per block;
- the ``--top`` sites at the sampled peak, the same way: a run past
  capacity holds its largest backlog mid-run, and ``host_peak_rss_mb``
  is a peak, so what is alive at exit need not be what set it.

Exits 1 if the run fails ``verify``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import sys
import sysconfig
import tracemalloc
from pathlib import Path
from typing import Callable, List, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent
for _path in (REPO / "src", REPO):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

MIB = 1024.0 * 1024.0
STDLIB = Path(sysconfig.get_paths()["stdlib"]).resolve()


def site(frame: tracemalloc.Frame) -> str:
    """``file:line``, relative to the repository or the standard library."""
    path = Path(frame.filename).resolve()
    for root, prefix in ((REPO, ""), (STDLIB, "<stdlib>/")):
        if path.is_relative_to(root):
            return f"{prefix}{path.relative_to(root)}:{frame.lineno}"
    return f"{frame.filename}:{frame.lineno}"


def print_sites(stats: List[tracemalloc.Statistic], top: int) -> None:
    print(f"{'MiB':>9} {'count':>9} {'B/item':>8}  site")
    for stat in stats[:top]:
        print(
            f"{stat.size / MIB:9.2f} {stat.count:9d} {stat.size / stat.count:8.1f}"
            f"  {site(stat.traceback[0])}"
        )


class PeakSampler:
    """Wraps a deployment's ``run``: after each slice, a traced total
    above every earlier sample takes a snapshot in place of the last."""

    def __init__(self, run: Callable[[float], None]):
        self._run = run
        self.runs = 0
        self.peak_run = 0
        self.peak_bytes = 0
        self.snapshot: Optional[tracemalloc.Snapshot] = None

    def __call__(self, dt: float) -> None:
        self._run(dt)
        self.runs += 1
        current = tracemalloc.get_traced_memory()[0]
        if current > self.peak_bytes:
            self.peak_bytes = current
            self.peak_run = self.runs
            self.snapshot = tracemalloc.take_snapshot()


def census(workload: str, scale: float, top: int) -> int:
    tracemalloc.start()
    from benchmarks.perf import adapter
    from benchmarks.perf.worker import run_job

    # run_job drops its deployment on return; keep it for the exit
    # snapshot, and sample the traced total after each of its runs
    kept = []
    build = adapter.build

    def build_and_keep(*args):
        deployment = build(*args)
        deployment.run = PeakSampler(deployment.run)
        kept.append(deployment)
        return deployment

    adapter.build = build_and_keep
    result = run_job(
        {"workload": workload, "seed": 0, "scale": scale, "repeat": 0, "mode": "full"}
    )
    failures = result["failures"]
    gc.collect()
    current, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = snapshot.statistics("lineno")

    print(f"workload {workload}  seed 0  scale {scale}")
    print(f"ru_maxrss        {result['peak_rss_mb']:9.2f} MiB  (tracing included)")
    print(f"traced current   {current / MIB:9.2f} MiB")
    print(f"traced peak      {peak / MIB:9.2f} MiB")
    print(f"verify           {'ok' if not failures else '; '.join(failures)}")
    print(f"top {min(top, len(stats))} allocation sites alive at exit:")
    print_sites(stats, top)
    sampler = kept[0].run
    peak_stats = sampler.snapshot.statistics("lineno")
    print(
        f"top {min(top, len(peak_stats))} allocation sites at the sampled peak,"
        f" {sampler.peak_bytes / MIB:.2f} MiB traced after run"
        f" {sampler.peak_run} of {sampler.runs}:"
    )
    print_sites(peak_stats, top)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--scale", type=float, default=1.0, help="warm-up and window factor")
    parser.add_argument("--top", type=int, default=15, help="allocation sites to print")
    args = parser.parse_args(argv)
    from benchmarks.perf.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; one of {', '.join(sorted(WORKLOADS))}"
        )
    return census(args.workload, args.scale, args.top)


if __name__ == "__main__":
    sys.exit(main())
