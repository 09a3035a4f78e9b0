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
  is a peak, so what is alive at exit need not be what set it;
- per phase of ``run_job`` (build -- imports, build, arm and the setup
  calibration --, warm-up, window, drain, report, verify) the traced
  memory entering it and the traced peak inside it (tracemalloc's peak
  is reset as each phase begins), naming the phase that set the run's
  peak: a slice sample sees none of drain, report or verify.

Exits 1 if the run fails ``verify``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import sys
import sysconfig
import tracemalloc
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

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


class PhasePeaks:
    """The traced memory entering each phase of ``run_job`` and the
    traced peak inside it: the peak is reset as a phase begins and read
    as the next one does."""

    def __init__(self) -> None:
        #: (phase, traced bytes entering it, traced peak inside it)
        self.phases: List[Tuple[str, int, int]] = []
        self.phase = "build"
        self._entering = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def begin(self, phase: str) -> None:
        current, peak = tracemalloc.get_traced_memory()
        self.phases.append((self.phase, self._entering, peak))
        tracemalloc.reset_peak()
        self.phase, self._entering = phase, current

    def first(self, phase: str, fn: Callable[..., Any], after: Tuple[str, ...] = ()):
        """``fn``, beginning ``phase`` when called in a phase of ``after``
        (in any phase if ``after`` is empty)."""

        def wrapped(*args):
            if not after or self.phase in after:
                self.begin(phase)
            return fn(*args)

        return wrapped


def census(workload: str, scale: float, top: int) -> int:
    tracemalloc.start()
    phases = PhasePeaks()
    from benchmarks.perf import adapter
    from benchmarks.perf.worker import run_job

    # run_job drops its deployment on return; keep it for the exit
    # snapshot, sample the traced total after each of its runs, and
    # mark where each phase begins: the warm-up at the first run, the
    # window at the first mark, the rest at their own calls
    kept = []
    build = adapter.build

    def build_and_keep(*args):
        deployment = build(*args)
        sampler = PeakSampler(deployment.run)
        deployment.run = phases.first("warm-up", sampler, ("build",))
        deployment.mark = phases.first("window", deployment.mark, ("build", "warm-up"))
        for phase in ("drain", "report", "verify"):
            setattr(deployment, phase, phases.first(phase, getattr(deployment, phase)))
        kept.append((deployment, sampler))
        return deployment

    adapter.build = build_and_keep
    result = run_job(
        {"workload": workload, "seed": 0, "scale": scale, "repeat": 0, "mode": "full"}
    )
    phases.begin("exit")  # closes verify's row
    failures = result["failures"]
    gc.collect()
    current = tracemalloc.get_traced_memory()[0]
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = snapshot.statistics("lineno")
    peak_phase, _entering, peak = max(phases.phases, key=lambda row: row[2])

    print(f"workload {workload}  seed 0  scale {scale}")
    print(f"ru_maxrss        {result['peak_rss_mb']:9.2f} MiB  (tracing included)")
    print(f"traced current   {current / MIB:9.2f} MiB")
    print(f"traced peak      {peak / MIB:9.2f} MiB  (in {peak_phase})")
    print(f"verify           {'ok' if not failures else '; '.join(failures)}")
    print(f"top {min(top, len(stats))} allocation sites alive at exit:")
    print_sites(stats, top)
    sampler = kept[0][1]
    peak_stats = sampler.snapshot.statistics("lineno")
    print(
        f"top {min(top, len(peak_stats))} allocation sites at the sampled peak,"
        f" {sampler.peak_bytes / MIB:.2f} MiB traced after run"
        f" {sampler.peak_run} of {sampler.runs}:"
    )
    print_sites(peak_stats, top)
    print("traced memory by phase:")
    print(f"{'phase':<8} {'entering':>9} {'peak':>9}")
    for phase, entering, phase_peak in phases.phases:
        mark = "  <- the run's peak" if phase == peak_phase else ""
        print(f"{phase:<8} {entering / MIB:9.2f} {phase_peak / MIB:9.2f}{mark}")
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
