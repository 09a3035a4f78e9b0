"""Parent side of a measurement: run workers one at a time, estimate.

Why not the median host time of a run: the reference box is a 2-core
slice of a shared host whose speed moves by up to +-40 % within seconds
and stays there for minutes, so identical repeats differ by as much.
Every worker therefore times the calibration kernel right after each
of the 50 slices of the measured window, and what is estimated is the
ratio window time / kernel time -- which the neighbours move far less:
its median over the repeats, scaled to seconds of the quiet box
(README, "Estimator").
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.perf.calibration import KERNEL_REF_S
from benchmarks.perf.workloads import COUNTERS, END_TO_END, LAYERS, TRACED_SLICES

_HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(_HERE, "worker.py")
OUT_DIR = os.path.join(_HERE, "out")
#: a worker that takes longer than this is hung: kill it, fail the run
WORKER_TIMEOUT_S = 150
#: --quick: windows / 5 and two repeats -- a smoke test, not a measurement
QUICK_SCALE = 0.2


class WorkerError(RuntimeError):
    """A worker process died or printed no result."""


def run_worker(workload: str, seed: int, scale: float, repeat: int, mode: str) -> dict:
    """Run one job in a fresh process and wait for it to end."""
    job = {
        "workload": workload, "seed": seed, "scale": scale,
        "repeat": repeat, "mode": mode,
    }
    proc = subprocess.run(
        [sys.executable, WORKER, json.dumps(job)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker {job} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def untraced_repeats(
    workload: str, seed: int, scale: float, seconds: float, min_repeats: int
) -> List[dict]:
    """Repeat the workload, strictly one process at a time, for
    ``seconds`` of wall time: another repeat starts only while it still
    fits, but never fewer than ``min_repeats`` run."""
    started = time.monotonic()
    results: List[dict] = []
    while True:
        before = time.monotonic()
        results.append(run_worker(workload, seed, scale, len(results), "full"))
        now = time.monotonic()
        if len(results) >= min_repeats and (now - started) + (now - before) > seconds:
            return results


def calibrated(host: Sequence[float], kernel: Sequence[Sequence[float]]) -> float:
    """One host time from its repeats, in seconds of the quiet box:
    the median over repeats of host time / mean kernel timing beside it."""
    return KERNEL_REF_S * statistics.median(
        h / statistics.fmean(k) for h, k in zip(host, kernel)
    )


def calibrated_window(results: Sequence[dict], slices: Optional[int] = None) -> float:
    """Calibrated host time of the first ``slices`` slices (default
    all) of the window, each repeat against its own kernel timings."""
    return calibrated(
        [sum(r["slice_host_s"][:slices]) for r in results],
        [r["slice_kernel_s"][:slices] for r in results],
    )


def cross_check(results: Sequence[dict]) -> List[str]:
    """Failures of the run: each repeat's own, plus any difference
    between repeats in what must be bit-identical for one seed."""
    failures = [
        f"repeat {result['repeat']}: {failure}"
        for result in results
        for failure in result["failures"]
    ]
    first = results[0]
    for result in results[1:]:
        for key in ("sim", "counters", "slice_events", "outcome"):
            if result[key] != first[key]:
                failures.append(
                    f"repeat {result['repeat']}: {key} differs from repeat 0 "
                    "(the simulation is not deterministic)"
                )
    return failures


def end_to_end(results: Sequence[dict]) -> Dict[str, float]:
    """Every end-to-end metric of one workload from its repeats."""
    first = results[0]
    window = first["window_sim_s"]
    metrics = {
        "setup_s": calibrated(
            [r["setup_s"] for r in results], [r["setup_kernel_s"] for r in results]
        ),
        "host_cpu_s_per_sim_s": calibrated_window(results) / window,
        "host_peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        **first["sim"],
    }
    return {name: metrics[name] for name, *_ in END_TO_END}


def whole_run_reference(results: Sequence[dict]) -> Dict[str, float]:
    """What the calibrated estimator replaced: raw whole-window host time
    per simulated second of each repeat, as min / quartiles / max."""
    window = results[0]["window_sim_s"]
    runs = sorted(sum(r["slice_host_s"]) / window for r in results)
    if len(runs) >= 2:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"min": runs[0], "q1": q1, "median": median, "q3": q3, "max": runs[-1]}


def per_layer(untraced: Sequence[dict], traced: dict) -> Dict[str, float]:
    """Every per-layer metric: layer shares and call counts from the
    traced run, exact counters from the untraced ones."""
    envs = traced["window_envs"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        row = traced["layers"][layer]
        metrics[f"{layer}.self_share"] = row["self_share"]
        metrics[f"{layer}.calls_per_env"] = row["calls"] / envs if envs else 0.0
    metrics["trace.overhead_ratio"] = (
        calibrated_window([traced]) / calibrated_window(untraced, TRACED_SLICES)
    )
    counters = dict(untraced[0]["counters"])
    counters["sim.core.host_us_per_event"] = (
        calibrated_window(untraced) / counters["sim.core.events"] * 1e6
    )
    for name, _unit, _better in COUNTERS:
        metrics[name] = counters[name]
    return metrics


def write_trace(workload: str, untraced: Sequence[dict], traced: Optional[dict]) -> str:
    """Write the spans the runs kept in memory; returns the path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}.json")
    document: Dict[str, Any] = {
        "workload": workload,
        "clock": "time.process_time() of each worker process, seconds",
        "repeats": [
            {"repeat": r["repeat"], "mode": r["mode"], "seed": r["seed"],
             "spans": r["spans"], "slice_events": r["slice_events"]}
            for r in [*untraced, *([traced] if traced else [])]
        ],
    }
    if traced:
        document["layers"] = traced["layers"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return path
