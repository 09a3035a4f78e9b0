"""One repeat of one workload, in a process of its own.

``python3 benchmarks/perf/worker.py '<json job>'`` builds the workload,
times the measured window slice by slice -- and the calibration kernel
after every slice -- drains, verifies, and prints one JSON object.  A
fresh process per repeat is what makes ``setup_s`` (a cold ``import
repro`` + build + arm) and ``ru_maxrss`` meaningful, and keeps one
repeat's heap from slowing the next.

Job keys: ``workload``, ``seed``, ``scale``, ``repeat`` and ``mode``:

- ``full``    -- warm-up, the whole window, drain, report, verify;
- ``profile`` -- warm-up, then the first ``TRACED_SLICES`` slices under
  cProfile; reports per-layer self time and call counts only.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def run_job(job: dict) -> dict:
    """Execute one job in this process and return its result document."""
    import resource

    from benchmarks.perf import adapter
    from benchmarks.perf.calibration import time_kernel
    from benchmarks.perf.workloads import SETUP_KERNELS, SLICES, TRACED_SLICES

    spans = []

    def span(name: str, parent: str, fn, *args):
        start = time.process_time()
        value = fn(*args)
        spans.append(
            {"name": name, "parent": parent, "start": start, "end": time.process_time()}
        )
        return value

    deployment = span(
        "build", "repeat", adapter.build, job["workload"], job["seed"], job["scale"]
    )
    span("arm", "repeat", deployment.arm)
    # process CPU since interpreter start: everything a cold start pays
    setup_s = time.process_time()
    setup_kernel = [span("calibrate", "repeat", time_kernel) for _ in range(SETUP_KERNELS)]

    if deployment.warmup > 0:
        span("warmup", "repeat", deployment.run, deployment.warmup)
    gc.collect()

    profiling = job["mode"] == "profile"
    slices = TRACED_SLICES if profiling else SLICES
    dt = deployment.window / SLICES
    slice_host = []
    slice_kernel = []
    slice_events = []
    if profiling:
        import cProfile

        profiler = cProfile.Profile()
    start = deployment.mark()
    window_start = time.process_time()
    for index in range(slices):
        events = deployment.sim.processed_events
        if profiling:
            profiler.enable()
        before = time.process_time()
        deployment.run(dt)
        after = time.process_time()
        if profiling:
            profiler.disable()
        spans.append(
            {"name": f"run[{index}]", "parent": "window", "start": before, "end": after}
        )
        slice_host.append(after - before)
        slice_kernel.append(span(f"calibrate[{index}]", "window", time_kernel))
        slice_events.append(deployment.sim.processed_events - events)
    spans.append(
        {"name": "window", "parent": "repeat", "start": window_start,
         "end": time.process_time()}
    )
    end = deployment.mark()

    result = {
        "workload": job["workload"],
        "seed": job["seed"],
        "repeat": job["repeat"],
        "mode": job["mode"],
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel,
        "window_sim_s": end["now"] - start["now"],
        "slice_host_s": slice_host,
        "slice_kernel_s": slice_kernel,
        "slice_events": slice_events,
    }
    if profiling:
        import pstats

        from benchmarks.perf.layers import attribute

        result["layers"] = attribute(pstats.Stats(profiler).stats)
        result["window_envs"] = deployment.window_envelopes(start, end)
    else:
        span("drain", "repeat", deployment.drain)
        result.update(span("report", "repeat", deployment.report, start, end))
        result["failures"] = span("verify", "repeat", deployment.verify)
    result["spans"] = spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    json.dump(run_job(json.loads(sys.argv[1])), sys.stdout)
    sys.stdout.write("\n")
