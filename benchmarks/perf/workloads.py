"""The benchmark's data: seven workloads and the metric tables.

Nothing here imports ``repro``: scenario constants are copied, not
imported from ``repro.bench.figures`` / ``repro.bench.suite`` (ROADMAP
wants parts of those deleted), and ``BENCHMARK.json`` is checked
against these tables by the self-test.

Every workload is open loop at one fixed offered rate.  ``warmup`` and
``window`` are simulated seconds; the window is cut into
:data:`SLICES` equal slices that are timed one by one, each followed by
a timing of the calibration kernel.  Sizes give about 1.3-1.9 s of host
CPU per repeat on the 2-core reference box -- half the ISSUE's sizes,
because the driver's total cap (158 runs in 3420 s) leaves each run
about 20 s for several repeats plus set-up.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: wall seconds one run of one workload measures for (the contract's
#: ``run_seconds``): repeats are started while they still fit
RUN_SECONDS = 15
#: timed slices per measured window, each followed by a kernel timing:
#: the box changes speed within tenths of a second, so the kernel has to
#: be sampled about that often for its sum to see what the window saw
SLICES = 50
#: slices the traced (cProfile) run covers
TRACED_SLICES = 15
#: kernel timings right after set-up; their sum calibrates ``setup_s``
SETUP_KERNELS = 10
#: after the window the generator stops and the run drains to
#: quiescence, at most this many simulated seconds
DRAIN_CAP = 10.0

# -- deployment constants (copied from the Figure 7 / 8 scenarios) -----
LAN_BANDWIDTH_BPS = 1e9
LAN_CPU = {"physical_cores": 8, "hardware_threads": 16, "signing_workers": 16}
#: share of each node's CPU BFT-SMaRt itself consumes (paper section 6.2)
SMART_CPU_FRACTION = 0.6
BATCH_LIMIT = 400
WHEAT_NODE_SITES = ("oregon", "virginia", "ireland", "sydney", "saopaulo")
GEO_FRONTEND_SITES = ("canada", "oregon", "virginia", "saopaulo")
GEO_BANDWIDTH_BPS = 2e9

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "lan_n10_sat": {
        "why": "consensus-bound: n=10 bftsmart past capacity, n^2 small votes; "
        "smart, ordering and sim.network broadcast do most of the work",
        "kind": "lan",
        "orderer": "bftsmart",
        "n": 10,
        "envelope_size": 1024,
        "block_size": 10,
        "frontends": 2,
        "rate": 10_000.0,  # DES capacity is about 8.6 k env/s
        "warmup": 0.25,
        "window": 1.25,
    },
    "lan_n4_fanout16_sat": {
        "why": "dissemination-bound: few consensus instances but 4x16 copies of "
        "400 KB blocks through NIC queues and 2f+1 matching at 16 frontends",
        "kind": "lan",
        "orderer": "bftsmart",
        "n": 4,
        "envelope_size": 4096,
        "block_size": 100,
        "frontends": 16,
        "rate": 2_200.0,  # DES capacity is about 1.6 k env/s
        "warmup": 1.0,
        "window": 12.5,
    },
    "geo_wheat": {
        "why": "paper Figure 8/9 cell: WHEAT n=5 over AWS regions far below "
        "capacity, so latency is the result; sparse long-lived timers",
        "kind": "geo",
        "envelope_size": 1024,
        "block_size": 10,
        "rate": 1_100.0,
        "jitter": 0.2,
        "warmup": 1.5,
        "window": 20.0,
    },
    "overload_4x_flood": {
        "why": "admission control under 4x honest overload plus a duplicate "
        "flood: many tenants, the reject path, and consensus running unbatched",
        "kind": "overload",
        "tenants": 4,
        "fair_share": 200.0,
        "load_multiplier": 4.0,
        "sessions": 10_000,
        "flood_rate": 1_600.0,
        "max_in_flight": 600,
        "envelope_size": 512,
        "block_size": 25,
        "warmup": 0.5,
        "window": 6.0,
    },
    "leader_crash_wal": {
        "why": "fault and durability: leader crashes with amnesia and a torn WAL "
        "tail, then recovers; regency change, WAL replay, state transfer",
        "kind": "crash",
        "envelope_size": 1024,
        "block_size": 10,
        "rate": 1_000.0,
        "request_timeout": 0.5,
        # crash at this fraction of the window (so --quick keeps it inside):
        # half-way between two arrivals -- crashing at the very instant of an
        # arrival makes the outcome hinge on the order of two simultaneous
        # events and one seed in five takes another path (README).  Stay
        # down for two request timeouts: long enough that the others must
        # elect a new leader before the old one is back
        "crash_at": 0.3001,
        "down_for": 1.0,
        "warmup": 0.0,
        "window": 5.0,
    },
    "smartbft_n10_sat": {
        "why": "second BFT backend behind the same frontend seam: a smart/ "
        "optimisation must not move it, a sim.* one must move both",
        "kind": "lan",
        "orderer": "smartbft",
        "n": 10,
        "envelope_size": 1024,
        "block_size": 10,
        "frontends": 2,
        "rate": 3_000.0,  # capacity is about 2.4 k: one in-flight proposal
        "warmup": 0.25,
        "window": 2.5,
    },
    "fabric_solo_mvcc": {
        "why": "single-node baseline and full endorse-order-validate-commit path "
        "on hot keys: only here fabric/ and the hashing it calls dominate",
        "kind": "fabric",
        "hot_keys": 256,
        "block_size": 50,
        "rate": 1_000.0,
        "warmup": 0.0,
        "window": 6.0,
    },
}

# -- metrics -----------------------------------------------------------
#: (name, unit, better, bound, definition); ``sim_*`` is what the
#: modelled service would do, ``host_*`` what the simulator costs.
#: Host times are calibrated: divided by the time of the calibration
#: kernel beside them and scaled to seconds of the quiet reference box.
#: A bound is the relative worsening that counts as a regression, and
#: is about three times the widest interquartile spread measured over
#: ten runs with ten seeds (README, "Measured spreads"): host time is
#: noisy on a shared box even when calibrated, so its bounds are the
#: contract's maximum, and ``sim_*`` -- exact for one seed -- differs
#: between seeds, most on lan_n10_sat where a consensus batch more or
#: less inside the window is 3 % of its envelopes.
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("setup_s", "s", "lower", 0.25,
     "calibrated host CPU of a cold worker process up to its first run(): "
     "interpreter start, import repro, build the deployment, arm the "
     "generator; median over the repeats"),
    ("host_cpu_s_per_sim_s", "s/sim_s", "lower", 0.25,
     "calibrated host CPU of the measured window / its simulated length; "
     "median over the repeats"),
    ("host_peak_rss_mb", "MiB", "lower", 0.05,
     "ru_maxrss of the worker process at exit, median over the repeats"),
    ("sim_events_per_env", "events/env", "lower", 0.06,
     "simulator events processed in the window / envelopes committed in it"),
    ("sim_goodput_env_s", "env/sim_s", "higher", 0.07,
     "envelopes delivered at frontend 0 (fabric: VALID transactions committed "
     "at peer 0) in the window / its length"),
    ("sim_latency_p50_s", "sim_s", "lower", 0.08,
     "median due-time-to-delivery latency of envelopes delivered in the window"),
    ("sim_latency_p99_s", "sim_s", "lower", 0.08,
     "99th percentile of the same sample (>= 1000 samples on every workload)"),
    ("sim_wire_bytes_per_env", "bytes/env", "lower", 0.06,
     "network bytes sent in the window / envelopes committed in it"),
    ("sim_max_gap_s", "sim_s", "lower", 0.08,
     "longest time without a block delivery at frontend 0 inside the window"),
    ("sim_commit_share", "fraction", "higher", 0.04,
     "committed after drain / offered; 1 - the ISSUE's failed_share"),
]

#: layers of the cProfile attribution, by path under src/repro/
LAYERS: Tuple[str, ...] = (
    "sim.core", "sim.network", "sim.cpu", "sim.storage", "sim.monitor",
    "crypto", "smart", "smart2", "ordering", "fabric", "workload", "other",
)

#: exact counters read from public attributes after an untraced repeat
COUNTERS: List[Tuple[str, str, str]] = [
    ("sim.core.events", "count", "lower"),
    ("sim.core.host_us_per_event", "us", "lower"),
    ("sim.network.msgs_per_env", "msgs/env", "lower"),
    ("sim.network.dropped", "count", "lower"),
    ("sim.network.nic_util_max", "fraction", "lower"),
    ("sim.cpu.util_max", "fraction", "lower"),
    ("sim.storage.durable_bytes", "bytes", "lower"),
    ("smart.decisions", "count", "lower"),
    ("smart.envs_per_decision", "env", "higher"),
    ("smart.regency_changes", "count", "lower"),
    ("smart.state_transfers", "count", "lower"),
    ("smart.state_transfer_bytes", "bytes", "lower"),
    ("smart.wal_replay_sim_s", "sim_s", "lower"),
    ("smart.rejoin_sim_s", "sim_s", "lower"),
    ("smart2.blocks", "count", "higher"),
    ("smart2.view_changes", "count", "lower"),
    ("ordering.blocks_created", "count", "higher"),
    ("ordering.blocks_delivered", "count", "higher"),
    ("ordering.admit_ratio", "fraction", "higher"),
    ("ordering.rejected", "count", "lower"),
    ("fabric.blocks_committed", "count", "higher"),
    ("fabric.tx_valid_ratio", "fraction", "higher"),
    ("fabric.rejected_blocks", "count", "lower"),
    ("workload.offered", "count", "higher"),
    ("workload.gen_lag_sim_s", "sim_s", "lower"),
]


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    metrics: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        metrics.append((f"{layer}.self_share", "fraction", "lower"))
        metrics.append((f"{layer}.calls_per_env", "calls/env", "lower"))
    metrics.append(("trace.overhead_ratio", "ratio", "lower"))
    metrics.extend(COUNTERS)
    return metrics


def benchmark_json() -> Dict[str, Any]:
    """The contract document the tables above define."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": spec["why"]} for name, spec in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_metrics()
        ],
    }
