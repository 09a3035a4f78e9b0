"""The registered benchmark suite: every paper figure as a matrix.

Importing this module populates :data:`repro.bench.harness.REGISTRY`
with one declarative benchmark per table/figure of the evaluation (plus
our ablations and the four-backend bake-off).  The former
``benchmarks/bench_*.py`` sweep loops are all expressed here as
parameter matrices; the pytest wrappers under ``benchmarks/`` run these
registry entries through the harness and assert the paper's shape
properties on the structured results.

Each benchmark declares a ``smoke_matrix``: the seconds-fast subset
``make bench-smoke`` and the tier-1 smoke tests execute.  All
measurements run inside the deterministic simulator, so results are
bit-identical for identical seeds — which is what lets a committed
``BENCH_smoke.json`` act as a cross-machine regression baseline.
"""

from __future__ import annotations

import statistics
from typing import Dict

from repro.bench.figures import (
    BLOCK_SIZES,
    CLUSTER_SIZES,
    ENVELOPE_SIZES,
    GEO_FRONTEND_SITES,
    RECEIVER_COUNTS,
    conclusion_comparison,
    figure6,
    geo_latency_experiment,
    simulate_lan_throughput,
    wheat_ablation_point,
)
from repro.bench.harness import REGISTRY, BenchContext
from repro.bench.model import (
    OrderingCapacityModel,
    SignatureThroughputModel,
    eq1_bound,
)
from repro.ordering.admission import AdmissionConfig
from repro.ordering.backends import (
    ScenarioRow,
    SpacedLoad,
    Tenants,
    run_backend_workload,
    stand_up,
)
from repro.sim import RandomStreams
from repro.sim.storage import StorageFaults
from repro.workload import DuplicateFlood, RawProfile, TenantSpec


# ----------------------------------------------------------------------
# Figure 6: signature-generation throughput
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="fig6_signing",
    description="Figure 6: ECDSA signing throughput vs worker threads "
    "on the simulated 8-core/16-thread Xeon.",
    matrix={
        "workers": tuple(range(1, 17)),
        "envelopes_per_block": (10,),
        "measure_seconds": (1.0,),
    },
    smoke_matrix={
        "workers": (1, 8, 16),
        "envelopes_per_block": (10,),
        "measure_seconds": (0.5,),
    },
    directions={
        "sig_per_sec": "higher",
        "model_sig_per_sec": "higher",
        "tx_per_sec_bound": "higher",
    },
)
def fig6_signing(ctx: BenchContext) -> Dict[str, float]:
    workers = ctx["workers"]
    row = figure6(
        workers=(workers,),
        envelopes_per_block=ctx["envelopes_per_block"],
        measure_seconds=ctx["measure_seconds"],
    )[workers]
    return {
        "sig_per_sec": row["measured"],
        "model_sig_per_sec": row["model"],
        "tx_per_sec_bound": row["theoretical_tx_per_sec"],
    }


@REGISTRY.register(
    name="fig6_invariance",
    description="§6.1: signing rate is independent of envelope and "
    "block sizes (only the header is signed).",
    matrix={
        "envelope_size": ENVELOPE_SIZES,
        "block_size": BLOCK_SIZES,
        "workers": (16,),
    },
    smoke_matrix={
        "envelope_size": (40, 4096),
        "block_size": (10,),
        "workers": (16,),
    },
    directions={"sig_per_sec": "higher"},
)
def fig6_invariance(ctx: BenchContext) -> Dict[str, float]:
    model = SignatureThroughputModel()
    return {"sig_per_sec": model.throughput(ctx["workers"])}


# ----------------------------------------------------------------------
# Figure 7: LAN ordering throughput (capacity model + full-stack DES)
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="fig7_capacity",
    description="Figure 7 (a-f): LAN ordering throughput by cluster "
    "size, block size, envelope size, and receivers (capacity model).",
    matrix={
        "orderers": CLUSTER_SIZES,
        "block_size": BLOCK_SIZES,
        "envelope_size": ENVELOPE_SIZES,
        "receivers": RECEIVER_COUNTS,
    },
    smoke_matrix={
        "orderers": (4,),
        "block_size": (10,),
        "envelope_size": (40, 4096),
        "receivers": (1, 32),
    },
    directions={"tx_per_sec": "higher", "blocks_per_sec": "higher"},
)
def fig7_capacity(ctx: BenchContext) -> Dict[str, float]:
    model = OrderingCapacityModel(n=ctx["orderers"])
    tx = model.throughput(ctx["envelope_size"], ctx["block_size"], ctx["receivers"])
    return {"tx_per_sec": tx, "blocks_per_sec": tx / ctx["block_size"]}


@REGISTRY.register(
    name="fig7_lan_sim",
    description="Figure 7 cross-validation: the full simulated stack "
    "(clients -> consensus -> signing -> dissemination) at ~capacity.",
    matrix={
        "envelope_size": (200, 1024, 4096),
        "receivers": (1, 2, 4, 16),
        "orderers": (4,),
        "block_size": (10,),
        "duration": (1.0,),
        "warmup": (0.3,),
    },
    smoke_matrix={
        "envelope_size": (1024,),
        "receivers": (1, 4),
        "orderers": (4,),
        "block_size": (10,),
        "duration": (0.4,),
        "warmup": (0.2,),
    },
    directions={
        "generated_tx_per_sec": "higher",
        "delivered_tx_per_sec": "higher",
        "model_tx_per_sec": "higher",
        "offered_tx_per_sec": "higher",
    },
)
def fig7_lan_sim(ctx: BenchContext) -> Dict[str, float]:
    result = simulate_lan_throughput(
        orderers=ctx["orderers"],
        block_size=ctx["block_size"],
        envelope_size=ctx["envelope_size"],
        receivers=ctx["receivers"],
        duration=ctx["duration"],
        warmup=ctx["warmup"],
        seed=ctx.seed,
        observability=ctx.obs,
    )
    return {
        "generated_tx_per_sec": result.generated_rate,
        "delivered_tx_per_sec": result.delivered_rate,
        "model_tx_per_sec": result.model_prediction,
        "offered_tx_per_sec": result.offered_rate,
    }


# ----------------------------------------------------------------------
# Figures 8/9: geo-distributed latency
# ----------------------------------------------------------------------
def _geo_metrics(ctx: BenchContext) -> Dict[str, float]:
    rows = geo_latency_experiment(
        protocol=ctx["protocol"],
        envelope_size=ctx["envelope_size"],
        block_size=ctx["block_size"],
        rate=ctx["rate"],
        duration=ctx["duration"],
        warmup=ctx["warmup"],
        seed=ctx.seed,
    )
    metrics: Dict[str, float] = {}
    for row in rows:
        metrics[f"{row.frontend_region}_median_s"] = row.median
        metrics[f"{row.frontend_region}_p90_s"] = row.p90
        metrics[f"{row.frontend_region}_tx_per_sec"] = row.throughput
        metrics[f"{row.frontend_region}_samples"] = float(row.samples)
    return metrics


_GEO_DIRECTIONS = {}
for _region in GEO_FRONTEND_SITES:
    _GEO_DIRECTIONS[f"{_region}_median_s"] = "lower"
    _GEO_DIRECTIONS[f"{_region}_p90_s"] = "lower"
    _GEO_DIRECTIONS[f"{_region}_tx_per_sec"] = "higher"
    _GEO_DIRECTIONS[f"{_region}_samples"] = "higher"


@REGISTRY.register(
    name="fig8_geo",
    description="Figure 8: geo latency with 10-envelope blocks, "
    "BFT-SMaRt vs WHEAT across four frontends.",
    matrix={
        "protocol": ("bftsmart", "wheat"),
        "envelope_size": ENVELOPE_SIZES,
        "block_size": (10,),
        "rate": (1100.0,),
        "duration": (6.0,),
        "warmup": (3.0,),
    },
    smoke_matrix={
        "protocol": ("bftsmart", "wheat"),
        "envelope_size": (1024,),
        "block_size": (10,),
        "rate": (700.0,),
        "duration": (1.5,),
        "warmup": (0.5,),
    },
    directions=_GEO_DIRECTIONS,
)
def fig8_geo(ctx: BenchContext) -> Dict[str, float]:
    return _geo_metrics(ctx)


@REGISTRY.register(
    name="fig9_geo",
    description="Figure 9: geo latency with 100-envelope blocks "
    "(same pattern as Figure 8, higher latency).",
    matrix={
        "protocol": ("bftsmart", "wheat"),
        "envelope_size": (200, 1024),
        "block_size": (100,),
        "rate": (1100.0,),
        "duration": (6.0,),
        "warmup": (3.0,),
    },
    smoke_matrix={
        "protocol": ("wheat",),
        "envelope_size": (1024,),
        "block_size": (100,),
        "rate": (700.0,),
        "duration": (1.5,),
        "warmup": (0.5,),
    },
    directions=_GEO_DIRECTIONS,
)
def fig9_geo(ctx: BenchContext) -> Dict[str, float]:
    return _geo_metrics(ctx)


# ----------------------------------------------------------------------
# Equation 1 and the §8 conclusion comparison
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="eq1_bounds",
    description="Equation 1: TP_os <= min(TP_sign*bs, TP_bftsmart); "
    "headroom of the capacity model under the bound.",
    matrix={
        "orderers": CLUSTER_SIZES,
        "envelope_size": ENVELOPE_SIZES,
        "block_size": BLOCK_SIZES,
        "receivers": (1, 4, 32),
    },
    smoke_matrix={
        "orderers": (4, 10),
        "envelope_size": (40, 4096),
        "block_size": (10,),
        "receivers": (1, 32),
    },
    directions={
        "predicted_tx_per_sec": "higher",
        "eq1_bound_tx_per_sec": "higher",
        "headroom_tx_per_sec": "higher",
    },
)
def eq1_bounds(ctx: BenchContext) -> Dict[str, float]:
    model = OrderingCapacityModel(n=ctx["orderers"])
    predicted = model.throughput(
        ctx["envelope_size"], ctx["block_size"], ctx["receivers"]
    )
    bound = eq1_bound(
        ctx["block_size"], ctx["envelope_size"], ctx["receivers"], n=ctx["orderers"]
    )
    return {
        "predicted_tx_per_sec": predicted,
        "eq1_bound_tx_per_sec": bound,
        "headroom_tx_per_sec": bound - predicted,
    }


@REGISTRY.register(
    name="conclusion",
    description="§8: worst-case BFT ordering throughput vs Ethereum's "
    "theoretical 1,000 tx/s and Bitcoin's 7 tx/s.",
    matrix={},
    directions={
        "bft_worst_case_tx_per_sec": "higher",
        "speedup_vs_ethereum": "higher",
        "speedup_vs_bitcoin": "higher",
    },
)
def conclusion(ctx: BenchContext) -> Dict[str, float]:
    comparison = conclusion_comparison()
    return {
        "bft_worst_case_tx_per_sec": comparison["bft_ordering_worst_case"],
        "speedup_vs_ethereum": comparison["speedup_vs_ethereum"],
        "speedup_vs_bitcoin": comparison["speedup_vs_bitcoin"],
    }


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="ablation_wheat",
    description="WHEAT ablation: vote weights and tentative execution "
    "toggled independently on the 5-replica geo deployment.",
    matrix={
        "weights": (False, True),
        "tentative": (False, True),
        "envelope_size": (1024,),
        "block_size": (10,),
        "rate": (1100.0,),
        "duration": (6.0,),
    },
    smoke_matrix={
        "weights": (False, True),
        "tentative": (False, True),
        "envelope_size": (1024,),
        "block_size": (10,),
        "rate": (700.0,),
        "duration": (2.0,),
    },
    directions={"median_s": "lower", "p90_s": "lower"},
)
def ablation_wheat(ctx: BenchContext) -> Dict[str, float]:
    row = wheat_ablation_point(
        ctx["weights"],
        ctx["tentative"],
        envelope_size=ctx["envelope_size"],
        block_size=ctx["block_size"],
        rate=ctx["rate"],
        duration=ctx["duration"],
        seed=ctx.seed,
    )
    return {"median_s": row.median, "p90_s": row.p90}


@REGISTRY.register(
    name="ablation_batching",
    description="BFT-SMaRt batch-limit ablation: batching amortizes "
    "per-consensus vote traffic (capacity model).",
    matrix={
        "batch_limit": (1, 10, 50, 100, 400),
        "envelope_size": (40, 4096),
        "orderers": (4,),
        "block_size": (10,),
        "receivers": (2,),
    },
    smoke_matrix={
        "batch_limit": (1, 400),
        "envelope_size": (40,),
        "orderers": (4,),
        "block_size": (10,),
        "receivers": (2,),
    },
    directions={"tx_per_sec": "higher"},
)
def ablation_batching(ctx: BenchContext) -> Dict[str, float]:
    model = OrderingCapacityModel(n=ctx["orderers"], batch_limit=ctx["batch_limit"])
    return {
        "tx_per_sec": model.throughput(
            ctx["envelope_size"], ctx["block_size"], ctx["receivers"]
        )
    }


# ----------------------------------------------------------------------
# Recovery: crash-amnesia restart over the consensus WAL
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="recovery_time",
    description="Crash-amnesia recovery: WAL replay time, rejoin "
    "latency and state-transfer volume for a replica restarting from "
    "its durable consensus log (see docs/RECOVERY.md).",
    matrix={
        "envelopes": (32, 96),
        "payload_size": (1024,),
        "block_size": (4,),
        "torn_tail": (0, 1),
    },
    smoke_matrix={
        "envelopes": (24,),
        "payload_size": (1024,),
        "block_size": (4,),
        "torn_tail": (1,),
    },
    directions={
        "replay_s": "lower",
        "rejoin_s": "lower",
        "recovery_total_s": "lower",
        "state_transfer_bytes": "lower",
        "replayed_batches": "higher",
        "delivered": "higher",
    },
)
def recovery_time(ctx: BenchContext) -> Dict[str, float]:
    envelopes = ctx["envelopes"]
    row = ScenarioRow(
        block_size=ctx["block_size"],
        request_timeout=2.0,
        durable_wal=True,
        seed=ctx.seed,
        load=SpacedLoad(
            envelopes,
            payload_size=ctx["payload_size"],
            start=0.1,
            spacing=1.5 / envelopes,
            submitter="",
        ),
    )
    service = stand_up(row, observability=ctx.obs).service

    replica = service.replicas[1]
    streams = RandomStreams(ctx.seed)

    def crash() -> None:
        replica.crash(amnesia=True)
        replica.log.disk.crash(
            StorageFaults(torn_tail=bool(ctx["torn_tail"])),
            streams["bench-recovery-storage"],
        )

    service.sim.schedule_at(0.8, crash)
    service.sim.schedule_at(1.2, replica.recover)
    service.sim.run_until(
        lambda: service.total_delivered() >= envelopes, 60.0
    )
    def recovery() -> dict:
        # None until the restart begins
        return {} if replica.recovery_stats is None else replica.recovery_stats

    # keep running until the restarted replica finishes its rejoin (its
    # state transfer may complete after the last client delivery)
    service.sim.run_until(
        lambda: recovery().get("rejoined_at") is not None,
        service.sim.now + 30.0,
    )
    stats = recovery()
    rejoined_at = stats.get("rejoined_at")
    started = stats.get("started", 0.0)
    replay_s = stats.get("replay_s", 0.0)
    total_s = (rejoined_at - started) if rejoined_at is not None else -1.0
    return {
        "replay_s": replay_s,
        "rejoin_s": (total_s - replay_s) if rejoined_at is not None else -1.0,
        "recovery_total_s": total_s,
        "state_transfer_bytes": float(stats.get("state_transfer_bytes", 0)),
        "replayed_batches": float(stats.get("replayed_batches", 0)),
        "delivered": float(service.total_delivered()),
    }


# ----------------------------------------------------------------------
# Bake-off: all four ordering backends on one workload
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="bakeoff_orderers",
    description="Four-backend bake-off (solo / Kafka / BFT-SMaRt / "
    "SmartBFT) on one Figure-7-style workload, with dissemination "
    "bandwidth -- bytes on the wire from the ordering service to its "
    "delivery clients per committed block -- as the first-class "
    "metric (docs/SMARTBFT.md).",
    matrix={
        "orderer": ("solo", "kafka", "bftsmart", "smartbft"),
        # f sizes the BFT group (n = 3f+1); the CFT backends ignore it,
        # their rows document that the CFT cost does not scale with n
        "f": (1, 3),
        "envelopes": (96,),
        "envelope_size": (1024,),
        "block_size": (10,),
    },
    smoke_matrix={
        "orderer": ("solo", "kafka", "bftsmart", "smartbft"),
        "f": (1, 3),
        "envelopes": (40,),
        "envelope_size": (1024,),
        "block_size": (10,),
    },
    directions={
        "dissemination_bytes_per_block": "lower",
        "dissemination_bytes": "lower",
        "blocks": "higher",
        "median_latency_s": "lower",
    },
)
def bakeoff_orderers(ctx: BenchContext) -> Dict[str, float]:
    row = ScenarioRow(
        block_size=ctx["block_size"],
        f=ctx["f"],
        seed=ctx.seed,
        load=SpacedLoad(ctx["envelopes"], payload_size=ctx["envelope_size"]),
    )
    run = run_backend_workload(ctx["orderer"], row)
    blocks = len(run.committed_blocks)
    return {
        "dissemination_bytes_per_block": (
            run.dissemination_bytes / blocks if blocks else 0.0
        ),
        "dissemination_bytes": float(run.dissemination_bytes),
        "blocks": float(blocks),
        # submit to commit at the one committing peer, on every backend
        "median_latency_s": statistics.median(run.commit_latencies),
    }


# ----------------------------------------------------------------------
# Overload: goodput under open-loop pressure and adversarial floods
# ----------------------------------------------------------------------
@REGISTRY.register(
    name="overload",
    description="Open-loop overload sweep: per-tenant goodput, p99 "
    "admitted latency and Jain fairness vs offered load (multiples of "
    "the admission-controlled saturation rate), with and without a "
    "one-tenant duplicate flood.  Admission control must make goodput "
    "saturate instead of collapse (docs/WORKLOADS.md).",
    matrix={
        "load_multiplier": (0.5, 1.0, 2.0, 4.0, 8.0),
        "adversary": ("none", "duplicate-flood"),
        "saturation_rate": (800.0,),
        "tenants": (4,),
        "duration": (2.0,),
        "block_size": (25,),
    },
    smoke_matrix={
        "load_multiplier": (0.5, 1.0, 4.0),
        "adversary": ("none", "duplicate-flood"),
        "saturation_rate": (400.0,),
        "tenants": (4,),
        "duration": (1.5,),
        "block_size": (25,),
    },
    directions={
        "goodput_per_s": "higher",
        "p99_latency_s": "lower",
        "fairness": "higher",
        "shed_fraction": "lower",
        "offered": "higher",
        "committed": "higher",
    },
)
def overload(ctx: BenchContext) -> Dict[str, float]:
    num_tenants = ctx["tenants"]
    saturation = ctx["saturation_rate"]
    duration = ctx["duration"]
    share = saturation / num_tenants  # per-tenant fair share
    num_frontends = 2
    # tenants are pinned to frontends so each tenant faces exactly one
    # token bucket (admission state is per frontend)
    tenants = [
        TenantSpec(
            name=f"tenant{i}",
            sessions=10_000,
            session_rate=share * ctx["load_multiplier"] / 10_000,
            arrival="poisson",
            profile=RawProfile(channel="ch0", envelope_size=512),
            frontend_index=i % num_frontends,
        )
        for i in range(num_tenants)
    ]
    if ctx["adversary"] == "duplicate-flood":
        tenants.append(
            TenantSpec(
                name="mallory",
                session_rate=2.0 * saturation,
                arrival="fixed",
                profile=DuplicateFlood(channel="ch0", envelope_size=512),
                frontend_index=0,
            )
        )
    row = ScenarioRow(
        seed=ctx.seed,
        block_size=ctx["block_size"],
        batch_timeout=0.05,
        num_frontends=num_frontends,
        request_timeout=2.0,
        # per-tenant budget = the fair share; the window stays loose so
        # the token buckets, not the window, shape the steady state
        admission=AdmissionConfig(
            tenant_rate=share,
            tenant_burst=share * 0.25,
            max_in_flight=600,
        ),
        load=Tenants(tuple(tenants), duration),
    )
    up = stand_up(row, observability=ctx.obs)
    up.service.run(duration + 1.5)  # drain the in-flight tail
    report = up.engine.report(honest_only_fairness=True)
    return {
        "goodput_per_s": report.committed / duration,
        "p99_latency_s": report.p99_latency_s,
        "fairness": report.fairness,
        "shed_fraction": report.shed_fraction,
        "offered": float(report.offered),
        "committed": float(report.committed),
    }
