"""The paper's experiments, one function per table/figure.

Every function returns plain dict/dataclass results that the benchmark
modules under ``benchmarks/`` render and assert on, and that
EXPERIMENTS.md records next to the paper's numbers.

- :func:`figure6` -- signature-generation throughput vs worker
  threads, *measured* on the simulated 8-core/16-thread Xeon, with the
  analytic curve alongside;
- :func:`simulate_lan_throughput` -- full-stack DES cross-validation
  of a single Figure 7 operating point;
- :func:`geo_latency_experiment` -- one cell of Figures 8 and 9:
  end-to-end ordering latency at four frontends across the Americas
  with the ordering cluster spread world-wide, BFT-SMaRt vs WHEAT;
- :func:`conclusion_comparison` -- the §8 comparison against
  Ethereum's and Bitcoin's peaks;
- :func:`wheat_ablation_point` -- one cell of our ablation: weights
  and tentative execution toggled independently.

Each function measures one operating point; the sweeps over envelope
sizes, receivers, protocols and toggles are the parameter matrices of
:mod:`repro.bench.suite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.model import (
    BATCH_LIMIT,
    OrderingCapacityModel,
    SignatureThroughputModel,
)
from repro.bench.topology import aws_latency_model, lan_latency_model
from repro.fabric.channel import ChannelConfig
from repro.ordering.service import (
    FRONTEND_ID_BASE,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.sim.core import Simulator
from repro.sim.cpu import CPU, ThreadPool
from repro.workload import OpenLoopGenerator

#: The envelope sizes of the evaluation: a SHA-256 hash, three ECDSA
#: endorsement signatures, and 1/4 KB transaction messages (§6.2).
ENVELOPE_SIZES = (40, 200, 1024, 4096)

#: Receiver counts of Figure 7.
RECEIVER_COUNTS = (1, 2, 4, 8, 16, 32)

#: Cluster sizes of Figure 7 (f = 1, 2, 3).
CLUSTER_SIZES = (4, 7, 10)

#: Block sizes of the evaluation.
BLOCK_SIZES = (10, 100)

#: The geo deployment of §6.3.
BFTSMART_GEO_SITES = ("oregon", "ireland", "sydney", "saopaulo")
WHEAT_GEO_SITES = ("oregon", "virginia", "ireland", "sydney", "saopaulo")
GEO_FRONTEND_SITES = ("canada", "oregon", "virginia", "saopaulo")


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------
def figure6(
    workers: Sequence[int] = tuple(range(1, 17)),
    envelopes_per_block: int = 10,
    measure_seconds: float = 1.0,
) -> Dict[int, Dict[str, float]]:
    """Signature generation for Fabric blocks (Figure 6).

    For each worker count, runs the simulated 16-hardware-thread Xeon
    with a saturated signing pool and measures signatures/second; the
    closed-form model value is reported alongside.
    """
    model = SignatureThroughputModel()
    results: Dict[int, Dict[str, float]] = {}
    for count in workers:
        sim = Simulator()
        cpu = CPU(sim, physical_cores=model.physical_cores,
                  hardware_threads=model.hardware_threads, ht_yield=model.ht_yield)
        pool = ThreadPool(cpu, count)
        completed = [0]

        def finish(_=None):
            completed[0] += 1

        # keep the pool saturated: twice the expected work plus slack
        expected = model.throughput(count) * measure_seconds
        for _ in range(int(expected * 2) + count + 8):
            pool.submit(model.sign_cost, finish)
        sim.run(until=measure_seconds)
        measured = completed[0] / measure_seconds
        results[count] = {
            "measured": measured,
            "model": model.throughput(count),
            "theoretical_tx_per_sec": measured * envelopes_per_block,
        }
    return results


# ----------------------------------------------------------------------
# Figure 7: DES cross-validation of the capacity model
# ----------------------------------------------------------------------
@dataclass
class LanSimResult:
    """One full-stack DES measurement of a Figure 7 operating point."""

    orderers: int
    block_size: int
    envelope_size: int
    receivers: int
    offered_rate: float
    generated_rate: float  # blocks*bs signed at node 0
    delivered_rate: float  # envelopes accepted (2f+1 copies) at a frontend
    model_prediction: float


def simulate_lan_throughput(
    orderers: int = 4,
    block_size: int = 10,
    envelope_size: int = 1024,
    receivers: int = 2,
    duration: float = 2.0,
    warmup: float = 0.5,
    rate_factor: float = 1.15,
    seed: int = 0,
    observability=None,
) -> LanSimResult:
    """Drive the real simulated stack at ~capacity and measure.

    Cross-validates the capacity model: the DES implements bandwidth
    and signing-CPU contention natively, so measured throughput should
    land in the same regime as the model's prediction.
    """
    f = (orderers - 1) // 3
    model = OrderingCapacityModel(n=orderers)
    predicted = model.throughput(envelope_size, block_size, receivers)
    offered = predicted * rate_factor
    channel = ChannelConfig(
        "bench", max_message_count=block_size, batch_timeout=10.0
    )
    config = OrderingServiceConfig(
        f=f,
        channel=channel,
        num_frontends=receivers,
        latency=lan_latency_model(),
        bandwidth_bps=1e9,
        physical_cores=8,
        hardware_threads=16,
        signing_workers=16,
        smart_cpu_fraction=0.6,
        max_batch=BATCH_LIMIT,
        request_timeout=30.0,  # saturation benches must not trigger
        seed=seed,             # regency changes
    )
    service = build_ordering_service(config, observability=observability)
    generator = OpenLoopGenerator(
        sim=service.sim,
        frontends=service.frontends,
        channel_id="bench",
        envelope_size=envelope_size,
        rate_per_second=offered,
        duration=warmup + duration,
    )
    generator.start()
    service.run(warmup + duration)
    node_meter = service.stats.meter("orderer0.envelopes")
    frontend_meter = service.stats.meter(f"{FRONTEND_ID_BASE}.envelopes")
    generated = node_meter.rate(start=warmup, end=warmup + duration)
    delivered = frontend_meter.rate(start=warmup, end=warmup + duration)
    return LanSimResult(
        orderers=orderers,
        block_size=block_size,
        envelope_size=envelope_size,
        receivers=receivers,
        offered_rate=offered,
        generated_rate=generated,
        delivered_rate=delivered,
        model_prediction=predicted,
    )


# ----------------------------------------------------------------------
# Figures 8 and 9: geo-distributed latency
# ----------------------------------------------------------------------
@dataclass
class GeoLatencyResult:
    """Latency distribution at one frontend for one configuration."""

    protocol: str
    envelope_size: int
    block_size: int
    frontend_region: str
    median: float
    p90: float
    samples: int
    throughput: float


def geo_latency_experiment(
    protocol: str = "bftsmart",
    envelope_size: int = 1024,
    block_size: int = 10,
    rate: float = 1100.0,
    duration: float = 10.0,
    warmup: float = 3.0,
    seed: int = 0,
) -> List[GeoLatencyResult]:
    """One cell of Figures 8/9: a world-spanning ordering cluster with
    four frontends across the Americas, median and 90th-percentile
    ordering latency per frontend.

    ``protocol`` is ``"bftsmart"`` (4 replicas, uniform weights, final
    delivery) or ``"wheat"`` (5 replicas with Virginia as the extra,
    Oregon+Virginia holding Vmax, tentative execution).
    """
    if protocol == "bftsmart":
        sites = list(BFTSMART_GEO_SITES)
        delta = 0
        vmax_holders: Optional[Sequence[int]] = None
        tentative = False
    elif protocol == "wheat":
        sites = list(WHEAT_GEO_SITES)
        delta = 1
        vmax_holders = (0, 1)  # oregon + virginia
        tentative = True
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    channel = ChannelConfig(
        "geo", max_message_count=block_size, batch_timeout=1.0
    )
    config = OrderingServiceConfig(
        f=1,
        delta=delta,
        vmax_holders=vmax_holders,
        tentative_execution=tentative,
        channel=channel,
        num_frontends=len(GEO_FRONTEND_SITES),
        node_sites=sites,
        frontend_sites=list(GEO_FRONTEND_SITES),
        latency=aws_latency_model(),
        bandwidth_bps=2e9,  # m4.4xlarge "High" network performance
        physical_cores=None,  # 16 vCPUs are never the bottleneck here
        max_batch=BATCH_LIMIT,
        request_timeout=8.0,
        enable_batch_timeout=True,
        seed=seed,
    )
    service = build_ordering_service(config)
    generator = OpenLoopGenerator(
        sim=service.sim,
        frontends=service.frontends,
        channel_id="geo",
        envelope_size=envelope_size,
        rate_per_second=rate,
        duration=warmup + duration,
        jitter_fraction=0.2,
        streams=None,
    )
    generator.start()
    service.run(warmup)
    for index in range(len(service.frontends)):
        service.stats.latency(f"{FRONTEND_ID_BASE + index}.latency").reset()
    service.run(duration + 2.0)  # drain the tail

    results: List[GeoLatencyResult] = []
    for index, region in enumerate(GEO_FRONTEND_SITES):
        name = FRONTEND_ID_BASE + index
        recorder = service.stats.latency(f"{name}.latency")
        meter = service.stats.meter(f"{name}.envelopes")
        results.append(
            GeoLatencyResult(
                protocol=protocol,
                envelope_size=envelope_size,
                block_size=block_size,
                frontend_region=region,
                median=recorder.median,
                p90=recorder.p90,
                samples=recorder.count,
                throughput=meter.rate(start=warmup, end=warmup + duration),
            )
        )
    return results


# ----------------------------------------------------------------------
# §8 conclusion comparison and ablations
# ----------------------------------------------------------------------
def conclusion_comparison() -> Dict[str, float]:
    """§8: the worst-case operating point (10 nodes, 4 KB envelopes,
    100-envelope blocks of ~400 KB, 32 receivers) against Ethereum's
    theoretical 1,000 tx/s and Bitcoin's 7 tx/s."""
    model = OrderingCapacityModel(n=10)
    floor = model.throughput(4096, 100, 32)
    return {
        "bft_ordering_worst_case": floor,
        "ethereum_theoretical_peak": 1000.0,
        "bitcoin_peak": 7.0,
        "speedup_vs_ethereum": floor / 1000.0,
        "speedup_vs_bitcoin": floor / 7.0,
    }


@dataclass
class AblationResult:
    weights: bool
    tentative: bool
    median: float
    p90: float


def wheat_ablation_point(
    weights: bool,
    tentative: bool,
    envelope_size: int = 1024,
    block_size: int = 10,
    rate: float = 1100.0,
    duration: float = 8.0,
    frontend_region: str = "virginia",
    warmup: float = 2.0,
    seed: int = 0,
) -> AblationResult:
    """One cell of the WHEAT ablation: weighted quorums and tentative
    execution toggled independently on the 5-replica geo deployment."""
    channel = ChannelConfig(
        "geo", max_message_count=block_size, batch_timeout=1.0
    )
    config = OrderingServiceConfig(
        f=1,
        delta=1,
        vmax_holders=(0, 1) if weights else None,
        tentative_execution=tentative,
        channel=channel,
        num_frontends=len(GEO_FRONTEND_SITES),
        node_sites=list(WHEAT_GEO_SITES),
        frontend_sites=list(GEO_FRONTEND_SITES),
        latency=aws_latency_model(),
        bandwidth_bps=2e9,
        physical_cores=None,
        request_timeout=8.0,
        enable_batch_timeout=True,
        seed=seed,
    )
    if not weights:
        # uniform weights over 3f+1+delta replicas
        config.vmax_holders = None
        uniform = {i: 1.0 for i in range(config.n)}
        service = build_ordering_service(config)
        # rebuild views with uniform weights is equivalent to
        # passing explicit weights; the builder computes binary
        # weights from delta, so override them here
        from repro.smart.view import View

        view = View(
            view_id=0,
            processes=tuple(range(config.n)),
            f=1,
            delta=1,
            weights=uniform,
        )
        for replica in service.replicas:
            replica.view = view
        for frontend in service.frontends:
            frontend.relay.update_view(view)
    else:
        service = build_ordering_service(config)
    generator = OpenLoopGenerator(
        sim=service.sim,
        frontends=service.frontends,
        channel_id="geo",
        envelope_size=envelope_size,
        rate_per_second=rate,
        duration=warmup + duration,
    )
    generator.start()
    service.run(warmup)
    index = GEO_FRONTEND_SITES.index(frontend_region)
    recorder = service.stats.latency(f"{FRONTEND_ID_BASE + index}.latency")
    recorder.reset()
    service.run(duration + 2.0)
    return AblationResult(
        weights=weights,
        tentative=tentative,
        median=recorder.median,
        p90=recorder.p90,
    )
