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

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from repro.bench.model import OrderingCapacityModel, SignatureThroughputModel
from repro.bench.topology import aws_latency_model, lan_latency_model
from repro.fabric.channel import ChannelConfig
from repro.ordering.backends import OpenLoop, ScenarioRow, StandUp, stand_up
from repro.ordering.service import FRONTEND_ID_BASE
from repro.sim.core import Simulator
from repro.sim.cpu import CPU, ThreadPool
from repro.smart.view import View

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
    model = OrderingCapacityModel(n=orderers)
    predicted = model.throughput(envelope_size, block_size, receivers)
    offered = predicted * rate_factor
    row = ScenarioRow(
        f=(orderers - 1) // 3,
        seed=seed,
        channel="bench",
        block_size=block_size,
        preferred_max_bytes=ChannelConfig.preferred_max_bytes,
        batch_timeout=10.0,
        enable_batch_timeout=False,
        num_frontends=receivers,
        # saturation benches must not trigger regency changes
        request_timeout=30.0,
        latency=lan_latency_model(),
        cpu=True,
        load=OpenLoop(
            rate=offered, duration=warmup + duration, envelope_size=envelope_size
        ),
    )
    service = stand_up(row, observability=observability).service
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


def geo_row(
    wheat: bool, block_size: int, load: OpenLoop, seed: int = 0
) -> ScenarioRow:
    """The section 6.3 deployment: BFT-SMaRt (4 replicas, uniform
    weights, final delivery) or WHEAT (5 replicas with Virginia as the
    extra, Oregon+Virginia -- replicas 0 and 1 -- holding Vmax,
    tentative execution), four frontends across the Americas.  No CPU
    model: 16 vCPUs are never the bottleneck here."""
    return ScenarioRow(
        delta=1 if wheat else 0,
        seed=seed,
        channel="geo",
        block_size=block_size,
        preferred_max_bytes=ChannelConfig.preferred_max_bytes,
        batch_timeout=1.0,
        num_frontends=len(GEO_FRONTEND_SITES),
        request_timeout=8.0,
        latency=aws_latency_model(),
        node_sites=WHEAT_GEO_SITES if wheat else BFTSMART_GEO_SITES,
        frontend_sites=GEO_FRONTEND_SITES,
        bandwidth_bps=2e9,  # m4.4xlarge "High" network performance
        tentative_execution=wheat,
        load=load,
    )


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

    ``protocol`` is ``"bftsmart"`` or ``"wheat"`` (:func:`geo_row`).
    """
    if protocol not in ("bftsmart", "wheat"):
        raise ValueError(f"unknown protocol {protocol!r}")
    load = OpenLoop(rate, warmup + duration, envelope_size, jitter_fraction=0.2)
    service = stand_up(geo_row(protocol == "wheat", block_size, load, seed)).service
    service.run(warmup)
    for index in range(len(service.frontends)):
        service.stats.histogram(f"{FRONTEND_ID_BASE + index}.latency").reset()
    service.run(duration + 2.0)  # drain the tail

    results: List[GeoLatencyResult] = []
    for index, region in enumerate(GEO_FRONTEND_SITES):
        name = FRONTEND_ID_BASE + index
        recorder = service.stats.histogram(f"{name}.latency")
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
    execution toggled independently on the 5-replica geo deployment.

    Without ``weights`` every replica and every frontend's relay is
    handed one view of uniform weights once the deployment is built."""

    def uniform_weights(up: StandUp) -> None:
        service = up.service
        processes = tuple(range(service.config.n))
        view = View(
            view_id=0, processes=processes, f=1, delta=1,
            weights={i: 1.0 for i in processes},
        )
        for replica in service.replicas:
            replica.view = view
        for frontend in service.frontends:
            frontend.relay.update_view(view)

    row = replace(
        geo_row(True, block_size, OpenLoop(rate, warmup + duration, envelope_size), seed),
        tentative_execution=tentative,
    )
    service = stand_up(row, None if weights else uniform_weights).service
    service.run(warmup)
    index = GEO_FRONTEND_SITES.index(frontend_region)
    recorder = service.stats.histogram(f"{FRONTEND_ID_BASE + index}.latency")
    recorder.reset()
    service.run(duration + 2.0)
    return AblationResult(
        weights=weights,
        tentative=tentative,
        median=recorder.median,
        p90=recorder.p90,
    )
