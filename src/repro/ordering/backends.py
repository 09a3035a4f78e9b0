"""Scenarios as data: one row type, one stand-up, four ordering backends.

A :class:`ScenarioRow` is one run: a backend of :data:`BACKENDS` (solo,
Kafka, BFT-SMaRt, SmartBFT), the deployment fields some harness varies,
and a load.  :func:`stand_up` stands any row up and starts its load; the
fault explorer's profiles, the sanitizers' scenarios and the
conformance battery's workloads are tables of rows, and each harness
keeps only its own checks.

A Fabric deployment is a row too, its peers and clients attached by
:meth:`StandUp.add_peer` and :meth:`StandUp.client`.  The battery
(:func:`run_backend_workload`) replays one row through any backend and
commits the output through one such peer, armed with the backend's
block-validity policy.  Raw envelopes hash by their pinned ids and all
backends share the :class:`BlockCutter`, so a correct run
produces the *byte-identical* header chain on every backend
(``tests/test_orderer_conformance.py``).  It also accounts
**dissemination bandwidth** -- bytes from the ordering service to its
delivery clients (the frontend for the BFT backends, the peer for the
CFT ones): ``n`` full copies under BFT-SMaRt copy-matching versus one
copy carrying a ``2f+1`` signature quorum under SmartBFT -- and each
envelope's submit-to-peer-commit latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.block import Block
from repro.fabric.blockpolicy import BlockValidityPolicy, SignatureCountPolicy
from repro.fabric.channel import ChannelConfig
from repro.fabric.client import FabricClient
from repro.fabric.committer import CommittingPeer
from repro.fabric.endorser import EndorsingPeer
from repro.fabric.envelope import Envelope, OversizedPayloadError, check_payload_size
from repro.fabric.orderers.kafka import KafkaCluster, KafkaOrderer
from repro.fabric.orderers.solo import SoloOrderer
from repro.fabric.policy import EndorsementPolicy, SignedBy
from repro.ordering.admission import AdmissionConfig
from repro.ordering.service import (
    OrderingService,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.sim.core import Simulator
from repro.sim.monitor import MetricsRegistry
from repro.sim.network import ConstantLatency, LatencyModel, Network
from repro.sim.randomness import RandomStreams
from repro.workload import RawProfile, TenantSpec, WorkloadEngine, make_arrivals

#: network id of the harness's committing peer
PEER_NAME = "peer0"

#: every row's AbsoluteMaxBytes: past it an envelope is refused at ingress
ABSOLUTE_MAX_BYTES = 1024 * 1024


@dataclass(frozen=True)
class SpacedLoad:
    """``count`` envelopes, one every ``spacing`` seconds from ``start``,
    all scheduled at stand-up and round-robin over the frontends.

    The index is the envelope id: the backends are compared on the
    header chains of one and the same load, and violation reports speak
    in these ids.  Indices in ``oversized_at`` carry a payload past the
    channel's AbsoluteMaxBytes (every backend must reject them at
    ingress).
    """

    count: int = 24
    payload_size: int = 256
    start: float = 0.001
    spacing: float = 0.005
    submitter: str = "client"
    oversized_at: Tuple[int, ...] = ()

    def at(self, index: int) -> float:
        """When envelope ``index`` is submitted."""
        return self.start + index * self.spacing

    @property
    def end(self) -> float:
        return self.start + self.count * self.spacing

    def start_on(self, up: "StandUp") -> None:
        row = up.row
        oversized = set(self.oversized_at)

        def submit(index: int) -> None:
            size = self.payload_size
            if index in oversized:
                size = ABSOLUTE_MAX_BYTES + 1
            envelope = Envelope.raw(
                row.channel, size, submitter=self.submitter, envelope_id=index
            )
            try:
                up.submit(envelope, index % row.num_frontends)
            except OversizedPayloadError:
                up.rejected += 1

        for index in range(self.count):
            up.sim.post_at(self.at(index), submit, index)


def _start_engine(
    up: "StandUp",
    tenants: Tuple[TenantSpec, ...],
    duration: float,
    seed: int,
    track_latency: bool,
) -> None:
    if up.service is None:
        raise ValueError(f"an open loop needs frontends; {up.row.backend} has none")
    up.engine = WorkloadEngine(
        up.sim,
        up.service.frontends,
        tenants,
        streams=RandomStreams(seed),
        duration=duration,
        track_latency=track_latency,
    )
    up.engine.start()


@dataclass(frozen=True)
class OpenLoop:
    """The paper's client load (section 6.2-6.3): one tenant of
    fixed-interval arrivals at ``rate`` envelopes/s for ``duration``
    seconds, round-robin over the frontends, each timer chained from
    the last, with ids drawn from the run.

    Each gap is stretched by one uniform draw in ``+-jitter_fraction``
    (none when it is zero) from the ``"workload"`` stream of the row's
    seed, so the repeats of a jittered row differ in their arrivals too.
    """

    rate: float
    duration: float
    envelope_size: int = 1024
    jitter_fraction: float = 0.0

    @property
    def end(self) -> float:
        return self.duration

    def start_on(self, up: "StandUp") -> None:
        spec = TenantSpec(
            name="loadgen",
            arrival=make_arrivals("fixed", self.rate, jitter_fraction=self.jitter_fraction),
            profile=RawProfile(channel=up.row.channel, envelope_size=self.envelope_size),
            stream="workload",
        )
        _start_engine(up, (spec,), self.duration, up.row.seed, track_latency=False)


@dataclass(frozen=True)
class Tenants:
    """A :class:`~repro.workload.WorkloadEngine` tenant mix for
    ``duration`` seconds, drawing on the row's seed and recording each
    tenant's admitted latency (``up.engine.report()``)."""

    tenants: Tuple[TenantSpec, ...]
    duration: float

    @property
    def end(self) -> float:
        return self.duration

    def start_on(self, up: "StandUp") -> None:
        _start_engine(up, self.tenants, self.duration, up.row.seed, track_latency=True)


@dataclass(frozen=True)
class ScenarioRow:
    """One run: a backend, its deployment and its load."""

    #: a key of :data:`BACKENDS`
    backend: str = "bftsmart"
    f: int = 1
    delta: int = 0
    seed: int = 0
    channel: str = "ch0"
    block_size: int = 4
    preferred_max_bytes: int = 512 * 1024
    batch_timeout: float = 0.25
    #: the BFT backends cut a partial batch by TimeToCut (the CFT
    #: orderers always do)
    enable_batch_timeout: bool = True
    num_frontends: int = 1
    request_timeout: float = 0.5
    #: None: 0.1 ms constant one-way delay
    latency: Optional[LatencyModel] = None
    #: site per ordering node / per frontend, as the latency model names
    #: them (None: all "lan"); BFT backends only
    node_sites: Optional[Tuple[str, ...]] = None
    frontend_sites: Optional[Tuple[str, ...]] = None
    #: every NIC's bandwidth
    bandwidth_bps: float = 1e9
    #: per-node CPU model, the section 6.2 machine (off: no CPU cost
    #: accounting)
    cpu: bool = False
    durable_wal: bool = False
    #: decisions between the BFT-SMaRt replicas' checkpoints (each one
    #: compacts a durable WAL)
    checkpoint_period: int = 1000
    #: WHEAT's tentative execution (BFT-SMaRt only)
    tentative_execution: bool = False
    admission: Optional[AdmissionConfig] = None
    #: replica that crashes at 0.4 of the load window -- with amnesia,
    #: to replay its WAL and state-transfer back at 0.7, when ``rejoin``
    crash: Optional[int] = None
    rejoin: bool = False
    load: Union[SpacedLoad, OpenLoop, Tenants] = SpacedLoad()
    #: what the channel's transactions need endorsed, unless their
    #: chaincode says otherwise
    endorsement_policy: EndorsementPolicy = SignedBy("org0")

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            channel_id=self.channel,
            max_message_count=self.block_size,
            preferred_max_bytes=self.preferred_max_bytes,
            absolute_max_bytes=ABSOLUTE_MAX_BYTES,
            batch_timeout=self.batch_timeout,
            endorsement_policy=self.endorsement_policy,
        )


@dataclass
class StandUp:
    """A row stood up: where its load is submitted, where its Fabric
    peers and clients attach, which links carry block dissemination."""

    row: ScenarioRow
    sim: Simulator
    network: Network
    registry: KeyRegistry
    orderer_names: Set[str]
    #: ``(envelope, frontend index)``; raises OversizedPayloadError past
    #: AbsoluteMaxBytes
    submit: Callable[[Envelope, int], Any]
    #: subscribes a network id to the delivered blocks
    attach: Callable[[str], None]
    #: what a committing peer requires of a block from this backend
    block_policy: BlockValidityPolicy
    #: where Fabric clients submit: the CFT orderer, or frontend 0
    ingress: Any
    #: (src, dst) network links whose bytes are dissemination
    delivery_links: List[Tuple[Any, Any]]
    #: the BFT deployment (None for the CFT orderers)
    service: Optional[OrderingService] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    #: what the ``arm`` hook of :func:`stand_up` returned
    armed: Any = None
    rejected: int = 0
    #: the open-loop engine of an ``OpenLoop`` or ``Tenants`` load
    engine: Optional[WorkloadEngine] = None
    committers: List[CommittingPeer] = field(default_factory=list)
    endorsers: List[EndorsingPeer] = field(default_factory=list)

    @property
    def submitted(self) -> int:
        """Envelopes the load has handed to the ordering service."""
        if self.engine is not None:
            return self.engine.offered
        return self.row.load.count - self.rejected

    def add_peer(
        self, name: str, org: str = "org0", chaincodes: Optional[Dict[str, Any]] = None
    ) -> CommittingPeer:
        """A committing peer ``name`` subscribed to the delivered blocks;
        given ``chaincodes``, also an endorsing peer ``endorser<i>`` of
        ``org`` that simulates against this peer's world state."""
        peer = CommittingPeer(
            self.sim, self.network, name, self.row.channel_config(),
            registry=self.registry, orderer_names=self.orderer_names,
            block_policy=self.block_policy,
        )
        self.network.register(name, peer)
        self.attach(name)
        self.committers.append(peer)
        if chaincodes is not None:
            endorser_name = f"endorser{len(self.endorsers)}"
            endorser = EndorsingPeer(
                self.network, endorser_name, self.registry.enroll(endorser_name, org),
                state_provider=lambda _channel: peer.state, chaincodes=chaincodes,
            )
            self.network.register(endorser_name, endorser)
            self.endorsers.append(endorser)
        return peer

    def client(self, name: str) -> FabricClient:
        """A client (org ``clients``) of every endorser added so far."""
        return FabricClient(
            self.sim, self.network, self.registry.enroll(name, org="clients"),
            self.registry, endorsers=[endorser.name for endorser in self.endorsers],
            orderer_endpoint=self.ingress, default_policy=self.row.endorsement_policy,
        )


def _stand_up_cft(
    row: ScenarioRow, sim: Simulator, observability: Optional[Any]
) -> StandUp:
    """solo / Kafka: one trusted orderer delivering straight to peers
    (Fabric's crash-fault orderers have no frontend tier)."""
    if observability is not None:
        raise ValueError("the observability hub attaches to a BFT service only")
    streams = RandomStreams(row.seed)
    network = Network(
        sim,
        row.latency or ConstantLatency(0.0001),
        default_bandwidth_bps=row.bandwidth_bps,
        streams=streams,
    )
    stats = MetricsRegistry()
    registry = KeyRegistry(scheme=SimulatedECDSA(), rng=streams.stream("keys"))
    identity = registry.enroll("orderer0", org="ordererorg0")
    channel = row.channel_config()

    extras: Dict[str, Any] = {}
    if row.backend == "solo":
        orderer = SoloOrderer(
            sim, network, "orderer0", identity, channel, cpu=None, stats=stats
        )
        network.register("orderer0", orderer)
    else:
        cluster = KafkaCluster(sim, network, num_brokers=3)
        orderer = KafkaOrderer(
            sim, network, "orderer0", identity, cluster, channel,
            cpu=None, stats=stats,
        )
        extras["cluster"] = cluster

    def submit(envelope: Envelope, frontend_index: int) -> None:
        # same AbsoluteMaxBytes ingress gate the BFT frontends apply
        check_payload_size(envelope.payload_ref(), ABSOLUTE_MAX_BYTES)
        orderer.submit(envelope)

    names = {"orderer0"}
    return StandUp(
        row=row,
        sim=sim,
        network=network,
        registry=registry,
        orderer_names=names,
        submit=submit,
        attach=orderer.attach_receiver,
        # the orderer's signature, as Fabric's block validation policy asks
        block_policy=SignatureCountPolicy(1, registry, names),
        ingress="orderer0",
        delivery_links=[("orderer0", PEER_NAME)],
        extras=extras,
    )


def _stand_up_bft(
    row: ScenarioRow, sim: Simulator, observability: Optional[Any]
) -> StandUp:
    """BFT-SMaRt / SmartBFT: the shared deployment builder."""
    config = OrderingServiceConfig(
        orderer=row.backend,
        f=row.f,
        delta=row.delta,
        channel=row.channel_config(),
        num_frontends=row.num_frontends,
        node_sites=row.node_sites,
        frontend_sites=row.frontend_sites,
        latency=row.latency,
        bandwidth_bps=row.bandwidth_bps,
        # 8 cores, BFT-SMaRt itself taking 60 % of each node's CPU
        physical_cores=8 if row.cpu else None,
        smart_cpu_fraction=0.6,
        request_timeout=row.request_timeout,
        enable_batch_timeout=row.enable_batch_timeout,
        durable_wal=row.durable_wal,
        checkpoint_period=row.checkpoint_period,
        tentative_execution=row.tentative_execution,
        admission=row.admission,
        seed=row.seed,
    )
    service = build_ordering_service(config, sim=sim, observability=observability)
    frontend = service.frontends[0]
    return StandUp(
        row=row,
        sim=service.sim,
        network=service.network,
        registry=service.registry,
        orderer_names={node.name for node in service.nodes},
        # through the service, so a hook on a frontend's ``submit``
        # installed after stand-up still sees every envelope
        submit=service.submit,
        attach=frontend.attach_peer,
        block_policy=service.block_policy(),
        ingress=frontend.name,
        delivery_links=[(i, frontend.name) for i in range(config.n)],
        service=service,
        extras={"service": service},
    )


#: backend -> stand-up; every ordering backend the repository implements
_HARNESS = {
    "solo": _stand_up_cft,
    "kafka": _stand_up_cft,
    "bftsmart": _stand_up_bft,
    "smartbft": _stand_up_bft,
}
BACKENDS = tuple(_HARNESS)


def stand_up(
    row: ScenarioRow,
    arm: Optional[Callable[[StandUp], Any]] = None,
    sim: Optional[Simulator] = None,
    observability: Optional[Any] = None,
) -> StandUp:
    """Stand ``row`` up on ``sim`` (a fresh one by default) and start
    its load; the caller runs the simulator.

    ``arm`` is called on the deployment before the load is scheduled --
    where a harness attaches its recorders, its committing peer or its
    fault schedule -- and what it returns is kept as ``armed``.  The
    row's own crash is scheduled after the load.  The order is part of
    the pinned behaviour: scheduling hands out the sequence numbers
    that order same-time events.
    """
    if row.backend not in _HARNESS:
        raise ValueError(f"unknown backend {row.backend!r}; expected one of {BACKENDS}")
    up = _HARNESS[row.backend](row, Simulator() if sim is None else sim, observability)
    if arm is not None:
        up.armed = arm(up)
    row.load.start_on(up)
    if row.crash is not None:
        if up.service is None:
            raise ValueError(f"{row.backend} has no replica to crash")
        end = row.load.end
        up.sim.post_at(end * 0.4, up.service.crash_node, row.crash, row.rejoin)
        if row.rejoin:
            up.sim.post_at(end * 0.7, up.service.recover_node, row.crash)
    return up


# ----------------------------------------------------------------------
# the conformance battery: one row, every backend, one committing peer
# ----------------------------------------------------------------------
@dataclass
class BackendRun:
    """What one backend produced for a :class:`ScenarioRow`."""

    backend: str
    row: ScenarioRow
    peer: CommittingPeer
    submitted: int
    rejected_at_ingress: int
    dissemination_bytes: int
    finished: bool
    #: submit-to-peer-commit seconds of every committed envelope
    commit_latencies: List[float]
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def committed_blocks(self) -> List[Block]:
        return [record.block for record in self.peer.commits]

    @property
    def header_digests(self) -> List[bytes]:
        return [block.header.digest() for block in self.committed_blocks]

    @property
    def committed_envelope_ids(self) -> List[Tuple[int, ...]]:
        return [
            tuple(envelope.envelope_id for envelope in block.envelopes)
            for block in self.committed_blocks
        ]

    @property
    def committed_flat_ids(self) -> List[int]:
        return [eid for block in self.committed_envelope_ids for eid in block]


def run_backend_workload(
    backend: str, row: Optional[ScenarioRow] = None
) -> BackendRun:
    """Replay ``row``'s spaced load through ``backend`` and commit via
    one peer; runs until everything admitted is committed (60 s budget),
    then one more second."""
    row = replace(row or ScenarioRow(), backend=backend)
    load = row.load
    up = stand_up(row, lambda up: up.add_peer(PEER_NAME))
    sim, network, peer = up.sim, up.network, up.armed
    expected = load.count - len(set(load.oversized_at))
    # run_until evaluates its predicate after every event: count commits
    # as they happen instead of re-summing every block each time
    committed = 0
    latencies: List[float] = []

    def _count(record) -> None:
        nonlocal committed
        envelopes = record.block.envelopes
        committed += len(envelopes)
        latencies.extend(sim.now - load.at(e.envelope_id) for e in envelopes)

    peer.on_commit.append(_count)
    finished = sim.run_until(lambda: committed >= expected, deadline=60.0)
    sim.run(until=sim.now + 1.0)

    by_src = network.stats.bytes_by_src
    return BackendRun(
        backend=backend,
        row=row,
        peer=peer,
        submitted=up.submitted,
        rejected_at_ingress=up.rejected,
        dissemination_bytes=int(
            sum(by_src.get(src, {}).get(dst, 0) for src, dst in up.delivery_links)
        ),
        finished=finished,
        commit_latencies=latencies,
        extras=up.extras,
    )
