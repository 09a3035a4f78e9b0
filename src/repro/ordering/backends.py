"""One harness, four ordering backends (solo / Kafka / BFT-SMaRt / SmartBFT).

Runs the *same* seeded workload -- pinned envelope ids, identical
channel configuration, identical cutting parameters -- through any of
the repository's ordering services and commits the output through the
same :class:`~repro.fabric.committer.CommittingPeer`, armed with the
backend's block-validity policy.  Because raw envelopes hash by their
pinned ids and all backends share the :class:`BlockCutter`, a correct
run produces the *byte-identical* block header chain on every backend,
which is what the conformance battery
(``tests/test_orderer_conformance.py``) asserts.

The harness also accounts **dissemination bandwidth**: bytes on the
wire from the ordering service to its delivery clients (the frontend
for the BFT backends, the committing peer for the CFT ones), the
backend-differentiating cost the SmartBFT design attacks -- ``n`` full
block copies under BFT-SMaRt copy-matching versus one copy carrying a
``2f+1`` signature quorum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.block import Block
from repro.fabric.blockpolicy import (
    AcceptAllBlocks,
    SignatureCountPolicy,
    SignatureQuorumPolicy,
)
from repro.fabric.channel import ChannelConfig
from repro.fabric.committer import CommittingPeer
from repro.fabric.envelope import Envelope, OversizedPayloadError, check_payload_size
from repro.fabric.orderers.kafka import KafkaCluster, KafkaOrderer
from repro.fabric.orderers.solo import SoloOrderer
from repro.ordering.service import OrderingServiceConfig, build_ordering_service
from repro.sim.core import Simulator
from repro.sim.monitor import StatsRegistry
from repro.sim.network import ConstantLatency, Network
from repro.sim.randomness import RandomStreams
from repro.smart.view import one_correct_size

#: network id of the harness's committing peer
PEER_NAME = "peer0"


@dataclass
class WorkloadSpec:
    """The seeded workload every backend replays identically."""

    num_envelopes: int = 24
    payload_size: int = 256
    block_size: int = 4
    preferred_max_bytes: int = 512 * 1024
    absolute_max_bytes: int = 1024 * 1024
    batch_timeout: float = 0.25
    inter_arrival: float = 0.005
    #: envelope indices submitted with an oversized payload (they must
    #: be rejected at ingress by every backend)
    oversized_at: Sequence[int] = ()
    f: int = 1
    delta: int = 0
    seed: int = 0
    request_timeout: float = 0.5
    deadline: float = 60.0
    settle: float = 1.0
    channel_id: str = "ch0"

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(
            channel_id=self.channel_id,
            max_message_count=self.block_size,
            preferred_max_bytes=self.preferred_max_bytes,
            absolute_max_bytes=self.absolute_max_bytes,
            batch_timeout=self.batch_timeout,
        )

    def make_envelope(self, index: int) -> Envelope:
        size = self.payload_size
        if index in set(self.oversized_at):
            size = self.absolute_max_bytes + 1
        # the index is the id: the four backends are compared on the
        # header chains of one and the same workload
        return Envelope.raw(
            self.channel_id, payload_size=size, submitter="client", envelope_id=index
        )


@dataclass
class BackendRun:
    """What one backend produced for a :class:`WorkloadSpec`."""

    backend: str
    spec: WorkloadSpec
    peer: CommittingPeer
    submitted: int
    rejected_at_ingress: int
    dissemination_bytes: int
    finished: bool
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


@dataclass
class _StandUp:
    """A backend stood up for one run, reduced to what the run body
    needs: where to submit, where to attach the committing peer, and
    which links carry block dissemination."""

    sim: Simulator
    network: Network
    registry: KeyRegistry
    orderer_names: Set[str]
    #: ingress: raises OversizedPayloadError past AbsoluteMaxBytes
    submit: Callable[[Envelope], Any]
    attach_peer: Callable[[str], None]
    #: (src, dst) network links whose bytes are dissemination
    delivery_links: List[Tuple[Any, Any]]
    extras: Dict[str, Any]


def _stand_up_cft(backend: str, spec: WorkloadSpec) -> _StandUp:
    """solo / Kafka: one trusted orderer delivering straight to peers
    (Fabric's crash-fault orderers have no frontend tier)."""
    sim = Simulator()
    streams = RandomStreams(spec.seed)
    network = Network(
        sim, ConstantLatency(0.0001), default_bandwidth_bps=1e9, streams=streams
    )
    stats = StatsRegistry()
    registry = KeyRegistry(scheme=SimulatedECDSA(), rng=streams.stream("keys"))
    identity = registry.enroll("orderer0", org="ordererorg0")
    channel = spec.channel_config()

    extras: Dict[str, Any] = {}
    if backend == "solo":
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

    def submit(envelope: Envelope) -> None:
        # same AbsoluteMaxBytes ingress gate the BFT frontends apply
        check_payload_size(envelope.payload_ref(), spec.absolute_max_bytes)
        orderer.submit(envelope)

    return _StandUp(
        sim=sim,
        network=network,
        registry=registry,
        orderer_names={"orderer0"},
        submit=submit,
        attach_peer=orderer.attach_receiver,
        delivery_links=[("orderer0", PEER_NAME)],
        extras=extras,
    )


def _stand_up_bft(backend: str, spec: WorkloadSpec) -> _StandUp:
    """BFT-SMaRt / SmartBFT: the shared deployment builder, one frontend."""
    config = OrderingServiceConfig(
        orderer=backend,
        f=spec.f,
        delta=spec.delta,
        channel=spec.channel_config(),
        num_frontends=1,
        physical_cores=None,
        request_timeout=spec.request_timeout,
        enable_batch_timeout=True,
        seed=spec.seed,
    )
    service = build_ordering_service(config)
    frontend = service.frontends[0]
    return _StandUp(
        sim=service.sim,
        network=service.network,
        registry=service.registry,
        orderer_names={node.name for node in service.nodes},
        submit=frontend.submit,
        attach_peer=frontend.attach_peer,
        delivery_links=[(i, frontend.name) for i in range(config.n)],
        extras={"service": service},
    )


#: backend -> (stand-up, the committer-side block-validity policy the
#: backend warrants, from ``(f, registry, orderer_names)``); every
#: ordering backend the repository implements
_HARNESS = {
    "solo": (_stand_up_cft, lambda f, registry, names: AcceptAllBlocks()),
    "kafka": (_stand_up_cft, lambda f, registry, names: AcceptAllBlocks()),
    # frontends matched 2f+1 copies upstream; f+1 valid signatures
    # prove a correct node vouched for the merged block
    "bftsmart": (
        _stand_up_bft,
        lambda f, registry, names: SignatureCountPolicy(
            one_correct_size(f), registry=registry, orderer_names=names
        ),
    ),
    "smartbft": (
        _stand_up_bft,
        lambda f, registry, names: SignatureQuorumPolicy(
            f, registry=registry, orderer_names=names
        ),
    ),
}
BACKENDS = tuple(_HARNESS)


def run_backend_workload(backend: str, spec: Optional[WorkloadSpec] = None) -> BackendRun:
    """Replay ``spec`` through ``backend`` and commit via one peer."""
    spec = spec or WorkloadSpec()
    if backend not in _HARNESS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    stand_up, block_policy = _HARNESS[backend]
    up = stand_up(backend, spec)
    sim, network = up.sim, up.network
    peer = CommittingPeer(
        sim,
        network,
        PEER_NAME,
        spec.channel_config(),
        registry=up.registry,
        orderer_names=up.orderer_names,
        block_policy=block_policy(spec.f, up.registry, up.orderer_names),
    )
    network.register(PEER_NAME, peer)
    up.attach_peer(PEER_NAME)

    rejected = 0

    def _submit(index: int) -> None:
        nonlocal rejected
        try:
            up.submit(spec.make_envelope(index))
        except OversizedPayloadError:
            rejected += 1

    for index in range(spec.num_envelopes):
        sim.schedule(0.001 + index * spec.inter_arrival, _submit, index)

    expected = spec.num_envelopes - len(set(spec.oversized_at))
    # run_until evaluates its predicate after every event: count commits
    # as they happen instead of re-summing every block each time
    committed = 0

    def _count(record) -> None:
        nonlocal committed
        committed += len(record.block.envelopes)

    peer.on_commit.append(_count)
    finished = sim.run_until(lambda: committed >= expected, deadline=spec.deadline)
    sim.run(until=sim.now + spec.settle)

    by_src = network.stats.bytes_by_src
    return BackendRun(
        backend=backend,
        spec=spec,
        peer=peer,
        submitted=spec.num_envelopes - rejected,
        rejected_at_ingress=rejected,
        dissemination_bytes=int(
            sum(by_src.get(src, {}).get(dst, 0) for src, dst in up.delivery_links)
        ),
        finished=finished,
        extras=up.extras,
    )
