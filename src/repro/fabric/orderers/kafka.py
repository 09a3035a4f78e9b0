"""The Kafka-based crash-fault-tolerant ordering service (paper §3).

HLF 1.0's production orderer: orderer nodes are stateless consumers of
a single Kafka partition; Kafka brokers replicate the partition with a
primary/ISR scheme coordinated by ZooKeeper.  We implement the same
structure:

- :class:`KafkaBroker` -- holds a copy of the partition log; the
  leader assigns offsets and replicates to followers, committing an
  offset once a majority of brokers acknowledged it;
- :class:`KafkaCluster` -- the ZooKeeper/controller stand-in: detects
  a crashed leader and promotes the most up-to-date surviving broker;
- :class:`KafkaOrderer` -- a Fabric orderer node: produces envelopes
  to the leader broker, consumes the committed stream, cuts blocks,
  signs and delivers them -- the block pipeline and TimeToCut machine
  of :mod:`repro.ordering.blockcutter`, as the BFT service's nodes run
  it, with the partition as the total order.

This service tolerates *crash* faults only -- a Byzantine leader
broker can fork the log and make orderers cut conflicting blocks, a
behaviour exercised in the test suite to motivate the paper's BFT
service.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Set

from repro.crypto.keys import Identity
from repro.fabric.api import SubmitEnvelope
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.blockcutter import (
    BlockCutter,
    BlockWriter,
    ChannelState,
    TimeToCut,
    TimeToCutMachine,
)
from repro.sim.core import Simulator
from repro.sim.cpu import CPU, ThreadPool
from repro.sim.monitor import MetricsRegistry
from repro.sim.network import Network

KAFKA_RECORD_OVERHEAD = 61


@dataclass
class Produce:
    """Producer -> leader broker."""

    record: Any
    size: int

    def wire_size(self) -> int:
        return KAFKA_RECORD_OVERHEAD + self.size


@dataclass
class Replicate:
    """Leader broker -> follower."""

    offset: int
    record: Any
    size: int

    def wire_size(self) -> int:
        return KAFKA_RECORD_OVERHEAD + self.size


@dataclass
class ReplicaAck:
    """Follower -> leader."""

    offset: int
    follower: str

    def wire_size(self) -> int:
        return KAFKA_RECORD_OVERHEAD


@dataclass
class Consume:
    """Leader broker -> consumer (push-based delivery)."""

    offset: int
    record: Any
    size: int

    def wire_size(self) -> int:
        return KAFKA_RECORD_OVERHEAD + self.size


class KafkaBroker:
    """One broker holding a copy of the ordering partition."""

    def __init__(self, cluster: "KafkaCluster", name: str):
        self.cluster = cluster
        self.name = name
        self.log: List[Any] = []
        self.sizes: List[int] = []
        self.is_leader = False
        self.crashed = False
        self.committed = -1  # highest committed offset
        self._acks: Dict[int, Set[str]] = {}

    @property
    def network(self) -> Network:
        return self.cluster.network

    def crash(self) -> None:
        self.crashed = True
        self.network.crash(self.name)
        self.cluster.on_broker_crash(self.name)

    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if self.crashed:
            return
        if isinstance(message, Produce):
            self._on_produce(message)
        elif isinstance(message, Replicate):
            self._on_replicate(src, message)
        elif isinstance(message, ReplicaAck):
            self._on_ack(message)

    def _on_produce(self, message: Produce) -> None:
        if not self.is_leader:
            return  # stale producer; it will retry against the new leader
        offset = len(self.log)
        # Kafka is the paper's CFT baseline: brokers trust the ordering
        # channel by design, so records land unsigned and unverified.
        self.log.append(message.record)  # repro: allow[FLOW001] CFT by design
        self.sizes.append(message.size)
        self._acks[offset] = {self.name}
        for follower in self.cluster.follower_names(self.name):
            replicate = Replicate(offset, message.record, message.size)
            self.network.send(self.name, follower, replicate, replicate.wire_size())
        self._maybe_commit(offset)

    def _on_replicate(self, src: str, message: Replicate) -> None:
        if message.offset == len(self.log):
            # CFT replication: a follower trusts its leader's channel
            self.log.append(message.record)  # repro: allow[FLOW001] CFT by design
            self.sizes.append(message.size)
        elif message.offset < len(self.log):
            pass  # duplicate
        else:
            return  # out of order: wait for retransmission (leader resends in order)
        ack = ReplicaAck(message.offset, self.name)
        self.network.send(self.name, src, ack, ack.wire_size())

    def _on_ack(self, message: ReplicaAck) -> None:
        if not self.is_leader:
            return
        acks = self._acks.setdefault(message.offset, set())
        acks.add(message.follower)
        self._maybe_commit(message.offset)

    def _maybe_commit(self, offset: int) -> None:
        majority = self.cluster.majority
        while self.committed + 1 < len(self.log):
            next_offset = self.committed + 1
            if len(self._acks.get(next_offset, ())) < majority:
                break
            self.committed = next_offset
            record = self.log[next_offset]
            size = self.sizes[next_offset]
            for consumer in self.cluster.consumer_names():
                consume = Consume(next_offset, record, size)
                self.network.send(self.name, consumer, consume, consume.wire_size())


class KafkaCluster:
    """The broker ensemble + its ZooKeeper-like controller."""

    def __init__(self, sim: Simulator, network: Network, num_brokers: int = 3):
        if num_brokers < 1:
            raise ValueError("need at least one broker")
        self.sim = sim
        self.network = network
        self.brokers: Dict[str, KafkaBroker] = {}
        for i in range(num_brokers):
            name = f"kafka{i}"
            broker = KafkaBroker(self, name)
            self.brokers[name] = broker
            network.register(name, broker)
        self.leader_name = "kafka0"
        self.brokers[self.leader_name].is_leader = True
        self._consumers: List[str] = []
        self.leader_elections = 0

    @property
    def majority(self) -> int:
        alive = sum(1 for b in self.brokers.values() if not b.crashed)
        return alive // 2 + 1

    @property
    def leader(self) -> KafkaBroker:
        return self.brokers[self.leader_name]

    def follower_names(self, leader: str) -> List[str]:
        return [
            name
            for name, broker in sorted(self.brokers.items())
            if name != leader and not broker.crashed
        ]

    def consumer_names(self) -> List[str]:
        return list(self._consumers)

    def subscribe(self, consumer_name: str) -> None:
        if consumer_name not in self._consumers:
            self._consumers.append(consumer_name)

    def on_broker_crash(self, name: str) -> None:
        """Controller logic: elect the most up-to-date surviving broker."""
        if name != self.leader_name:
            return
        # sorted by name so the max() tie-break (first occurrence wins)
        # elects the lowest-named of the equally caught-up brokers
        candidates = [
            b for _, b in sorted(self.brokers.items()) if not b.crashed
        ]
        if not candidates:
            return
        new_leader = max(candidates, key=lambda b: len(b.log))
        self.leader_elections += 1
        self.leader_name = new_leader.name
        new_leader.is_leader = True
        new_leader.committed = min(new_leader.committed, len(new_leader.log) - 1)
        # re-drive commits for anything replicated but not yet committed
        for offset in range(new_leader.committed + 1, len(new_leader.log)):
            new_leader._acks.setdefault(offset, {new_leader.name})
            for follower in self.follower_names(new_leader.name):
                follower_broker = self.brokers[follower]
                if offset < len(follower_broker.log):
                    new_leader._acks[offset].add(follower)
            new_leader._maybe_commit(offset)


class KafkaOrderer:
    """A Fabric orderer node consuming the Kafka partition."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        identity: Identity,
        cluster: KafkaCluster,
        channel: ChannelConfig,
        cpu: Optional[CPU] = None,
        signing_workers: int = 16,
        stats: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.cluster = cluster
        self.channel = channel
        self.state = ChannelState(cutter=BlockCutter(channel))
        self.stats = stats if stats is not None else MetricsRegistry()
        self.receivers: List[object] = []
        self.writer = BlockWriter(
            sim, network, name, identity, self.receivers,
            signing_pool=ThreadPool(cpu, signing_workers) if cpu else None,
            stats=self.stats, record_latency=True,
        )
        channels = {channel.channel_id: self.state}
        self.ttc = TimeToCutMachine(sim, channels, self.writer, partial(self._produce, size=24))
        self.next_offset = 0
        self._buffered: Dict[int, Any] = {}
        network.register(name, self)
        cluster.subscribe(name)

    @property
    def next_number(self) -> int:
        return self.state.chain.number

    @property
    def previous_hash(self) -> bytes:
        return self.state.chain.previous_hash

    @property
    def blocks_created(self) -> int:
        return self.writer.blocks_created

    def attach_receiver(self, receiver_id: object) -> None:
        if receiver_id not in self.receivers:
            self.receivers.append(receiver_id)

    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if isinstance(message, SubmitEnvelope):
            self.submit(message.envelope)
        elif isinstance(message, Consume):
            self._on_consume(message)

    def submit(self, envelope: Envelope) -> None:
        """Produce an envelope into the Kafka partition."""
        if envelope.create_time is None:
            envelope.create_time = self.sim.now
        self._produce(envelope, envelope.payload_size)

    def _produce(self, record: Any, size: int) -> None:
        produce = Produce(record, size)
        self.network.send(
            self.name, self.cluster.leader_name, produce, produce.wire_size()
        )

    # ------------------------------------------------------------------
    def _on_consume(self, message: Consume) -> None:
        self._buffered[message.offset] = message.record
        while self.next_offset in self._buffered:
            record = self._buffered.pop(self.next_offset)
            self.next_offset += 1
            if isinstance(record, TimeToCut):
                self.ttc.on_ttc(record)
            else:
                self.ttc.order(self.channel.channel_id, self.state, (record,))
