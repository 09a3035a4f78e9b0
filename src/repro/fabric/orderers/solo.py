"""The solo orderer: one process, no replication, no fault tolerance.

HLF ships this for development/testing (paper section 3: "a single
point of failure").  It shares the block cutter, chain position and
block writer of :mod:`repro.ordering.blockcutter` with the other
orderers, so throughput comparisons isolate the cost of replication.
Its batch timeout is the local :class:`BatchTimer` it shares with the
SmartBFT leader, armed by the first envelope left pending and reset by
every cut: with no total order to agree on, there is nothing to make
deterministic.
"""

from __future__ import annotations

from typing import List, Optional

from repro.crypto.keys import Identity
from repro.fabric.api import SubmitEnvelope
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.blockcutter import BatchTimer, BlockCutter, BlockWriter, ChainPosition
from repro.sim.core import Simulator
from repro.sim.cpu import CPU, ThreadPool
from repro.sim.monitor import MetricsRegistry
from repro.sim.network import Network


class SoloOrderer:
    """A single-node ordering service."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        identity: Identity,
        channel: ChannelConfig,
        cpu: Optional[CPU] = None,
        signing_workers: int = 16,
        stats: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.channel = channel
        self.cutter = BlockCutter(channel)
        self.chain = ChainPosition()
        self.stats = stats if stats is not None else MetricsRegistry()
        self.receivers: List[object] = []
        self.writer = BlockWriter(
            sim, network, name, identity, self.receivers,
            signing_pool=ThreadPool(cpu, signing_workers) if cpu else None,
            stats=self.stats, record_latency=True,
        )
        self.crashed = False
        self.timer = BatchTimer(sim, channel.batch_timeout, self._timeout_cut)

    @property
    def next_number(self) -> int:
        return self.chain.number

    @property
    def previous_hash(self) -> bytes:
        return self.chain.previous_hash

    @property
    def blocks_created(self) -> int:
        return self.writer.blocks_created

    def attach_receiver(self, receiver_id: object) -> None:
        if receiver_id not in self.receivers:
            self.receivers.append(receiver_id)

    def crash(self) -> None:
        """The single point of failure, failing."""
        self.crashed = True
        self.network.crash(self.name)

    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if self.crashed:
            return
        if isinstance(message, SubmitEnvelope):
            self.submit(message.envelope)

    def submit(self, envelope: Envelope) -> None:
        if self.crashed:
            return
        if envelope.create_time is None:
            envelope.create_time = self.sim.now
        batches = self.cutter.ordered(envelope)
        for batch in batches:
            self._write(batch)
        self.timer.ordered(bool(batches), len(self.cutter))

    def _timeout_cut(self) -> None:
        self._write(self.cutter.cut())

    def _write(self, batch: List[Envelope]) -> None:
        self.writer.write(self.chain.append(batch, self.channel.channel_id))
