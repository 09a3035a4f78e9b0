"""The block pipeline every orderer shares (paper section 5.1).

Ordering nodes store the totally-ordered envelope stream in a
*blockcutter*; once it holds a pre-determined number of envelopes (the
block size -- 10 or 100 in the paper's experiments) it drains them
into the next block.  :class:`BlockCutter` mirrors Fabric's
``blockcutter`` package, including the byte-based early cut and the
immediate cut of config envelopes.  As Fabric gives every consensus
plug-in the same block writer (arXiv:1801.10228), the rest of the
pipeline is shared too: :class:`ChainPosition` assembles the next
block, :class:`BlockWriter` signs and sends it, and
:class:`TimeToCutMachine` makes batch timeouts deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import Identity
from repro.fabric.api import BlockDelivery
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockHeader, compute_data_hash
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.sim.core import Simulator
from repro.sim.cpu import ThreadPool
from repro.sim.monitor import MetricsRegistry
from repro.sim.network import Network


class BlockCutter:
    """Accumulates ordered envelopes and emits batches deterministically.

    Determinism matters: every ordering node runs the same cutter over
    the same envelope stream, so all nodes cut identical blocks.
    """

    def __init__(self, config: ChannelConfig):
        self.config = config
        self._pending: List[Envelope] = []
        self._pending_bytes = 0
        self.batches_cut = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    def ordered(self, envelope: Envelope) -> List[List[Envelope]]:
        """Feed one ordered envelope; returns zero or more cut batches."""
        return self.ordered_run((envelope,), 0, 1)[0]

    def ordered_run(
        self, envelopes: Sequence[Envelope], start: int, stop: int
    ) -> Tuple[List[List[Envelope]], int]:
        """Feed ``envelopes[start:stop]`` in order, up to and including
        the first envelope that cuts.

        Returns the batches that envelope cut (none if the run ended
        first) and the index of the next envelope not yet fed, so a
        caller can act on a cut -- assemble the blocks, arm a timer --
        exactly where feeding one envelope at a time would have, and
        then resume.  This loop is the cutting rule; :meth:`ordered` is
        its one-envelope case.
        """
        preferred_max_bytes = self.config.preferred_max_bytes
        max_message_count = self.config.max_message_count
        pending = self._pending
        pending_bytes = self._pending_bytes
        count = len(pending)
        batches: List[List[Envelope]] = []
        index = start
        while index < stop and not batches:
            envelope = envelopes[index]
            index += 1
            if envelope.is_config:
                # config envelopes get a block of their own, after flushing
                if count:
                    batches.append(self.cut())
                batches.append([envelope])
                self.batches_cut += 1
                return batches, index
            size = envelope.payload_size
            if count and pending_bytes + size > preferred_max_bytes:
                # the message would overflow the pending batch: cut first
                batches.append(self.cut())
                pending, pending_bytes, count = self._pending, 0, 0
            pending.append(envelope)
            pending_bytes += size
            count += 1
            if count >= max_message_count:
                batches.append(self.cut())
                return batches, index
        self._pending_bytes = pending_bytes
        return batches, index

    def cut(self) -> List[Envelope]:
        """Drain the pending envelopes as one batch (may be empty)."""
        batch, self._pending = self._pending, []
        self._pending_bytes = 0
        if batch:
            self.batches_cut += 1
        return batch


@dataclass(slots=True)
class ChainPosition:
    """Where a channel's next block goes (all the application state of
    §5.2).  Headers are made here sequentially, before signing is
    parallelised, so a signing thread pool cannot make nodes diverge."""

    number: int = 0
    previous_hash: bytes = GENESIS_PREVIOUS_HASH

    def header(self, envelopes: Sequence[Envelope]) -> BlockHeader:
        return BlockHeader(
            number=self.number,
            previous_hash=self.previous_hash,
            data_hash=compute_data_hash(envelopes),
        )

    def advance(self, header: BlockHeader) -> None:
        self.number = header.number + 1
        self.previous_hash = header.digest()

    def append(self, batch: List[Envelope], channel_id: str) -> Block:
        """The next block of the channel, made of ``batch``."""
        header = self.header(batch)
        self.advance(header)
        return Block(header=header, envelopes=batch, channel_id=channel_id)


class BlockWriter:
    """Sign a block's header (on the signing pool, if any), send one
    :class:`~repro.fabric.api.BlockDelivery` to ``receivers`` from
    ``net_id``, and record ``{name}.envelopes`` -- plus ``{name}.blocks``
    and the ``{name}.latency`` histogram if asked -- once per block."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        identity: Identity,
        receivers: List[object],
        net_id: Optional[object] = None,
        signing_pool: Optional[ThreadPool] = None,
        sign_cost: Optional[float] = None,
        stats: Optional[MetricsRegistry] = None,
        count_blocks: bool = False,
        record_latency: bool = False,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.identity = identity
        self.receivers = receivers
        self.net_id = net_id if net_id is not None else name
        self.signing_pool = signing_pool
        #: None: what the identity's scheme costs at signing time
        self.sign_cost = sign_cost
        self.stats = stats
        self.count_blocks = count_blocks
        self.record_latency = record_latency
        #: (blocks, envelopes, latency), looked up at the first block
        self._instruments: Optional[Tuple[Any, Any, Any]] = None
        self.blocks_created = 0
        #: optional repro.obs.Observability hub (attached externally)
        self.obs = None

    def write(self, block: Block) -> None:
        self.blocks_created += 1
        cut_time = self.sim.now
        if self.obs is not None:
            self.obs.on_block_cut(self.name, block, cut_time)
        cost = self.sign_cost
        if cost is None:
            cost = self.identity.signer.sign_cost
        if self.signing_pool is not None and cost > 0:
            self.signing_pool.submit(
                cost, self._sign_and_send, block, cut_time, activity="sign"
            )
        else:
            self._sign_and_send(block, cut_time)

    def _sign_and_send(self, block: Block, cut_time: float) -> None:
        block.signatures[self.name] = self.identity.sign(block.header.signing_payload())
        delivery = BlockDelivery(block=block, source=self.name)
        self.network.broadcast(self.net_id, self.receivers, delivery, delivery.wire_size())
        now = self.sim.now
        if self.obs is not None:
            self.obs.on_block_signed(self.name, block, cut_time, now)
        if self.stats is None:
            return
        instruments = self._instruments
        if instruments is None:
            stats, name = self.stats, self.name
            instruments = self._instruments = (
                stats.meter(f"{name}.blocks") if self.count_blocks else None,
                stats.meter(f"{name}.envelopes"),
                stats.histogram(f"{name}.latency") if self.record_latency else None,
            )
        blocks, envelopes, latency = instruments
        if blocks is not None:
            blocks.record(now, 1.0)
        envelopes.record(now, float(len(block.envelopes)))
        if latency is not None:
            latency.extend(
                [now - e.create_time for e in block.envelopes if e.create_time is not None]
            )


@dataclass(frozen=True)
class TimeToCut:
    """Ordered marker forcing a batch cut (deterministic timeouts)."""

    channel_id: str
    target_height: int


@dataclass
class ChannelState:
    """One channel at one orderer: the envelopes waiting to be cut,
    where the next block goes, and the channel's TimeToCut timer."""

    cutter: BlockCutter
    chain: ChainPosition = field(default_factory=ChainPosition)
    #: a timer is armed (or a TTC submitted) for the current height
    ttc_pending: bool = False
    #: generation counter so stale timers cannot cancel newer arming
    ttc_epoch: int = 0


class TimeToCutMachine:
    """Cut and write the blocks of a total order of envelopes and
    :class:`TimeToCut` markers, for the owner's ``channels`` mapping.

    A timeout never cuts by itself (Fabric's Kafka orderer design): the
    timer armed at the first envelope left pending at a height hands
    ``TimeToCut(channel, height)`` to ``submit`` -- into the total order
    -- when it fires at that height, and again every ``batch_timeout``
    until the height is cut, so a lost TTC cannot wedge the tail.  The
    first TTC ordered for a height cuts on every node; later ones are
    stale.  Stale timers drop out by epoch; a cut or a stale TTC that
    leaves envelopes pending arms afresh.  No ``submit``, no timers.
    """

    def __init__(
        self,
        sim: Simulator,
        channels: Dict[str, ChannelState],
        writer: BlockWriter,
        submit: Optional[Callable[[TimeToCut], None]] = None,
    ):
        self.sim = sim
        self.channels = channels
        self.writer = writer
        self.submit = submit

    def order(self, channel_id: str, state: ChannelState, envelopes: Sequence[Envelope]) -> None:
        """Order consecutive envelopes of one channel: one pass over the
        run, yet every block is written and every timer armed at the
        envelope, and so in the order, feeding them singly would."""
        cutter = state.cutter
        timed = self.submit is not None
        count = len(envelopes)
        fed = 0
        while fed < count:
            # with no timer pending the very next envelope may have to
            # arm one, so it is fed alone; otherwise feed up to a cut
            stop = fed + 1 if timed and not state.ttc_pending else count
            batches, fed = cutter.ordered_run(envelopes, fed, stop)
            for batch in batches:
                self.writer.write(state.chain.append(batch, channel_id))
            if batches:
                state.ttc_pending = False
            if timed and not state.ttc_pending and len(cutter) > 0:
                # covers both a fresh remainder after a cut and the
                # plain not-yet-full case
                self.arm(channel_id, state)

    def on_ttc(self, ttc: TimeToCut) -> Dict[str, Any]:
        state = self.channels.get(ttc.channel_id)
        if state is None:
            return {"status": "NO_SUCH_CHANNEL", "channel": ttc.channel_id}
        state.ttc_pending = False
        if state.chain.number != ttc.target_height or len(state.cutter) == 0:
            if len(state.cutter) > 0:
                self.arm(ttc.channel_id, state)
            return {"status": "STALE_TTC"}
        self.writer.write(state.chain.append(state.cutter.cut(), ttc.channel_id))
        return {"status": "CUT", "height": ttc.target_height}

    def arm(self, channel_id: str, state: ChannelState) -> None:
        if self.submit is None or state.ttc_pending:
            return
        state.ttc_pending = True
        self._count_down(channel_id, state, state.chain.number)

    def _count_down(self, channel_id: str, state: ChannelState, target: int) -> None:
        state.ttc_epoch += 1
        timeout = state.cutter.config.batch_timeout
        self.sim.schedule(timeout, self._when_due, channel_id, target, state.ttc_epoch)

    def _when_due(self, channel_id: str, target: int, epoch: int) -> None:
        state = self.channels.get(channel_id)
        if state is None or self.submit is None:
            return
        if epoch != state.ttc_epoch or not state.ttc_pending:
            return  # stale timer from an earlier arming
        if state.chain.number != target or len(state.cutter) == 0:
            state.ttc_pending = False
            if len(state.cutter) > 0:
                # armed for a height that was cut meanwhile, but new
                # envelopes are waiting: re-arm for the current height
                self.arm(channel_id, state)
            return
        self.submit(TimeToCut(channel_id=channel_id, target_height=target))
        # re-submit in case the TTC got lost (fire-and-forget submission)
        self._count_down(channel_id, state, target)
