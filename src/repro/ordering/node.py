"""The BFT-SMaRt ordering node (paper section 5.1, Figure 5).

Each ordering node is the *application* running on top of a
:class:`~repro.smart.replica.ServiceReplica`: it receives the stream
of totally-ordered envelopes, stores them in a per-channel
:class:`~repro.ordering.blockcutter.BlockCutter`, and when the cutter
drains it assembles the next block **sequentially in the node thread**
(assigning the block number and chaining the previous header hash --
the only application state), then hands the block to a signing thread
pool and finally transmits the signed block to every registered
frontend through the custom replier.

The thread pool cannot cause non-determinism because headers are
created sequentially before signing is parallelized -- exactly the
argument of the paper.

Batch timeouts are made deterministic the way Fabric's Kafka orderer
does it: a node whose cutter sits non-empty past the timeout submits a
``TimeToCut`` message *through the total order*; the first TTC for a
given (channel, height) makes every node cut, and duplicates are
ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Optional

from repro.crypto.keys import Identity
from repro.fabric.api import BlockDelivery
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockHeader, compute_data_hash
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.blockcutter import BlockCutter
from repro.sim.core import Simulator
from repro.sim.cpu import CPU, ThreadPool
from repro.sim.monitor import StatsRegistry
from repro.sim.network import Network
from repro.smart.messages import ClientRequest
from repro.smart.replica import StateMachine


@dataclass(frozen=True)
class TimeToCut:
    """Ordered marker forcing a batch cut (deterministic timeouts)."""

    channel_id: str
    target_height: int


@dataclass
class _ChannelState:
    """Per-channel ordering state (the app state is tiny: §5.2)."""

    cutter: BlockCutter
    next_number: int = 0
    previous_hash: bytes = GENESIS_PREVIOUS_HASH
    ttc_pending: bool = False
    #: generation counter so stale timers cannot cancel newer arming
    ttc_epoch: int = 0


class BFTOrderingNode(StateMachine):
    """The ordering-service application at one BFT-SMaRt replica."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        identity: Identity,
        channels: Dict[str, ChannelConfig],
        cpu: Optional[CPU] = None,
        signing_workers: int = 16,
        sign_cost: Optional[float] = None,
        stats: Optional[StatsRegistry] = None,
        ttc_submitter: Optional[Callable[[TimeToCut], None]] = None,
        double_sign: bool = False,
        net_id: Optional[object] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        #: network address blocks are sent from (the replica's id, so
        #: block dissemination shares the machine's NIC)
        self.net_id = net_id if net_id is not None else name
        self.identity = identity
        self.cpu = cpu
        self.signing_pool = (
            ThreadPool(cpu, signing_workers) if cpu is not None else None
        )
        self.sign_cost = (
            sign_cost if sign_cost is not None else self.identity.signer.sign_cost
        )
        self.stats = stats
        self.ttc_submitter = ttc_submitter
        #: HLF 1.0 sometimes signs a block twice (§6.1 footnote)
        self.double_sign = double_sign
        self.frontends: List[object] = []
        self._channels: Dict[str, _ChannelState] = {
            channel_id: _ChannelState(cutter=BlockCutter(config))
            for channel_id, config in channels.items()
        }
        self._channel_configs = dict(channels)
        #: the result of ordering an envelope, one shared read-only
        #: mapping per channel (results are compared and cached, never
        #: written)
        self._acks = {
            channel_id: MappingProxyType({"status": "ACK", "channel": channel_id})
            for channel_id in channels
        }
        self.blocks_created = 0
        self.envelopes_processed = 0
        #: (blocks, envelopes) meter pair, resolved on first signed block
        self._meters = None
        self._cut_timers: Dict[str, object] = {}
        #: optional repro.obs.Observability hub (attached externally)
        self.obs = None

    # ------------------------------------------------------------------
    # frontend registration (the custom replier's recipients)
    # ------------------------------------------------------------------
    def register_frontend(self, frontend_id: object) -> None:
        if frontend_id not in self.frontends:
            self.frontends.append(frontend_id)

    def unregister_frontend(self, frontend_id: object) -> None:
        if frontend_id in self.frontends:
            self.frontends.remove(frontend_id)

    # ------------------------------------------------------------------
    # StateMachine interface
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        cid: int,
        requests: List[ClientRequest],
        regency: int,
        tentative: bool = False,
    ) -> List[Any]:
        operations = [request.operation for request in requests]
        results: List[Any] = []
        start, count = 0, len(operations)
        while start < count:
            operation = operations[start]
            # envelopes outnumber TTCs by orders of magnitude: test the
            # common case first (the branches are mutually exclusive)
            if isinstance(operation, Envelope):
                # a decided batch is almost always one run of envelopes
                # for one channel: find where the run ends, order it whole
                channel_id = operation.channel_id
                end = start + 1
                while end < count:
                    operation = operations[end]
                    if (
                        not isinstance(operation, Envelope)
                        or operation.channel_id != channel_id
                    ):
                        break
                    end += 1
                results += self._order_run(channel_id, operations[start:end])
                start = end
            elif isinstance(operation, TimeToCut):
                results.append(self._handle_ttc(operation))
                start += 1
            else:
                results.append({"status": "BAD_REQUEST"})
                start += 1
        return results

    def _order_run(self, channel_id: str, envelopes: List[Envelope]) -> List[Any]:
        """Order consecutive envelopes of one channel: one pass over the
        run, yet every block is assembled and every cut timer armed at
        the envelope, and so in the order, feeding them singly would."""
        state = self._channels.get(channel_id)
        count = len(envelopes)
        if state is None:
            return [
                {"status": "NO_SUCH_CHANNEL", "channel": channel_id}
                for _ in range(count)
            ]
        self.envelopes_processed += count
        cutter = state.cutter
        timed = self.ttc_submitter is not None
        fed = 0
        while fed < count:
            # with no timer pending the very next envelope may have to
            # arm one, so it is fed alone; otherwise feed up to a cut
            stop = fed + 1 if timed and not state.ttc_pending else count
            batches, fed = cutter.ordered_run(envelopes, fed, stop)
            for batch in batches:
                self._create_block(channel_id, state, batch)
            if batches:
                state.ttc_pending = False
            if timed and not state.ttc_pending and len(cutter) > 0:
                # covers both a fresh remainder after a cut and the
                # plain not-yet-full case
                self._arm_cut_timer(channel_id, state)
        return [self._acks[channel_id]] * count

    def _handle_ttc(self, ttc: TimeToCut) -> Dict[str, Any]:
        state = self._channels.get(ttc.channel_id)
        if state is None:
            return {"status": "NO_SUCH_CHANNEL", "channel": ttc.channel_id}
        state.ttc_pending = False
        if state.next_number != ttc.target_height or len(state.cutter) == 0:
            if len(state.cutter) > 0:
                self._arm_cut_timer(ttc.channel_id, state)
            return {"status": "STALE_TTC"}
        batch = state.cutter.cut()
        self._create_block(ttc.channel_id, state, batch)
        return {"status": "CUT", "height": ttc.target_height}

    def get_state(self) -> Any:
        """§5.2: just the next block number and previous header hash
        (plus the envelopes waiting in each cutter)."""
        return {
            channel_id: {
                "next_number": state.next_number,
                "previous_hash": state.previous_hash,
                "pending": list(state.cutter._pending),
            }
            for channel_id, state in self._channels.items()
        }

    def set_state(self, snapshot: Any) -> None:
        if snapshot is None:
            return
        for channel_id, entry in sorted(snapshot.items()):
            config = self._channel_configs.get(channel_id)
            if config is None:
                continue
            state = _ChannelState(cutter=BlockCutter(config))
            state.next_number = entry["next_number"]
            state.previous_hash = entry["previous_hash"]
            for envelope in entry["pending"]:
                state.cutter._pending.append(envelope)
                state.cutter._pending_bytes += envelope.payload_size
            self._channels[channel_id] = state

    def snapshot(self) -> Any:
        return self.get_state()

    def rollback(self, token: Any) -> None:
        self.set_state(token)

    def reset(self) -> None:
        """Forget all channel state (amnesiac restart zero point).

        ``set_state(None)`` is a no-op by contract, so rebuild every
        channel from its static config instead.
        """
        self._channels = {
            channel_id: _ChannelState(cutter=BlockCutter(config))
            for channel_id, config in self._channel_configs.items()
        }

    # ------------------------------------------------------------------
    # block creation, signing, dissemination
    # ------------------------------------------------------------------
    def _create_block(
        self, channel_id: str, state: _ChannelState, batch: List[Envelope]
    ) -> None:
        if not batch:
            return
        header = BlockHeader(
            number=state.next_number,
            previous_hash=state.previous_hash,
            data_hash=compute_data_hash(batch),
        )
        state.next_number += 1
        state.previous_hash = header.digest()
        block = Block(header=header, envelopes=batch, channel_id=channel_id)
        self.blocks_created += 1
        cut_time = self.sim.now
        if self.obs is not None:
            self.obs.on_block_cut(self.name, block, cut_time)
        cost = self.sign_cost * (2 if self.double_sign else 1)
        if self.signing_pool is not None and cost > 0:
            self.signing_pool.submit(
                cost, self._sign_and_send, block, cut_time, activity="sign"
            )
        else:
            self._sign_and_send(block, cut_time)

    def _sign_and_send(self, block: Block, cut_time: Optional[float] = None) -> None:
        block.signatures[self.name] = self.identity.sign(
            block.header.signing_payload()
        )
        delivery = BlockDelivery(block=block, source=self.name)
        self.network.broadcast(
            self.net_id, self.frontends, delivery, delivery.wire_size()
        )
        if self.obs is not None:
            self.obs.on_block_signed(
                self.name,
                block,
                cut_time if cut_time is not None else self.sim.now,
                self.sim.now,
            )
        if self.stats is not None:
            meters = self._meters
            if meters is None:
                meters = self._meters = (
                    self.stats.meter(f"{self.name}.blocks"),
                    self.stats.meter(f"{self.name}.envelopes"),
                )
            now = self.sim.now
            meters[0].record(now, 1.0)
            meters[1].record(now, float(len(block.envelopes)))

    # ------------------------------------------------------------------
    # deterministic batch timeout (TTC through the total order)
    # ------------------------------------------------------------------
    def _arm_cut_timer(self, channel_id: str, state: _ChannelState) -> None:
        if self.ttc_submitter is None or state.ttc_pending:
            return
        config = self._channel_configs[channel_id]
        state.ttc_pending = True
        state.ttc_epoch += 1
        self.sim.schedule(
            config.batch_timeout,
            self._maybe_submit_ttc,
            channel_id,
            state.next_number,
            state.ttc_epoch,
        )

    def _maybe_submit_ttc(self, channel_id: str, target: int, epoch: int) -> None:
        state = self._channels.get(channel_id)
        if state is None or self.ttc_submitter is None:
            return
        if epoch != state.ttc_epoch or not state.ttc_pending:
            return  # stale timer from an earlier arming
        if state.next_number != target or len(state.cutter) == 0:
            state.ttc_pending = False
            if len(state.cutter) > 0:
                # armed for a height that was cut meanwhile, but new
                # envelopes are waiting: re-arm for the current height
                self._arm_cut_timer(channel_id, state)
            return
        self.ttc_submitter(TimeToCut(channel_id=channel_id, target_height=target))
        # retry in case the TTC got lost (fire-and-forget submission)
        config = self._channel_configs[channel_id]
        state.ttc_epoch += 1
        self.sim.schedule(
            config.batch_timeout,
            self._maybe_submit_ttc,
            channel_id,
            target,
            state.ttc_epoch,
        )
