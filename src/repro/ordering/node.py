"""The BFT-SMaRt ordering node (paper section 5.1, Figure 5).

Each ordering node is the *application* running on top of a
:class:`~repro.smart.replica.ServiceReplica`: it feeds the stream of
totally-ordered envelopes and ``TimeToCut`` markers to the block
pipeline of :mod:`repro.ordering.blockcutter` (cut per channel,
assemble the next block sequentially, sign on a thread pool, send to
every registered frontend through the custom replier) and keeps what
is BFT-SMaRt's: execution results and the checkpoint state.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, List, Optional

from repro.crypto.keys import Identity
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.blockcutter import (
    BlockCutter,
    BlockWriter,
    ChainPosition,
    ChannelState,
    TimeToCut,
    TimeToCutMachine,
)
from repro.sim.core import Simulator
from repro.sim.cpu import CPU, ThreadPool
from repro.sim.monitor import MetricsRegistry
from repro.sim.network import Network
from repro.smart.messages import ClientRequest
from repro.smart.replica import StateMachine


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
        stats: Optional[MetricsRegistry] = None,
        ttc_submitter: Optional[Callable[[TimeToCut], None]] = None,
        double_sign: bool = False,
        net_id: Optional[object] = None,
    ):
        self.name = name
        self.frontends: List[object] = []
        if sign_cost is None:
            sign_cost = identity.signer.sign_cost
        # blocks leave from the replica's id (``net_id``), so dissemination
        # shares the machine's NIC; HLF 1.0 sometimes signs a block twice
        # (§6.1 footnote)
        self.writer = BlockWriter(
            sim, network, name, identity, self.frontends, net_id=net_id,
            signing_pool=ThreadPool(cpu, signing_workers) if cpu is not None else None,
            sign_cost=sign_cost * (2 if double_sign else 1), stats=stats, count_blocks=True,
        )
        self._channel_configs = dict(channels)
        self._channels: Dict[str, ChannelState] = {}
        self.reset()
        self.ttc = TimeToCutMachine(sim, self._channels, self.writer, ttc_submitter)
        #: the internal proxy TTCs go through, if the deployment gave
        #: the node one (its view follows membership)
        self.ttc_proxy = None
        #: the result of ordering an envelope, one shared read-only
        #: mapping per channel (results are compared and cached, never
        #: written)
        self._acks = {
            channel_id: MappingProxyType({"status": "ACK", "channel": channel_id})
            for channel_id in channels
        }
        self.envelopes_processed = 0

    @property
    def blocks_created(self) -> int:
        return self.writer.blocks_created

    @property
    def obs(self):
        """Optional repro.obs.Observability hub (attached externally)."""
        return self.writer.obs

    @obs.setter
    def obs(self, hub) -> None:
        self.writer.obs = hub

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
                results.append(self.ttc.on_ttc(operation))
                start += 1
            else:
                results.append({"status": "BAD_REQUEST"})
                start += 1
        return results

    def _order_run(self, channel_id: str, envelopes: List[Envelope]) -> List[Any]:
        """Order consecutive envelopes of one channel (one pass, see
        :meth:`TimeToCutMachine.order`)."""
        state = self._channels.get(channel_id)
        count = len(envelopes)
        if state is None:
            return [
                {"status": "NO_SUCH_CHANNEL", "channel": channel_id}
                for _ in range(count)
            ]
        self.envelopes_processed += count
        self.ttc.order(channel_id, state, envelopes)
        return [self._acks[channel_id]] * count

    def get_state(self) -> Any:
        """§5.2: just the next block number and previous header hash
        (plus the envelopes waiting in each cutter)."""
        return {
            channel_id: {
                "next_number": state.chain.number,
                "previous_hash": state.chain.previous_hash,
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
            state = ChannelState(
                cutter=BlockCutter(config),
                chain=ChainPosition(entry["next_number"], entry["previous_hash"]),
            )
            for envelope in entry["pending"]:
                state.cutter._pending.append(envelope)
                state.cutter._pending_bytes += envelope.payload_size
            # the replaced state's timer was armed for a chain that is gone;
            # the restored envelopes wait at most a timeout from here
            self._channels[channel_id].disarm()
            self._channels[channel_id] = state
            if len(state.cutter) > 0:
                self.ttc.arm(channel_id, state)

    def snapshot(self) -> Any:
        return self.get_state()

    def rollback(self, token: Any) -> None:
        self.set_state(token)

    def reset(self) -> None:
        """Forget all channel state (amnesiac restart zero point).

        ``set_state(None)`` is a no-op by contract, so rebuild every
        channel from its static config instead (in place: the TimeToCut
        machine reads this mapping), cancelling the forgotten timers."""
        for channel_id in sorted(self._channels):
            self._channels[channel_id].disarm()
        self._channels.clear()
        self._channels.update(
            {
                channel_id: ChannelState(cutter=BlockCutter(config))
                for channel_id, config in self._channel_configs.items()
            }
        )
