"""The SmartBFT consensus client a frontend relays through.

Where a BFT-SMaRt frontend broadcasts every envelope to all replicas
through a :class:`~repro.smart.proxy.ServiceProxy` and is pushed ``n``
block copies, a SmartBFT frontend talks to ONE ordering node: it sends
requests to its *home* node (which forwards to the current leader) and
subscribes to that node's stream of decided blocks, each a single copy
whose signature quorum the frontend's acceptance rule,
:class:`~repro.fabric.blockpolicy.SignedQuorum` (the committing peers'
rule too), verifies.

Liveness against a crashed or censoring node comes from rotation: an
envelope not committed within ``request_timeout`` is resubmitted to the
next node, and a subscription that stops delivering while work is
outstanding fails over to the next node (re-synchronising through the
consensus sequence number).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.fabric.block import Block
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.smart.messages import ClientRequest, request_uids
from repro.smart.view import View
from repro.smart2.messages import Subscribe


class HomeNodeRelay:
    """Request rotation and subscription failover for one frontend.

    Presents the slice of the ``ServiceProxy`` surface a
    :class:`~repro.ordering.frontend.Frontend` uses; the deployment
    additionally appends :meth:`on_block` to the frontend's ``on_block``
    callbacks (so committed requests stop being retried) and calls
    :meth:`start` once the frontend is on the network.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        client_id: int,
        view: View,
        request_timeout: float = 2.0,
    ):
        self.sim = sim
        self.network = network
        self.client_id = client_id
        self.request_timeout = request_timeout
        #: hub slot every consensus client has; rotation emits no
        #: client-side metrics of its own
        self.obs = None

        self._nodes = list(view.processes)
        self._home_index = client_id % len(self._nodes)
        self._subscribed_index = self._home_index

        self._sequence = 0
        self._uids = request_uids(sim)
        #: rid -> (request, submitted_at, rotation offset)
        self._outstanding: Dict[Tuple[int, int], Tuple[ClientRequest, float, int]] = {}
        #: envelope id -> rids of every uncommitted request carrying it
        #: (a duplicate flood relays one id under many request ids)
        self._rids_by_env: Dict[int, List[Tuple[int, int]]] = {}
        self._delivered_count = 0
        self._last_delivery = 0.0
        self._timer_armed = False

        self.resubmissions = 0
        self.failovers = 0

    def start(self) -> None:
        """Open the block subscription (call after network registration);
        after a failover, re-open it at the next node."""
        subscribe = Subscribe(sender=self.client_id, next_seq=self._delivered_count)
        self.network.send(
            self.client_id,
            self._nodes[self._subscribed_index],
            subscribe,
            subscribe.wire_size(),
        )

    def invoke_async(self, operation: Any, size_bytes: int = 0) -> ClientRequest:
        """Send ``operation`` to the home node and track it until a
        delivered block carries it."""
        request = ClientRequest(
            client_id=self.client_id,
            sequence=self._sequence,
            operation=operation,
            size_bytes=size_bytes,
            submit_time=self.sim.now,
            uid=next(self._uids),
        )
        self._sequence += 1
        self._outstanding[request.request_id] = (request, self.sim.now, 0)
        self._rids_by_env.setdefault(operation.envelope_id, []).append(
            request.request_id
        )
        self.network.send(
            self.client_id,
            self._nodes[self._home_index],
            request,
            request.wire_size(),
        )
        self._arm_timer()
        return request

    def deliver(self, src, message) -> None:
        """SmartBFT nodes send a frontend nothing but blocks."""

    def on_block(self, block: Block) -> None:
        """A block was delivered in order: its envelopes are committed."""
        self._delivered_count += 1
        self._last_delivery = self.sim.now
        carried = self._rids_by_env.pop
        settle = self._outstanding.pop
        for envelope in block.envelopes:
            for rid in carried(envelope.envelope_id, ()):
                settle(rid, None)

    def _arm_timer(self) -> None:
        if self._timer_armed:
            return
        self._timer_armed = True
        self.sim.schedule(self.request_timeout, self._retry_tick)

    def _retry_tick(self) -> None:
        self._timer_armed = False
        if not self._outstanding:
            return
        now = self.sim.now
        n = len(self._nodes)
        for rid in sorted(self._outstanding):
            request, submitted_at, offset = self._outstanding[rid]
            if now - submitted_at < self.request_timeout:
                continue
            # rotate: a crashed or censoring node never commits it, the
            # next one forwards it to whichever leader is current
            offset += 1
            target = self._nodes[(self._home_index + offset) % n]
            self._outstanding[rid] = (request, now, offset)
            self.resubmissions += 1
            self.network.send(self.client_id, target, request, request.wire_size())
        if now - self._last_delivery > self.request_timeout:
            # the subscription went quiet while work is outstanding:
            # fail over to the next node and re-sync by sequence
            self._subscribed_index = (self._subscribed_index + 1) % n
            self.failovers += 1
            self.start()
        self._arm_timer()
