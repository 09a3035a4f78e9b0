"""The frontend / BFT shim (paper sections 5 and 5.1).

Frontends are part of the *peer* trust domain.  One :class:`Frontend`
serves every BFT ordering backend.  It owns what they share:

1. **ingress** -- the channel's AbsoluteMaxBytes ceiling, opt-in
   admission control with explicit :class:`Rejected` verdicts and the
   per-envelope-id window accounting -- after which the envelope goes
   to the backend's **relay**, a consensus client that never blocks on
   replies;
2. **acceptance** -- every block copy an ordering node sends back is
   offered to the backend's **acceptance rule**
   (:class:`MatchingCopies`, :class:`SignedQuorum`), which says when a
   block may be trusted;
3. **delivery** -- trusted blocks are released strictly in order to
   the committing peers attached to the frontend, folded into the
   ledger digest chain, and timed per envelope (the ordering latency
   Figures 8 and 9 plot).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyRegistry
from repro.fabric.api import BlockDelivery, SubmitEnvelope
from repro.fabric.block import Block
from repro.fabric.blockpolicy import valid_signers
from repro.fabric.envelope import Envelope, check_payload_size, payload_length
from repro.ordering.admission import AdmissionController, Rejected
from repro.sim.core import Simulator
from repro.sim.monitor import StatsRegistry
from repro.sim.network import Network
from repro.smart.view import View, byzantine_majority_size, one_correct_size


class MatchingCopies:
    """Trust a block once enough nodes sent matching copies of it.

    The paper's rule: frontends do not verify signatures, but ``2f+1``
    copies with the same header digest guarantee at least ``f+1`` valid
    signatures for the peers downstream, so the copies' signatures are
    merged onto the accepted block.  With ``verify_signatures`` each
    copy must carry its sender's valid signature and ``f+1`` matching
    copies suffice (footnote 8).
    """

    def __init__(
        self,
        f: int,
        registry: Optional[KeyRegistry] = None,
        verify_signatures: bool = False,
    ):
        self.f = f
        self.registry = registry
        self.verify_signatures = verify_signatures
        #: (channel, number) -> header digest -> sender -> copy
        self._copies: Dict[Tuple[str, int], Dict[bytes, Dict[str, Block]]] = {}

    @property
    def copies_needed(self) -> int:
        """2f+1 without signature verification, f+1 with (footnote 8)."""
        if self.verify_signatures:
            return one_correct_size(self.f)
        return byzantine_majority_size(self.f)

    def valid(self, source: str, block: Block) -> bool:
        if not self.verify_signatures:
            return True
        return self.registry is not None and bool(
            valid_signers(block, self.registry, (source,))
        )

    def offer(self, source: str, block: Block) -> Optional[Block]:
        key = (block.channel_id, block.header.number)
        by_digest = self._copies.get(key)
        if by_digest is None:
            by_digest = self._copies[key] = {}
        copies = by_digest.setdefault(block.header.digest(), {})
        copies[source] = block
        if len(copies) < self.copies_needed:
            return None
        del self._copies[key]
        merged: Optional[Block] = None
        for _, copy in sorted(copies.items()):
            if merged is None:
                merged = Block(
                    header=copy.header,
                    envelopes=copy.envelopes,
                    signatures=dict(copy.signatures),
                    channel_id=copy.channel_id,
                )
            else:
                merged.signatures.update(copy.signatures)
        return merged


class SignedQuorum:
    """Trust a single copy iff it carries a valid signature quorum.

    The SmartBFT rule (arXiv:2107.06922): the block's own metadata
    proves consensus, so dissemination drops from ``n`` full copies to
    one copy plus ``2f+1`` signatures (``docs/SMARTBFT.md`` quantifies
    this).  The quorum is the view's, so weighted memberships are
    judged by weight, not by count.
    """

    def __init__(
        self,
        view: View,
        registry: Optional[KeyRegistry],
        node_names: Mapping[int, str],
    ):
        self.view = view
        self.registry = registry
        self._id_by_name = {name: pid for pid, name in node_names.items()}

    def valid(self, source: str, block: Block) -> bool:
        if self.registry is None:
            return False
        ids = self._id_by_name
        return self.view.has_quorum(
            [ids[name] for name in valid_signers(block, self.registry, ids)]
        )

    def offer(self, source: str, block: Block) -> Optional[Block]:
        return block


class Frontend:
    """One ordering-service frontend.

    ``relay`` has the :class:`~repro.smart.proxy.ServiceProxy` surface
    the frontend and the observability hub use -- ``invoke_async(
    envelope, size_bytes=...)``, ``deliver(src, message)`` for whatever
    the cluster sends that is not a block, an ``obs`` slot: a BFT-SMaRt
    ``ServiceProxy`` itself (asynchronous invocation at every replica)
    or a SmartBFT :class:`~repro.smart2.relay.HomeNodeRelay` (one home
    node, rotation on timeout).  ``acceptance`` has ``valid(source,
    block)`` -- may this copy count at all -- and ``offer(source,
    block)``, which returns the block to deliver once the rule is
    satisfied and ``None`` until then.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: int,
        relay,
        acceptance,
        orderer_names: Optional[Set[str]] = None,
        stats: Optional[StatsRegistry] = None,
        max_envelope_bytes: Optional[Union[int, Mapping[str, int]]] = None,
        admission: Optional[AdmissionController] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.relay = relay
        self.acceptance = acceptance
        self.orderer_names = orderer_names or set()
        self.stats = stats or StatsRegistry()
        #: Fabric's AbsoluteMaxBytes ceiling -- one int for every
        #: channel or a per-channel mapping; None disables the check
        self.max_envelope_bytes = max_envelope_bytes
        #: opt-in backpressure (docs/WORKLOADS.md); None = relay all
        self.admission = admission
        #: envelope id -> admitted-but-uncommitted count (a duplicate
        #: flood admits one id many times; every admit holds a window
        #: slot) -- bounded by the admission window, O(in-flight)
        self._window_pending: Dict[int, int] = {}
        # instrument handles are resolved lazily on the first delivered
        # block (so registry contents match the uncached behaviour) and
        # then reused -- _record_stats runs once per block
        self._blocks_meter = None
        self._envelopes_meter = None
        self._latency_recorder = None
        self.peers: List[object] = []
        self.on_block: List[Callable[[Block], None]] = []
        self._next_expected: Dict[str, int] = {}
        #: blocks accepted but waiting for their predecessors
        self._ready: Dict[str, Dict[int, Block]] = {}
        self.envelopes_submitted = 0
        self.blocks_delivered = 0
        #: copies from ordering nodes the acceptance rule refused
        self.rejected_blocks = 0
        #: invariant probe (repro.faults): per-channel header digests of
        #: every block delivered, in delivery order
        self.delivered_digests: Dict[str, List[bytes]] = {}
        #: optional repro.obs.Observability hub (attached externally)
        self.obs = None

    def attach_peer(self, peer_id: object) -> None:
        if peer_id not in self.peers:
            self.peers.append(peer_id)

    # ------------------------------------------------------------------
    # client side: relay envelopes into the ordering cluster
    # ------------------------------------------------------------------
    def submit(self, envelope: Envelope) -> Optional[Rejected]:
        """Relay an envelope to the ordering cluster (fire-and-forget).

        Without an admission controller this raises
        :class:`~repro.fabric.envelope.OversizedPayloadError` when the
        payload exceeds the channel's AbsoluteMaxBytes ceiling --
        identically for real-bytes payloads and zero-copy handles --
        and returns ``None`` otherwise.  With admission control
        attached every refusal (oversized, rate-limited, window-full)
        becomes an explicit :class:`Rejected` verdict instead, and
        ``None`` means the envelope was admitted and relayed.
        """
        admission = self.admission
        ceiling = self.max_envelope_bytes
        if ceiling is not None:
            if not isinstance(ceiling, int):
                ceiling = ceiling.get(envelope.channel_id)
            if ceiling is not None:
                if admission is None:
                    check_payload_size(envelope.payload_ref(), ceiling)
                elif payload_length(envelope.payload_ref()) > ceiling:
                    return self._reject(
                        envelope, admission.reject_oversized(envelope.submitter)
                    )
        if admission is not None:
            verdict = admission.admit(envelope.submitter, self.sim.now)
            if verdict is not None:
                return self._reject(envelope, verdict)
            self._window_pending[envelope.envelope_id] = (
                self._window_pending.get(envelope.envelope_id, 0) + 1
            )
        if envelope.create_time is None:
            envelope.create_time = self.sim.now
        self.envelopes_submitted += 1
        if self.obs is not None:
            self.obs.on_submit(self.name, envelope, self.sim.now)
        self.relay.invoke_async(envelope, size_bytes=envelope.payload_size)
        return None

    def _reject(self, envelope: Envelope, verdict: Rejected) -> Rejected:
        if self.obs is not None:
            self.obs.on_reject(
                self.name, envelope.submitter, verdict.reason, self.sim.now
            )
        return verdict

    # ------------------------------------------------------------------
    # network delivery
    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if isinstance(message, SubmitEnvelope):
            self.submit(message.envelope)
        elif isinstance(message, BlockDelivery):
            self._on_block_copy(message.source, message.block)
        else:
            # anything else (e.g. BFT-SMaRt replies when the deployment
            # keeps them on) belongs to the consensus client
            self.relay.deliver(src, message)

    def _on_block_copy(self, source: str, block: Block) -> None:
        if self.orderer_names and source not in self.orderer_names:
            return
        acceptance = self.acceptance
        if not acceptance.valid(source, block):
            self.rejected_blocks += 1
            return
        channel = block.channel_id
        number = block.header.number
        if self.obs is not None:
            self.obs.on_block_copy(self.name, channel, number, self.sim.now)
        if number < self._next_expected.get(channel, 0):
            return  # already delivered (a late copy, a re-sync overlap)
        accepted = acceptance.offer(source, block)
        if accepted is None:
            return
        # deliver as soon as every predecessor has been delivered; a
        # block whose predecessor is still missing waits here
        ready = self._ready.get(channel)
        if ready is None:
            ready = self._ready[channel] = {}
        ready[number] = accepted
        while self._next_expected.get(channel, 0) in ready:
            next_number = self._next_expected.get(channel, 0)
            self._next_expected[channel] = next_number + 1
            self._deliver_block(ready.pop(next_number))

    def ledger_digest(self, channel: Optional[str] = None) -> bytes:
        """Running hash over the delivered block-digest chain.

        Two frontends that delivered the same blocks in the same order
        have equal digests -- on any backend, so cross-backend agreement
        can be asserted digest for digest -- which is the agreement
        invariant checked by :mod:`repro.faults.invariants`.
        """
        channels = (
            [channel] if channel is not None else sorted(self.delivered_digests)
        )
        acc = b""
        for name in channels:
            for digest in self.delivered_digests.get(name, []):
                acc = sha256("ledger", acc, name, digest)
        return acc

    def _deliver_block(self, block: Block) -> None:
        if self.admission is not None and self._window_pending:
            freed = 0
            for envelope in block.envelopes:
                freed += self._window_pending.pop(envelope.envelope_id, 0)
            if freed:
                self.admission.release(freed)
        self.blocks_delivered += 1
        if self.obs is not None:
            self.obs.on_block_delivered(self.name, block, self.sim.now)
        self.delivered_digests.setdefault(block.channel_id, []).append(
            block.header.digest()
        )
        self._record_stats(block)
        delivery = BlockDelivery(block=block, source=self.name)
        self.network.broadcast(self.name, self.peers, delivery, delivery.wire_size())
        for callback in self.on_block:
            callback(block)

    def _record_stats(self, block: Block) -> None:
        now = self.sim.now
        blocks = self._blocks_meter
        if blocks is None:
            blocks = self._blocks_meter = self.stats.meter(f"{self.name}.blocks")
            self._envelopes_meter = self.stats.meter(f"{self.name}.envelopes")
            self._latency_recorder = self.stats.latency(f"{self.name}.latency")
        blocks.record(now, 1.0)
        self._envelopes_meter.record(now, float(len(block.envelopes)))
        self._latency_recorder.extend(
            [
                now - envelope.create_time
                for envelope in block.envelopes
                if envelope.create_time is not None
            ]
        )
