"""The SmartBFT-style ordering node (arXiv:2107.06922, simplified).

One class plays both roles that the paper's service splits between a
BFT-SMaRt replica and its ordering-node application: consensus runs
directly *on blocks*.

Protocol (PBFT-shaped, up to :data:`PROPOSAL_WINDOW` instances in
flight, decided in sequence order):

1. clients (frontends) submit requests to any node; non-leaders
   forward them to the current leader;
2. the leader runs the shared :class:`BlockCutter` and pre-prepares the
   next block (sequence number, channel position, batch), chained off
   its own last *proposed* header, while fewer than
   ``PROPOSAL_WINDOW`` of its proposals are undecided;
3. every node prepares (hash echo) a pre-prepare that chains off the
   one it accepted for the sequence before, and -- once a quorum
   prepared -- signs the block header and broadcasts the signature as
   its COMMIT vote;
4. ``2f+1`` valid COMMIT signatures decide the block, applied in
   sequence order; the collected votes *are* the block's signature
   quorum, and each subscribed frontend receives exactly one copy.

Leader rotation: the leader heartbeats (signed); followers suspect it
on heartbeat timeout or when a forwarded request is not committed in
time (censorship).  ``f+1`` suspicions amplify; ``2f+1`` signed
VIEW-CHANGE votes let the next leader install the view.  A deposed
leader suspected by ``f+1`` distinct voters is blacklisted for
``blacklist_window`` views and skipped by the rotation.  Prepared
certificates carried in VIEW-CHANGE votes -- one per prepared round of
the window -- are re-proposed by the new leader, which preserves safety
across views exactly as in PBFT.

Fault-injection surface mirrors :class:`repro.smart.replica.ServiceReplica`
(``crash``/``recover``/``faults``/``view``/``log``), so the explorer,
injector and invariant checkers drive both backends unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.crypto.hashing import sha256
from repro.crypto.keys import Identity, KeyRegistry
from repro.crypto.signatures import Verifier
from repro.fabric.api import BlockDelivery
from repro.fabric.block import (
    GENESIS_PREVIOUS_HASH,
    SHARED_DIGESTS,
    Block,
    BlockHeader,
    compute_data_hash,
)
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.blockcutter import BlockCutter
from repro.sim.core import Simulator
from repro.sim.cpu import CPU, ThreadPool
from repro.sim.monitor import MetricsRegistry
from repro.sim.network import Network
from repro.smart.durability import OperationLog
from repro.smart.messages import ClientRequest
from repro.smart.replica import FaultControls
from repro.smart.view import View, one_correct_size
from repro.smart2.messages import (
    BlockPull,
    BlockPush,
    Commit,
    Forward,
    Heartbeat,
    NewView,
    Preprepare,
    Prepare,
    Subscribe,
    ViewChange,
)

#: Decided blocks served per catch-up reply (the puller re-pulls).
CATCHUP_BATCH = 64

#: Proposals in flight: the leader proposes sequence ``s`` only while
#: ``s < next_commit_seq + PROPOSAL_WINDOW``, and a follower accepts a
#: pre-prepare only inside the same window (docs/SMARTBFT.md, "Proposal
#: window").  A protocol constant, not a deployment setting.
PROPOSAL_WINDOW = 8


@lru_cache(maxsize=SHARED_DIGESTS, typed=True)
def preprepare_payload(view_number: int, seq: int, header_digest: bytes) -> bytes:
    """What the leader signs over a pre-prepare.

    Looked up by its full content, like ``fabric/block.py::
    _header_digest``: the leader and every follower hash the same
    triple, one of them does.  A different body is a different key.
    """
    return sha256("smart2-preprepare", view_number, seq, header_digest)


@dataclass
class SmartFaultControls(FaultControls):
    """Byzantine switches of a SmartBFT node.

    Adds leader-side *censorship* to the shared controls: a censoring
    leader silently drops requests (direct or forwarded) from the
    client ids in ``censor_clients``.
    """

    censor_clients: Set[int] = field(default_factory=set)

    def reset(self) -> None:
        super().reset()
        self.censor_clients = set()


@dataclass
class _ChainState:
    """Per-channel block chain position (tiny, like the paper's §5.2):
    the committed one, and the one the next accepted pre-prepare takes
    (the latest accepted header in the window, else the committed)."""

    cutter: BlockCutter
    next_number: int = 0
    previous_hash: bytes = GENESIS_PREVIOUS_HASH
    tip_number: int = 0
    tip_hash: bytes = GENESIS_PREVIOUS_HASH

    def rewind(self) -> None:
        """Drop the accepted, undecided headers from the tip."""
        self.tip_number = self.next_number
        self.tip_hash = self.previous_hash


@dataclass
class _Round:
    """Consensus state for one sequence number in the current view.

    Votes are tallied as they are recorded: beside each digest's voters
    runs the summed weight of those voters, added to exactly when a
    *new* voter is recorded, so a quorum test is one comparison
    (docs/SMARTBFT.md, "Vote accounting").
    """

    preprepare: Optional[Preprepare] = None
    header: Optional[BlockHeader] = None
    #: ``header.digest()``, stored when the pre-prepare is accepted
    digest: Optional[bytes] = None
    #: header digest -> distinct prepare voters
    prepares: Dict[bytes, Set[int]] = field(default_factory=dict)
    #: header digest -> summed weight of ``prepares[digest]``
    prepare_weight: Dict[bytes, float] = field(default_factory=dict)
    #: header digest -> {voter: header signature}
    commits: Dict[bytes, Dict[int, bytes]] = field(default_factory=dict)
    #: header digest -> summed weight of ``commits[digest]``'s voters
    commit_weight: Dict[bytes, float] = field(default_factory=dict)
    prepared: bool = False
    prepared_voters: Tuple[int, ...] = ()
    committed: bool = False


@dataclass
class _Decision:
    """One decided block, with its quorum signatures and raw batch."""

    seq: int
    channel_id: str
    block: Block
    batch: List[ClientRequest]


class SmartBFTNode:
    """One member of the SmartBFT-style ordering cluster."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        replica_id: int,
        name: str,
        identity: Identity,
        registry: KeyRegistry,
        membership: View,
        channels: Dict[str, ChannelConfig],
        peer_names: Dict[int, str],
        log: Optional[OperationLog] = None,
        cpu: Optional[CPU] = None,
        signing_workers: int = 16,
        sign_cost: Optional[float] = None,
        stats: Optional[MetricsRegistry] = None,
        request_timeout: float = 2.0,
        heartbeat_interval: float = 0.5,
        blacklist_window: Optional[int] = None,
    ):
        self.sim = sim
        self.network = network
        self.replica_id = replica_id
        self.name = name
        self.identity = identity
        self.registry = registry
        #: the replica-group membership (``view`` by injector convention;
        #: the *view number* of the rotation protocol is ``view_number``)
        self.view = membership
        self.view_number = 0
        self.peer_names = dict(peer_names)
        #: pid -> verifier, filled on first use.  ``peer_names`` is fixed
        #: at construction and the registry only ever enrolls, so an
        #: entry never goes stale; a pid that does not resolve *yet* is
        #: not remembered (peers enroll after this node is built)
        self._verifiers: Dict[int, Verifier] = {}
        self.log = log if log is not None else OperationLog()
        self.cpu = cpu
        self.signing_pool = ThreadPool(cpu, signing_workers) if cpu else None
        self.sign_cost = (
            sign_cost if sign_cost is not None else identity.signer.sign_cost
        )
        self.stats = stats
        self.request_timeout = request_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = max(heartbeat_interval * 4, request_timeout)
        self.blacklist_window = (
            blacklist_window if blacklist_window is not None else membership.n
        )
        self.faults = SmartFaultControls()
        self.crashed = False
        self.obs = None

        self._channels: Dict[str, _ChainState] = {
            channel_id: _ChainState(cutter=BlockCutter(config))
            for channel_id, config in channels.items()
        }
        self._channel_configs = dict(channels)
        self._others: List[int] = [
            p for p in membership.processes if p != replica_id
        ]

        # consensus state
        self._rounds: Dict[int, _Round] = {}
        self.next_commit_seq = 0
        self._decisions: List[_Decision] = []
        #: request ids of committed batches and of the batches accepted in
        #: the window (the replay check): the accepted ones leave it only
        #: with their rounds, at a view install or a diverging catch-up
        self._ordered_ids: Set[Tuple[int, int]] = set()
        #: the sequence number the next accepted pre-prepare carries:
        #: pre-prepares are accepted in sequence order, the leader's own
        #: included, so the proposing/accepted rounds are
        #: ``[next_commit_seq, _next_accept)``
        self._next_accept = 0
        #: seq -> a pre-prepare waiting for its predecessor's
        self._held: Dict[int, Preprepare] = {}

        # request bookkeeping
        self._pending: Dict[Tuple[int, int], Tuple[ClientRequest, float]] = {}
        #: cut batches waiting for room in the proposal window
        self._batch_queue: Deque[Tuple[str, List[ClientRequest]]] = deque()
        #: envelope id -> ingested requests carrying it, oldest first (a
        #: client may submit one id under several request ids)
        self._req_by_env: Dict[int, Deque[ClientRequest]] = {}
        self._leader_seen: Set[Tuple[int, int]] = set()

        # view change state
        self._changing = False
        self._change_started = 0.0
        self._highest_vc_sent = 0
        self._view_changes: Dict[int, Dict[int, ViewChange]] = {}
        self._blacklist: Dict[int, int] = {}
        #: ``leader`` is ``leader_for(view_number)`` and ``is_leader``
        #: whether that is this node and no view change is running --
        #: read on every request, vote and timer tick, so both are plain
        #: attributes resolved where ``view_number``, ``_blacklist`` or
        #: ``_changing`` is assigned
        self._resolve_leader()
        self._last_new_view: Optional[NewView] = None
        self._last_leader_alive = 0.0
        #: (leader, view) per installed view -- property-test probe
        self.installed_views: List[Tuple[int, int]] = [(self.leader, 0)]
        #: (replica, from_view, until_view) per adopted blacklist entry
        self.blacklist_events: List[Tuple[int, int, int]] = []

        # subscribers: frontend id -> next decision index to send
        self._subscribers: Dict[Any, int] = {}
        #: the push order, re-sorted when a frontend subscribes
        self._subscriber_order: List[Any] = []
        #: this node's (blocks, envelopes) meters, looked up at the first
        #: decision (so the registry's creation order is what it was)
        self._meters: Optional[Tuple[Any, Any]] = None

        # counters
        self.blocks_created = 0
        self.envelopes_processed = 0
        self.view_changes_sent = 0

        self._timer_epoch = 0
        self._cut_epoch = 0
        self._cut_armed: Set[str] = set()
        self._amnesia_pending = False
        self._arm_watchdog()
        if self.is_leader:
            self._arm_heartbeat()

    # ------------------------------------------------------------------
    # leadership and blacklisting
    # ------------------------------------------------------------------
    def _blacklisted(self, pid: int, view_number: int, blacklist=None) -> bool:
        until = (blacklist if blacklist is not None else self._blacklist).get(pid)
        return until is not None and view_number < until

    def leader_for(self, view_number: int, blacklist=None) -> int:
        """Round-robin over the membership, skipping blacklisted nodes.

        Falls back to the raw rotation slot if every member is
        blacklisted (cannot happen with ``f+1``-vote blacklisting and
        at most ``f`` Byzantine nodes, but keeps the function total).
        """
        processes = self.view.processes
        n = len(processes)
        start = view_number % n
        for k in range(n):
            candidate = processes[(start + k) % n]
            if not self._blacklisted(candidate, view_number, blacklist):
                return candidate
        return processes[start]

    def _resolve_leader(self) -> None:
        """Re-derive :attr:`leader` / :attr:`is_leader`; call wherever
        ``view_number``, ``_blacklist`` or ``_changing`` is assigned."""
        self.leader = self.leader_for(self.view_number)
        self.is_leader = self.leader == self.replica_id and not self._changing

    # ------------------------------------------------------------------
    # wire helpers
    # ------------------------------------------------------------------
    def _send(self, dst: Any, message: Any) -> None:
        if self.faults.mute:
            return
        self.network.send(self.replica_id, dst, message, message.wire_size())

    def _broadcast(self, message: Any) -> None:
        if self.faults.mute:
            return
        self.network.broadcast(
            self.replica_id, self._others, message, message.wire_size()
        )

    def _verifier_of(self, pid: int) -> Optional[Verifier]:
        verifier = self._verifiers.get(pid)
        if verifier is None:
            name = self.peer_names.get(pid)
            if name is None or name not in self.registry:
                return None
            verifier = self._verifiers[pid] = self.registry.verifier_of(name)
        return verifier

    # ------------------------------------------------------------------
    # crash / recovery (fault-injection surface)
    # ------------------------------------------------------------------
    def crash(self, amnesia: bool = False) -> None:
        if self.crashed:
            return
        self.crashed = True
        self._timer_epoch += 1
        if amnesia:
            self._amnesia_pending = True
        self.network.crash(self.replica_id)

    def recover(self) -> None:
        if not self.crashed:
            return
        self.crashed = False
        self.network.recover(self.replica_id)
        if self._amnesia_pending:
            self._amnesia_pending = False
            self._reset_to_genesis()
        self._timer_epoch += 1
        self._cut_epoch += 1
        self._cut_armed.clear()
        # grace period before suspecting anyone, then resume timers
        self._last_leader_alive = self.sim.now
        self._changing = False
        self._resolve_leader()
        self._arm_watchdog()
        if self.is_leader:
            self._arm_heartbeat()
        # catch up on decisions (and the latest NewView) from the peers
        self._broadcast(BlockPull(sender=self.replica_id, from_seq=self.next_commit_seq))

    def _reset_to_genesis(self) -> None:
        """Amnesiac restart: drop volatile state, rejoin via catch-up.

        The rebuilt history comes from peers' signed decisions (state
        transfer), so the durable log is cleared and regrows in commit
        order as :class:`BlockPush` catch-up re-applies each decision.
        """
        self._channels = {
            channel_id: _ChainState(cutter=BlockCutter(config))
            for channel_id, config in self._channel_configs.items()
        }
        self._rounds = {}
        self.next_commit_seq = 0
        self._next_accept = 0
        self._decisions = []
        self._ordered_ids = set()
        self._held = {}
        self._pending = {}
        self._batch_queue = deque()
        self._req_by_env = {}
        self._leader_seen = set()
        self._view_changes = {}
        self._subscribers = {}
        self._subscriber_order = []
        self.log.clear()

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def deliver(self, src: Any, message: Any) -> None:
        if self.crashed:
            return
        kind = message.__class__
        # votes first: at n nodes a block is 2(n-1) of them per node
        if kind is Prepare:
            self._on_prepare(src, message)
        elif kind is Commit:
            self.on_commit(src, message)
        elif kind is ClientRequest:
            self._on_request(message, forwarded=False)
        elif kind is Forward:
            self._on_request(message.request, forwarded=True)
        elif kind is Preprepare:
            self.on_preprepare(src, message)
        elif kind is Heartbeat:
            self.on_heartbeat(src, message)
        elif kind is ViewChange:
            self.on_viewchange(src, message)
        elif kind is NewView:
            self.on_newview(src, message)
        elif kind is BlockPull:
            self._on_blockpull(src, message)
        elif kind is BlockPush:
            self.on_blockpush(src, message)
        elif kind is Subscribe:
            self._on_subscribe(src, message)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def _on_request(self, request: ClientRequest, forwarded: bool) -> None:
        if self.faults.censor_clients and request.client_id in self.faults.censor_clients:
            return  # Byzantine leader-side censorship
        rid = request.request_id
        if rid in self._ordered_ids and self._is_committed(rid):
            return
        if rid not in self._pending:
            self._pending[rid] = (request, self.sim.now)
        if self.is_leader:
            self._leader_ingest(request)
        elif not forwarded:
            self._send(self.leader, Forward(sender=self.replica_id, request=request))

    def _is_committed(self, rid: Tuple[int, int]) -> bool:
        """Whether ``rid``, known to be in ``_ordered_ids``, is in a
        committed batch rather than an accepted one in the window."""
        rounds = self._rounds
        for seq in range(self.next_commit_seq, self._next_accept):
            for request in rounds[seq].preprepare.batch:
                if request.request_id == rid:
                    return False
        return True

    def _leader_ingest(self, request: ClientRequest) -> None:
        rid = request.request_id
        if rid in self._leader_seen or (
            rid in self._ordered_ids and self._is_committed(rid)
        ):
            return
        envelope = request.operation
        if not isinstance(envelope, Envelope):
            return
        state = self._channels.get(envelope.channel_id)
        if state is None:
            return
        self._leader_seen.add(rid)
        waiting = self._req_by_env.get(envelope.envelope_id)
        if waiting is None:
            waiting = self._req_by_env[envelope.envelope_id] = deque()
        waiting.append(request)
        self.envelopes_processed += 1
        batches = state.cutter.ordered(envelope)
        for batch in batches:
            self._enqueue_batch(envelope.channel_id, batch)
        if len(state.cutter) > 0:
            self._arm_cut_timer(envelope.channel_id)
        if self._batch_queue:
            self._maybe_propose()

    def _enqueue_batch(self, channel_id: str, batch: List[Envelope]) -> None:
        if not batch:
            return
        requests = []
        for envelope in batch:
            waiting = self._req_by_env[envelope.envelope_id]
            requests.append(waiting.popleft())
            if not waiting:
                del self._req_by_env[envelope.envelope_id]
        self._batch_queue.append((channel_id, requests))

    def _arm_cut_timer(self, channel_id: str) -> None:
        if channel_id in self._cut_armed:
            return
        self._cut_armed.add(channel_id)
        config = self._channel_configs[channel_id]
        self.sim.schedule(
            config.batch_timeout, self._timeout_cut, channel_id, self._cut_epoch
        )

    def _timeout_cut(self, channel_id: str, epoch: int) -> None:
        if epoch != self._cut_epoch or self.crashed:
            return
        self._cut_armed.discard(channel_id)
        if not self.is_leader:
            return
        state = self._channels[channel_id]
        if len(state.cutter) > 0:
            self._enqueue_batch(channel_id, state.cutter.cut())
            self._maybe_propose()

    # ------------------------------------------------------------------
    # consensus: propose
    # ------------------------------------------------------------------
    def _maybe_propose(self) -> None:
        """Propose queued batches while the window has room."""
        while (
            self._batch_queue
            and self._next_accept < self.next_commit_seq + PROPOSAL_WINDOW
            and self.is_leader
            and not self.crashed
        ):
            channel_id, batch = self._batch_queue.popleft()
            self._propose(channel_id, batch)

    def _propose(self, channel_id: str, batch: List[ClientRequest]) -> None:
        """Pre-prepare ``batch`` at the next sequence number, chained off
        this node's last proposed header on the channel."""
        seq = self._next_accept
        state = self._channels[channel_id]
        message = Preprepare(
            sender=self.replica_id,
            view_number=self.view_number,
            seq=seq,
            channel_id=channel_id,
            number=state.tip_number,
            previous_hash=state.tip_hash,
            batch=batch,
        )
        header = BlockHeader(
            number=message.number,
            previous_hash=message.previous_hash,
            data_hash=compute_data_hash([r.operation for r in batch]),
        )
        message.signature = self.identity.sign(
            preprepare_payload(message.view_number, seq, header.digest())
        )
        if self.obs is not None:
            self.obs.on_block_cut(
                self.name,
                Block(header=header, envelopes=[r.operation for r in batch],
                      channel_id=channel_id),
                self.sim.now,
            )
        self._broadcast(message)
        self._accept_preprepare(message, header, state, [r.request_id for r in batch])

    def on_preprepare(self, src: int, msg: Preprepare) -> None:
        if self._changing or msg.view_number != self.view_number:
            return
        if msg.sender != src or src != self.leader:
            return
        seq = msg.seq
        if seq != self._next_accept:
            if seq >= self.next_commit_seq + PROPOSAL_WINDOW:
                # we are behind: fetch the decided prefix from the leader
                self._send(src, BlockPull(
                    sender=self.replica_id, from_seq=self.next_commit_seq
                ))
            elif seq > self._next_accept and seq not in self._held:
                # the predecessor's pre-prepare is late or lost: hold this
                # one until it is accepted, and pull in case it was decided
                if self._verified_header(msg) is not None:
                    self._held[seq] = msg
                    self._send(src, BlockPull(
                        sender=self.replica_id, from_seq=self.next_commit_seq
                    ))
            return
        state = self._channels.get(msg.channel_id)
        if state is None:
            return
        if msg.number != state.tip_number or msg.previous_hash != state.tip_hash:
            return
        if not msg.batch:
            return
        rids = [r.request_id for r in msg.batch]
        if not self._ordered_ids.isdisjoint(rids):
            return  # replayed request: an honest leader never does this
        header = self._verified_header(msg)
        if header is None:
            return
        self._accept_preprepare(msg, header, state, rids)

    def _verified_header(self, msg: Preprepare) -> Optional[BlockHeader]:
        """The header ``msg`` pre-prepares, if its sender signed it."""
        verifier = self._verifier_of(msg.sender)
        if verifier is None:
            return None
        header = BlockHeader(
            number=msg.number,
            previous_hash=msg.previous_hash,
            data_hash=compute_data_hash([r.operation for r in msg.batch]),
        )
        if not verifier.verify(
            preprepare_payload(msg.view_number, msg.seq, header.digest()),
            msg.signature,
        ):
            return None
        return header

    def _accept_preprepare(
        self, msg: Preprepare, header: BlockHeader, state: _ChainState,
        rids: List[Tuple[int, int]],
    ) -> None:
        seq = msg.seq
        round_ = self._rounds.get(seq)
        if round_ is None:
            round_ = self._rounds[seq] = _Round()
        round_.preprepare = msg
        round_.header = header
        digest = round_.digest = header.digest()
        state.tip_number = header.number + 1
        state.tip_hash = digest
        self._next_accept = seq + 1
        self._ordered_ids.update(rids)
        delay = self.log.log_write(seq, msg.view_number, digest)
        prepare = Prepare(
            sender=self.replica_id,
            view_number=msg.view_number,
            seq=seq,
            header_digest=digest,
        )
        if delay > 0:
            self.sim.schedule(delay, self._send_prepare, prepare, self._timer_epoch)
        else:
            self._send_prepare(prepare, self._timer_epoch)
        if self._held:
            self._release_held(seq + 1)

    def _drop_accepted(self) -> None:
        """Forget the accepted, undecided rounds: their requests leave the
        replay check, and the next pre-prepare chains off committed state."""
        for seq in range(self.next_commit_seq, self._next_accept):
            self._ordered_ids.difference_update(
                [r.request_id for r in self._rounds.pop(seq).preprepare.batch]
            )
        self._next_accept = self.next_commit_seq
        for state in self._channels.values():
            state.rewind()

    def _release_held(self, seq: int) -> None:
        held = self._held.pop(seq, None)
        if held is not None:
            self.on_preprepare(held.sender, held)

    def _send_prepare(self, prepare: Prepare, epoch: int) -> None:
        if epoch != self._timer_epoch or self.crashed:
            return
        if self._changing or prepare.view_number != self.view_number:
            return
        self._broadcast(prepare)
        self._tally_prepare(self.replica_id, prepare)

    def _on_prepare(self, src: int, msg: Prepare) -> None:
        if self._changing or msg.view_number != self.view_number:
            return
        if msg.sender != src:
            return
        self._tally_prepare(src, msg)

    def _tally_prepare(self, src: int, msg: Prepare) -> None:
        """Count one PREPARE (a peer's or this node's own); the vote
        that completes the quorum for the accepted header signs it."""
        seq = msg.seq
        if seq < self.next_commit_seq:
            return
        round_ = self._rounds.get(seq)
        if round_ is None:
            round_ = self._rounds[seq] = _Round()
        voted = msg.header_digest
        voters = round_.prepares.get(voted)
        if voters is None:
            voters = round_.prepares[voted] = set()
        if src not in voters:
            voters.add(src)
            weights = round_.prepare_weight
            weights[voted] = weights.get(voted, 0.0) + self.view.weights.get(src, 0.0)
        # the test is about the *accepted* header whatever this vote
        # named: votes may have arrived before the pre-prepare did
        digest = round_.digest
        if (
            round_.prepared
            or digest is None
            or not self.view.is_quorum_weight(round_.prepare_weight.get(digest, 0.0))
        ):
            return
        round_.prepared = True
        round_.prepared_voters = tuple(sorted(round_.prepares[digest]))
        delay = self.log.log_accept(seq, self.view_number, digest)
        view_number = self.view_number
        if self.signing_pool is not None and self.sign_cost > 0:
            self.signing_pool.submit(
                self.sign_cost,
                self._sign_and_commit,
                seq,
                view_number,
                digest,
                activity="sign",
            )
        elif delay > 0:
            self.sim.schedule(
                delay, self._sign_and_commit, seq, view_number, digest
            )
        else:
            self._sign_and_commit(seq, view_number, digest)

    def _sign_and_commit(self, seq: int, view_number: int, digest: bytes) -> None:
        if self.crashed or view_number != self.view_number or self._changing:
            return
        signature = self.identity.sign(digest)
        commit = Commit(
            sender=self.replica_id,
            view_number=view_number,
            seq=seq,
            header_digest=digest,
            signature=signature,
        )
        self._broadcast(commit)
        if seq >= self.next_commit_seq:  # else decided while the pool signed
            self._tally_commit(self.replica_id, commit)

    def on_commit(self, src: int, msg: Commit) -> None:
        if self._changing or msg.view_number != self.view_number:
            return
        if msg.sender != src or msg.seq < self.next_commit_seq:
            return
        verifier = self._verifier_of(src)
        if verifier is None or not verifier.verify(msg.header_digest, msg.signature):
            return
        self._tally_commit(src, msg)

    def _tally_commit(self, src: int, msg: Commit) -> None:
        """Count one verified COMMIT signature (a peer's or this node's
        own); the vote that completes the quorum decides the block."""
        round_ = self._rounds.get(msg.seq)
        if round_ is None:
            round_ = self._rounds[msg.seq] = _Round()
        voted = msg.header_digest
        votes = round_.commits.get(voted)
        if votes is None:
            votes = round_.commits[voted] = {}
        if src not in votes:
            weights = round_.commit_weight
            weights[voted] = weights.get(voted, 0.0) + self.view.weights.get(src, 0.0)
        votes[src] = msg.signature
        digest = round_.digest
        if (
            round_.committed
            or digest is None
            or not self.view.is_quorum_weight(round_.commit_weight.get(digest, 0.0))
        ):
            return
        round_.committed = True
        self._apply_ready_decisions()

    def _apply_ready_decisions(self) -> None:
        while True:
            round_ = self._rounds.get(self.next_commit_seq)
            if round_ is None or not round_.committed:
                break
            seq = self.next_commit_seq
            msg = round_.preprepare
            names = self.peer_names
            signatures = {
                names[voter]: sig
                for voter, sig in sorted(round_.commits[round_.digest].items())
                if voter in names
            }
            block = Block(
                header=round_.header,
                envelopes=[r.operation for r in msg.batch],
                signatures=signatures,
                channel_id=msg.channel_id,
            )
            del self._rounds[seq]
            self._commit_decision(
                _Decision(seq=seq, channel_id=msg.channel_id, block=block,
                          batch=list(msg.batch))
            )

    def _commit_decision(self, decision: _Decision) -> None:
        """Apply one decided block (from consensus or catch-up)."""
        state = self._channels[decision.channel_id]
        state.next_number = decision.block.header.number + 1
        state.previous_hash = decision.block.header.digest()
        self.log.append(decision.seq, decision.batch)
        self.next_commit_seq = decision.seq + 1
        if self._next_accept < self.next_commit_seq:
            # caught up past what this node accepted: chain off the decided
            self._drop_accepted()
        self._decisions.append(decision)
        self.blocks_created += 1
        rids = [request.request_id for request in decision.batch]
        if self._leader_seen:
            self._leader_seen.difference_update(rids)
        settle = self._pending.pop
        for rid in rids:
            settle(rid, None)
        if self.obs is not None:
            self.obs.on_block_signed(
                self.name, decision.block, self.sim.now, self.sim.now
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
            meters[1].record(now, float(len(decision.block.envelopes)))
        self._push_to_subscribers()
        if self._batch_queue:
            self._maybe_propose()

    # ------------------------------------------------------------------
    # dissemination: one signed copy per subscriber
    # ------------------------------------------------------------------
    def _push_to_subscribers(self) -> None:
        if self.faults.mute:
            return
        total = len(self._decisions)
        for frontend_id in self._subscriber_order:
            cursor = self._subscribers[frontend_id]
            while cursor < total:
                decision = self._decisions[cursor]
                delivery = BlockDelivery(block=decision.block, source=self.name)
                self.network.send(
                    self.replica_id, frontend_id, delivery, delivery.wire_size()
                )
                cursor += 1
            self._subscribers[frontend_id] = cursor

    def _on_subscribe(self, src: Any, msg: Subscribe) -> None:
        self._subscribers[src] = min(max(msg.next_seq, 0), len(self._decisions))
        self._subscriber_order = sorted(self._subscribers, key=repr)
        self._push_to_subscribers()

    # ------------------------------------------------------------------
    # heartbeats and failure detection
    # ------------------------------------------------------------------
    def _arm_heartbeat(self) -> None:
        self.sim.schedule(
            self.heartbeat_interval, self._heartbeat_tick, self._timer_epoch
        )

    def _heartbeat_tick(self, epoch: int) -> None:
        if epoch != self._timer_epoch or self.crashed:
            return
        if not self.is_leader:
            return
        beat = Heartbeat(
            sender=self.replica_id,
            view_number=self.view_number,
            seq=self.next_commit_seq,
            signature=b"",
        )
        beat.signature = self.identity.sign(beat.signing_payload())
        self._broadcast(beat)
        self._arm_heartbeat()

    def on_heartbeat(self, src: int, msg: Heartbeat) -> None:
        if msg.sender != src:
            return
        verifier = self._verifier_of(src)
        if verifier is None or not verifier.verify(msg.signing_payload(), msg.signature):
            return
        if msg.view_number == self.view_number and src == self.leader:
            self._last_leader_alive = self.sim.now
        if msg.view_number > self.view_number or msg.seq > self.next_commit_seq:
            # behind on views and/or decisions: pull (the reply also
            # retransmits the latest NewView)
            self._send(src, BlockPull(sender=self.replica_id,
                                      from_seq=self.next_commit_seq))

    def _arm_watchdog(self) -> None:
        self.sim.schedule(
            self.heartbeat_interval, self._watchdog_tick, self._timer_epoch
        )

    def _watchdog_tick(self, epoch: int) -> None:
        if epoch != self._timer_epoch or self.crashed:
            return
        now = self.sim.now
        if not self._changing and not self.is_leader:
            if now - self._last_leader_alive > self.heartbeat_timeout:
                self._suspect("timeout")
            elif self._pending:
                oldest = min(arrived for _req, arrived in self._pending.values())
                if now - oldest > 2 * self.request_timeout:
                    self._suspect("censorship")
                elif now - oldest > self.request_timeout:
                    # retry before escalating: the forward may have been lost
                    for rid in sorted(self._pending):
                        request, _arrived = self._pending[rid]
                        self._send(
                            self.leader,
                            Forward(sender=self.replica_id, request=request),
                        )
        elif self._changing and now - self._change_started > self.heartbeat_timeout:
            # the view change itself stalled (e.g. next leader crashed):
            # escalate to the view after the highest one we voted for
            self._suspect("stalled-change")
        if self.is_leader and self._pending and not self._changing:
            # a leader with pending-but-uncut requests nudges its cutter
            for channel_id in sorted(self._channels):
                if len(self._channels[channel_id].cutter) > 0:
                    self._arm_cut_timer(channel_id)
        self._arm_watchdog()

    # ------------------------------------------------------------------
    # view change
    # ------------------------------------------------------------------
    def _suspect(self, reason: str) -> None:
        if self.crashed:
            return
        target = max(self.view_number, self._highest_vc_sent) + 1
        self._vote_view_change(target, reason)

    def _vote_view_change(self, target: int, reason: str) -> None:
        self._changing = True
        self._resolve_leader()
        self._change_started = self.sim.now
        self._highest_vc_sent = target
        certificates = []
        for seq in range(self.next_commit_seq, self._next_accept):
            round_ = self._rounds[seq]
            if round_.prepared:
                certificates.append((round_.preprepare, round_.prepared_voters))
        vote = ViewChange(
            sender=self.replica_id,
            new_view=target,
            last_seq=self.next_commit_seq - 1,
            suspected=self.leader,
            reason=reason,
            prepared=certificates[0] if certificates else None,
            prepared_after=tuple(certificates[1:]),
        )
        vote.signature = self.identity.sign(vote.signing_payload())
        self.view_changes_sent += 1
        self._broadcast(vote)
        self._store_view_change(vote)

    def on_viewchange(self, src: int, msg: ViewChange) -> None:
        if msg.sender != src:
            return
        verifier = self._verifier_of(src)
        if verifier is None or not verifier.verify(msg.signing_payload(), msg.signature):
            return
        if msg.new_view <= self.view_number:
            # stale voter: help it catch up with the latest installed view
            if self._last_new_view is not None:
                self._send(src, self._last_new_view)
            return
        self._store_view_change(msg)

    def _store_view_change(self, msg: ViewChange) -> None:
        votes = self._view_changes.setdefault(msg.new_view, {})
        votes[msg.sender] = msg
        # f+1 amplification: join the highest view change a correct
        # node could be driving, even without local suspicion
        if not self._changing:
            joinable = [
                view
                for view, view_votes in sorted(self._view_changes.items())
                if view > self.view_number
                and len(view_votes) >= one_correct_size(self.view.f)
            ]
            if joinable:
                self._vote_view_change(max(joinable), "amplified")
                return
        self._try_lead(msg.new_view)

    def _blacklist_additions(
        self, votes: Dict[int, ViewChange], new_view: int
    ) -> Dict[int, int]:
        """Ids suspected by at least ``f+1`` distinct voters."""
        counts: Dict[int, int] = {}
        for sender in sorted(votes):
            suspected = votes[sender].suspected
            counts[suspected] = counts.get(suspected, 0) + 1
        threshold = one_correct_size(self.view.f)
        return {
            pid: new_view + self.blacklist_window
            for pid, count in sorted(counts.items())
            if count >= threshold
        }

    def _merged_blacklist(self, additions: Dict[int, int], new_view: int) -> Dict[int, int]:
        merged = {
            pid: until
            for pid, until in sorted(self._blacklist.items())
            if new_view < until
        }
        merged.update(additions)
        return merged

    def _try_lead(self, new_view: int) -> None:
        """Install + announce ``new_view`` if we are its rightful leader."""
        if new_view <= self.view_number:
            return
        votes = self._view_changes.get(new_view, {})
        if not self.view.has_quorum(votes.keys()):
            return
        additions = self._blacklist_additions(votes, new_view)
        merged = self._merged_blacklist(additions, new_view)
        if self.leader_for(new_view, merged) != self.replica_id:
            return
        last_seq = max(votes[sender].last_seq for sender in sorted(votes))
        if last_seq >= self.next_commit_seq:
            # we are missing decided blocks: catch up first, then retry
            # (the catch-up apply loop re-invokes _try_lead)
            best = max(
                sorted(votes),
                key=lambda sender: (votes[sender].last_seq, -sender),
            )
            self._send(best, BlockPull(sender=self.replica_id,
                                       from_seq=self.next_commit_seq))
            return
        proof = tuple(votes[sender] for sender in sorted(votes))
        announcement = NewView(
            sender=self.replica_id,
            new_view=new_view,
            proof=proof,
            blacklist=tuple(sorted(merged.items())),
        )
        announcement.signature = self.identity.sign(announcement.signing_payload())
        self._broadcast(announcement)
        self._install_view(announcement)

    def on_newview(self, src: int, msg: NewView) -> None:
        if msg.sender != src or msg.new_view <= self.view_number:
            return
        verifier = self._verifier_of(src)
        if verifier is None or not verifier.verify(msg.signing_payload(), msg.signature):
            return
        voters = set()
        for vote in msg.proof:
            if vote.new_view != msg.new_view:
                return
            vote_verifier = self._verifier_of(vote.sender)
            if vote_verifier is None or not vote_verifier.verify(
                vote.signing_payload(), vote.signature
            ):
                return
            voters.add(vote.sender)
        if not self.view.has_quorum(voters):
            return
        blacklist = dict(msg.blacklist)
        if self.leader_for(msg.new_view, blacklist) != msg.sender:
            return
        self._install_view(msg)

    def _install_view(self, msg: NewView) -> None:
        previous_blacklist = dict(self._blacklist)
        self.view_number = msg.new_view
        self._blacklist = dict(msg.blacklist)
        for pid, until in sorted(self._blacklist.items()):
            if previous_blacklist.get(pid) != until:
                self.blacklist_events.append((pid, msg.new_view, until))
        self._changing = False
        self._resolve_leader()
        self._last_new_view = msg
        self._last_leader_alive = self.sim.now
        # restart the per-request censorship clock: the new leader gets
        # a full request_timeout to order what is already pending (else
        # stale arrival times re-trigger suspicion faster than any
        # leader can cut a partial batch, and views churn forever)
        self._pending = {
            rid: (request, self.sim.now)
            for rid, (request, _arrived) in sorted(self._pending.items())
        }
        self._view_changes = {
            view: votes
            for view, votes in sorted(self._view_changes.items())
            if view > msg.new_view
        }
        self._drop_accepted()
        self._rounds = {}
        self._held = {}
        self.installed_views.append((msg.sender, msg.new_view))
        # leadership bookkeeping restarts from scratch in the new view
        self._leader_seen = set()
        self._req_by_env = {}
        self._batch_queue = deque()
        for channel_id in sorted(self._channels):
            state = self._channels[channel_id]
            state.cutter = BlockCutter(self._channel_configs[channel_id])
        self._cut_epoch += 1
        self._cut_armed.clear()
        self._timer_epoch += 1
        self._arm_watchdog()
        if self.is_leader:
            self._arm_heartbeat()
            self._repropose_from_proof(msg)
            for rid in sorted(self._pending):
                request, _arrived = self._pending[rid]
                self._leader_ingest(request)
        else:
            for rid in sorted(self._pending):
                request, _arrived = self._pending[rid]
                self._send(self.leader, Forward(sender=self.replica_id, request=request))

    def _repropose_from_proof(self, msg: NewView) -> None:
        """PBFT value selection, one sequence number at a time from
        ``next_commit_seq`` up: re-propose the highest-view prepared
        certificate.  Stop at the first sequence with none, or whose
        header does not chain off the one re-proposed before it.

        A block is applied somewhere only after its predecessor was, so
        every predecessor of a decided block was prepared by ``2f+1``
        nodes and has a certificate in any view-change quorum.  Its
        requests are marked seen: re-ingesting the pending requests must
        not cut them into a second block."""
        best: Dict[int, Preprepare] = {}
        for vote in sorted(msg.proof, key=lambda v: v.sender):
            certificates = vote.prepared_after
            if vote.prepared is not None:
                certificates = (vote.prepared,) + certificates
            for candidate, _voters in certificates:
                current = best.get(candidate.seq)
                if current is None or candidate.view_number > current.view_number:
                    best[candidate.seq] = candidate
        while self._next_accept < self.next_commit_seq + PROPOSAL_WINDOW:
            candidate = best.get(self._next_accept)
            if candidate is None:
                break
            state = self._channels.get(candidate.channel_id)
            if state is None or (candidate.number, candidate.previous_hash) != (
                state.tip_number, state.tip_hash
            ):
                break
            self._leader_seen.update([r.request_id for r in candidate.batch])
            self._propose(candidate.channel_id, list(candidate.batch))

    # ------------------------------------------------------------------
    # catch-up
    # ------------------------------------------------------------------
    def _on_blockpull(self, src: Any, msg: BlockPull) -> None:
        if self._last_new_view is not None:
            self._send(src, self._last_new_view)
        start = max(msg.from_seq, 0)
        if start >= len(self._decisions):
            return
        window = self._decisions[start : start + CATCHUP_BATCH]
        push = BlockPush(
            sender=self.replica_id,
            decisions=tuple(
                (d.seq, d.block, tuple(d.batch)) for d in window
            ),
        )
        self._send(src, push)

    def on_blockpush(self, src: int, msg: BlockPush) -> None:
        from repro.fabric.blockpolicy import count_valid_signatures

        progressed = False
        for seq, block, batch in msg.decisions:
            if seq != self.next_commit_seq:
                continue
            state = self._channels.get(block.channel_id)
            if state is None:
                continue
            if (
                block.header.number != state.next_number
                or block.header.previous_hash != state.previous_hash
            ):
                continue
            if not block.verify_data():
                continue
            signers = [
                pid
                for pid, name in sorted(self.peer_names.items())
                if name in block.signatures
            ]
            if not self.view.has_quorum(signers):
                continue
            if count_valid_signatures(
                block, self.registry, set(self.peer_names.values())
            ) < len(signers):
                continue
            round_ = self._rounds.get(seq)
            if round_ is not None and round_.preprepare is not None and (
                round_.digest != block.header.digest()
            ):
                # what this node accepted from here on chains off a block
                # that was not decided
                self._drop_accepted()
            self._rounds.pop(seq, None)
            self._ordered_ids.update([r.request_id for r in batch])
            self._commit_decision(
                _Decision(
                    seq=seq,
                    channel_id=block.channel_id,
                    block=block,
                    batch=list(batch),
                )
            )
            progressed = True
        if progressed:
            # newly caught up: a round that gathered its commit quorum
            # may have waited for what was pulled, a held pre-prepare may
            # now chain off committed state, a pending view change may
            # now be ours to lead, and the pusher may hold more decisions
            self._apply_ready_decisions()
            self._held = {
                seq: held for seq, held in self._held.items()
                if seq >= self._next_accept
            }
            self._release_held(self._next_accept)
            for view in sorted(self._view_changes):
                self._try_lead(view)
            if len(msg.decisions) == CATCHUP_BATCH:
                self._send(src, BlockPull(sender=self.replica_id,
                                          from_seq=self.next_commit_seq))
