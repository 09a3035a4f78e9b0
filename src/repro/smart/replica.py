"""The BFT-SMaRt service replica (Mod-SMaRt [22]).

A :class:`ServiceReplica` totally orders client requests through a
sequence of consensus instances and feeds decided batches, in order, to
an application implementing :class:`StateMachine`.  The normal-case
message pattern is the paper's Figure 3: the regency leader PROPOSEs a
batch; replicas echo a WRITE with the batch hash; a WRITE quorum
triggers ACCEPT; an ACCEPT quorum decides.

Quorums are *weighted* (:class:`repro.smart.view.View`), so the same
replica runs both classic BFT-SMaRt (all weights 1) and WHEAT (binary
Vmax/Vmin weights).  With ``tentative_execution`` enabled the replica
additionally delivers after the WRITE quorum (WHEAT's optimization,
paper section 4), keeping undo snapshots until the ACCEPT quorum
confirms the decision.

Leader changes live in :mod:`repro.smart.synchronization`; catch-up in
:mod:`repro.smart.statetransfer`; both are collaborators installed by
this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.smart.batching import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_BATCH_BYTES,
    ExecutedRequests,
    PendingQueue,
)
from repro.smart.consensus import ConsensusInstance, batch_hash
from repro.smart.durability import Checkpoint, OperationLog, state_digest
from repro.smart.messages import (
    Accept,
    ClientRequest,
    ForwardedRequest,
    Propose,
    Reply,
    RequestId,
    StateReply,
    StateRequest,
    Stop,
    StopData,
    Sync,
    ValueRequest,
    ValueResponse,
    Write,
)
from repro.smart.view import View


class StateMachine:
    """Application interface (BFT-SMaRt's ``Executable`` + state hooks).

    Subclasses override :meth:`execute_batch`; applications with state
    also override the snapshot hooks so checkpoints, state transfer and
    tentative-execution rollback work.
    """

    def execute_batch(
        self,
        cid: int,
        requests: List[ClientRequest],
        regency: int,
        tentative: bool = False,
    ) -> List[Any]:
        """Apply a decided batch; returns one result per request."""
        raise NotImplementedError

    def get_state(self) -> Any:
        """Full application state snapshot (for checkpoints)."""
        return None

    def set_state(self, state: Any) -> None:
        """Install a snapshot produced by :meth:`get_state`."""

    def snapshot(self) -> Any:
        """Cheap undo token taken before a tentative execution."""
        return self.get_state()

    def rollback(self, token: Any) -> None:
        """Undo a tentative execution using its token."""
        self.set_state(token)

    def reset(self) -> None:
        """Return to the initial state (an amnesiac restart's zero point).

        Applications whose ``set_state`` treats ``None`` as "empty"
        inherit this; others must override.
        """
        self.set_state(None)


#: Replier signature: (replica, request, result, regency, tentative).
Replier = Callable[["ServiceReplica", ClientRequest, Any, int, bool], None]


def default_replier(
    replica: "ServiceReplica",
    request: ClientRequest,
    result: Any,
    regency: int,
    tentative: bool,
) -> None:
    """Send the execution result back to the requesting client."""
    reply = Reply(
        sender=replica.replica_id,
        client_id=request.client_id,
        sequence=request.sequence,
        result=result,
        regency=regency,
        tentative=tentative,
        result_size=_result_size(result),
    )
    replica.network.send(
        replica.replica_id, request.client_id, reply, reply.wire_size()
    )


def _result_size(result: Any) -> int:
    if isinstance(result, (bytes, str)):
        return len(result)
    return 16


#: a vote this many instances past the last executed one means the
#: replica fell behind: catch up by state transfer instead of voting
STATE_TRANSFER_GAP = 20


@dataclass
class ReplicaConfig:
    """Tunables of one replica (defaults follow the paper)."""

    max_batch: int = DEFAULT_MAX_BATCH
    request_timeout: float = 2.0
    checkpoint_period: int = 1000
    tentative_execution: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


@dataclass
class FaultControls:
    """Byzantine-behaviour switches flipped by :mod:`repro.faults`.

    All off in normal operation; tests and the fault explorer use them
    to turn one replica adversarial without forking the protocol code.
    ``skip_quorum_checks`` removes the WRITE/ACCEPT quorum requirement
    (the safety mutation the fork invariant must catch); ``mute``
    silences outbound traffic while the replica keeps receiving;
    ``suppress_sync`` makes the replica refuse to vote for or join
    regency changes (a liveness attack on the synchronization phase);
    ``censor_clients`` makes it silently ignore those clients' requests,
    submitted directly or forwarded by a peer (leader-side censorship).
    """

    skip_quorum_checks: bool = False
    mute: bool = False
    suppress_sync: bool = False
    censor_clients: Set[int] = field(default_factory=set)

    def reset(self) -> None:
        self.skip_quorum_checks = False
        self.mute = False
        self.suppress_sync = False
        self.censor_clients = set()


@dataclass
class ReplicaCounters:
    proposes_sent: int = 0
    consensus_decided: int = 0
    requests_executed: int = 0
    tentative_executions: int = 0
    rollbacks: int = 0
    regency_changes: int = 0
    checkpoints: int = 0
    duplicate_requests: int = 0
    value_fetches: int = 0
    restarts: int = 0


class ServiceReplica:
    """One member of the replicated state machine."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        replica_id: int,
        view: View,
        app: StateMachine,
        config: Optional[ReplicaConfig] = None,
        log: Optional[OperationLog] = None,
        replier: Replier = default_replier,
    ):
        from repro.smart.statetransfer import StateTransfer
        from repro.smart.synchronization import Synchronizer

        self.sim = sim
        self.network = network
        self.replica_id = replica_id
        self.regency = 0
        self.view = view
        self.app = app
        self.config = config or ReplicaConfig()
        self.log = log if log is not None else OperationLog()
        self.replier = replier
        self.counters = ReplicaCounters()
        self.faults = FaultControls()
        #: optional repro.obs hub (attached by Observability.attach)
        self.obs = None

        self.last_executed = -1
        self.active_cid: Optional[int] = None
        self.instances: Dict[int, ConsensusInstance] = {}
        self.pending = PendingQueue()
        self.crashed = False
        #: the next recover() must run the full restart protocol
        self._amnesia_pending = False
        #: after mid-log WAL corruption the replica abstains from voting
        #: in any regency <= this horizon (see docs/RECOVERY.md)
        self._quarantine_regency: Optional[int] = None
        #: populated by restart(); finished by state transfer's rejoin
        self.recovery_stats: Optional[Dict[str, Any]] = None

        # reply cache (client -> (seq, result, regency)) plus the ids of
        # every executed request; dedup is by exact id because async
        # clients keep many sequences outstanding at once
        self._last_reply: Dict[int, Tuple[int, Any, int]] = {}
        self._executed_ids = ExecutedRequests()

        # tentative execution bookkeeping: ordered (cid, undo token, batch)
        self._tentative_stack: List[Tuple[int, Any, List[ClientRequest]]] = []
        self._forwarded = False

        self.synchronizer = Synchronizer(self)
        self.state_transfer = StateTransfer(self)

        self._timeout_timer = None
        self._schedule_timeout_check()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def set_regency(self, regency: int) -> None:
        """Enter ``regency``.  ``is_leader`` is a plain attribute, read
        once per client request, so it is derived where its inputs
        change -- here and in the ``view`` setter -- and nowhere else
        may assign ``regency``."""
        self.regency = regency
        self.is_leader = self._view.leader_of(regency) == self.replica_id

    @property
    def leader(self) -> int:
        return self.view.leader_of(self.regency)

    @property
    def view(self) -> View:
        return self._view

    @view.setter
    def view(self, view: View) -> None:
        # every vote broadcast iterates the peer list, so it is derived
        # once per view change instead of once per message
        self._view = view
        self._others = [p for p in view.processes if p != self.replica_id]
        self.is_leader = view.leader_of(self.regency) == self.replica_id

    def other_replicas(self) -> List[int]:
        """The other members of the current view (do not mutate)."""
        return self._others

    def instance(self, cid: int) -> ConsensusInstance:
        inst = self.instances.get(cid)
        if inst is None:
            inst = ConsensusInstance(cid, self.view)
            self.instances[cid] = inst
        return inst

    def _broadcast(self, message, size: int) -> None:
        if self.faults.mute:
            return
        self.network.broadcast(self.replica_id, self.other_replicas(), message, size)

    def _send(self, dst: int, message, size: int) -> None:
        if self.faults.mute:
            return
        self.network.send(self.replica_id, dst, message, size)

    # ------------------------------------------------------------------
    # crash/recovery control (fault injection)
    # ------------------------------------------------------------------
    def crash(self, amnesia: bool = False) -> None:
        """Silence the replica.

        With ``amnesia=False`` (the default, crash-*suspend*) all
        volatile state survives and :meth:`recover` simply resumes.
        With ``amnesia=True`` (a real process crash) volatile state is
        considered lost: the next :meth:`recover` runs the full
        :meth:`restart` protocol from whatever the WAL preserved.
        """
        self.crashed = True
        if amnesia:
            self._amnesia_pending = True
        self.network.crash(self.replica_id)

    def recover(self) -> None:
        if self._amnesia_pending:
            self.restart()
            return
        self.crashed = False
        self.network.recover(self.replica_id)
        self._schedule_timeout_check()
        self.state_transfer.start()

    def restart(self) -> None:
        """Amnesiac restart: rebuild from stable storage and rejoin.

        Recovery protocol (docs/RECOVERY.md):

        1. discard every piece of volatile state;
        2. salvage the WAL -- a torn tail is truncated, mid-log
           corruption flags the log untrusted (full state transfer +
           vote quarantine);
        3. reinstall the latest durable checkpoint and replay the
           decided batches that follow it;
        4. re-derive the regency horizon and per-instance WRITE/ACCEPT
           votes from logged evidence, so the restarted replica can
           never contradict a vote its pre-crash incarnation sent;
        5. after the modeled log-read delay, come back online and rejoin
           via state transfer for the suffix the WAL never saw.
        """
        self._amnesia_pending = False
        self.counters.restarts += 1
        started = self.sim.now
        if self.obs is not None:
            self.obs.on_recovery_started(self.replica_id, started)
        self._reset_volatile()
        recovery = self.log.recover()
        replayed = 0
        truncated_bytes = 0
        corrupt = False
        if recovery is not None:
            truncated_bytes = recovery.truncated_bytes
            corrupt = recovery.corrupt
            if recovery.checkpoint is not None:
                self.app.set_state(recovery.checkpoint.state)
                self.last_executed = recovery.checkpoint.cid
                self._executed_ids = ExecutedRequests.from_snapshot(recovery.checkpoint.executed)
            if not corrupt:
                # replay the decided suffix the WAL preserved
                for cid, batch in recovery.entries:
                    if cid <= self.last_executed:
                        continue
                    if cid != self.last_executed + 1:
                        break  # gap: state transfer fills the rest
                    inst = self.instance(cid)
                    inst.learn_value(batch)
                    self._execute_batch(inst, batch, self.regency, tentative=False)
                    self.last_executed = cid
                    replayed += 1
            regency = recovery.regency
            for evidence in (recovery.write_evidence, recovery.accept_evidence):
                for cid in sorted(evidence):
                    votes = evidence[cid]
                    for reg in sorted(votes):
                        regency = max(regency, reg)
                        if cid <= self.last_executed:
                            continue
                        inst = self.instance(cid)
                        sent = (
                            inst.write_sent
                            if evidence is recovery.write_evidence
                            else inst.accept_sent
                        )
                        sent[reg] = votes[reg]
            self.set_regency(regency)
            if corrupt:
                # the durable image lied once: abstain from voting until
                # a regency change moves past everything it may cover
                self._quarantine_regency = regency
        self.instances = {
            cid: inst for cid, inst in self.instances.items() if cid > self.last_executed
        }
        self.recovery_stats = {
            "started": started,
            "replay_s": 0.0,
            "replayed_batches": replayed,
            "truncated_bytes": truncated_bytes,
            "corrupt": corrupt,
            "rejoined_at": None,
            "state_transfer_bytes": 0,
        }
        disk = getattr(self.log, "disk", None)
        replay_delay = disk.read_latency() if disk is not None else 0.0
        self.sim.schedule(replay_delay, self._complete_restart)

    def _reset_volatile(self) -> None:
        """Discard everything an amnesiac crash would lose."""
        from repro.smart.statetransfer import StateTransfer
        from repro.smart.synchronization import Synchronizer

        self.set_regency(0)
        self.last_executed = -1
        self.active_cid = None
        self.instances = {}
        self.pending = PendingQueue()
        self._last_reply = {}
        self._executed_ids = ExecutedRequests()
        self._tentative_stack = []
        self._forwarded = False
        self._quarantine_regency = None
        self.recovery_stats = None
        if self._timeout_timer is not None:
            self._timeout_timer.cancel()
            self._timeout_timer = None
        self.synchronizer = Synchronizer(self)
        self.state_transfer = StateTransfer(self)
        self.log.clear()
        self.app.reset()

    def _complete_restart(self) -> None:
        """Replay finished: come back online and rejoin the group."""
        if self.recovery_stats is not None:
            self.recovery_stats["replay_s"] = self.sim.now - self.recovery_stats["started"]
            if self.obs is not None:
                self.obs.on_recovery_replayed(
                    self.replica_id,
                    batches=self.recovery_stats["replayed_batches"],
                    replay_s=self.recovery_stats["replay_s"],
                    truncated_bytes=self.recovery_stats["truncated_bytes"],
                    corrupt=self.recovery_stats["corrupt"],
                    now=self.sim.now,
                )
        if self.replica_id not in self.view.processes:
            return  # removed from the group while down: stay passive
        self.crashed = False
        self.network.recover(self.replica_id)
        self._schedule_timeout_check()
        self.state_transfer.start()

    # ------------------------------------------------------------------
    # network entry point
    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if self.crashed:
            return
        # kind-keyed dispatch: every smart message carries an interned
        # ``kind`` class tag, so routing is one dict hit instead of a
        # twelve-way isinstance chain (this is the hottest branch point
        # in the simulation -- once per message per receiver); foreign
        # payloads without a ``kind`` are ignored, same as before
        try:
            handler = _DISPATCH.get(message.kind)
        except AttributeError:
            return
        if handler is not None:
            handler(self, src, message)

    # ------------------------------------------------------------------
    # client requests and proposing
    # ------------------------------------------------------------------
    def _on_request(self, src, request: ClientRequest) -> None:
        if self.faults.censor_clients and request.client_id in self.faults.censor_clients:
            return  # Byzantine censorship
        # the table's membership test, inlined: once per request per replica
        executed = self._executed_ids
        if (
            request.request_id in executed.above
            or request.sequence < executed.low.get(request.client_id, 0)
        ):
            self.counters.duplicate_requests += 1
            cached = self._last_reply.get(request.client_id)
            if cached is not None and request.sequence == cached[0]:
                self.replier(self, request, cached[1], cached[2], False)
            return
        now = self.sim.now
        request.submit_time = request.submit_time or now
        if self.obs is not None:
            self.obs.on_request(self.replica_id, request, now)
        self.pending.add(request, now)
        # once per request per replica: a follower and a busy leader
        # stop here, on two attribute tests, without a call
        if self.active_cid is None and self.is_leader:
            self._maybe_propose()

    def _maybe_propose(self) -> None:
        """Leader-only: start the next consensus when idle, with
        whatever is pending (BFT-SMaRt proposes eagerly)."""
        # the attribute tests come first, the queue's __len__ last
        if self.active_cid is not None or not self.is_leader or not self.pending:
            return
        if self.synchronizer.changing_regency:
            return
        batch = self.pending.next_batch(self.config.max_batch, DEFAULT_MAX_BATCH_BYTES)
        if not batch:
            return
        cid = self.last_executed + 1
        self.active_cid = cid
        if self.obs is not None:
            self.obs.on_propose(self.replica_id, cid, batch, self.sim.now)
        inst = self.instance(cid)
        value_hash = inst.learn_value(batch)
        inst.proposed_hash[self.regency] = value_hash
        propose = Propose(
            sender=self.replica_id,
            cid=cid,
            regency=self.regency,
            batch=batch,
            value_hash=value_hash,
        )
        self.counters.proposes_sent += 1
        self._broadcast(propose, propose.wire_size())
        self._cast_write(inst, value_hash)

    # ------------------------------------------------------------------
    # consensus phases
    # ------------------------------------------------------------------
    def _on_propose(self, src: int, msg: Propose) -> None:
        if msg.regency != self.regency or self.synchronizer.changing_regency:
            return
        if src != self.view.leader_of(msg.regency):
            return  # only the regency leader may propose
        if msg.cid <= self.last_executed:
            return
        self._check_gap(msg.cid)
        if msg.cid != self.last_executed + 1:
            # buffer: learn the value, vote later when we catch up
            inst = self.instance(msg.cid)
            inst.learn_value(msg.batch)
            inst.proposed_hash.setdefault(msg.regency, msg.value_hash)
            return
        if not self._validate_batch(msg.batch, msg.cid, msg.value_hash):
            return
        inst = self.instance(msg.cid)
        if msg.regency in inst.proposed_hash:
            return  # equivocation or duplicate: keep the first proposal
        inst.learn_value(msg.batch)
        inst.proposed_hash[msg.regency] = msg.value_hash
        if self.active_cid is None:
            self.active_cid = msg.cid
        self._cast_write(inst, msg.value_hash)

    def _validate_batch(
        self, batch: List[ClientRequest], cid: int, claimed_hash: bytes
    ) -> bool:
        if not batch:
            return False
        if batch_hash(cid, batch) != claimed_hash:
            return False
        seen: set[RequestId] = set()
        for request in batch:
            rid = request.request_id
            if rid in seen:
                return False
            seen.add(rid)
        return True

    def _vote_quarantined(self) -> bool:
        """True while a corrupt-WAL recovery forbids voting.

        After mid-log corruption the replica cannot trust its vote
        evidence, so it abstains in every regency the damaged log may
        cover; the first regency past the horizon lifts the quarantine.
        """
        if self._quarantine_regency is None:
            return False
        if self.regency > self._quarantine_regency:
            self._quarantine_regency = None
            return False
        return True

    def _cast_write(self, inst: ConsensusInstance, value_hash: bytes) -> None:
        if self.regency in inst.write_sent:
            return
        if self._vote_quarantined():
            return
        inst.write_sent[self.regency] = value_hash
        # durable SMR: the vote is logged to stable storage before it is
        # sent (paper §5.2, [3]), so an amnesiac restart can never
        # contradict it; the fsync cost defers the actual send
        delay = self.log.log_write(inst.cid, self.regency, value_hash)
        if delay > 0:
            self.sim.post(delay, self._send_write, inst, self.regency, value_hash)
        else:
            self._send_write(inst, self.regency, value_hash)

    def _send_write(
        self, inst: ConsensusInstance, regency: int, value_hash: bytes
    ) -> None:
        if self.crashed or regency != self.regency:
            return
        write = Write(self.replica_id, inst.cid, regency, value_hash)
        self._broadcast(write, write.wire_size())
        self._record_write(self.replica_id, inst, regency, value_hash)

    def _on_write(self, src: int, msg: Write) -> None:
        if msg.cid <= self.last_executed:
            return
        self._check_gap(msg.cid)
        self._record_write(src, self.instance(msg.cid), msg.regency, msg.value_hash)

    def _record_write(
        self, voter: int, inst: ConsensusInstance, regency: int, value_hash: bytes
    ) -> None:
        votes = inst.writes(regency)
        quorum = votes.add_has_quorum(voter, value_hash)
        if regency != self.regency:
            return
        if quorum or self.faults.skip_quorum_checks:
            if self.obs is not None:
                self.obs.on_write_quorum(self.replica_id, inst.cid, self.sim.now)
            if inst.write_certificate is None or inst.write_certificate.regency < regency:
                inst.record_write_quorum(regency, value_hash, at=self.sim.now)
            self._cast_accept(inst, value_hash)
            if self.config.tentative_execution:
                self._try_tentative(inst, value_hash, regency)

    def _cast_accept(self, inst: ConsensusInstance, value_hash: bytes) -> None:
        if self.regency in inst.accept_sent:
            return
        if self._vote_quarantined():
            return
        inst.accept_sent[self.regency] = value_hash
        # fsync-before-send, same as the WRITE vote
        delay = self.log.log_accept(inst.cid, self.regency, value_hash)
        if delay > 0:
            self.sim.post(delay, self._send_accept, inst, self.regency, value_hash)
        else:
            self._send_accept(inst, self.regency, value_hash)

    def _send_accept(
        self, inst: ConsensusInstance, regency: int, value_hash: bytes
    ) -> None:
        if self.crashed or regency != self.regency:
            return
        accept = Accept(self.replica_id, inst.cid, regency, value_hash)
        self._broadcast(accept, accept.wire_size())
        self._record_accept(self.replica_id, inst, regency, value_hash)

    def _on_accept(self, src: int, msg: Accept) -> None:
        if msg.cid <= self.last_executed:
            return
        self._check_gap(msg.cid)
        self._record_accept(src, self.instance(msg.cid), msg.regency, msg.value_hash)

    def _record_accept(
        self, voter: int, inst: ConsensusInstance, regency: int, value_hash: bytes
    ) -> None:
        votes = inst.accepts(regency)
        quorum = votes.add_has_quorum(voter, value_hash)
        if not inst.decided and (quorum or self.faults.skip_quorum_checks):
            if self.obs is not None:
                self.obs.on_decided(self.replica_id, inst.cid, self.sim.now)
            inst.mark_decided(regency, value_hash, at=self.sim.now)
            self.counters.consensus_decided += 1
            self._try_execute()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _try_execute(self) -> None:
        """Execute decided instances strictly in cid order."""
        progressed = True
        while progressed:
            progressed = False
            cid = self.last_executed + 1
            inst = self.instances.get(cid)
            if inst is None or not inst.decided:
                break
            batch = inst.decided_batch
            if batch is None:
                self._fetch_value(inst)
                break
            self._finalize(inst, batch)
            progressed = True

    def _finalize(self, inst: ConsensusInstance, batch: List[ClientRequest]) -> None:
        cid = inst.cid
        regency = inst.decided_regency if inst.decided_regency is not None else self.regency
        if self._tentative_stack and self._tentative_stack[0][0] == cid:
            if inst.tentative_hash == inst.decided_hash:
                self._tentative_stack.pop(0)  # tentative execution confirmed
                self._confirm_batch(batch, regency)
                self._after_execution(inst, batch)
                return
            self._rollback_tentative()
        self._execute_batch(inst, batch, regency, tentative=False)
        self._after_execution(inst, batch)

    def _after_execution(self, inst: ConsensusInstance, batch: List[ClientRequest]) -> None:
        cid = inst.cid
        if self.obs is not None:
            self.obs.on_executed(self.replica_id, cid, len(batch), self.sim.now)
        self.last_executed = cid
        if self.active_cid == cid:
            self.active_cid = None
        self.log.append(cid, batch)
        if (cid + 1) % self.config.checkpoint_period == 0:
            self._take_checkpoint()
        self.synchronizer.on_progress()
        # keep memory bounded: drop old instances
        stale = [c for c in self.instances if c < cid - 2]
        for c in stale:
            del self.instances[c]
        self._resume_buffered()
        self._maybe_propose()

    def _resume_buffered(self) -> None:
        """Vote on a buffered proposal for the next slot, if we have one."""
        inst = self.instances.get(self.last_executed + 1)
        if inst is None or inst.decided:
            return
        proposed = inst.proposed_hash.get(self.regency)
        if proposed is not None and self.regency not in inst.write_sent:
            self._cast_write(inst, proposed)
        self.recheck_instance(inst)

    def recheck_instance(self, inst: ConsensusInstance) -> None:
        """Re-evaluate quorums for the current regency (used after the
        regency changes or after catching up past buffered votes)."""
        regency = self.regency
        writes = inst.writes(regency)
        for value_hash in list(writes._votes):
            if writes.has_quorum(value_hash):
                self._record_write(self.replica_id, inst, regency, value_hash)
                break
        accepts = inst.accepts(regency)
        for value_hash in list(accepts._votes):
            if accepts.has_quorum(value_hash):
                self._record_accept(self.replica_id, inst, regency, value_hash)
                break

    def _confirm_batch(self, batch: List[ClientRequest], regency: int) -> None:
        """Bookkeeping when a tentative execution is confirmed final:
        each id not executed before counts once."""
        executed = self._executed_ids
        ids = [request.request_id for request in batch]
        if executed.isdisjoint(ids) and len(set(ids)) == len(ids):
            fresh = batch
        else:
            fresh = []
            seen: set[RequestId] = set()
            for request in batch:
                rid = request.request_id
                if rid not in executed and rid not in seen:
                    seen.add(rid)
                    fresh.append(request)
        executed.update(ids)
        self.counters.requests_executed += len(fresh)
        last_reply = self._last_reply
        for request in fresh:
            cached = last_reply.get(request.client_id)
            if cached is None or request.sequence >= cached[0]:
                last_reply[request.client_id] = (request.sequence, None, regency)

    def _execute_batch(
        self,
        inst: ConsensusInstance,
        batch: List[ClientRequest],
        regency: int,
        tentative: bool,
    ) -> None:
        # dedup by exact request id only: clients submit asynchronously
        # with many outstanding sequences, so after a leader change a
        # *lower* sequence may legitimately be ordered after a higher
        # one and must still execute
        executed = self._executed_ids
        ids = [request.request_id for request in batch]
        if executed.isdisjoint(ids):
            to_run = batch  # nothing to filter: run the decided batch as is
        else:
            to_run = [r for r in batch if r.request_id not in executed]
            self.counters.duplicate_requests += len(batch) - len(to_run)
        reconfigs = [r for r in to_run if r.reconfig]
        normal = [r for r in to_run if not r.reconfig] if reconfigs else to_run
        results: List[Any] = []
        if normal:
            results = self.app.execute_batch(inst.cid, normal, regency, tentative)
            if len(results) != len(normal):
                raise RuntimeError(
                    f"app returned {len(results)} results for {len(normal)} requests"
                )
        if not tentative:
            # booked for the whole batch at once (no replier reads
            # either); the ids filtered out above are in the table already
            self.counters.requests_executed += len(to_run)
            executed.update(ids)
        self._answer(normal, results, regency, tentative)
        for request in reconfigs:
            result = self._apply_reconfiguration(request)
            self._answer((request,), (result,), regency, tentative)
        self.pending.remove_all(batch)
        if not tentative:
            self._forwarded = False

    def _answer(self, requests, results, regency: int, tentative: bool) -> None:
        """Reply to executed requests, in order, remembering the final
        replies for retransmissions: one loop per batch."""
        replier = self.replier
        last_reply = self._last_reply
        for request, result in zip(requests, results):
            if not tentative:
                cached = last_reply.get(request.client_id)
                if cached is None or request.sequence >= cached[0]:
                    last_reply[request.client_id] = (request.sequence, result, regency)
            replier(self, request, result, regency, tentative)

    # ------------------------------------------------------------------
    # tentative execution (WHEAT)
    # ------------------------------------------------------------------
    def _try_tentative(
        self, inst: ConsensusInstance, value_hash: bytes, regency: int
    ) -> None:
        if inst.decided or inst.tentative_hash is not None:
            return
        expected_next = self.last_executed + 1 + len(self._tentative_stack)
        if inst.cid != expected_next:
            return
        batch = inst.value_of(value_hash)
        if batch is None:
            return
        token = self.app.snapshot()
        self._tentative_stack.append((inst.cid, token, batch))
        inst.tentative_hash = value_hash
        self.counters.tentative_executions += 1
        self._execute_batch(inst, batch, regency, tentative=True)

    def _rollback_tentative(self) -> None:
        """Undo every unconfirmed tentative execution, newest first,
        re-queueing the rolled-back requests for re-ordering."""
        while self._tentative_stack:
            cid, token, batch = self._tentative_stack.pop()
            inst = self.instances.get(cid)
            if inst is not None:
                inst.tentative_hash = None
            self.app.rollback(token)
            self.counters.rollbacks += 1
            for request in batch:
                if request.request_id not in self._executed_ids:
                    self.pending.add(request, self.sim.now)

    # ------------------------------------------------------------------
    # value fetching (decided a hash we never saw the batch for)
    # ------------------------------------------------------------------
    def _fetch_value(self, inst: ConsensusInstance) -> None:
        self.counters.value_fetches += 1
        assert inst.decided_hash is not None
        request = ValueRequest(self.replica_id, inst.cid, inst.decided_hash)
        self._broadcast(request, request.wire_size())

    def _on_value_request(self, src: int, msg: ValueRequest) -> None:
        inst = self.instances.get(msg.cid)
        batch: Optional[List[ClientRequest]] = None
        if inst is not None:
            batch = inst.value_of(msg.value_hash)
        if batch is None:
            for cid, logged in self.log.entries:
                if cid == msg.cid and batch_hash(cid, logged) == msg.value_hash:
                    batch = logged
                    break
        if batch is not None:
            response = ValueResponse(self.replica_id, msg.cid, msg.value_hash, batch)
            self._send(src, response, response.wire_size())

    def _on_value_response(self, src: int, msg: ValueResponse) -> None:
        if msg.cid <= self.last_executed:
            return
        if batch_hash(msg.cid, msg.batch) != msg.value_hash:
            return  # forged response
        inst = self.instance(msg.cid)
        inst.learn_value(msg.batch)
        self._try_execute()

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def _take_checkpoint(self) -> None:
        state = self.app.get_state()
        executed = self._executed_ids.snapshot()
        digest = state_digest(state, executed)
        self.log.set_checkpoint(Checkpoint(self.last_executed, state, digest, executed))
        self.counters.checkpoints += 1

    # ------------------------------------------------------------------
    # timeouts / regency-change triggers
    # ------------------------------------------------------------------
    def _schedule_timeout_check(self) -> None:
        if self.crashed:
            return
        self._timeout_timer = self.sim.schedule(
            self.config.request_timeout / 2.0, self._check_timeouts
        )

    def _check_timeouts(self) -> None:
        self._schedule_timeout_check()
        if self.crashed or self.synchronizer.changing_regency:
            return
        self._check_missed_decision()
        age = self.pending.oldest_age(self.sim.now)
        if age is None:
            self._forwarded = False
            return
        if age > 2.0 * self.config.request_timeout:
            self.synchronizer.request_regency_change("request timeout")
        elif age > self.config.request_timeout and not self._forwarded:
            self._forwarded = True
            if not self.is_leader:
                for request in self.pending.peek_all():
                    fwd = ForwardedRequest(self.replica_id, request)
                    self._send(self.leader, fwd, fwd.wire_size())

    # ------------------------------------------------------------------
    # state transfer trigger
    # ------------------------------------------------------------------
    def _check_gap(self, cid: int) -> None:
        if cid > self.last_executed + STATE_TRANSFER_GAP:
            self.state_transfer.start()

    def _check_missed_decision(self) -> None:
        """Catch-up probe: a *later* instance is decided while the next
        one in order is not -- the quorum messages for the gap were lost
        (crash, partition, lossy link), and nobody retransmits old
        votes, so fetch the missing decisions from peers instead."""
        next_inst = self.instances.get(self.last_executed + 1)
        if next_inst is not None and next_inst.decided:
            return  # execution will progress on its own
        if any(
            inst.decided and inst.cid > self.last_executed + 1
            for inst in self.instances.values()
        ):
            self.state_transfer.start()

    # ------------------------------------------------------------------
    # reconfiguration (executed through the total order)
    # ------------------------------------------------------------------
    def _apply_reconfiguration(self, request: ClientRequest) -> Any:
        from repro.smart.reconfiguration import apply_reconfig

        try:
            new_view = apply_reconfig(self.view, request.operation)
        except ValueError as exc:
            # invalid command ordered through consensus: reject it
            # deterministically at every replica
            return {"error": str(exc), "view_id": self.view.view_id}
        self.install_view(new_view)
        return {"view_id": new_view.view_id, "processes": list(new_view.processes)}

    def install_view(self, new_view: View) -> None:
        """Adopt a new view; open instances restart under it."""
        self.view = new_view
        for cid in list(self.instances):
            if cid > self.last_executed:
                inst = self.instances[cid]
                if not inst.decided:
                    del self.instances[cid]
        if self.replica_id not in new_view.processes:
            self.crashed = True  # removed from the group: go passive


#: ``message.kind`` -> handler.  Built once at import; entries that go
#: through ``self.synchronizer`` / ``self.state_transfer`` must resolve
#: the attribute at call time because both are recreated on restart.
_DISPATCH: Dict[str, Callable[["ServiceReplica", Any, Any], None]] = {
    "ClientRequest": ServiceReplica._on_request,
    "ForwardedRequest": lambda self, src, m: self._on_request(src, m.request),
    "Propose": ServiceReplica._on_propose,
    "Write": ServiceReplica._on_write,
    "Accept": ServiceReplica._on_accept,
    "Stop": lambda self, src, m: self.synchronizer.on_stop(src, m),
    "StopData": lambda self, src, m: self.synchronizer.on_stopdata(src, m),
    "Sync": lambda self, src, m: self.synchronizer.on_sync(src, m),
    "ValueRequest": ServiceReplica._on_value_request,
    "ValueResponse": ServiceReplica._on_value_response,
    "StateRequest": lambda self, src, m: self.state_transfer.on_state_request(src, m),
    "StateReply": lambda self, src, m: self.state_transfer.on_state_reply(src, m),
}
