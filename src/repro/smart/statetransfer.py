"""State transfer for recovering, lagging and joining replicas.

Paper section 5.2: because the ordering service's state is tiny (next
block number + previous block hash), checkpoints are cheap, logs stay
short, and bringing a new node up to date is fast.

Protocol (BFT-SMaRt's CST, simplified to its essential structure): the
fetching replica asks every peer for its checkpoint + log suffix; it
waits for ``f+1`` replies agreeing on the checkpoint digest and the
last decided instance, installs the checkpoint, replays the log, and
resumes normal processing.  Replies that disagree (from Byzantine or
stale peers) are simply never matched by ``f+1`` others.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple


from repro.smart.batching import ExecutedRequests
from repro.smart.durability import Checkpoint, state_digest
from repro.smart.messages import StateReply, StateRequest
from repro.smart.view import one_correct_size

if TYPE_CHECKING:
    from repro.smart.replica import ServiceReplica

#: Seconds between retries while a transfer is unsatisfied.
RETRY_INTERVAL = 1.0


class StateTransfer:
    """Catch-up driver for one replica."""

    def __init__(self, replica: "ServiceReplica"):
        self.replica = replica
        self.in_progress = False
        self._replies: Dict[Tuple[int, bytes, int], Dict[int, StateReply]] = {}
        self.transfers_completed = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin (or restart) a state transfer; idempotent while active."""
        if self.in_progress:
            return
        self.in_progress = True
        self._replies.clear()
        self._ask()

    def _ask(self) -> None:
        replica = self.replica
        if not self.in_progress or replica.crashed:
            return
        request = StateRequest(replica.replica_id, replica.last_executed + 1)
        peers = [p for p in replica.view.processes if p != replica.replica_id]
        replica.network.broadcast(
            replica.replica_id, peers, request, request.wire_size()
        )
        replica.sim.schedule(RETRY_INTERVAL, self._retry)

    def _retry(self) -> None:
        if self.in_progress:
            self._replies.clear()
            self._ask()

    # ------------------------------------------------------------------
    def on_state_request(self, src: int, msg: StateRequest) -> None:
        replica = self.replica
        checkpoint = replica.log.checkpoint
        if checkpoint is None:
            checkpoint = Checkpoint(cid=-1, state=None, state_hash=state_digest(None))
        reply = StateReply(
            sender=replica.replica_id,
            checkpoint_cid=checkpoint.cid,
            state=checkpoint.state,
            state_hash=checkpoint.state_hash,
            log=replica.log.entries_after(checkpoint.cid),
            last_cid=replica.last_executed,
            view_snapshot=replica.view,
            executed=checkpoint.executed,
        )
        replica._send(src, reply, reply.wire_size())

    def on_state_reply(self, src: int, msg: StateReply) -> None:
        replica = self.replica
        if not self.in_progress:
            return
        stats = replica.recovery_stats
        if stats is not None and stats["rejoined_at"] is None:
            stats["state_transfer_bytes"] += msg.wire_size()
        if msg.last_cid <= replica.last_executed:
            # peer is no further along than we are; nothing to install.
            # If f+1 peers agree we are actually up to date, stop asking.
            key = (msg.checkpoint_cid, msg.state_hash, msg.last_cid)
            group = self._replies.setdefault(key, {})
            group[src] = msg
            if (
                msg.last_cid == replica.last_executed
                and len(group) >= one_correct_size(replica.view.f)
            ):
                self._adopt_view(group)
                self._finish()
            return
        key = (msg.checkpoint_cid, msg.state_hash, msg.last_cid)
        group = self._replies.setdefault(key, {})
        group[src] = msg
        if len(group) >= one_correct_size(replica.view.f):
            self._install(group)

    # ------------------------------------------------------------------
    def _install(self, group: Dict[int, StateReply]) -> None:
        replica = self.replica
        # double-check the claimed digest against the shipped state and
        # executed-request table, and take the verified reply from the
        # lowest replica id: the group
        # agrees on (checkpoint_cid, state_hash, last_cid), so any
        # verified member works, but the choice must not depend on dict
        # arrival order or the replay below diverges across seeds
        candidates = [
            reply
            for _, reply in sorted(group.items())
            if state_digest(reply.state, reply.executed) == reply.state_hash
        ]
        if not candidates:
            return
        sample = candidates[0]
        if sample.checkpoint_cid > replica.last_executed:
            replica.app.set_state(sample.state)
            replica.last_executed = sample.checkpoint_cid
            replica._executed_ids = ExecutedRequests.from_snapshot(sample.executed)
            replica.log.set_checkpoint(
                Checkpoint(
                    cid=sample.checkpoint_cid,
                    state=sample.state,
                    state_hash=sample.state_hash,
                    executed=sample.executed,
                )
            )
        for cid, batch in sorted(sample.log, key=lambda entry: entry[0]):
            if cid != replica.last_executed + 1:
                continue
            inst = replica.instance(cid)
            inst.learn_value(batch)
            replica._execute_batch(inst, batch, replica.regency, tentative=False)
            replica.last_executed = cid
            replica.log.append(cid, batch)
        if sample.view_snapshot is not None:
            view = sample.view_snapshot
            if view.view_id > replica.view.view_id:
                replica.install_view(view)
        # drop stale consensus bookkeeping
        for cid in [c for c in replica.instances if c <= replica.last_executed]:
            del replica.instances[cid]
        replica.active_cid = None
        self._finish()

    def _adopt_view(self, group: Dict[int, StateReply]) -> None:
        """Adopt a newer view from an agreeing reply group.

        Same trust model as :meth:`_install`: the lowest-id member of a
        group that already satisfied the agreement threshold.  Matters
        for a replica that is log-current but was reconfigured out (or
        in) while unreachable.
        """
        replica = self.replica
        sample = group[min(group)]
        if sample.view_snapshot is not None:
            if sample.view_snapshot.view_id > replica.view.view_id:
                replica.install_view(sample.view_snapshot)

    def _finish(self) -> None:
        self.in_progress = False
        self._replies.clear()
        self.transfers_completed += 1
        replica = self.replica
        stats = replica.recovery_stats
        if stats is not None and stats["rejoined_at"] is None:
            stats["rejoined_at"] = replica.sim.now
            if replica.obs is not None:
                replica.obs.on_recovery_completed(
                    replica.replica_id,
                    bytes_received=stats["state_transfer_bytes"],
                    now=replica.sim.now,
                )
        replica._maybe_propose()
