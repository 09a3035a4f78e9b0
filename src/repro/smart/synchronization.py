"""Mod-SMaRt's synchronization phase (leader change) [22].

When progress stalls (a request stays pending past twice the request
timeout), replicas vote to abandon the current *regency*:

1. A replica sends STOP(r+1) to all.  A replica that collects more
   than ``f`` STOPs joins in (so one slow replica cannot trigger a
   change, but a justified change cannot be stopped).
2. On collecting ``2f+1`` STOPs a replica *installs* regency ``r+1``
   and sends STOPDATA to the new leader (``processes[(r+1) mod n]``),
   reporting its last executed instance, its pending requests and, if
   it observed a WRITE quorum for the in-flight instance, that write
   certificate.
3. The new leader collects ``n-f`` STOPDATAs and picks the *safe*
   value: the write-certified value from the highest regency if any
   certificate exists (such a value may already have been decided by
   someone, so it must be retained), otherwise a fresh batch of the
   reported pending requests.  It broadcasts SYNC carrying the value
   and the STOPDATAs as proofs -- each one's sender, regency, last
   executed cid and write certificate, without its pending requests,
   which only the leader's value selection reads.
4. Replicas validate SYNC against the proofs and adopt the value as
   the proposal for the open instance in the new regency; the normal
   WRITE/ACCEPT phases then finish it.  Installing the regency restarts
   the clocks of the pending requests, so the new leader gets a full
   request timeout for the backlog it inherited instead of being
   deposed for its predecessor's delay.

With WHEAT's tentative execution, a replica whose tentative value
differs from the SYNC value rolls back before re-executing (paper
section 4's stated cost of the optimization).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.smart.consensus import batch_hash
from repro.smart.messages import (
    ClientRequest,
    Stop,
    StopData,
    Sync,
    WriteCertificate,
)
from repro.smart.view import byzantine_majority_size


class EmptySyncRound(RuntimeError):
    """A SYNC value selection ran with no STOPDATA reports.

    ``on_stopdata`` only triggers ``_send_sync`` after collecting
    ``n - f`` reports, so an empty report set means the collection
    invariant was bypassed (e.g. a Byzantine-suppressed sync round or
    a harness driving internals directly).  Failing loudly beats the
    bare ``ValueError`` that ``max()`` over an empty generator raises.
    """

if TYPE_CHECKING:
    from repro.smart.replica import ServiceReplica


class Synchronizer:
    """Drives regency changes for one replica."""

    def __init__(self, replica: "ServiceReplica"):
        self.replica = replica
        self._stops: Dict[int, Set[int]] = {}
        self._stopdata: Dict[int, Dict[int, StopData]] = {}
        self._stop_sent: Set[int] = set()
        self._stop_last_sent: Dict[int, float] = {}
        self._sync_sent: Set[int] = set()
        self.changing_regency = False

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------
    def request_regency_change(self, reason: str = "") -> None:
        """Phase 1: vote to leave the current regency.

        Called periodically while the stall persists, so STOPs lost to
        partitions or drops are retransmitted (standing in for the TCP
        retransmission real BFT-SMaRt channels provide).
        """
        if self.replica.faults.suppress_sync:
            return
        target = self.replica.regency + 1
        self._send_stop(target, force=True)

    def on_progress(self) -> None:
        """Called whenever a decision executes: the leader is alive."""
        if not self.changing_regency:
            # drop stale STOP votes for regencies we moved past
            stale = [r for r in self._stops if r <= self.replica.regency]
            for r in stale:
                del self._stops[r]

    # ------------------------------------------------------------------
    # STOP
    # ------------------------------------------------------------------
    def _send_stop(self, target: int, force: bool = False) -> None:
        replica = self.replica
        if target <= replica.regency:
            return
        now = replica.sim.now
        if target in self._stop_sent:
            recently = (
                now - self._stop_last_sent.get(target, 0.0)
                < replica.config.request_timeout
            )
            if not force or recently:
                return
        self._stop_sent.add(target)
        self._stop_last_sent[target] = now
        stop = Stop(replica.replica_id, target)
        replica._broadcast(stop, stop.wire_size())
        if replica.obs is not None:
            replica.obs.on_stop_sent(replica.replica_id, target, now)
        self._record_stop(replica.replica_id, target)

    def on_stop(self, src: int, msg: Stop) -> None:
        if src not in self.replica.view.weights:
            return
        if self.replica.faults.suppress_sync:
            return  # fault injection: boycott the synchronization phase
        if msg.next_regency <= self.replica.regency:
            return
        self._record_stop(src, msg.next_regency)

    def _record_stop(self, src: int, target: int) -> None:
        replica = self.replica
        votes = self._stops.setdefault(target, set())
        votes.add(src)
        f = replica.view.f
        if len(votes) > f:
            self._send_stop(target)  # join the change
        if len(votes) >= byzantine_majority_size(f) and target > replica.regency:
            self._install_regency(target)

    # ------------------------------------------------------------------
    # STOPDATA
    # ------------------------------------------------------------------
    def _install_regency(self, target: int) -> None:
        replica = self.replica
        replica.set_regency(target)
        replica.log.log_regency(target)
        replica.counters.regency_changes += 1
        self.changing_regency = True
        if replica.obs is not None:
            replica.obs.on_sync_started(replica.replica_id, target, replica.sim.now)
        new_leader = replica.view.leader_of(target)
        open_cid = replica.last_executed + 1
        inst = replica.instances.get(open_cid)
        certificate: Optional[WriteCertificate] = None
        if inst is not None and inst.write_certificate is not None:
            certificate = inst.write_certificate
        stopdata = StopData(
            sender=replica.replica_id,
            regency=target,
            last_executed_cid=replica.last_executed,
            write_certificate=certificate,
            pending=replica.pending.peek_all(),
        )
        if new_leader == replica.replica_id:
            self.on_stopdata(replica.replica_id, stopdata)
        else:
            replica._send(new_leader, stopdata, stopdata.wire_size())
        # if the new leader is also faulty and never SYNCs, escalate
        replica.sim.schedule(
            replica.config.request_timeout, self._sync_timeout, target
        )

    def _sync_timeout(self, target: int) -> None:
        replica = self.replica
        if replica.crashed:
            return
        if self.changing_regency and replica.regency == target:
            self._send_stop(target + 1, force=True)
            replica.sim.schedule(
                replica.config.request_timeout, self._sync_timeout, target
            )

    def on_stopdata(self, src: int, msg: StopData) -> None:
        replica = self.replica
        if replica.view.leader_of(msg.regency) != replica.replica_id:
            return
        if msg.regency < replica.regency or msg.regency in self._sync_sent:
            return
        if src not in replica.view.weights:
            return
        if not self._certificate_valid(msg.write_certificate):
            return
        reports = self._stopdata.setdefault(msg.regency, {})
        reports[src] = msg
        view = replica.view
        if len(reports) >= view.n - view.f and msg.regency >= replica.regency:
            self._send_sync(msg.regency, reports)

    def _certificate_valid(self, cert: Optional[WriteCertificate]) -> bool:
        """A certificate must carry a write quorum and a matching batch."""
        if cert is None:
            return True
        view = self.replica.view
        if not view.has_quorum(cert.writers):
            return False
        if cert.batch is not None and batch_hash(cert.cid, cert.batch) != cert.value_hash:
            return False
        return True

    # ------------------------------------------------------------------
    # SYNC
    # ------------------------------------------------------------------
    def _send_sync(self, regency: int, reports: Dict[int, StopData]) -> None:
        replica = self.replica
        if not reports:
            raise EmptySyncRound(
                f"replica {replica.replica_id}: SYNC for regency {regency} "
                "has no STOPDATA reports to select a value from"
            )
        self._sync_sent.add(regency)
        open_cid = max(sd.last_executed_cid for sd in reports.values()) + 1
        open_cid = max(open_cid, replica.last_executed + 1)

        batch = self._select_value(open_cid, reports)
        value_hash = batch_hash(open_cid, batch)
        sync = Sync(
            sender=replica.replica_id,
            regency=regency,
            cid=open_cid,
            batch=batch,
            value_hash=value_hash,
            # only value selection reads the backlog; (n-f) backlogs per
            # replica can outlast the sync timeout
            proofs=[replace(report, pending=[]) for _, report in sorted(reports.items())],
        )
        others = [p for p in replica.view.processes if p != replica.replica_id]
        replica.network.broadcast(replica.replica_id, others, sync, sync.wire_size())
        if replica.obs is not None and batch:
            # the SYNC value is the effective proposal for the open instance
            replica.obs.on_propose(replica.replica_id, open_cid, batch, replica.sim.now)
        self.on_sync(replica.replica_id, sync)

    def _select_value(
        self, open_cid: int, reports: Dict[int, StopData]
    ) -> List[ClientRequest]:
        """The Mod-SMaRt value-selection rule."""
        best: Optional[WriteCertificate] = None
        for _, report in sorted(reports.items()):
            cert = report.write_certificate
            if cert is None or cert.cid != open_cid or cert.batch is None:
                continue
            if best is None or cert.regency > best.regency:
                best = cert
        if best is not None:
            return list(best.batch)
        # no certified value: propose the union of reported pending
        # requests (FIFO by submission), capped at the batch limit
        replica = self.replica
        merged: Dict = {}
        for _, report in sorted(reports.items()):
            for request in report.pending:
                if request.request_id in replica._executed_ids:
                    continue
                merged.setdefault(request.request_id, request)
        batch = sorted(merged.values(), key=lambda r: r.uid)
        return batch[: replica.config.max_batch]

    def on_sync(self, src: int, msg: Sync) -> None:
        replica = self.replica
        if src != replica.view.leader_of(msg.regency):
            return
        if msg.regency < replica.regency:
            return
        view = replica.view
        if len({p.sender for p in msg.proofs}) < view.n - view.f:
            return  # insufficient justification
        if not self._sync_respects_certificates(msg):
            return  # leader ignored a certified value: refuse
        if msg.regency > replica.regency:
            replica.set_regency(msg.regency)
            replica.log.log_regency(msg.regency)
            replica.counters.regency_changes += 1
        self.changing_regency = False
        if replica.obs is not None:
            replica.obs.on_sync_completed(replica.replica_id, msg.regency, replica.sim.now)
        self._stop_sent = {r for r in self._stop_sent if r > msg.regency}
        replica._forwarded = False
        # stale arrival times would depose the new leader before it can
        # propose what it inherited
        replica.pending.restart_clocks(replica.sim.now)

        if msg.cid <= replica.last_executed:
            # we already executed the open instance; just resume
            replica._maybe_propose()
            return
        if msg.cid > replica.last_executed + 1:
            replica.state_transfer.start()
            return

        inst = replica.instance(msg.cid)
        # roll back a divergent tentative execution before adopting
        if inst.tentative_hash is not None and inst.tentative_hash != msg.value_hash:
            replica._rollback_tentative()
        if msg.batch:
            if batch_hash(msg.cid, msg.batch) != msg.value_hash:
                return
            inst.learn_value(msg.batch)
            inst.proposed_hash[msg.regency] = msg.value_hash
            replica.active_cid = msg.cid
            replica._cast_write(inst, msg.value_hash)
            replica.recheck_instance(inst)
        else:
            # nothing to decide: regency installed, resume normal path
            replica.active_cid = None
            replica._maybe_propose()

    def _sync_respects_certificates(self, msg: Sync) -> bool:
        """The leader must propose any certified value its proofs show."""
        best: Optional[WriteCertificate] = None
        for report in msg.proofs:
            cert = report.write_certificate
            if cert is None or cert.cid != msg.cid or cert.batch is None:
                continue
            if not self._certificate_valid(cert):
                continue
            if best is None or cert.regency > best.regency:
                best = cert
        if best is None:
            return True
        return best.value_hash == msg.value_hash
