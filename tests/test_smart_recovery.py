"""Tests for crash-amnesia recovery over the consensus WAL.

These are the executable specification of docs/RECOVERY.md: a replica
that crashes with amnesia restarts from its WAL, never contradicts its
pre-crash votes, quarantines itself on mid-log corruption, and rejoins
(or stays passive) according to the current view.
"""

import random

from repro.faults.invariants import VoteRecorder, check_durable_logs
from repro.obs import Observability
from repro.ordering.wal_codec import decode_value, encode_value
from repro.sim.storage import SimDisk, StorageFaults, scan_records
from repro.smart import ReconfigurationClient, default_replier
from repro.smart.messages import ClientRequest
from repro.smart.wal import ConsensusWAL
from tests.conftest import Cluster


def wal_cluster(**kwargs) -> Cluster:
    """A conftest cluster whose replicas log to consensus WALs."""
    cluster = Cluster(**kwargs)
    for replica in cluster.replicas:
        replica.log = ConsensusWAL(
            SimDisk(),
            encode_op=encode_value,
            decode_op=decode_value,
            encode_state=encode_value,
            decode_state=decode_value,
        )
    return cluster


class TestAmnesiacRestart:
    def test_restart_catches_up_and_rejoins(self):
        cluster = wal_cluster(checkpoint_period=4)
        victim = cluster.replicas[1]
        proxy = cluster.proxy()
        assert cluster.drain([proxy.invoke(i) for i in range(6)])

        victim.crash(amnesia=True)
        victim.log.disk.crash(StorageFaults(), random.Random(1))
        assert cluster.drain(
            [proxy.invoke(i) for i in range(6, 12)], deadline=20.0
        )

        victim.recover()
        cluster.run(3.0)
        assert victim.counters.restarts == 1
        assert not victim.crashed
        stats = victim.recovery_stats
        assert stats is not None
        assert stats["rejoined_at"] is not None
        assert stats["replay_s"] >= 0.0
        assert not stats["corrupt"]
        assert cluster.apps[1].total == cluster.apps[0].total
        assert cluster.apps[1].history == cluster.apps[0].history

    def test_plain_crash_still_suspends(self):
        """Without amnesia, crash/recover keeps the old semantics."""
        cluster = wal_cluster()
        victim = cluster.replicas[2]
        proxy = cluster.proxy()
        assert cluster.drain([proxy.invoke(1)])
        victim.crash()
        assert cluster.drain([proxy.invoke(2)], deadline=20.0)
        victim.recover()
        cluster.run(2.0)
        assert victim.counters.restarts == 0
        assert victim.recovery_stats is None
        assert cluster.apps[2].total == cluster.apps[0].total

    def test_no_equivocation_under_torn_tail(self):
        """The headline invariant: a restarted replica never sends a
        different WRITE/ACCEPT hash for a slot it voted before the
        crash, even when the crash tears the WAL tail."""
        cluster = wal_cluster()
        recorder = VoteRecorder(cluster.network)
        victim = cluster.replicas[1]
        proxy = cluster.proxy()
        futures = [proxy.invoke(i) for i in range(8)]

        def crash_mid_protocol():
            victim.crash(amnesia=True)
            victim.log.disk.crash(
                StorageFaults(torn_tail=True), random.Random(3)
            )

        cluster.sim.schedule(0.002, crash_mid_protocol)
        cluster.sim.schedule(0.5, victim.recover)
        assert cluster.drain(futures, deadline=20.0)
        cluster.run(3.0)
        assert recorder.check() == []
        assert check_durable_logs(cluster.replicas) == []
        assert cluster.apps[1].total == cluster.apps[0].total

    def test_corrupt_wal_quarantines_votes(self):
        cluster = wal_cluster()
        victim = cluster.replicas[1]
        proxy = cluster.proxy()
        assert cluster.drain([proxy.invoke(i) for i in range(6)])

        victim.crash(amnesia=True)
        disk = victim.log.disk
        disk._durable[disk.durable_size // 2] ^= 0x01  # mid-log bit rot
        victim.recover()
        cluster.run(1.0)
        assert victim.recovery_stats["corrupt"]
        assert victim._quarantine_regency is not None
        # the quarantined replica still catches up via state transfer
        assert cluster.drain(
            [proxy.invoke(i) for i in range(6, 10)], deadline=20.0
        )
        cluster.run(2.0)
        assert cluster.apps[1].total == cluster.apps[0].total
        # its truncated log re-verifies cleanly after recovery
        assert victim.log.verify() == []

    def test_regency_rederived_from_wal(self):
        cluster = wal_cluster()
        victim = cluster.replicas[1]
        proxy = cluster.proxy()
        assert cluster.drain([proxy.invoke(1)])
        victim.log.log_regency(5)
        victim.log.log_write(40, 5, b"\xaa" * 8)
        victim.crash(amnesia=True)
        victim.recover()
        assert victim.regency == 5
        assert victim.instance(40).write_sent.get(5) == b"\xaa" * 8

    def test_recovery_emits_observability(self):
        cluster = wal_cluster()
        victim = cluster.replicas[1]
        hub = Observability(clock=lambda: cluster.sim.now)
        victim.obs = hub
        proxy = cluster.proxy()
        assert cluster.drain([proxy.invoke(i) for i in range(4)])
        victim.crash(amnesia=True)
        victim.recover()
        cluster.run(3.0)
        assert hub.registry.counter("smart.replica.1.restarts").value == 1
        spans = [s for s in hub.tracer.spans if s.name == "recovery"]
        assert len(spans) == 1
        assert not spans[0].open

    def test_restored_replica_skips_a_re_proposed_pre_checkpoint_request(self):
        cluster = wal_cluster(checkpoint_period=4)
        leader, victim = cluster.replicas[0], cluster.replicas[1]
        proxy = cluster.proxy()
        for operation in range(1, 9):  # one decision each: cids 0..7
            assert cluster.drain([proxy.invoke(operation)])
        assert victim.log.checkpoint.cid == 7
        victim.crash(amnesia=True)
        victim.recover()
        cluster.run(3.0)
        assert victim.recovery_stats["rejoined_at"] is not None
        assert cluster.apps[1].history == cluster.apps[0].history

        # request 0 was decided at cid 0, before the checkpoint
        replayed = ClientRequest(proxy.client_id, 0, operation=1000)
        leader.pending.add(replayed, cluster.sim.now)
        leader._maybe_propose()
        cluster.run(1.0)
        assert leader.last_executed == victim.last_executed == 8
        assert cluster.apps[1].history == cluster.apps[0].history

    def test_state_transfer_carries_the_executed_table(self):
        """The same re-proposal at a replica with no WAL at all: it
        rebuilds from the peers' checkpoint, so the table it skips the
        request by comes from the ``StateReply``."""
        cluster = Cluster(checkpoint_period=4)
        leader, victim = cluster.replicas[0], cluster.replicas[1]
        proxy = cluster.proxy()
        for operation in range(1, 9):
            assert cluster.drain([proxy.invoke(operation)])
        victim.crash(amnesia=True)
        victim.recover()
        cluster.run(3.0)
        assert victim.state_transfer.transfers_completed == 1
        assert victim.log.checkpoint.cid == 7 and victim.last_executed == 7
        assert victim._executed_ids == leader._executed_ids

        replayed = ClientRequest(proxy.client_id, 0, operation=1000)
        leader.pending.add(replayed, cluster.sim.now)
        leader._maybe_propose()
        cluster.run(1.0)
        assert leader.last_executed == victim.last_executed == 8
        assert cluster.apps[1].history == cluster.apps[0].history


def assert_one_period_on_disk(wal: ConsensusWAL, period: int) -> None:
    """The durable image is the last checkpoint's frame, at most one
    ``reg`` frame, and the batch and vote frames of one period plus the
    instance in flight, all above the checkpoint, one of each per slot."""
    records = scan_records(wal.disk.read()).records
    floor = -1
    if any(record["t"] == "ckpt" for record in records):
        assert records[0]["t"] == "ckpt"
        floor = records.pop(0)["cid"]
        if records and records[0]["t"] == "reg":
            records.pop(0)
    slots = [(r["t"], r["cid"], r.get("reg")) for r in records if r["t"] != "reg"]
    assert len(slots) == len(set(slots))
    cids = {cid for _, cid, _ in slots}
    assert all(cid > floor for cid in cids)
    assert len(cids) <= period + 1


class TestCheckpointCompactsTheWal:
    def test_image_stays_one_period_long_and_a_restart_rejoins(self):
        """Five periods of decisions, one each, checked after every
        record a replica logs; replica 1 crashes with amnesia after the
        third checkpoint, replays from it and rejoins."""
        period = 4
        cluster = wal_cluster(checkpoint_period=period)
        checked = []

        def watch(wal, name):
            logged = getattr(wal, name)

            def checking(*args):
                result = logged(*args)
                assert_one_period_on_disk(wal, period)
                checked.append(name)
                return result

            setattr(wal, name, checking)

        for replica in cluster.replicas:
            for name in ("append", "set_checkpoint", "log_write", "log_accept", "log_regency"):
                watch(replica.log, name)
        victim = cluster.replicas[1]
        proxy = cluster.proxy()
        for operation in range(1, 13):  # cids 0..11: the third checkpoint is at 11
            assert cluster.drain([proxy.invoke(operation)])
        assert victim.log.checkpoint.cid == 11
        victim.crash(amnesia=True)
        victim.log.disk.crash(StorageFaults(torn_tail=True), random.Random(5))
        assert scan_records(victim.log.disk.read()).records[0]["cid"] == 11
        for operation in range(13, 17):
            assert cluster.drain([proxy.invoke(operation)])
        victim.recover()
        cluster.run(3.0)
        for operation in range(17, 21):  # cids 16..19: the fifth period
            assert cluster.drain([proxy.invoke(operation)])
        cluster.run(1.0)

        assert victim.counters.restarts == 1
        assert victim.recovery_stats["rejoined_at"] is not None
        assert not victim.recovery_stats["corrupt"]
        assert {replica.last_executed for replica in cluster.replicas} == {19}
        assert {replica.log.checkpoint.cid for replica in cluster.replicas} == {19}
        assert all(app.get_state() == cluster.apps[0].get_state() for app in cluster.apps)
        assert cluster.apps[0].history == list(range(1, 21))
        assert checked.count("set_checkpoint") >= 4 * 4
        assert check_durable_logs(cluster.replicas) == []


class TestLeaderReturnsBeforeItsSuccessorIsElected:
    def test_requests_after_the_return_overtake_the_backlog(self):
        """The order the ``leader_crash_wal`` benchmark shows
        (docs/RECOVERY.md, "A leader that returns in time"), at 100
        requests/s with a 0.5 s request timeout, so timeout ticks every
        0.25 s.  The regency-0 leader crashes with amnesia at 0.5005 s
        and is back at 1.5005 s, leading regency 0 again with an empty
        queue.  At the 1.5 s tick the backlog the others queued during
        the outage is 0.99 s old, short of the two timeouts that send
        STOP.  So the requests sent after the return decide in regency
        0, one by one, while the backlog waits for the 1.75 s tick to
        install regency 1 and then decides in one batch."""
        cluster = wal_cluster(request_timeout=0.5)
        leader, witness = cluster.replicas[0], cluster.replicas[1]
        decided = {}

        def replier(replica, request, result, regency, tentative):
            decided[request.operation] = (regency, replica.sim.now)
            default_replier(replica, request, result, regency, tentative)

        witness.replier = replier
        proxy = cluster.proxy()
        sent = [0.01 * (k + 1) for k in range(200)]
        for k, at in enumerate(sent):
            cluster.sim.schedule_at(at, proxy.invoke_async, k)
        cluster.sim.schedule_at(0.5005, leader.crash, True)
        cluster.sim.schedule_at(1.5005, leader.recover)
        cluster.sim.run(until=1.7499)
        assert witness.regency == 0 and leader.recovery_stats["rejoined_at"] < 1.51
        cluster.sim.run(until=3.0)
        assert witness.regency == 1

        backlog = [k for k, at in enumerate(sent) if 0.5005 < at < 1.5005]
        returned = [k for k, at in enumerate(sent) if 1.5005 < at < 1.745]
        assert len(backlog) == 100 and len(returned) == 24
        for k in returned:
            regency, when = decided[k]
            assert regency == 0 and when - sent[k] < 0.005
        backlog_decided = {decided[k] for k in backlog}
        assert len(backlog_decided) == 1  # one batch, in the new regency
        ((regency, when),) = backlog_decided
        assert regency == 1 and 1.75 < when < 1.76
        assert decided[returned[-1]][1] < when
        assert all(decided[k][0] == 1 for k, at in enumerate(sent) if at > 1.76)


class TestRecoveryAndReconfiguration:
    def test_removed_while_crashed_stays_passive(self):
        """A replica reconfigured out of the group while crashed must
        not rejoin as an active member after restart."""
        cluster = wal_cluster(n=5, f=1)
        victim = cluster.replicas[4]
        proxy = cluster.proxy()
        assert cluster.drain([proxy.invoke(1)])

        victim.crash(amnesia=True)
        admin = ReconfigurationClient(cluster.proxy())
        assert cluster.drain([admin.remove_replica(4)], deadline=20.0)
        assert 4 not in cluster.replicas[0].view.processes

        victim.recover()
        cluster.run(3.0)
        assert victim.crashed  # passive, not serving
        # the 4-replica group still makes progress without it
        proxy.update_view(cluster.replicas[0].view)
        assert cluster.drain([proxy.invoke(2)], deadline=20.0)
