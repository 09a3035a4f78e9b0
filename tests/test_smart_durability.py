"""Tests for the operation log, checkpoints and their durable copy."""

import pytest

from repro.sim.storage import SimDisk
from repro.smart.durability import Checkpoint, OperationLog, state_digest
from repro.smart.messages import ClientRequest
from repro.smart.wal import ConsensusWAL


def request(seq, op="x"):
    return ClientRequest(client_id=1, sequence=seq, operation=op, size_bytes=4)


class TestOperationLog:
    def test_append_and_read(self):
        log = OperationLog()
        log.append(0, [request(0)])
        log.append(1, [request(1)])
        assert len(log) == 2
        assert log.last_cid == 1

    def test_monotonic_enforced(self):
        log = OperationLog()
        log.append(5, [request(0)])
        with pytest.raises(ValueError):
            log.append(5, [request(1)])
        with pytest.raises(ValueError):
            log.append(3, [request(2)])

    def test_checkpoint_truncates(self):
        log = OperationLog()
        for cid in range(6):
            log.append(cid, [request(cid)])
        log.set_checkpoint(Checkpoint(cid=3, state="s", state_hash=b"h"))
        assert len(log) == 2
        assert [cid for cid, _ in log.entries] == [4, 5]
        assert log.last_cid == 5

    def test_entries_after(self):
        log = OperationLog()
        for cid in range(4):
            log.append(cid, [request(cid)])
        assert [cid for cid, _ in log.entries_after(1)] == [2, 3]

    def test_empty_log_last_cid(self):
        log = OperationLog()
        assert log.last_cid == -1
        log.set_checkpoint(Checkpoint(cid=9, state=None, state_hash=b"h"))
        assert log.last_cid == 9


class TestStateDigest:
    def test_deterministic(self):
        assert state_digest({"a": 1}) == state_digest({"a": 1})

    def test_sensitive_to_content(self):
        assert state_digest({"a": 1}) != state_digest({"a": 2})

    def test_handles_none(self):
        assert isinstance(state_digest(None), bytes)

    def test_handles_nested_and_bytes(self):
        digest = state_digest({"chain": [b"\x00" * 32, ("x", 1)]})
        assert len(digest) == 32


def reload(disk):
    """What a restarted process rebuilds from the durable image."""
    log = ConsensusWAL(disk)
    return log, log.recover()


class TestFileBackedLog:
    """The operation log persisted to stable storage -- a
    :class:`ConsensusWAL` on a :class:`SimDisk` -- survives a reload."""

    def test_survives_reload(self):
        wal = ConsensusWAL(SimDisk())
        wal.append(0, [request(0, "alpha"), request(1, "beta")])
        wal.append(1, [request(2, "gamma")])
        wal.disk.sync()

        reloaded, _recovery = reload(wal.disk)
        assert len(reloaded) == 2
        assert reloaded.last_cid == 1
        batch0 = reloaded.entries[0][1]
        assert [r.operation for r in batch0] == ["alpha", "beta"]
        assert [r.request_id for r in batch0] == [(1, 0), (1, 1)]

    def test_checkpoint_survives_reload(self):
        wal = ConsensusWAL(SimDisk())
        for cid in range(4):
            wal.append(cid, [request(cid)])
        state = {"total": 4}
        wal.set_checkpoint(
            Checkpoint(cid=2, state=state, state_hash=state_digest(state))
        )
        reloaded, recovery = reload(wal.disk)
        assert recovery.checkpoint is not None
        assert reloaded.checkpoint.cid == 2
        assert reloaded.checkpoint.state == {"total": 4}
        assert [cid for cid, _ in reloaded.entries] == [3]

    def test_replica_with_file_log_recovers_history(self):
        """End-to-end durability: a replica's durable log can rebuild the
        decided history after a process restart."""
        from repro.sim import ConstantLatency, Network, Simulator
        from repro.smart import ServiceProxy, ServiceReplica, View
        from tests.conftest import CounterApp

        sim = Simulator()
        net = Network(sim, ConstantLatency(0.0005))
        view = View(0, (0, 1, 2, 3), 1)
        logs = [ConsensusWAL(SimDisk()) for _ in range(4)]
        apps = [CounterApp() for _ in range(4)]
        for i in range(4):
            replica = ServiceReplica(sim, net, i, view, apps[i], log=logs[i])
            net.register(i, replica)
        proxy = ServiceProxy(sim, net, 1000, view)
        futures = [proxy.invoke(i) for i in range(6)]
        assert sim.drain(futures, 10.0)

        # "restart" after a clean stop, which flushes the write cache:
        # reload replica 0's log from its disk and replay it
        logs[0].disk.sync()
        recovered, _recovery = reload(logs[0].disk)
        replayed = CounterApp()
        for cid, batch in recovered.entries:
            replayed.execute_batch(cid, batch, 0)
        assert replayed.history == apps[0].history
        assert sorted(replayed.history) == list(range(6))


class TestFileBackedLogDamage:
    """Crash damage in the durable image of the operation log."""

    def _log_with_entries(self, count=3):
        wal = ConsensusWAL(SimDisk())
        for cid in range(count):
            wal.append(cid, [request(cid)])
        wal.disk.sync()
        return wal.disk

    def test_torn_tail_truncated_on_recovery(self):
        """A partial final record (crash mid-write) is discarded and the
        image is truncated to the valid prefix."""
        disk = self._log_with_entries()
        size = disk.durable_size
        disk.truncate(size - 7)  # cut into the final record

        reloaded, recovery = reload(disk)
        assert [cid for cid, _ in reloaded.entries] == [0, 1]
        assert not recovery.corrupt
        # the truncation is durable: a second reload is clean too
        assert disk.durable_size < size - 7
        again, recovery = reload(disk)
        assert [cid for cid, _ in again.entries] == [0, 1]
        assert recovery.truncated_bytes == 0

    def test_crc_mismatch_in_tail_truncated(self):
        disk = self._log_with_entries()
        disk._durable[-5] = ord("X")  # corrupt the last record's payload

        reloaded, recovery = reload(disk)
        assert [cid for cid, _ in reloaded.entries] == [0, 1]
        assert not recovery.corrupt and recovery.truncated_bytes > 0

    def test_midfile_corruption_raises(self):
        """A bad record followed by valid ones cannot come from a torn
        write.  Recovery raises the alarm by flagging the log ``corrupt``
        (the replica then falls back to state transfer) and replays
        nothing past the damage."""
        disk = self._log_with_entries()
        first_line_end = disk.read().find(b"\n")
        disk._durable[first_line_end - 3] = ord("X")  # valid records follow

        reloaded, recovery = reload(disk)
        assert recovery.corrupt
        assert reloaded.entries == []
