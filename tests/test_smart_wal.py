"""Tests for the consensus WAL and the ordering-service WAL codec."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.faults.invariants import check_durable_logs
from repro.ordering import OrderingServiceConfig, build_ordering_service
from repro.ordering.node import TimeToCut
from repro.ordering.wal_codec import decode_value, encode_value
from repro.sim.storage import SimDisk, StorageFaults
from repro.smart.durability import Checkpoint, OperationLog, state_digest
from repro.smart.messages import ClientRequest
from repro.smart.reconfiguration import ReconfigOp
from repro.smart.wal import ConsensusWAL

GOLDEN = Path(__file__).parent / "data" / "golden" / "wal_image_seed3.json"


def request(seq, op=7):
    return ClientRequest(client_id=1, sequence=seq, operation=op, size_bytes=4)


def make_wal():
    return ConsensusWAL(SimDisk())


def ordering_wal(disk=None) -> ConsensusWAL:
    """A WAL with the ordering-service codec, as ``make_ordering_wal``
    builds it -- on a fresh disk, or re-opened over an existing one."""
    return ConsensusWAL(
        disk or SimDisk(),
        encode_op=encode_value,
        decode_op=decode_value,
        encode_state=encode_value,
        decode_state=decode_value,
    )


class TestConsensusWAL:
    def test_batches_group_commit_on_vote_fsync(self):
        wal = make_wal()
        wal.append(0, [request(0)])
        assert wal.disk.unsynced_size > 0  # batch alone is not durable
        wal.log_write(1, 0, b"\xaa" * 4)
        assert wal.disk.unsynced_size == 0  # the vote fsync carried it

    def test_recover_roundtrip(self):
        wal = make_wal()
        wal.append(0, [request(0, 3), request(1, 4)])
        wal.append(1, [request(2, 5)])
        state = {"total": 12}
        wal.set_checkpoint(
            Checkpoint(cid=0, state=state, state_hash=state_digest(state))
        )
        wal.log_write(2, 0, b"\x01" * 8)
        wal.log_accept(2, 0, b"\x01" * 8)
        wal.log_regency(1)
        wal.log_write(2, 1, b"\x02" * 8)

        fresh = ConsensusWAL(wal.disk)
        recovery = fresh.recover()
        assert not recovery.corrupt
        assert recovery.truncated_bytes == 0
        assert recovery.checkpoint.cid == 0
        assert recovery.checkpoint.state == {"total": 12}
        assert [cid for cid, _ in recovery.entries] == [1]
        [request_back] = recovery.entries[0][1]
        assert (request_back.request_id, request_back.operation) == ((1, 2), 5)
        assert recovery.write_evidence == {2: {0: b"\x01" * 8, 1: b"\x02" * 8}}
        assert recovery.accept_evidence == {2: {0: b"\x01" * 8}}
        assert recovery.regency == 1
        assert fresh.last_cid == 1

    def test_recover_of_a_fresh_disk_is_empty(self):
        recovery = make_wal().recover()
        assert (recovery.checkpoint, recovery.entries, recovery.records) == (None, [], 0)
        assert (recovery.write_evidence, recovery.accept_evidence) == ({}, {})

    def test_recover_decodes_through_the_op_codec(self):
        def codec_wal(disk):
            return ConsensusWAL(
                disk,
                encode_op=lambda op: {"v": op[0]},
                decode_op=lambda data: (data["v"],),
            )

        wal = codec_wal(SimDisk())
        wal.append(0, [request(0, ("tuple-op",))])
        wal.log_regency(0)  # the fsync the batch rides
        [(_cid, [back])] = codec_wal(wal.disk).recover().entries
        assert back.operation == ("tuple-op",)

    def test_synced_votes_survive_lost_suffix(self):
        wal = make_wal()
        wal.log_write(0, 0, b"\xab" * 8)  # fsynced before send
        wal.append(0, [request(0)])  # unsynced batch record
        wal.disk.crash(StorageFaults(), random.Random(0))
        recovery = ConsensusWAL(wal.disk).recover()
        assert recovery.write_evidence == {0: {0: b"\xab" * 8}}
        assert recovery.entries == []  # the batch is gone -- safety intact

    def test_torn_tail_truncates_and_continues(self):
        wal = make_wal()
        wal.log_write(0, 0, b"\x01" * 8)
        wal.append(0, [request(0)])
        wal.append(1, [request(1)])
        rng = random.Random(2)
        wal.disk.crash(StorageFaults(torn_tail=True), rng)
        recovery = ConsensusWAL(wal.disk).recover()
        assert not recovery.corrupt
        assert recovery.write_evidence == {0: {0: b"\x01" * 8}}
        # after truncation the remaining image rescans cleanly
        assert ConsensusWAL(wal.disk).verify() == []

    def test_midlog_corruption_flags_corrupt(self):
        wal = make_wal()
        wal.log_write(0, 0, b"\x01" * 8)
        wal.log_write(1, 0, b"\x02" * 8)
        wal.log_write(2, 0, b"\x03" * 8)
        # flip a bit in the middle record (not the last one)
        record_len = wal.disk.durable_size // 3
        wal.disk._durable[record_len + 15] ^= 0x01
        recovery = ConsensusWAL(wal.disk).recover()
        assert recovery.corrupt
        # only the clean prefix survives
        assert recovery.write_evidence == {0: {0: b"\x01" * 8}}

    def test_verify_reports_conflicting_votes(self):
        wal = make_wal()
        wal.log_write(3, 1, b"\x01" * 8)
        wal.log_write(3, 1, b"\x02" * 8)
        problems = wal.verify()
        assert any("conflicting write votes" in p for p in problems)

    def test_verify_reports_scan_damage(self):
        wal = make_wal()
        wal.log_write(0, 0, b"\x01" * 8)
        wal.disk.append(b"garbage")
        assert any("log scan failed" in p for p in wal.verify())

    def test_clear_resets_memory_not_disk(self):
        wal = make_wal()
        wal.append(0, [request(0)])
        wal.log_write(0, 0, b"\x01" * 8)
        wal.clear()
        assert len(wal) == 0
        assert wal.disk.durable_size > 0


    def test_clear_is_the_operation_logs(self):
        assert ConsensusWAL.clear is OperationLog.clear

    def test_default_codecs_are_shared_functions(self):
        """Codecs are compared by identity when WALs share a batch
        frame; two default-codec WALs must compare equal."""
        first, second = make_wal(), make_wal()
        assert first._encode_op is second._encode_op
        assert first._decode_op is second._decode_op
        assert first._encode_op("op") == "op"


def wal_image_fingerprint() -> dict:
    """Per-replica WAL bytes of a seeded durable run: 96 pinned-id
    envelopes through two frontends, in bursts of eight and three
    waves, with a batch timeout (``__ttc`` operations; the submitter
    names need escaping) and a checkpoint every 8 decisions (``ckpt``
    records with nested ``__env``/``__b`` state).  The leader crashes
    with amnesia between two bursts of the first wave, while a batch
    record sits unsynced, and the tear cuts it in half; the next burst
    finds no leader (``reg`` records at the others); the leader
    recovers at 1.5 s (truncation, WAL replay, state transfer) and logs
    the third wave again."""
    service = build_ordering_service(
        OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("ch0", max_message_count=4, batch_timeout=0.05),
            num_frontends=2,
            request_timeout=0.3,
            checkpoint_period=8,
            enable_batch_timeout=True,
            durable_wal=True,
            seed=3,
        )
    )
    for i in range(96):
        envelope = Envelope(
            channel_id="ch0",
            transaction=None,
            payload_size=200 + i,
            submitter=f"caf\u00e9-{i % 3} \"quoted\" \\ \n",
            envelope_id=i,
        )
        due = 0.02 + (i // 8) * 0.03 + (0.0, 0.3, 1.7)[i // 32]
        service.sim.schedule_at(due, service.submit, envelope, i % 2)
    leader = service.replicas[0]

    def crash():
        leader.crash(amnesia=True)
        leader.log.disk.crash(StorageFaults(torn_tail=True), random.Random(3))

    service.sim.schedule_at(0.095, crash)
    service.sim.schedule_at(1.5, leader.recover)
    service.run(6.0)
    assert check_durable_logs(service.replicas) == []
    assert leader.counters.restarts == 1 and leader.recovery_stats["rejoined_at"]
    assert len({fe.blocks_delivered for fe in service.frontends}) == 1
    return {
        "delivered": service.frontends[0].blocks_delivered,
        "truncated_bytes": leader.recovery_stats["truncated_bytes"],
        "regencies": [replica.regency for replica in service.replicas],
        "replicas": [
            {
                "sha256": hashlib.sha256(replica.log.disk.contents()).hexdigest(),
                "durable_size": replica.log.disk.durable_size,
                "fsyncs": replica.log.disk.fsyncs,
            }
            for replica in service.replicas
        ],
    }


def test_wal_image_matches_golden():
    """Recorded at the parent of the templated / shared framing: every
    byte any replica wrote -- votes, regencies, batches, checkpoints,
    the torn and truncated tail -- is unchanged, and so is every fsync."""
    fingerprint = wal_image_fingerprint()
    assert fingerprint["truncated_bytes"] > 0 and max(fingerprint["regencies"]) >= 1
    assert fingerprint == json.loads(GOLDEN.read_text())


class TestWalCodec:
    def roundtrip(self, value):
        return decode_value(encode_value(value))

    def test_scalars_and_containers(self):
        value = {"a": [1, 2.5, None, True, "s"], "b": (1, (2, b"\x00\xff"))}
        assert self.roundtrip(value) == value

    def test_envelope(self):
        env = Envelope(
            channel_id="ch0",
            transaction=("tx", 1),
            payload_size=1024,
            submitter="client-9",
            envelope_id=42,
        )
        back = self.roundtrip(env)
        assert isinstance(back, Envelope)
        assert back.channel_id == "ch0"
        assert back.transaction == ("tx", 1)
        assert back.envelope_id == 42
        assert back.signature == env.signature

    def test_time_to_cut_and_reconfig(self):
        ttc = self.roundtrip(TimeToCut(channel_id="ch0", target_height=5))
        assert isinstance(ttc, TimeToCut)
        assert ttc.target_height == 5
        rc = self.roundtrip(ReconfigOp(action="remove", replica_id=3))
        assert isinstance(rc, ReconfigOp)
        assert (rc.action, rc.replica_id) == ("remove", 3)

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            encode_value(object())
