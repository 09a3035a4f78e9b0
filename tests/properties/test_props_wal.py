"""Property-based byte-identity tests for the consensus WAL.

The WAL image feeds torn-tail sector arithmetic, modelled read latency
and ``durable_bytes``, so how a frame is produced -- canonical-JSON
encoder, byte template, or a frame another replica built for the same
batch object -- must never show in its bytes.  The reference is the
``json.dumps`` framing the WAL had before, kept in
``tests/test_sim_storage.py``.

A checkpoint compacts the image; :class:`TestCompaction` holds what a
restart rebuilds off it to what it rebuilds off the stream as written
(:class:`UncompactedDisk`).
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.envelope import Envelope
from repro.ordering.node import TimeToCut
from repro.ordering.wal_codec import encode_value
from repro.sim.storage import SimDisk, StorageFaults, scan_records
from repro.smart.batching import RequestBatch
from repro.smart.durability import Checkpoint
from repro.smart.messages import ClientRequest
from repro.smart.reconfiguration import ReconfigOp
from repro.smart.wal import ConsensusWAL
from tests.test_sim_storage import oracle_frame_record
from tests.test_smart_wal import ordering_wal

# negative and far-past-64-bit values: the templates print what json prints
integers = st.integers(min_value=-(2**80), max_value=2**80)
hashes = st.binary(max_size=64)
# every plane, control characters, quotes and backslashes, lone surrogates
texts = st.text(max_size=24) | st.sampled_from(
    ["", 'q"uote', "back\\slash", "\n\r\t\x00\x1f\x7f", "café", "  ", "\U0001f600"]
)

plain_values = st.recursive(
    st.none() | st.booleans() | integers | st.floats(allow_nan=False) | texts,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(texts, children, max_size=3),
    max_leaves=8,
)

envelopes = st.builds(
    Envelope,
    channel_id=texts,
    transaction=st.none() | plain_values,
    payload_size=st.integers(min_value=0, max_value=2**40),
    submitter=texts,
    signature=st.binary(max_size=64),
    is_config=st.booleans(),
    envelope_id=integers,
    create_time=st.none() | st.floats(allow_nan=False, allow_infinity=False),
)

# everything the ordering-service codec tags: __env, __ttc, __rc, __b, __t
codec_values = st.recursive(
    plain_values
    | st.binary(max_size=16)
    | envelopes
    | st.builds(TimeToCut, channel_id=texts, target_height=integers)
    | st.builds(ReconfigOp, action=st.sampled_from(["add", "remove"]), replica_id=integers),
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(texts, children, max_size=3),
    max_leaves=6,
)

requests = st.builds(
    ClientRequest,
    client_id=integers,
    sequence=integers,
    operation=codec_values,
    size_bytes=st.integers(min_value=0, max_value=2**40),
    reconfig=st.booleans(),
)


def oracle_batch_record(cid, batch) -> bytes:
    return oracle_frame_record(
        {
            "t": "batch",
            "cid": cid,
            "reqs": [
                [
                    r.client_id,
                    r.sequence,
                    encode_value(r.operation),
                    r.size_bytes,
                    1 if r.reconfig else 0,
                ]
                for r in batch
            ],
        }
    )


class TestVoteAndRegencyTemplates:
    @given(kind=st.sampled_from(["write", "accept"]), cid=integers, reg=integers, h=hashes)
    def test_vote_record_is_canonical_json(self, kind, cid, reg, h):
        wal = ConsensusWAL(SimDisk())
        log = wal.log_write if kind == "write" else wal.log_accept
        log(cid, reg, h)
        expected = oracle_frame_record({"t": kind, "cid": cid, "reg": reg, "h": h.hex()})
        assert wal.disk.read() == expected  # same bytes, CRC included, and fsynced
        assert wal.disk.fsyncs == 1
        assert scan_records(expected).records == [
            {"t": kind, "cid": cid, "reg": reg, "h": h.hex()}
        ]

    @given(reg=integers)
    def test_regency_record_is_canonical_json(self, reg):
        wal = ConsensusWAL(SimDisk())
        wal.log_regency(reg)
        assert wal.disk.read() == oracle_frame_record({"t": "reg", "reg": reg})
        assert wal.disk.fsyncs == 1


class TestBatchAndCheckpointRecords:
    @settings(max_examples=60, deadline=None)
    @given(cid=integers, batch=st.lists(requests, max_size=4))
    def test_batch_record_bytes_whoever_built_the_frame(self, cid, batch):
        """A plain list, the first WAL to log a ``RequestBatch`` and a
        second WAL reusing that frame all write the oracle's bytes."""
        expected = oracle_batch_record(cid, batch)
        plain = ordering_wal()
        plain.append(cid, list(batch))
        assert plain.disk.contents() == expected

        shared = RequestBatch(batch)
        first, second = ordering_wal(), ordering_wal()
        first.append(cid, shared)
        second.append(cid, shared)
        assert first.disk.contents() == expected
        assert second.disk.contents() == expected
        assert first.disk.unsynced_size == len(expected)  # still group-committed

        # every frame scans back, and recovery decodes what was logged
        assert scan_records(expected).records == [json.loads(expected[9:])]
        second.log_regency(0)  # the fsync a decided batch rides
        replayed = ordering_wal(second.disk).recover()
        [(replayed_cid, replayed_batch)] = replayed.entries
        assert replayed_cid == cid
        assert [
            (r.client_id, r.sequence, r.size_bytes, r.reconfig) for r in replayed_batch
        ] == [(r.client_id, r.sequence, r.size_bytes, r.reconfig) for r in batch]
        assert [encode_value(r.operation) for r in replayed_batch] == [
            encode_value(r.operation) for r in batch
        ]

    @settings(max_examples=40, deadline=None)
    @given(cid=integers, state=codec_values, state_hash=hashes)
    def test_checkpoint_record_is_canonical_json(self, cid, state, state_hash):
        wal = ordering_wal()
        wal.set_checkpoint(Checkpoint(cid=cid, state=state, state_hash=state_hash))
        assert wal.disk.read() == oracle_frame_record(
            {
                "t": "ckpt",
                "cid": cid,
                "state": encode_value(state),
                "hash": state_hash.hex(),
            }
        )


class UncompactedDisk(SimDisk):
    """The oracle: a disk that records every synced byte and ignores a
    checkpoint's swap, so its image is the stream as it was written."""

    def swap(self, image: bytearray) -> None:
        assert not self.unsynced_size


#: what a replica writes, in any interleaving: the next decided batch,
#: a vote at the instance just decided or the next one, a regency, and a
#: checkpoint at the last decision or, as state transfer installs one,
#: past it
wal_ops = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), st.integers(0, 2)),
        st.tuples(st.sampled_from(["write", "accept"]), st.integers(0, 1), st.integers(0, 3)),
        st.tuples(st.just("reg"), st.integers(0, 3)),
        st.tuples(st.just("ckpt"), st.integers(0, 2), st.booleans()),
    ),
    max_size=40,
)


def replay(ops, wal: ConsensusWAL) -> None:
    decided, checkpoint = -1, -1
    for op in ops:
        kind = op[0]
        if kind == "batch":
            decided += 1
            wal.append(decided, [ClientRequest(7, decided, operation=op[1], size_bytes=1)])
        elif kind in ("write", "accept"):
            log = wal.log_write if kind == "write" else wal.log_accept
            cid = max(decided, checkpoint + 1) + op[1]
            log(cid, op[2], b"%d/%d" % (cid, op[2]))  # one value per slot
        elif kind == "reg":
            wal.log_regency(op[1])
        elif decided + op[1] > checkpoint:
            checkpoint = decided = decided + op[1]
            executed = ((), ((7, decided),)) if op[2] else ((), ())
            state = {"at": decided}
            wal.set_checkpoint(Checkpoint(decided, state, b"%d" % decided, executed))


def recovered(disk: SimDisk) -> tuple:
    """What a restart off ``disk`` rebuilds, votes at or below the
    checkpoint left out: a replica never reads those."""
    recovery = ConsensusWAL(disk).recover()
    checkpoint = recovery.checkpoint
    floor = checkpoint.cid if checkpoint is not None else -1
    return (
        None
        if checkpoint is None
        else (checkpoint.cid, checkpoint.state, checkpoint.state_hash, checkpoint.executed),
        [
            (cid, [(r.client_id, r.sequence, r.operation, r.size_bytes) for r in batch])
            for cid, batch in recovery.entries
        ],
        recovery.regency,
        {cid: votes for cid, votes in recovery.write_evidence.items() if cid > floor},
        {cid: votes for cid, votes in recovery.accept_evidence.items() if cid > floor},
        recovery.truncated_bytes,
        recovery.corrupt,
    )


class TestCompaction:
    @settings(max_examples=120, deadline=None)
    @given(ops=wal_ops, tear=st.none() | st.integers(0, 2**32))
    def test_recovery_of_the_compacted_image_is_the_oracles(self, ops, tear):
        """Same operations on a compacting disk and on the oracle, then
        the same crash (unsynced suffix lost, or torn by the same draw):
        a restart rebuilds the same thing off either image."""
        compacted, oracle = ConsensusWAL(SimDisk()), ConsensusWAL(UncompactedDisk())
        replay(ops, compacted)
        replay(ops, oracle)
        assert compacted.disk.fsyncs == oracle.disk.fsyncs
        assert compacted.disk.bytes_appended == oracle.disk.bytes_appended
        assert compacted.disk.durable_size <= oracle.disk.durable_size
        assert compacted.verify() == [] and oracle.verify() == []
        if tear is not None:
            for wal in (compacted, oracle):
                wal.disk.crash(StorageFaults(torn_tail=True), random.Random(tear))
        assert recovered(compacted.disk) == recovered(oracle.disk)

    @settings(max_examples=60, deadline=None)
    @given(ops=wal_ops, state=codec_values)
    def test_a_checkpoint_over_everything_leaves_only_its_frame(self, ops, state):
        """No regency logged and nothing above the checkpoint: the image
        is the checkpoint's frame, byte for byte."""
        wal = ordering_wal()
        replay([op for op in ops if op[0] != "reg"], wal)
        top = 3 * len(ops) + 3  # past every cid the operations reach
        wal.set_checkpoint(Checkpoint(cid=top, state=state, state_hash=b"\x01"))
        assert wal.disk.read() == oracle_frame_record(
            {"t": "ckpt", "cid": top, "state": encode_value(state), "hash": "01"}
        )
