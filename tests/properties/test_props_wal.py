"""Property-based byte-identity tests for the consensus WAL.

The WAL image feeds torn-tail sector arithmetic, modelled read latency
and ``durable_bytes``, so how a frame is produced -- canonical-JSON
encoder, byte template, or a frame another replica built for the same
batch object -- must never show in its bytes.  The reference is the
``json.dumps`` framing the WAL had before, kept in
``tests/test_sim_storage.py``.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.envelope import Envelope
from repro.ordering.node import TimeToCut
from repro.ordering.wal_codec import encode_value
from repro.sim.storage import SimDisk, scan_records
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
