"""Property tests: a request's content identity survives persistence.

``smart/consensus.py::operation_digest`` is the one identity of what a
request carries, and ``batch_hash`` binds it into every vote.  WAL
recovery and state transfer re-derive the hash from *decoded*
operations, so for every operation type the ordering service orders --
raw and transaction-carrying ``Envelope``, ``TimeToCut`` and
``ReconfigOp`` -- the digest must be the same before and after the
WAL codec, and any two operations that differ in what the identity
covers must vote under different batch hashes.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.envelope import (
    ChaincodeProposal,
    Endorsement,
    Envelope,
    ReadSet,
    Transaction,
    WriteSet,
)
from repro.ordering.blockcutter import TimeToCut
from repro.ordering.wal_codec import decode_value, encode_value
from repro.smart.batching import RequestBatch
from repro.smart.consensus import batch_hash, operation_digest
from repro.smart.messages import ClientRequest
from repro.smart.reconfiguration import ReconfigOp
from tests.test_smart_wal import ordering_wal

texts = st.text(max_size=8)
ids = st.integers(min_value=-(2**70), max_value=2**70)
versions = st.none() | st.tuples(st.integers(0, 2**40), st.integers(0, 2**16))
values = st.none() | ids | texts
times = st.none() | st.floats(allow_nan=False, allow_infinity=False)


def raw_envelope(channel_id, envelope_id, payload_size, submitter, create_time):
    envelope = Envelope.raw(channel_id, payload_size, submitter, envelope_id)
    envelope.create_time = create_time
    return ("raw", channel_id, envelope_id), envelope


def transaction_envelope(channel_id, envelope_id, proposal, reads, writes, tx_id, rest):
    result, endorsements, client_signature = rest
    transaction = Transaction(
        proposal=ChaincodeProposal(*proposal),
        read_set=ReadSet(dict(reads)),
        write_set=WriteSet(dict(writes)),
        result=result,
        endorsements=[Endorsement(*e) for e in endorsements],
        client_signature=client_signature,
        tx_id=tx_id,
    )
    envelope = Envelope(channel_id, transaction, payload_size=200, envelope_id=envelope_id)
    # what the identity covers: the proposal but its timestamp, the
    # read and write sets, the transaction id and the envelope's place
    key = ("tx", channel_id, envelope_id, proposal[:-1], reads, writes, tx_id)
    return key, envelope


#: (what the identity covers, operation) pairs
keyed_operations = st.one_of(
    st.builds(raw_envelope, texts, ids, st.integers(0, 2**40), texts, times),
    st.builds(
        transaction_envelope,
        texts,
        ids,
        st.tuples(
            texts,
            texts,
            texts,
            st.lists(ids | texts, max_size=3).map(tuple),
            texts,
            ids,
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.dictionaries(texts, versions, max_size=3).map(lambda d: tuple(sorted(d.items()))),
        st.dictionaries(texts, values, max_size=3).map(
            lambda d: tuple(sorted(d.items(), key=repr))
        ),
        ids,
        st.tuples(
            values,
            st.lists(st.tuples(texts, texts, st.binary(max_size=8)), max_size=2),
            st.binary(max_size=8),
        ),
    ),
    st.builds(
        lambda channel_id, height: (
            ("ttc", channel_id, height),
            TimeToCut(channel_id, height),
        ),
        texts,
        ids,
    ),
    st.builds(
        lambda action, replica_id: (
            ("rc", action, replica_id),
            ReconfigOp(action, replica_id),
        ),
        st.sampled_from(["add", "remove"]),
        ids,
    ),
)


def persisted(operation):
    """What a WAL record gives back: the codec, through JSON."""
    return decode_value(json.loads(json.dumps(encode_value(operation))))


@settings(max_examples=150, deadline=None)
@given(keyed=keyed_operations)
def test_operation_digest_survives_the_wal_codec(keyed):
    _key, operation = keyed
    back = persisted(operation)
    assert type(back) is type(operation)
    assert operation_digest(back) == operation_digest(operation)


@settings(max_examples=150, deadline=None)
@given(pair=st.lists(keyed_operations, min_size=2, max_size=2, unique_by=lambda k: k[0]))
def test_operations_that_differ_never_share_a_batch_hash(pair):
    (_a, first), (_b, second) = pair
    assert operation_digest(first) != operation_digest(second)
    assert batch_hash(3, [ClientRequest(1, 0, first, 64)]) != batch_hash(
        3, [ClientRequest(1, 0, second, 64)]
    )


@settings(max_examples=40, deadline=None)
@given(
    keyed=st.lists(keyed_operations, min_size=1, max_size=4),
    cid=st.integers(0, 2**31),
)
def test_wal_recovery_re_derives_the_batch_hash(keyed, cid):
    batch = RequestBatch(
        ClientRequest(7, sequence, operation, 64, reconfig=isinstance(operation, ReconfigOp))
        for sequence, (_key, operation) in enumerate(keyed)
    )
    wal = ordering_wal()
    wal.append(cid, batch)
    wal.disk.sync()
    [(recovered_cid, recovered)] = ordering_wal(wal.disk).recover().entries
    assert recovered_cid == cid
    assert batch_hash(cid, recovered) == batch_hash(cid, batch)
