"""Derive once per decision, not once per replica: budgets and soundness.

What every correct replica derives from the same content -- the framed
``batch`` record of a decision, a block's data hash and header digest,
the verdict on a block signature -- is derived once and shared by
content (or by identity of an immutable shared object), never by
replica id.  Two kinds of test, no clock in either:

- *budgets*: exact counts of the expensive primitive (JSON encodes,
  canonical hashes, HMACs) over a seeded run, which fail the moment a
  derivation goes back to once-per-replica;
- *soundness*: forged or divergent input misses every share by
  construction, no table replaces a check, every table stays bounded.

The same two kinds pin the sibling rule, *pay per batch, not per
envelope*: exact Python-call budgets (``sys.setprofile``) on the
request intake, the batch execute and the delivery statistics, and the
soundness of what the intake caches (``is_leader``).  And the SmartBFT
backend's: *a quorum test is a comparison, never a recount; what a view
fixes is resolved when the view is installed*.
"""

import collections
import json
import random
import sys
from types import SimpleNamespace

import pytest

import repro.crypto.hashing as hashing
import repro.fabric.block as block_module
import repro.fabric.envelope as envelope_module
import repro.sim.monitor as monitor_module
import repro.smart.wal as wal_module
import repro.smart2.node as smart2_node
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.block import BlockHeader, compute_data_hash, make_block
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope, ReadSet, WriteSet, endorsement_payload
from repro.faults.invariants import check_durable_logs
from repro.ordering import OrderingServiceConfig, build_ordering_service
from repro.sim.storage import SimDisk, scan_records
from repro.smart import ReconfigurationClient, ServiceReplica
from repro.smart.batching import RequestBatch
from repro.smart.consensus import batch_hash
from repro.smart.view import View
from repro.smart.wal import ConsensusWAL
from repro.smart2.messages import Preprepare
from tests.conftest import Cluster, CounterApp, count_hashes_by_tag
from tests.test_sim_storage import oracle_frame_record
from tests.test_smartbft_node import build as build_smartbft
from tests.test_smartbft_node import requests as smartbft_requests
from tests.test_smartbft_node import signed_preprepare
from tests.test_smart_wal import ordering_wal, request


@pytest.fixture(autouse=True)
def empty_block_tables():
    """The block tables are per process and keyed by content, so a test
    that ran earlier may have hashed the very blocks counted here."""
    block_module._data_hash.cache_clear()
    block_module._header_digest.cache_clear()
    smart2_node.preprepare_payload.cache_clear()


def run_service(orderer: str, f: int, envelopes: int, block_size: int, **config):
    service = build_ordering_service(
        OrderingServiceConfig(
            orderer=orderer,
            f=f,
            channel=ChannelConfig("ch0", max_message_count=block_size, batch_timeout=10.0),
            num_frontends=2,
            request_timeout=30.0,
            seed=11,
            **config,
        )
    )
    for i in range(envelopes):
        envelope = Envelope(
            channel_id="ch0", transaction=None, payload_size=256, envelope_id=i
        )
        service.sim.schedule_at(0.01 + i * 0.0005, service.submit, envelope, i % 2)
    service.run(5.0)
    blocks = envelopes // block_size
    assert [fe.blocks_delivered for fe in service.frontends] == [blocks, blocks]
    return service


def count_hmacs(monkeypatch) -> list:
    """Every MAC the simulated scheme computes, as ``(key, message)``:
    ``SimulatedECDSA._mac`` is the one function ``sign`` and a
    verification miss compute one with."""
    calls = []
    real = SimulatedECDSA._mac

    def counting(self, key, msg):
        calls.append((key, msg))
        return real(self, key, msg)

    monkeypatch.setattr(SimulatedECDSA, "_mac", counting)
    return calls


def count_calls_by_caller(monkeypatch, cls, name: str) -> collections.Counter:
    """Calls of ``cls.name``, by the package directory of the calling
    frame (``smart2``, ``ordering``, ...)."""
    calls = collections.Counter()
    real = getattr(cls, name)

    def counting(self, *args, **kwargs):
        caller = sys._getframe(1).f_code.co_filename
        calls[caller.replace("\\", "/").rsplit("/", 2)[-2]] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


def count_frame_records(monkeypatch) -> collections.Counter:
    """JSON encodes behind the WAL, by record type."""
    encodes = collections.Counter()
    real = wal_module.frame_record

    def counting(record):
        encodes[record["t"]] += 1
        return real(record)

    monkeypatch.setattr(wal_module, "frame_record", counting)
    return encodes


class TestBudgets:
    def test_one_batch_encode_per_decision_and_no_encoder_per_vote(self, monkeypatch):
        """n=4 durable: the four WALs of a decision write one encoded
        frame (four encodes before the share), and votes and regencies
        never reach the JSON encoder at all."""
        encodes = count_frame_records(monkeypatch)
        constructed = []
        real_init = json.JSONEncoder.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(json.JSONEncoder, "__init__", counting_init)
        service = run_service("bftsmart", 1, 120, 10, durable_wal=True, checkpoint_period=16)
        decisions = {replica.last_executed + 1 for replica in service.replicas}
        assert len(decisions) == 1
        [decisions] = decisions
        assert decisions >= 12
        assert encodes["batch"] == decisions
        assert set(encodes) == {"batch", "ckpt"}  # no vote or regency went through JSON
        assert constructed == []
        # and what was shared is what each replica would have written itself
        for replica in service.replicas:
            image = replica.log.disk.contents()
            records = scan_records(image).records
            assert sum(1 for r in records if r["t"] == "batch") == decisions
            assert sum(1 for r in records if r["t"] in ("write", "accept")) == 2 * decisions
            assert image == b"".join(oracle_frame_record(r) for r in records)
            assert replica.log.disk.fsyncs >= 2 * decisions  # one per vote, as before
        assert check_durable_logs(service.replicas) == []

    def test_one_data_hash_and_one_header_hash_per_block(self, monkeypatch):
        """n=10: ten nodes assemble every block, one of them hashes it
        (ten ``block-data`` and ten ``block-header`` hashes before)."""
        calls = count_hashes_by_tag(monkeypatch)
        service = run_service("bftsmart", 3, 200, 10)
        assert len(service.nodes) == 10
        assert {node.blocks_created for node in service.nodes} == {20}
        assert calls["block-data"] == 20
        assert calls["block-header"] == 20
        assert block_module._data_hash.cache_info().misses == 20
        assert block_module._data_hash.cache_info().hits == 9 * 20

    def test_smartbft_hmacs_per_block(self, monkeypatch):
        """smartbft n=10: a commit signature is signed once and verified
        once, however many nodes and frontends check it -- per block one
        sign + one first verification for the pre-prepare and for each
        commit signature, 22 at most (about 94 before)."""
        macs = count_hmacs(monkeypatch)
        service = run_service("smartbft", 3, 200, 10)
        blocks = 20
        assert {node.blocks_created for node in service.nodes} == {blocks}
        # under one key a message is MAC'd twice at most: its signature
        # and the first check of it (a commit that arrives after the
        # decision is never checked at all)
        assert max(collections.Counter(macs).values()) == 2
        assert 2 * (1 + 7) * blocks <= len(macs) <= 24 * blocks  # 7 = a 2f+1 quorum
        # both frontends checked every block's signature quorum, from memory
        assert all(fe.blocks_delivered == blocks for fe in service.frontends)
        scheme = service.registry.scheme
        assert 0 < len(scheme._verified) <= scheme.VERIFIED_TRIPLES

    def test_smartbft_votes_are_tallied_not_recounted(self, monkeypatch):
        """smartbft n=10, 20 blocks, no view change: a PREPARE or COMMIT
        costs one tally and one comparison -- ``View.has_quorum`` is
        left to the frontends' ``SignedQuorum`` (115 calls a block from
        ``smart2`` before) -- and what every node derives from the same
        block is derived once: one pre-prepare payload hash a block (ten
        before), at most three header digests per node and block (17
        before), one verifier resolution per peer and node (7 per node
        and block before)."""
        recounts = count_calls_by_caller(monkeypatch, View, "has_quorum")
        digests = count_calls_by_caller(monkeypatch, BlockHeader, "digest")
        resolutions = count_calls_by_caller(monkeypatch, KeyRegistry, "verifier_of")
        hashes = count_hashes_by_tag(monkeypatch)
        service = run_service("smartbft", 3, 200, 10)
        blocks, n = 20, 10
        assert {node.blocks_created for node in service.nodes} == {blocks}
        assert {node.view_number for node in service.nodes} == {0}
        assert recounts["smart2"] == 0
        assert recounts["ordering"] == 2 * blocks  # each frontend, each block
        assert hashes["smart2-preprepare"] == blocks
        assert smart2_node.preprepare_payload.cache_info().hits == (n - 1) * blocks
        assert 0 < digests["smart2"] <= 3 * n * blocks
        assert resolutions["smart2"] <= n * n
        for node in service.nodes:
            # the leader never verifies itself; everyone verifies the leader
            assert 0 in node._verifiers or node.replica_id == 0
            assert len(node._verifiers) <= n


class TestFrameShareSoundness:
    def test_forged_and_recovered_batches_encode_from_scratch(self, monkeypatch):
        encodes = count_frame_records(monkeypatch)
        batch = RequestBatch([request(0), request(1)])
        first, second, third = ordering_wal(), ordering_wal(), ordering_wal()
        first.append(3, batch)
        second.append(3, batch)
        assert encodes["batch"] == 1  # the share
        # a fault injection's forged copy is a plain list: same content, no share
        forged = list(batch)
        third.append(3, forged)
        assert encodes["batch"] == 2
        assert not hasattr(forged, "wal_frame")
        # a batch replayed from disk is a plain list too
        first.log_regency(0)
        [(cid, replayed)] = ordering_wal(first.disk).recover().entries
        assert cid == 3 and type(replayed) is list
        ordering_wal().append(3, replayed)
        assert encodes["batch"] == 3
        # the same object at another cid is another record
        ordering_wal().append(4, batch)
        assert encodes["batch"] == 4
        assert first.disk.contents().startswith(second.disk.contents())

    def test_wals_with_different_codecs_never_share(self, monkeypatch):
        encodes = count_frame_records(monkeypatch)
        batch = RequestBatch([request(0, op=(1, 2))])
        tagged = ordering_wal()
        listed = ConsensusWAL(SimDisk(), encode_op=list)
        tagged.append(0, batch)
        listed.append(0, batch)
        tagged_again = ordering_wal()
        tagged_again.append(0, batch)
        assert encodes["batch"] == 3  # the second codec took the object's one slot
        assert b'"__t"' in tagged.disk.contents()
        assert b'"__t"' not in listed.disk.contents()
        assert tagged_again.disk.contents() == tagged.disk.contents()

    def test_same_hash_different_operations_is_still_a_conflict(self):
        """``batch_hash`` binds (client, sequence, size) only, so these
        two batches vote under one hash; a frame shared by that hash
        would make the second log *look* like the first and hide the
        conflict from ``check_durable_logs``."""
        alice = RequestBatch([request(0, op="pay alice")])
        mallory = RequestBatch([request(0, op="pay mallory")])
        assert batch_hash(5, alice) == batch_hash(5, mallory)
        honest, victim = ordering_wal(), ordering_wal()
        honest.append(5, alice)
        victim.append(5, mallory)  # its own record, not alice's frame
        assert b"pay alice" in honest.disk.contents()
        assert b"pay mallory" in victim.disk.contents()
        assert b"pay alice" not in victim.disk.contents()
        # the same replica logging both (before and after a restart) is flagged
        restarted = ordering_wal(victim.disk)
        restarted.append(5, alice)
        violations = check_durable_logs(
            [SimpleNamespace(replica_id=2, log=restarted)]
        )
        assert any("conflicting batch records for cid=5" in str(v) for v in violations)

    def test_a_wal_takes_its_frames_back(self):
        wal = ordering_wal()
        batches = [RequestBatch([request(i)]) for i in range(50)]
        for cid, batch in enumerate(batches):
            wal.append(cid, batch)
            assert sum(b.wal_frame is not None for b in batches) <= wal.SHARED_FRAMES
        assert batches[-1].wal_frame is not None and batches[0].wal_frame is None


class TestBlockTableSoundness:
    def envelopes(self, ids):
        return [
            Envelope(channel_id="ch0", transaction=None, payload_size=64, envelope_id=i)
            for i in ids
        ]

    def test_tables_are_keyed_by_the_whole_hashed_content(self):
        first = compute_data_hash(self.envelopes([1, 2, 3]))
        assert compute_data_hash(self.envelopes([1, 2, 3])) == first  # other objects
        assert block_module._data_hash.cache_info().hits == 1
        assert compute_data_hash(self.envelopes([1, 3, 2])) != first
        assert compute_data_hash(self.envelopes([1, 2])) != first
        assert compute_data_hash([]) == hashing.sha256("block-data", [])
        header = BlockHeader(number=1, previous_hash=b"p" * 32, data_hash=first)
        assert header.digest() == hashing.sha256("block-header", 1, b"p" * 32, first)
        for other in (
            BlockHeader(number=2, previous_hash=b"p" * 32, data_hash=first),
            BlockHeader(number=1, previous_hash=b"q" * 32, data_hash=first),
            BlockHeader(number=1, previous_hash=b"p" * 32, data_hash=b"d" * 32),
            # 1 == 1.0 == True as dict keys, not as canonical encodings
            BlockHeader(number=1.0, previous_hash=b"p" * 32, data_hash=first),
            BlockHeader(number=True, previous_hash=b"p" * 32, data_hash=first),
        ):
            assert other.digest() != header.digest()
            assert other.digest() == hashing.sha256(
                "block-header", other.number, other.previous_hash, other.data_hash
            )

    def test_a_tampered_block_still_fails_verify_data(self):
        block = make_block(1, b"p" * 32, self.envelopes([1, 2, 3]))
        assert block.verify_data()
        block.envelopes[1] = self.envelopes([9])[0]
        assert not block.verify_data()


class TestCompositeTableSoundness:
    """``endorsement_payload`` and ``Transaction.digest`` are looked up
    by everything they hash (``tests/test_fabric_digest_cache.py`` swaps
    every field of a live transaction; this pins the key itself)."""

    def test_keyed_by_the_whole_hashed_content_and_its_types(self):
        envelope_module._response_hash.cache_clear()
        reads, writes = ReadSet({"k": (1, 0)}), WriteSet({"k": "v"})
        proposal = b"p" * 32

        def from_scratch(result, success):
            return hashing.sha256(
                "response", proposal, reads.digest(), writes.digest(), repr(result), success
            )

        payload = endorsement_payload(proposal, reads, writes, "OK", True)
        assert payload == from_scratch("OK", True)
        assert endorsement_payload(proposal, reads, writes, "OK", True) == payload
        assert envelope_module._response_hash.cache_info().hits == 1
        # True == 1 and "1" != 1 as dict keys; the encoding tells all three apart
        for result, success in (("OK", 1), ("OK", False), (1, True), ("1", True)):
            other = endorsement_payload(proposal, reads, writes, result, success)
            assert other == from_scratch(result, success) != payload
        assert envelope_module._response_hash.cache_info().hits == 1
        assert len(
            {endorsement_payload(proposal, reads, writes, r, True) for r in (1, "1", 1.0)}
        ) == 3

    def test_both_tables_stay_bounded(self):
        reads, writes = ReadSet(), WriteSet()
        for number in range(3 * envelope_module.SHARED_COMPOSITES):
            endorsement_payload(b"p" * 32, reads, writes, number, True)
            envelope_module._transaction_hash(
                b"p" * 32, reads.digest(), writes.digest(), number
            )
        for table in (envelope_module._response_hash, envelope_module._transaction_hash):
            assert table.cache_info().currsize == envelope_module.SHARED_COMPOSITES <= 256


class TestVerifiedSignatureSoundness:
    def test_only_a_pass_is_remembered(self, monkeypatch):
        macs = count_hmacs(monkeypatch)
        scheme = SimulatedECDSA()
        secret, public = scheme.keygen(random.Random(1))
        _, other_public = scheme.keygen(random.Random(2))
        signature = scheme.sign(secret, b"header digest")
        assert len(macs) == 1
        assert scheme.verify(public, b"header digest", signature)
        assert scheme.verify(public, b"header digest", signature)
        assert len(macs) == 2  # the first verification computed, the second did not
        tampered = bytes([signature[0] ^ 1]) + signature[1:]
        for rejected in (
            (public, b"header digest", tampered),
            (public, b"another digest", signature),
            (other_public, b"header digest", signature),  # right signature, wrong key
            (public, b"header digest", signature[:32]),
        ):
            before = len(macs)
            assert not scheme.verify(*rejected)
            assert not scheme.verify(*rejected)
            # recomputed both times (the truncated one never reaches the HMAC)
            assert len(macs) - before == (2 if len(rejected[2]) == 64 else 0)
        assert list(scheme._verified) == [(public, b"header digest", signature)]

    def test_a_key_enrolled_after_a_failed_lookup_verifies(self, monkeypatch):
        elsewhere = SimulatedECDSA()
        secret, public = elsewhere.keygen(random.Random(7))
        signature = elsewhere.sign(secret, b"m")
        scheme = SimulatedECDSA()
        macs = count_hmacs(monkeypatch)
        assert not scheme.verify(public, b"m", signature)
        assert not scheme.verify(public, b"m", signature)
        assert macs == [] and scheme._verified == {}  # unknown key: nothing kept
        assert scheme.keygen(random.Random(7)) == (secret, public)
        assert scheme.verify(public, b"m", signature)
        assert len(macs) == 1
        # verdicts are per scheme instance
        assert (public, b"m", signature) not in elsewhere._verified


class TestPreprepareTableSoundness:
    """``preprepare_payload`` is looked up by its whole content, so a
    pre-prepare with another body cannot be answered from the table."""

    def test_a_swapped_batch_under_the_same_seq_is_rehashed_and_rejected(self, monkeypatch):
        hashes = count_hashes_by_tag(monkeypatch)
        service = build_smartbft()
        follower = service.nodes[2]
        genesis = block_module.GENESIS_PREVIOUS_HASH
        honest, header = signed_preprepare(
            service, 0, 0, 0, 0, genesis, smartbft_requests(range(4))
        )
        assert hashes["smart2-preprepare"] == 1  # the leader's own, now in the table
        # a Byzantine relay swaps the batch under the leader's signature:
        # same view, same seq, same position -- another data hash
        swapped = Preprepare(
            sender=0, view_number=0, seq=0, channel_id=honest.channel_id, number=0,
            previous_hash=genesis, batch=smartbft_requests(range(4, 8)),
            signature=honest.signature,
        )
        follower.deliver(0, swapped)
        assert hashes["smart2-preprepare"] == 2  # a miss: hashed, and the signature fails
        assert follower._rounds == {}
        follower.deliver(0, swapped)
        assert follower._rounds == {}  # the remembered payload still fails the check
        # so does a reordering of the honest batch, and a forged signature
        reordered = Preprepare(
            sender=0, view_number=0, seq=0, channel_id=honest.channel_id, number=0,
            previous_hash=genesis, batch=honest.batch[::-1], signature=honest.signature,
        )
        follower.deliver(0, reordered)
        forged = Preprepare(
            sender=0, view_number=0, seq=0, channel_id=honest.channel_id, number=0,
            previous_hash=genesis, batch=honest.batch, signature=b"\x01" * 64,
        )
        follower.deliver(0, forged)
        assert follower._rounds == {} and hashes["smart2-preprepare"] == 3
        # the honest one is answered from the table and accepted
        follower.deliver(0, honest)
        assert hashes["smart2-preprepare"] == 3
        assert follower._rounds[0].preprepare is honest
        assert follower._rounds[0].digest == header.digest()

    def test_the_key_tells_types_apart_and_the_table_stays_bounded(self):
        payload = smart2_node.preprepare_payload
        assert len({payload(*key) for key in ((1, 2, b"d"), (True, 2, b"d"), (1, 2, "d"))}) == 3
        for seq in range(3 * block_module.SHARED_DIGESTS):
            payload(0, seq, b"d" * 32)
        assert payload.cache_info().currsize == block_module.SHARED_DIGESTS <= 256
        assert payload(0, 5, b"d" * 32) == hashing.sha256("smart2-preprepare", 0, 5, b"d" * 32)


def test_every_table_stays_bounded_over_2000_blocks():
    scheme = SimulatedECDSA()
    secret, public = scheme.keygen(random.Random(0))
    wal = ConsensusWAL(SimDisk())
    previous = b"\x00" * 32
    batches = []
    for number in range(2000):
        envelope = Envelope(
            channel_id="ch0", transaction=None, payload_size=64, envelope_id=number
        )
        block = make_block(number, previous, [envelope])
        previous = block.digest()
        assert scheme.verify(public, previous, scheme.sign(secret, previous))
        batches.append(RequestBatch([request(number)]))
        wal.append(number, batches[-1])
    assert block_module._data_hash.cache_info().currsize == block_module.SHARED_DIGESTS
    assert block_module._header_digest.cache_info().currsize == block_module.SHARED_DIGESTS
    assert len(scheme._verified) == scheme.VERIFIED_TRIPLES
    assert sum(b.wal_frame is not None for b in batches) == wal.SHARED_FRAMES
    assert max(
        block_module.SHARED_DIGESTS, scheme.VERIFIED_TRIPLES, wal.SHARED_FRAMES
    ) <= 256


# ----------------------------------------------------------------------
# pay per batch, not per envelope (docs/KERNEL.md): Python-call budgets
# ----------------------------------------------------------------------
class CallProfile:
    """A ``sys.setprofile`` hook counting Python frames (``call``
    events; C functions are ``c_call`` and not counted) in three places
    of one run: under each ``Network._deliver`` of a client request to
    a follower, inside each 400-request ``_execute_batch``, and in
    ``sim/monitor.py``."""

    def __init__(self, service):
        from repro.sim.network import Network
        from repro.smart.messages import ClientRequest
        from repro.smart.replica import ServiceReplica

        self.request_class = ClientRequest
        self.deliver_code = Network._deliver.__code__
        self.execute_code = ServiceReplica._execute_batch.__code__
        self.followers = {
            replica.replica_id for replica in service.replicas if not replica.is_leader
        }
        self.monitor_file = monitor_module.__file__
        #: Python frames per follower ClientRequest, the delivery's own included
        self.frames_per_request = []
        #: code -> calls, inside the 400-request executes only
        self.execute_calls = collections.Counter()
        self.big_executes = 0
        #: function name -> calls into sim/monitor.py, over the whole run
        self.monitor_calls = collections.Counter()
        self._delivery = None
        self._execute = None

    def __call__(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if self._delivery is not None:
                self.frames_per_request[-1] += 1
            elif code is self.deliver_code:
                local = frame.f_locals
                if local["dst"] in self.followers and isinstance(
                    local["payload"], self.request_class
                ):
                    self._delivery = frame
                    self.frames_per_request.append(1)
            if self._execute is not None:
                self.execute_calls[code] += 1
            elif code is self.execute_code and len(frame.f_locals["batch"]) == 400:
                self._execute = frame
                self.big_executes += 1
            if code.co_filename == self.monitor_file:
                self.monitor_calls[code.co_name] += 1
        elif event == "return":
            if frame is self._delivery:
                self._delivery = None
            if frame is self._execute:
                self._execute = None


def calls_into(profile: CallProfile, *classes) -> dict:
    """``Class.method -> calls`` for the methods of ``classes`` that ran
    inside the 400-request executes."""
    named = {
        function.__code__: f"{cls.__name__}.{name}"
        for cls in classes
        for name, function in vars(cls).items()
        if hasattr(function, "__code__")
    }
    return {
        named[code]: calls for code, calls in profile.execute_calls.items() if code in named
    }


class TestPerBatchBudgets:
    ENVELOPES = 410
    BLOCK_SIZE = 10

    @pytest.fixture(scope="class")
    def profiled(self):
        """n=4, 410 envelopes submitted in one instant over NICs fast
        enough not to spread them out: the leader proposes the first
        alone and, when that instance ends, the 400 waiting (the batch
        limit), then the last nine."""
        service = build_ordering_service(
            OrderingServiceConfig(
                f=1,
                channel=ChannelConfig(
                    "ch0", max_message_count=self.BLOCK_SIZE, batch_timeout=10.0
                ),
                num_frontends=2,
                request_timeout=30.0,
                bandwidth_bps=1e11,
                seed=11,
            )
        )
        for i in range(self.ENVELOPES):
            envelope = Envelope(
                channel_id="ch0", transaction=None, payload_size=256, envelope_id=i
            )
            service.sim.schedule_at(0.01, service.submit, envelope, i % 2)
        profile = CallProfile(service)
        sys.setprofile(profile)
        try:
            service.run(5.0)
        finally:
            sys.setprofile(None)
        blocks = self.ENVELOPES // self.BLOCK_SIZE
        assert [fe.blocks_delivered for fe in service.frontends] == [blocks, blocks]
        assert [r.counters.consensus_decided for r in service.replicas] == [3] * 4
        return service, profile

    def test_a_client_request_costs_a_follower_four_frames(self, profiled):
        """``Network._deliver -> ServiceReplica.deliver -> _on_request ->
        PendingQueue.add``, nothing else: a follower tests ``active_cid``
        and ``is_leader`` in ``_on_request`` and never enters
        ``_maybe_propose``."""
        service, profile = profiled
        assert len(profile.frames_per_request) == 3 * self.ENVELOPES
        assert set(profile.frames_per_request) == {4}

    def test_no_python_call_per_envelope_while_a_batch_executes(self, profiled):
        """Each of the four replicas executed one 400-request batch:
        the node and the queue are entered once per batch, per channel
        run and per cut block -- never once per envelope (per replica,
        2 000 calls into the node and 1 200 into the queue before)."""
        from repro.ordering.blockcutter import BlockCutter
        from repro.ordering.node import BFTOrderingNode
        from repro.smart.batching import PendingQueue

        service, profile = profiled
        assert profile.big_executes == len(service.replicas) == 4
        blocks = 400 // self.BLOCK_SIZE
        per_replica = {
            name: calls / 4
            for name, calls in calls_into(
                profile, BFTOrderingNode, PendingQueue, BlockCutter
            ).items()
        }
        assert per_replica == {
            "BFTOrderingNode.execute_batch": 1,
            "BFTOrderingNode._order_run": 1,
            "BFTOrderingNode._create_block": blocks,  # signed later, by the pool
            "BlockCutter.ordered_run": blocks + 1,  # to each cut, then the rest
            "BlockCutter.cut": blocks,
            "PendingQueue.remove_all": 1,
        }

    def test_one_recorder_call_per_delivered_block(self, profiled):
        service, profile = profiled
        delivered = sum(fe.blocks_delivered for fe in service.frontends)
        signed = sum(node.blocks_created for node in service.nodes)
        assert profile.monitor_calls["extend"] == delivered
        # the two throughput meters of a frontend and of a node, per block
        assert profile.monitor_calls["record"] == 2 * delivered + 2 * signed
        recorders = [
            service.stats.histogram(f"{fe.name}.latency") for fe in service.frontends
        ]
        assert [r.count for r in recorders] == [self.ENVELOPES] * 2
        # nothing else ran in sim/monitor.py but the lazy instrument lookups
        assert set(profile.monitor_calls) <= {
            "extend", "record", "meter", "histogram", "_claim", "__init__"
        }


class TestCachedLeaderFlag:
    def test_is_leader_tracks_regency_and_view_at_every_event(self):
        """``is_leader`` is a plain attribute derived where ``regency``
        or ``view`` is assigned.  Through a leader crash, two
        reconfigurations (one of which moves the leadership without any
        regency change) and an amnesiac restart it equals the
        definition after every single event, at every replica."""
        cluster = Cluster()
        sim = cluster.sim
        seen = set()

        def check() -> bool:
            for replica in cluster.replicas:
                expected = replica.view.leader_of(replica.regency) == replica.replica_id
                assert replica.is_leader is expected, (
                    replica.replica_id, replica.regency, replica.view.processes
                )
                seen.add(
                    (replica.replica_id, replica.view.view_id, replica.regency, expected)
                )
            return False

        def run(futures, deadline=20.0) -> bool:
            sim.run_until(
                lambda: check() or all(f.done for f in futures), sim.now + deadline
            )
            return all(f.done for f in futures)

        proxy = cluster.proxy()
        assert run([proxy.invoke(1)])
        cluster.replicas[0].crash()  # the leader of regency 0
        assert run([proxy.invoke(2)])
        assert [replica.regency for replica in cluster.replicas[1:]] == [1, 1, 1]
        joiner = ServiceReplica(
            sim, cluster.network, 4, cluster.view, CounterApp(), config=cluster.config
        )
        cluster.network.register(4, joiner)
        cluster.replicas.append(joiner)
        admin = ReconfigurationClient(cluster.proxy())
        assert run([admin.add_replica(4)])
        for client in (admin.proxy, proxy):
            client.update_view(cluster.replicas[1].view)
        assert run([admin.remove_replica(0)])
        proxy.update_view(cluster.replicas[1].view)
        assert run([proxy.invoke(3)])
        cluster.replicas[3].crash(amnesia=True)
        sim.run_until(check, sim.now + 0.5)
        cluster.replicas[3].recover()
        assert run([proxy.invoke(4)])
        # the scenario did move the leadership both ways
        by_replica = collections.defaultdict(set)
        for replica_id, view_id, regency, leading in seen:
            by_replica[replica_id].add((view_id, regency, leading))
        assert {1, 2, 3, 4} <= {
            replica_id
            for replica_id, states in by_replica.items()
            if {leading for _v, _r, leading in states} == {True, False}
        }
        # ... and at least once by installing a view alone, regency unchanged
        assert any(
            (view_id + 1, regency, not leading) in states
            for states in by_replica.values()
            for view_id, regency, leading in states
        )
