"""Soundness of the digest caches on the Fabric path.

The discipline (docs/KERNEL.md): *cache at sealed leaves, recompute
flat composites*.  A proposal, a read set and a write set keep their
digest once computed -- and from that moment refuse every write -- while
the hashes that combine them (`signed_payload`, `response_payload`,
`Transaction.digest`) are recomputed on every call, so replacing any
part of a transaction is detected exactly as it was without caches.
"""

import dataclasses

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.chaincode import AssetTransferChaincode, Chaincode
from repro.fabric.endorser import EndorsingPeer
from repro.fabric.envelope import (
    ChaincodeProposal,
    ProposalResponse,
    ReadSet,
    Transaction,
    WriteSet,
)
from repro.fabric.statedb import VersionedKVStore
from tests.conftest import SoloPipeline


def proposal(function="put", args=("k", "v"), chaincode="kv", nonce=0):
    return ChaincodeProposal(
        channel_id="ch0",
        chaincode_id=chaincode,
        function=function,
        args=args,
        client="alice",
        nonce=nonce,
    )


# the digests as they are defined, with no cache in the way
def proposal_digest_from_scratch(p):
    return sha256(
        "proposal",
        p.channel_id,
        p.chaincode_id,
        p.function,
        [repr(a) for a in p.args],
        p.client,
        p.nonce,
    )


def read_set_digest_from_scratch(read_set):
    return sha256(
        "readset", {k: list(v) if v else None for k, v in read_set.reads.items()}
    )


def write_set_digest_from_scratch(write_set):
    return sha256("writeset", {k: repr(v) for k, v in write_set.writes.items()})


def response_payload_from_scratch(tx, success=True):
    return sha256(
        "response",
        proposal_digest_from_scratch(tx.proposal),
        read_set_digest_from_scratch(tx.read_set),
        write_set_digest_from_scratch(tx.write_set),
        repr(tx.result),
        success,
    )


class TestSeal:
    def test_sets_fill_normally_until_first_digest(self):
        read_set, write_set = ReadSet(), WriteSet()
        read_set.reads.setdefault("k", (1, 0))
        write_set.writes["k"] = "v"
        assert read_set.digest() == read_set_digest_from_scratch(read_set)
        assert write_set.digest() == write_set_digest_from_scratch(write_set)

    def test_item_assignment_after_digest_raises(self):
        read_set, write_set = ReadSet({"k": (1, 0)}), WriteSet({"k": "v"})
        read_set.digest(), write_set.digest()
        with pytest.raises(TypeError):
            read_set.reads["k"] = (2, 0)
        with pytest.raises(TypeError):
            write_set.writes["other"] = "w"
        with pytest.raises(TypeError):
            del write_set.writes["k"]

    def test_setdefault_after_digest_raises(self):
        read_set = ReadSet()
        read_set.digest()
        with pytest.raises(AttributeError):
            read_set.reads.setdefault("k", None)

    def test_attribute_assignment_raises_sealed_or_not(self):
        for rw_set, name in ((ReadSet(), "reads"), (WriteSet(), "writes")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rw_set, name, {"k": None})
            rw_set.digest()
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rw_set, name, {"k": None})
            with pytest.raises(dataclasses.FrozenInstanceError):
                rw_set._digest = b"forged"

    def test_dict_kept_by_the_caller_cannot_reach_a_sealed_set(self):
        mine = {"k": "v"}
        write_set = WriteSet(mine)
        digest = write_set.digest()
        mine["k"] = "evil"
        assert write_set.writes == {"k": "v"}
        assert write_set.digest() == digest == write_set_digest_from_scratch(write_set)

    def test_sealed_sets_still_read_and_compare_like_mappings(self):
        write_set = WriteSet({"b": 1, "a": None})
        write_set.digest()
        assert len(write_set) == 2 and "a" in write_set.writes
        assert sorted(write_set.writes.items()) == [("a", None), ("b", 1)]
        assert write_set == WriteSet({"a": None, "b": 1})
        assert write_set.writes == {"a": None, "b": 1}

    def test_proposal_is_frozen_and_replace_drops_the_cache(self):
        first = proposal(nonce=1)
        digest = first.digest()
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.nonce = 2
        second = dataclasses.replace(first, nonce=2)
        assert second.digest() == proposal_digest_from_scratch(second) != digest
        assert first.digest() == digest

    def test_shallow_seal_goes_exactly_this_far(self):
        """Keys and bindings are frozen; a mutable *value* is not.  In-
        place mutation after the seal is invisible to the cached digest
        (the documented gap; nothing in the repo does it -- see the
        coherence audit below)."""
        asset = {"id": "car", "owner": "alice"}
        write_set = WriteSet({"asset/car": asset})
        digest = write_set.digest()
        asset["owner"] = "mallory"
        assert write_set.digest() == digest
        assert write_set_digest_from_scratch(write_set) != digest


class _LeakyChaincode(Chaincode):
    """Keeps the stub it was handed, like a chaincode with a bug would."""

    chaincode_id = "leaky"

    def fn_put(self, stub, key, value):
        self.stub = stub
        stub.put_state(key, value)
        return "OK"


@pytest.fixture
def endorser(network):
    registry = KeyRegistry(scheme=SimulatedECDSA())
    store = VersionedKVStore()
    return EndorsingPeer(
        network,
        "endorser1",
        registry.enroll("endorser1", org="org1"),
        state_provider=lambda _channel: store,
        chaincodes={
            "leaky": _LeakyChaincode(),
            "asset-transfer": AssetTransferChaincode(),
        },
    )


class TestEndorsedSetsAreSealed:
    def test_stub_that_keeps_writing_after_the_signature_raises(self, endorser):
        response = endorser.endorse(proposal(chaincode="leaky"))
        assert response.success
        stub = endorser.chaincodes["leaky"].stub
        with pytest.raises(TypeError):
            stub.put_state("k", "changed-after-signing")
        with pytest.raises(TypeError):
            stub.del_state("k")
        with pytest.raises(AttributeError):
            stub.get_state("never-read-before")
        assert stub.get_state("k") == "v"  # reads of what was written still work
        verifier = endorser.identity.verifier
        assert verifier.verify(response.signed_payload(), response.signature)

    def test_result_aliasing_a_written_value_is_still_rehashed(self, endorser):
        """``AssetTransferChaincode.fn_create`` returns the very dict it
        wrote.  The write-set digest is sealed, but ``repr(result)`` is
        part of the flat composite and recomputed on every check, so
        tampering with that dict breaks the endorsement."""
        response = endorser.endorse(
            proposal("create", ("car", "alice", 900), chaincode="asset-transfer")
        )
        assert response.result is response.write_set.writes["asset/car"]
        verifier = endorser.identity.verifier
        assert verifier.verify(response.signed_payload(), response.signature)
        response.result["owner"] = "mallory"
        assert not verifier.verify(response.signed_payload(), response.signature)


def _transaction(**overrides):
    fields = dict(
        proposal=proposal(),
        read_set=ReadSet({"k": (1, 0)}),
        write_set=WriteSet({"k": "v"}),
        result="OK",
        endorsements=[],
        tx_id=41,
    )
    fields.update(overrides)
    return Transaction(**fields)


class TestCompositesAreNotCached:
    REPLACEMENTS = {
        "write_set": WriteSet({"k": "evil"}),
        "read_set": ReadSet({"k": (9, 9)}),
        "result": "EVIL",
        "tx_id": 42,
        "proposal": proposal(nonce=99),
    }
    #: which composite hashes each field
    HASHED_BY = {
        "write_set": {"response_payload", "digest"},
        "read_set": {"response_payload", "digest"},
        "result": {"response_payload"},
        "tx_id": {"digest"},
        "proposal": {"response_payload", "digest"},
    }

    @pytest.mark.parametrize("name", sorted(REPLACEMENTS))
    def test_replacing_a_field_after_hashing_changes_the_hash(self, name):
        tx = _transaction()
        before = {"response_payload": tx.response_payload(), "digest": tx.digest()}
        assert before["response_payload"] == tx.response_payload()  # called twice
        assert before["digest"] == tx.digest()
        setattr(tx, name, self.REPLACEMENTS[name])
        after = {"response_payload": tx.response_payload(), "digest": tx.digest()}
        changed = {hashed for hashed in before if before[hashed] != after[hashed]}
        assert changed == self.HASHED_BY[name]
        assert after["response_payload"] == response_payload_from_scratch(tx)

    def test_replacing_a_response_field_changes_the_signed_payload(self):
        response = ProposalResponse(
            proposal_digest=proposal().digest(),
            endorser="endorser1",
            org="org1",
            read_set=ReadSet(),
            write_set=WriteSet({"k": "v"}),
            result="OK",
            success=True,
        )
        seen = {response.signed_payload()}
        response.write_set = WriteSet({"k": "evil"})
        seen.add(response.signed_payload())
        response.result = "EVIL"
        seen.add(response.signed_payload())
        response.success = False
        seen.add(response.signed_payload())
        assert len(seen) == 4


class TestOneEndorsementPayload:
    """An endorser signs ``ProposalResponse.signed_payload``; a
    committing peer verifies against ``Transaction.response_payload``."""

    def _pair(self, success):
        tx = _transaction()
        response = ProposalResponse(
            proposal_digest=tx.proposal.digest(),
            endorser="endorser1",
            org="org1",
            read_set=tx.read_set,
            write_set=tx.write_set,
            result=tx.result,
            success=success,
        )
        return tx, response

    def test_agree_for_a_successful_response(self):
        tx, response = self._pair(success=True)
        assert response.signed_payload() == tx.response_payload()
        assert tx.response_payload() == response_payload_from_scratch(tx)

    def test_differ_for_a_failed_response(self):
        tx, response = self._pair(success=False)
        assert response.signed_payload() != tx.response_payload()
        assert response.signed_payload() == response_payload_from_scratch(tx, False)


class TestCoherenceAudit:
    def test_every_cached_digest_in_both_ledgers_equals_the_formula(self):
        """Run kv, asset-transfer and smallbank transactions to commit
        (asset-transfer writes dicts and returns them as results, and
        later transactions read those dicts back out of the state),
        then recompute every leaf digest from the definitions."""
        pipeline = SoloPipeline(block_size=3)
        calls = [
            ("kv", "put", "colour", {"rgb": [1, 2, 3]}),
            ("kv", "increment", "counter"),
            ("asset-transfer", "create", "car", "alice", 900),
            ("smallbank", "open", "alice", 100),
            ("smallbank", "open", "bob", 5),
            ("asset-transfer", "transfer", "car", "alice", "bob"),
            ("smallbank", "transfer", "alice", "bob", 30),
            ("kv", "increment", "counter", 5),
            ("asset-transfer", "transfer", "car", "bob", "carol"),
            ("kv", "delete", "colour"),
            ("smallbank", "deposit", "bob", 7),
        ]
        for call in calls:  # one at a time: each sees the previous commit
            future = pipeline.submit(*call)
            assert pipeline.drain([future])
            assert future.value.validation_code == "VALID"
        verified = 0
        for index in (0, 1):
            transactions = pipeline.transactions(index)
            assert len(transactions) == len(calls)
            for tx in transactions:
                assert tx.proposal.digest() == proposal_digest_from_scratch(tx.proposal)
                assert tx.read_set.digest() == read_set_digest_from_scratch(tx.read_set)
                assert tx.write_set.digest() == write_set_digest_from_scratch(
                    tx.write_set
                )
                payload = response_payload_from_scratch(tx)
                assert tx.response_payload() == payload
                for endorsement in tx.endorsements:
                    verifier = pipeline.registry.verifier_of(endorsement.endorser)
                    assert verifier.verify(payload, endorsement.signature)
                    verified += 1
            ledger = pipeline.committers[index].ledger
            assert ledger.verify_chain()
            for block in ledger:
                for envelope in block.envelopes:
                    assert envelope.digest() == sha256(
                        "envelope",
                        envelope.channel_id,
                        sha256(
                            "transaction",
                            proposal_digest_from_scratch(envelope.transaction.proposal),
                            read_set_digest_from_scratch(envelope.transaction.read_set),
                            write_set_digest_from_scratch(
                                envelope.transaction.write_set
                            ),
                            envelope.transaction.tx_id,
                        ),
                        envelope.envelope_id,
                    )
        assert verified >= 2 * len(calls)
        first, second = pipeline.committers
        assert first.state.snapshot() == second.state.snapshot()
        assert first.state.get_value("asset/car")["owner"] == "carol"
