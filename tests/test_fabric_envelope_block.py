"""Tests for envelopes, blocks and the ledger hash chain."""

import pytest

from repro.fabric.block import (
    GENESIS_PREVIOUS_HASH,
    BlockHeader,
    compute_data_hash,
    genesis_block,
    make_block,
)
from repro.fabric.envelope import (
    ChaincodeProposal,
    Envelope,
    OversizedPayloadError,
    PayloadRef,
    ReadSet,
    WriteSet,
    check_payload_size,
    payload_digest,
    payload_length,
)
from repro.fabric.ledger import Ledger, LedgerError


def raw(size=100, channel="ch0"):
    return Envelope.raw(channel, size)


class TestEnvelope:
    def test_raw_envelope_has_no_transaction(self):
        envelope = raw()
        assert envelope.transaction is None
        assert envelope.payload_size == 100

    def test_envelope_ids_unique(self):
        assert raw().envelope_id != raw().envelope_id

    def test_digest_distinct_per_envelope(self):
        assert raw().digest() != raw().digest()

    def test_digest_stable(self):
        envelope = raw()
        assert envelope.digest() == envelope.digest()

    def test_proposal_digest_covers_fields(self):
        base = dict(
            channel_id="ch0", chaincode_id="cc", function="f",
            args=("a",), client="alice", nonce=1,
        )
        p1 = ChaincodeProposal(**base)
        p2 = ChaincodeProposal(**{**base, "nonce": 2})
        p3 = ChaincodeProposal(**{**base, "args": ("b",)})
        assert len({p1.digest(), p2.digest(), p3.digest()}) == 3

    def test_rwset_digests(self):
        r1 = ReadSet({"k": (0, 0)})
        r2 = ReadSet({"k": (0, 1)})
        assert r1.digest() != r2.digest()
        w1 = WriteSet({"k": "v"})
        w2 = WriteSet({"k": "w"})
        assert w1.digest() != w2.digest()


class TestPayloadRef:
    """Zero-copy payload handles must be indistinguishable from real
    bytes for every length/digest/validation path."""

    def test_real_bytes_handle_reports_exact_length_and_digest(self):
        import hashlib

        content = b"endorsed transaction payload"
        ref = PayloadRef.of_bytes(content)
        assert len(ref) == len(content)
        assert ref.digest() == hashlib.sha256(content).digest()

    def test_of_bytes_is_zero_copy(self):
        content = b"x" * 4096
        assert PayloadRef.of_bytes(content)._content is content

    def test_digest_computed_once_then_cached(self):
        ref = PayloadRef(1024)
        assert ref.digest() is ref.digest()

    def test_synthetic_digest_deterministic_per_length(self):
        assert PayloadRef(40).digest() == PayloadRef(40).digest()
        assert PayloadRef(40).digest() != PayloadRef(200).digest()

    def test_invalid_handles_rejected(self):
        with pytest.raises(ValueError):
            PayloadRef(-1)
        with pytest.raises(ValueError):
            PayloadRef(3, b"four")

    def test_helpers_agree_between_bytes_and_handle(self):
        content = b"some payload"
        ref = PayloadRef.of_bytes(content)
        assert payload_length(content) == payload_length(ref)
        assert payload_digest(content) == payload_digest(ref)
        assert payload_digest(bytearray(content)) == payload_digest(ref)

    def test_check_payload_size_accepts_at_ceiling(self):
        assert check_payload_size(PayloadRef(1024), 1024) == 1024
        assert check_payload_size(b"x" * 1024, 1024) == 1024

    def test_check_payload_size_rejects_handles_like_bytes(self):
        with pytest.raises(OversizedPayloadError):
            check_payload_size(PayloadRef(1025), 1024)
        with pytest.raises(OversizedPayloadError):
            check_payload_size(b"x" * 1025, 1024)

    def test_envelope_from_bytes_wraps_zero_copy(self):
        content = b"y" * 512
        envelope = Envelope.from_bytes("ch0", content)
        assert envelope.payload_size == 512
        assert envelope.payload_ref()._content is content
        assert envelope.transaction is None

    def test_raw_envelope_materializes_handle_lazily(self):
        envelope = Envelope.raw("ch0", 4096)
        assert envelope.payload is None
        ref = envelope.payload_ref()
        assert len(ref) == 4096
        assert envelope.payload_ref() is ref  # cached on the envelope


class TestFrontendOversizedRejection:
    """The frontend enforces AbsoluteMaxBytes identically for synthetic
    handles and real payload bytes (the paper's 10 MB Fabric ceiling,
    shrunk here for test speed)."""

    def _service(self, ceiling):
        from repro.fabric.channel import ChannelConfig
        from repro.ordering import OrderingServiceConfig, build_ordering_service

        return build_ordering_service(
            OrderingServiceConfig(
                f=1,
                channel=ChannelConfig("ch0", absolute_max_bytes=ceiling),
                physical_cores=None,
                latency=None,
                seed=0,
            )
        )

    def test_oversized_handle_and_bytes_both_rejected(self):
        service = self._service(ceiling=1024)
        frontend = service.frontends[0]
        with pytest.raises(OversizedPayloadError):
            frontend.submit(Envelope.raw("ch0", 1025))
        with pytest.raises(OversizedPayloadError):
            frontend.submit(Envelope.from_bytes("ch0", b"z" * 1025))
        assert frontend.envelopes_submitted == 0

    def test_at_ceiling_both_accepted(self):
        service = self._service(ceiling=1024)
        frontend = service.frontends[0]
        frontend.submit(Envelope.raw("ch0", 1024))
        frontend.submit(Envelope.from_bytes("ch0", b"z" * 1024))
        assert frontend.envelopes_submitted == 2


class TestBlock:
    def test_make_block_data_hash(self):
        envelopes = [raw(), raw()]
        block = make_block(0, GENESIS_PREVIOUS_HASH, envelopes)
        assert block.header.data_hash == compute_data_hash(envelopes)
        assert block.verify_data()

    def test_tampered_envelopes_detected(self):
        block = make_block(0, GENESIS_PREVIOUS_HASH, [raw(), raw()])
        block.envelopes.append(raw())
        assert not block.verify_data()

    def test_header_digest_changes_with_number(self):
        h1 = BlockHeader(0, GENESIS_PREVIOUS_HASH, b"\x01" * 32)
        h2 = BlockHeader(1, GENESIS_PREVIOUS_HASH, b"\x01" * 32)
        assert h1.digest() != h2.digest()

    def test_wire_size_includes_payload_and_signatures(self):
        block = make_block(0, GENESIS_PREVIOUS_HASH, [raw(1000)])
        empty = block.wire_size()
        block.signatures["orderer0"] = b"\x00" * 64
        assert block.wire_size() > empty
        assert block.wire_size() > 1000

    def test_genesis_block(self):
        block = genesis_block("mychannel")
        assert block.number == 0
        assert block.envelopes[0].is_config
        assert block.header.previous_hash == GENESIS_PREVIOUS_HASH

    def test_genesis_header_is_a_constant_of_the_channel_name(self):
        """Two peers building block 0 of one channel get one header: the
        config envelope's id is fixed, not drawn."""
        assert genesis_block("c").header.digest() == genesis_block("c").header.digest()
        assert genesis_block("c").header.digest().hex() == (
            "20383237fae50bce8c2053d8157690470060aa42e37f97a2e5bde135ccb15cdb"
        )
        assert genesis_block("d").header.digest() != genesis_block("c").header.digest()


class TestLedger:
    def _chain(self, count=3):
        ledger = Ledger("ch0")
        for i in range(count):
            ledger.append(make_block(i, ledger.last_hash, [raw()], "ch0"))
        return ledger

    def test_append_and_height(self):
        ledger = self._chain(3)
        assert ledger.height == 3
        assert ledger.total_transactions() == 3

    def test_chain_verifies(self):
        assert self._chain(5).verify_chain()

    def test_wrong_number_rejected(self):
        ledger = self._chain(2)
        with pytest.raises(LedgerError):
            ledger.append(make_block(5, ledger.last_hash, [raw()]))

    def test_broken_hash_chain_rejected(self):
        ledger = self._chain(2)
        with pytest.raises(LedgerError):
            ledger.append(make_block(2, b"\xff" * 32, [raw()]))

    def test_data_hash_mismatch_rejected(self):
        ledger = self._chain(1)
        block = make_block(1, ledger.last_hash, [raw()])
        block.envelopes.append(raw())  # tamper after hashing
        with pytest.raises(LedgerError):
            ledger.append(block)

    def test_forging_middle_block_breaks_verification(self):
        """Figure 1's property: block j cannot be forged without
        forging all subsequent blocks."""
        ledger = self._chain(4)
        ledger._blocks[1] = make_block(1, ledger._blocks[0].header.digest(), [raw()])
        assert not ledger.verify_chain()

    def test_get_and_iterate(self):
        ledger = self._chain(3)
        assert ledger.get(1).number == 1
        assert [b.number for b in ledger] == [0, 1, 2]

    def test_empty_ledger_last_hash_is_genesis(self):
        assert Ledger().last_hash == GENESIS_PREVIOUS_HASH
