"""Unit tests for the signature abstraction and the key registry."""

import hmac
import random

import pytest

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import DEFAULT_SIGN_COST, Signer, SimulatedECDSA


class TestSimulatedECDSA:
    @pytest.fixture
    def scheme(self):
        return SimulatedECDSA()

    def test_sign_verify_roundtrip(self, scheme):
        private, public = scheme.keygen(random.Random(1))
        signature = scheme.sign(private, b"block header")
        assert scheme.verify(public, b"block header", signature)

    def test_signature_is_ecdsa_sized(self, scheme):
        private, _ = scheme.keygen(random.Random(1))
        assert len(scheme.sign(private, b"m")) == 64

    def test_tamper_detected(self, scheme):
        private, public = scheme.keygen(random.Random(1))
        signature = scheme.sign(private, b"m")
        assert not scheme.verify(public, b"x", signature)

    def test_forgery_without_key_fails(self, scheme):
        _, public = scheme.keygen(random.Random(1))
        fake = scheme.sign(b"\x00" * 32, b"m")
        assert not scheme.verify(public, b"m", fake)

    def test_unknown_public_key_fails(self, scheme):
        other = SimulatedECDSA()
        private, public = other.keygen(random.Random(1))
        signature = other.sign(private, b"m")
        assert not scheme.verify(public, b"m", signature)

    def test_default_cost_matches_paper_peak(self, scheme):
        # 8 cores * 1.3 HT yield / cost ~= 8400 signatures/second
        assert 8 * 1.3 / scheme.sign_cost == pytest.approx(8400, rel=0.01)

    def test_signer_cost_exposed(self, scheme):
        private, public = scheme.keygen(random.Random(2))
        assert Signer(scheme, private, public).sign_cost == DEFAULT_SIGN_COST

    @pytest.mark.parametrize("key_size", [0, 1, 32, 63, 64, 65, 200])
    def test_mac_from_pads_is_the_stdlib_hmac(self, scheme, key_size):
        """The per-key pads reproduce ``hmac.digest`` byte for byte on
        both sides of the 64-byte block (a longer key is hashed first),
        on a first use and from the cached pads alike."""
        rng = random.Random(key_size)
        key = rng.randbytes(key_size)
        for message in (b"", rng.randbytes(32), rng.randbytes(4096)):
            expected = hmac.digest(key, message, "sha256")
            assert scheme._mac(key, message) == expected
            assert scheme._mac(key, message) == expected
            assert scheme.sign(key, message) == expected + expected
        assert list(scheme._pads) == [key]


class TestKeyRegistry:
    @pytest.fixture
    def registry(self):
        return KeyRegistry(scheme=SimulatedECDSA())

    def test_enroll_and_lookup(self, registry):
        identity = registry.enroll("peer1", org="org1")
        assert registry.get("peer1") is identity
        assert registry.org_of("peer1") == "org1"

    def test_duplicate_enrollment_rejected(self, registry):
        registry.enroll("x")
        with pytest.raises(ValueError):
            registry.enroll("x")

    def test_verifier_of_validates_signature(self, registry):
        identity = registry.enroll("signer")
        signature = identity.sign(b"payload")
        assert registry.verifier_of("signer").verify(b"payload", signature)

    def test_cross_identity_verification_fails(self, registry):
        alice = registry.enroll("alice")
        bob = registry.enroll("bob")
        signature = alice.sign(b"m")
        assert not bob.verifier.verify(b"m", signature)

    def test_identity_by_public(self, registry):
        identity = registry.enroll("x")
        assert registry.identity_by_public(identity.public) is identity
        assert registry.identity_by_public(b"nope") is None

    def test_contains(self, registry):
        registry.enroll("here")
        assert "here" in registry
        assert "gone" not in registry

