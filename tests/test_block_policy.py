"""Unit tests for the per-backend block-validity policies."""

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.block import GENESIS_PREVIOUS_HASH, make_block
from repro.fabric.blockpolicy import (
    SignatureCountPolicy,
    SignatureQuorumPolicy,
    count_valid_signatures,
)
from repro.fabric.envelope import Envelope


def _harness(n=4):
    registry = KeyRegistry(scheme=SimulatedECDSA())
    identities = [
        registry.enroll(f"orderer{i}", org=f"ordererorg{i}") for i in range(n)
    ]
    envelope = Envelope.raw("ch0", payload_size=64, submitter="c")
    envelope.envelope_id = 0
    block = make_block(0, GENESIS_PREVIOUS_HASH, [envelope], channel_id="ch0")
    return registry, identities, block


def _sign(block, identities):
    payload = block.header.signing_payload()
    for identity in identities:
        block.signatures[identity.name] = identity.sign(payload)


def test_accept_all_ignores_signatures():
    """A count of zero, the committer's default, accepts every block."""
    _registry, _identities, block = _harness()
    policy = SignatureCountPolicy(0)
    assert policy.check(block)  # zero signatures
    assert policy.describe() == "signature-count>=0"


def test_count_valid_signatures_verifies_each():
    registry, identities, block = _harness()
    names = {i.name for i in identities}
    _sign(block, identities[:3])
    assert count_valid_signatures(block, registry, names) == 3
    block.signatures[identities[3].name] = b"\x01" * 64  # forged
    assert count_valid_signatures(block, registry, names) == 3


def test_count_valid_signatures_filters_outsiders():
    registry, identities, block = _harness()
    names = {i.name for i in identities}
    outsider = registry.enroll("mallory", org="attackers")
    _sign(block, identities[:2])
    _sign(block, [outsider])  # valid signature, wrong trust domain
    assert count_valid_signatures(block, registry, names) == 2
    assert count_valid_signatures(block, registry, None) == 3


def test_count_valid_signatures_without_registry_counts_names():
    _registry, identities, block = _harness()
    names = {i.name for i in identities}
    _sign(block, identities[:2])
    block.signatures["stranger"] = b"\x00" * 64
    assert count_valid_signatures(block, None, names) == 2
    assert count_valid_signatures(block, None, None) == 3


def test_signature_count_policy_threshold():
    registry, identities, block = _harness()
    names = {i.name for i in identities}
    _sign(block, identities[:2])
    assert SignatureCountPolicy(0).check(block)  # disabled (legacy default)
    assert SignatureCountPolicy(2, registry, names).check(block)
    assert not SignatureCountPolicy(3, registry, names).check(block)
    assert SignatureCountPolicy(2, registry, names).describe() == "signature-count>=2"


def test_signature_quorum_policy_needs_2f_plus_1():
    registry, identities, block = _harness()
    names = {i.name for i in identities}
    policy = SignatureQuorumPolicy(1, registry, names)
    assert policy.quorum == 3
    _sign(block, identities[:2])
    assert not policy.check(block)
    _sign(block, identities[2:3])
    assert policy.check(block)
    assert policy.describe() == "signature-quorum>=3"
