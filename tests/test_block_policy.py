"""Unit tests for the per-backend block-validity policies."""

import pytest

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.block import GENESIS_PREVIOUS_HASH, make_block
from repro.fabric.blockpolicy import (
    SignatureCountPolicy,
    SignedQuorum,
    count_valid_signatures,
)
from repro.fabric.envelope import Envelope
from repro.ordering.backends import ScenarioRow, SpacedLoad, stand_up
from repro.smart2.messages import BlockPush
from tests.test_smartbft_node import CHANNEL, build, requests


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
    policy = SignedQuorum.equal_weight(1, registry, names)
    assert policy.quorum == 3
    _sign(block, identities[:2])
    assert not policy.check(block)
    _sign(block, identities[2:3])
    assert policy.check(block)
    assert policy.describe() == "signature-quorum>=3"


# ----------------------------------------------------------------------
# one rule, three judges: what SmartBFT's committing peer, its frontend
# and a node catching up trust is one signed quorum of the view
# ----------------------------------------------------------------------
#: case -> (delta, genuine signers, forged signers, trusted?)
ONE_RULE_CASES = {
    # WHEAT n=5 with Vmax=2 at {0, 1}: orderers 0, 2 and 3 are 2f+1
    # signers but weigh 4, and a quorum must weigh more than 4.5
    "three_wheat_signers_short_of_the_weight": (1, (0, 2, 3), (), False),
    "a_quorum_plus_a_forged_extra": (0, (0, 1, 2), (3,), True),
    "a_weighted_quorum_plus_a_forged_extra": (1, (0, 1, 2), (3,), True),
    "a_quorum_only_with_the_forged": (0, (0, 1), (2,), False),
    "a_weighted_quorum_only_with_the_forged": (1, (0, 2, 3), (1,), False),
}


def _judged(judge, up, block, batch) -> bool:
    if judge == "committer":  # the policy the stand-up arms its peers with
        return up.block_policy.check(block)
    if judge == "frontend":
        frontend = up.service.frontends[0]
        frontend._on_block_copy("orderer0", block)
        return frontend.blocks_delivered == 1
    node = up.service.nodes[-1]  # a follower, pushed seq 0 by the leader
    node.deliver(0, BlockPush(sender=0, decisions=((0, block, tuple(batch)),)))
    return node.next_commit_seq == 1


@pytest.mark.parametrize("judge", ["committer", "frontend", "catch-up"])
@pytest.mark.parametrize("case", sorted(ONE_RULE_CASES))
def test_smartbft_committer_frontend_and_catch_up_judge_alike(case, judge):
    delta, genuine, forged, trusted = ONE_RULE_CASES[case]
    up = stand_up(ScenarioRow(backend="smartbft", delta=delta, load=SpacedLoad(count=0)))
    batch = requests(range(4))
    block = make_block(
        0, GENESIS_PREVIOUS_HASH, [r.operation for r in batch], channel_id=CHANNEL
    )
    payload = block.header.signing_payload()
    for pid in genuine:
        signer = up.registry.get(f"orderer{pid}")
        block.signatures[signer.name] = signer.sign(payload)
    for pid in forged:
        block.signatures[f"orderer{pid}"] = b"\x00" * 64
    assert _judged(judge, up, block, batch) is trusted


def test_signed_quorum_describes_its_fewest_signers():
    """Equal weights need 2f+1 signers; WHEAT's two Vmax holders plus
    one more outweigh the threshold with three as well."""
    assert build().block_policy().describe() == "signature-quorum>=3"
    wheat = build(delta=1, vmax_holders=(0, 1)).block_policy()
    assert wheat.view.quorum_threshold == 4.5
    assert wheat.describe() == "signature-quorum>=3"
