"""Cross-backend conformance battery: four orderers, one semantics.

Every ordering backend the repository implements -- solo, Kafka,
BFT-SMaRt and SmartBFT -- replays the same seeded workload through
:func:`repro.ordering.backends.run_backend_workload` and must produce
*byte-identical* committed block chains: same envelope sets, same
cutting decisions (count-, byte- and timeout-driven), same ingress
rejections, no forks, no duplicates.

Differential assertions then check what legitimately differs: SmartBFT
blocks must carry a valid ``2f+1`` signature quorum, and the committer
armed with the quorum policy must reject forged or under-signed blocks
that the crash-fault policies would wave through.
"""

import pytest

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.block import make_block
from repro.fabric.blockpolicy import (
    SignatureCountPolicy,
    SignedQuorum,
    count_valid_signatures,
)
from repro.fabric.channel import ChannelConfig
from repro.fabric.committer import CommittingPeer
from repro.fabric.envelope import Envelope
from repro.ordering.backends import (
    BACKENDS,
    ScenarioRow,
    SpacedLoad,
    run_backend_workload,
)
from repro.sim.core import Simulator
from repro.sim.network import ConstantLatency, Network
from repro.smart.view import byzantine_majority_size, one_correct_size

#: count-driven cutting + an oversized reject + a timeout-cut tail
STANDARD = ScenarioRow(block_size=4, seed=3, load=SpacedLoad(24, oversized_at=(5,)))

#: byte-driven cutting: PreferredMaxBytes binds before the count does
BYTES_BOUND = ScenarioRow(
    block_size=10,
    preferred_max_bytes=1000,
    seed=4,
    load=SpacedLoad(12, payload_size=300),
)

#: arrivals straddle batch_timeout: 500 KB envelopes queue on the
#: links of the replicated backends, so a height fills by count just
#: after its TimeToCut was submitted -- the TTC is ordered stale, with
#: envelopes left over -- and the 2-envelope tail is cut by timeout
STRADDLE = ScenarioRow(
    block_size=3,
    preferred_max_bytes=2_000_000,
    batch_timeout=0.024,
    seed=5,
    load=SpacedLoad(11, payload_size=500_000, spacing=0.001),
)

#: arrivals outlast batch_timeout: every count cut resets the batch
#: timer, so only the 2-envelope tail is cut by timeout
OUTLAST = ScenarioRow(block_size=4, seed=6, load=SpacedLoad(50, spacing=0.006))

_RUNS = {}


def get_run(backend: str, row: ScenarioRow):
    key = (backend, id(row))
    if key not in _RUNS:
        _RUNS[key] = run_backend_workload(backend, row)
    return _RUNS[key]


# ----------------------------------------------------------------------
# identical committed-block semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "row",
    [STANDARD, BYTES_BOUND, STRADDLE, OUTLAST],
    ids=["standard", "bytes", "straddle", "outlast"],
)
def test_backend_commits_workload(backend, row):
    run = get_run(backend, row)
    assert run.finished, f"{backend} did not commit the workload in time"
    expected = row.load.count - len(set(row.load.oversized_at))
    assert len(run.committed_flat_ids) == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "row",
    [STANDARD, BYTES_BOUND, STRADDLE, OUTLAST],
    ids=["standard", "bytes", "straddle", "outlast"],
)
def test_chain_identical_across_backends(backend, row):
    """The whole point: byte-identical header chains on every backend."""
    reference = get_run("solo", row)
    run = get_run(backend, row)
    assert run.header_digests == reference.header_digests
    assert run.committed_envelope_ids == reference.committed_envelope_ids


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_duplicates_and_fifo_order(backend):
    run = get_run(backend, STANDARD)
    ids = run.committed_flat_ids
    assert len(ids) == len(set(ids)), "an envelope was committed twice"
    assert ids == sorted(ids), "single-client FIFO order was not preserved"


@pytest.mark.parametrize("backend", BACKENDS)
def test_oversized_envelope_rejected_at_ingress(backend):
    """AbsoluteMaxBytes: the oversized envelope never reaches a block."""
    run = get_run(backend, STANDARD)
    assert run.rejected_at_ingress == 1
    assert 5 not in run.committed_flat_ids


@pytest.mark.parametrize("backend", BACKENDS)
def test_count_cutting_and_timeout_tail(backend):
    """Blocks cut at max_message_count; the partial tail cuts on timeout."""
    run = get_run(backend, STANDARD)
    sizes = [len(block) for block in run.committed_envelope_ids]
    assert sizes[:-1] == [STANDARD.block_size] * (len(sizes) - 1)
    # 23 accepted envelopes: 5 full blocks of 4 + a timeout-cut tail of 3
    assert sizes[-1] == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_preferred_max_bytes_cutting(backend):
    """PreferredMaxBytes: byte-bound cuts happen identically everywhere."""
    run = get_run(backend, BYTES_BOUND)
    sizes = [len(block) for block in run.committed_envelope_ids]
    # 300-byte payloads against a 1000-byte ceiling: 3 envelopes per block
    assert sizes == [3, 3, 3, 3]


def ordered_ttc_targets(run) -> list:
    """The target height of every TimeToCut the backend ordered."""
    from repro.ordering import TimeToCut

    if run.backend == "kafka":
        records = run.extras["cluster"].leader.log
    else:
        replica = run.extras["service"].replicas[0]
        records = [r.operation for _cid, batch in replica.log.entries for r in batch]
    return [r.target_height for r in records if isinstance(r, TimeToCut)]


@pytest.mark.parametrize("backend", ["kafka", "bftsmart"])
def test_count_cut_overtakes_a_submitted_time_to_cut(backend):
    """STRADDLE really takes the stale-TTC path: a TTC is ordered for a
    height that then filled by count, with envelopes left over."""
    run = get_run(backend, STRADDLE)
    sizes = [len(block) for block in run.committed_envelope_ids]
    assert sizes == [3, 3, 3, 2]
    overtaken = [h for h in ordered_ttc_targets(run) if sizes[h] == STRADDLE.block_size]
    assert overtaken and max(overtaken) < len(sizes) - 1


def test_no_fork_across_backends():
    """No backend diverges from any other on the same prefix."""
    chains = {b: get_run(b, STANDARD).header_digests for b in BACKENDS}
    lengths = {len(c) for c in chains.values()}
    assert len(lengths) == 1
    first = chains[BACKENDS[0]]
    for backend, chain in chains.items():
        assert chain == first, f"{backend} forked from {BACKENDS[0]}"


# ----------------------------------------------------------------------
# differential: SmartBFT signature quorums
# ----------------------------------------------------------------------
def test_smartbft_blocks_carry_signature_quorum():
    run = get_run("smartbft", STANDARD)
    service = run.extras["service"]
    quorum = byzantine_majority_size(STANDARD.f)
    names = {f"orderer{i}" for i in range(service.config.n)}
    for block in run.committed_blocks:
        valid = count_valid_signatures(block, service.registry, names)
        assert valid >= quorum, (
            f"block {block.header.number} carries {valid} valid signatures, "
            f"needs {quorum}"
        )


def test_bftsmart_blocks_carry_merged_signatures():
    """Copy-matching merges signatures: at least f+1 land on the block."""
    run = get_run("bftsmart", STANDARD)
    service = run.extras["service"]
    names = {f"orderer{i}" for i in range(service.config.n)}
    for block in run.committed_blocks:
        valid = count_valid_signatures(block, service.registry, names)
        assert valid >= one_correct_size(STANDARD.f)


# ----------------------------------------------------------------------
# differential: committer-side quorum enforcement
# ----------------------------------------------------------------------
def _quorum_harness(f=1):
    sim = Simulator()
    network = Network(sim, ConstantLatency(0.0001))
    registry = KeyRegistry(scheme=SimulatedECDSA())
    n = 3 * f + 1
    identities = [
        registry.enroll(f"orderer{i}", org=f"ordererorg{i}") for i in range(n)
    ]
    channel = ChannelConfig(channel_id="ch0")
    peer = CommittingPeer(
        sim,
        network,
        "peer0",
        channel,
        registry=registry,
        orderer_names={i.name for i in identities},
        block_policy=SignedQuorum.equal_weight(
            f, registry=registry, orderer_names={i.name for i in identities}
        ),
    )
    network.register("peer0", peer)
    return sim, registry, identities, peer


def _signed_block(identities, signers):
    from repro.fabric.block import GENESIS_PREVIOUS_HASH

    envelope = Envelope.raw("ch0", payload_size=64, submitter="c")
    envelope.envelope_id = 0
    block = make_block(0, GENESIS_PREVIOUS_HASH, [envelope], channel_id="ch0")
    payload = block.header.signing_payload()
    for identity in signers:
        block.signatures[identity.name] = identity.sign(payload)
    return block


def test_committer_accepts_valid_quorum():
    _sim, _registry, identities, peer = _quorum_harness(f=1)
    block = _signed_block(identities, identities[:3])  # 2f+1 = 3
    peer.receive_block(block)
    assert peer.ledger.height == 1
    assert peer.rejected_blocks == 0


def test_committer_rejects_insufficient_quorum():
    _sim, _registry, identities, peer = _quorum_harness(f=1)
    block = _signed_block(identities, identities[:2])  # only 2 < 2f+1
    peer.receive_block(block)
    assert peer.ledger.height == 0
    assert peer.rejected_blocks == 1


def test_committer_rejects_forged_signatures():
    _sim, _registry, identities, peer = _quorum_harness(f=1)
    block = _signed_block(identities, identities[:2])
    # a third "signature" forged by an attacker without orderer2's key
    block.signatures[identities[2].name] = b"\x00" * 64
    peer.receive_block(block)
    assert peer.ledger.height == 0
    assert peer.rejected_blocks == 1


def test_committer_rejects_outsider_signatures():
    _sim, registry, identities, peer = _quorum_harness(f=1)
    outsider = registry.enroll("mallory", org="attackers")
    block = _signed_block(identities, identities[:2])
    payload = block.header.signing_payload()
    block.signatures[outsider.name] = outsider.sign(payload)
    peer.receive_block(block)
    assert peer.ledger.height == 0
    assert peer.rejected_blocks == 1


@pytest.mark.parametrize("backend", ["solo", "kafka"])
@pytest.mark.parametrize("signature", ["orderer", "stripped", "forged"])
def test_cft_peer_checks_the_orderers_signature(backend, signature):
    """The battery's solo and Kafka peer commits the next block only
    under the orderer's own valid signature, as a Fabric peer's block
    validation policy requires."""
    run = run_backend_workload(backend, ScenarioRow(load=SpacedLoad(4)))
    peer = run.peer
    height, rejected = peer.ledger.height, peer.rejected_blocks
    envelope = Envelope.raw("ch0", payload_size=64, submitter="c", envelope_id=99)
    block = make_block(height, peer.ledger.last_hash, [envelope], channel_id="ch0")
    if signature == "orderer":
        orderer = peer.registry.get("orderer0")
        block.signatures["orderer0"] = orderer.sign(block.header.signing_payload())
    elif signature == "forged":
        block.signatures["orderer0"] = b"\x00" * 64
    peer.receive_block(block)
    if signature == "orderer":
        assert (peer.ledger.height, peer.rejected_blocks) == (height + 1, rejected)
    else:
        assert (peer.ledger.height, peer.rejected_blocks) == (height, rejected + 1)


def test_count_policy_matches_legacy_committer_behaviour():
    """The refactor is behaviour-preserving for existing call sites."""
    _sim, _registry, identities, _peer = _quorum_harness(f=1)
    block = _signed_block(identities, identities[:2])
    registry = _registry
    names = {i.name for i in identities}
    assert SignatureCountPolicy(0).check(block)  # disabled check
    assert SignatureCountPolicy(2, registry, names).check(block)
    assert not SignatureCountPolicy(3, registry, names).check(block)
    assert not SignedQuorum.equal_weight(1, registry, names).check(block)
