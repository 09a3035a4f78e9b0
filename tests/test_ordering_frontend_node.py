"""Unit tests for the frontend (BFT shim) and the ordering node.

The frontend contract (ingress ceiling, in-order delivery, source
filtering, the ledger-digest fold) is checked once over both
relay/acceptance pairs the backend table wires; what differs per pair
(copy matching vs signature quorum, broadcast vs home-node relay) has
its own class.
"""

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.api import SubmitEnvelope
from repro.fabric.block import GENESIS_PREVIOUS_HASH, make_block
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope, OversizedPayloadError
from repro.ordering.admission import (
    REASON_OVERSIZED,
    AdmissionConfig,
    AdmissionController,
)
from repro.ordering.frontend import Frontend, MatchingCopies, SignedQuorum
from repro.ordering.node import BFTOrderingNode, TimeToCut
from repro.sim import ConstantLatency, Network, Simulator
from repro.smart.messages import ClientRequest
from repro.smart.proxy import ServiceProxy
from repro.smart.view import View
from repro.smart2.messages import Subscribe
from repro.smart2.relay import HomeNodeRelay

ORDERERS = ("o0", "o1", "o2", "o3")
PAIRS = ("proxy+matching", "home+quorum")


@pytest.fixture
def env():
    sim = Simulator()
    network = Network(sim, ConstantLatency(0.0005))
    registry = KeyRegistry(scheme=SimulatedECDSA())
    return sim, network, registry


class Inbox:
    """A fake ordering node: records what the relay sends it."""

    def __init__(self):
        self.received = []

    def deliver(self, src, message):
        self.received.append(message)


def make_frontend(env, pair="proxy+matching", verify=False, **kwargs):
    sim, network, registry = env
    view = View(0, (0, 1, 2, 3), 1)
    if pair == "proxy+matching":
        relay = ServiceProxy(sim, network, 1000, view, register=False)
        acceptance = MatchingCopies(1, registry=registry, verify_signatures=verify)
    else:
        relay = HomeNodeRelay(sim, network, 1000, view, request_timeout=0.5)
        acceptance = SignedQuorum(view, registry, dict(enumerate(ORDERERS)))
    frontend = Frontend(
        sim, network, 1000, relay, acceptance, orderer_names=set(ORDERERS), **kwargs
    )
    network.register(1000, frontend)
    if pair == "home+quorum":
        frontend.on_block.append(relay.on_block)
    return frontend


def signed_copy(block_args, *signer_identities):
    block = make_block(*block_args)
    for identity in signer_identities:
        block.signatures[identity.name] = identity.sign(
            block.header.signing_payload()
        )
    return block


def enroll_orderers(registry):
    return [registry.enroll(name, org="ord") for name in ORDERERS]


def feed(frontend, pair, block_args, identities, sources=ORDERERS[:3]):
    """Hand the frontend exactly what its rule needs to trust a block:
    2f+1 matching copies, or one copy carrying 2f+1 signatures."""
    if pair == "proxy+matching":
        for source in sources:
            frontend._on_block_copy(source, make_block(*block_args))
    else:
        frontend._on_block_copy(sources[0], signed_copy(block_args, *identities[:3]))


@pytest.mark.parametrize("pair", PAIRS)
class TestFrontendContract:
    def test_oversized_raises_without_admission(self, env, pair):
        frontend = make_frontend(env, pair, max_envelope_bytes={"ch0": 100})
        with pytest.raises(OversizedPayloadError):
            frontend.submit(Envelope.raw("ch0", 101))
        assert frontend.envelopes_submitted == 0
        assert frontend.submit(Envelope.raw("elsewhere", 101)) is None

    def test_oversized_is_a_verdict_with_admission(self, env, pair):
        frontend = make_frontend(
            env,
            pair,
            max_envelope_bytes=100,
            admission=AdmissionController(AdmissionConfig()),
        )
        verdict = frontend.submit(Envelope.raw("ch0", 101))
        assert verdict is not None and verdict.reason == REASON_OVERSIZED
        assert frontend.envelopes_submitted == 0
        assert frontend.admission.in_flight == 0

    def test_in_order_delivery_after_a_gap(self, env, pair):
        _sim, _network, registry = env
        identities = enroll_orderers(registry)
        frontend = make_frontend(env, pair)
        delivered = []
        frontend.on_block.append(lambda b: delivered.append(b.number))
        block0 = (0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 10)], "ch0")
        block1 = (
            1, make_block(*block0).header.digest(), [Envelope.raw("ch0", 11)], "ch0"
        )
        # block 1 is trusted first; it waits for its predecessor
        feed(frontend, pair, block1, identities)
        assert delivered == []
        feed(frontend, pair, block0, identities)
        assert delivered == [0, 1]
        # late copies of delivered blocks are dropped
        feed(frontend, pair, block0, identities)
        assert delivered == [0, 1] and frontend.blocks_delivered == 2

    def test_copies_from_unknown_sources_ignored(self, env, pair):
        _sim, _network, registry = env
        identities = enroll_orderers(registry)
        frontend = make_frontend(env, pair)
        args = (0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 10)], "ch0")
        feed(frontend, pair, args, identities, sources=("evil1", "evil2", "evil3"))
        assert frontend.blocks_delivered == 0
        assert frontend.rejected_blocks == 0  # never reached the rule

    def test_ledger_digest_folds_delivered_headers(self, env, pair):
        _sim, _network, registry = env
        identities = enroll_orderers(registry)
        frontend = make_frontend(env, pair)
        assert frontend.ledger_digest() == b""
        block0 = (0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 10)], "ch0")
        digest0 = make_block(*block0).header.digest()
        block1 = (1, digest0, [Envelope.raw("ch0", 11)], "ch0")
        digest1 = make_block(*block1).header.digest()
        feed(frontend, pair, block0, identities)
        feed(frontend, pair, block1, identities)
        expected = sha256("ledger", sha256("ledger", b"", "ch0", digest0), "ch0", digest1)
        assert frontend.ledger_digest() == frontend.ledger_digest("ch0") == expected
        assert frontend.ledger_digest("other") == b""

    def test_submit_envelope_message_is_relayed(self, env, pair):
        sim, network, _registry = env
        nodes = [Inbox() for _ in range(4)]
        for i, node in enumerate(nodes):
            network.register(i, node)
        frontend = make_frontend(env, pair)
        network.register("client", object())
        envelope = Envelope.raw("ch0", 33)
        network.send("client", 1000, SubmitEnvelope(envelope), 100)
        sim.run(until=0.1)
        assert frontend.envelopes_submitted == 1
        requests = [
            message
            for node in nodes
            for message in node.received
            if isinstance(message, ClientRequest)
        ]
        assert requests and all(r.operation is envelope for r in requests)


class TestMatchingCopies:
    def test_delivers_after_2f_plus_1_matching(self, env):
        frontend = make_frontend(env)
        envelopes = [Envelope.raw("ch0", 10)]
        args = (0, GENESIS_PREVIOUS_HASH, envelopes, "ch0")
        for source in ("o0", "o1"):
            frontend._on_block_copy(source, make_block(*args))
        assert frontend.blocks_delivered == 0
        frontend._on_block_copy("o2", make_block(*args))
        assert frontend.blocks_delivered == 1

    def test_mismatched_copies_do_not_count(self, env):
        frontend = make_frontend(env)
        good = (0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 10)], "ch0")
        bad = (0, b"\x01" * 32, [Envelope.raw("ch0", 20)], "ch0")
        frontend._on_block_copy("o0", make_block(*good))
        frontend._on_block_copy("o1", make_block(*bad))
        frontend._on_block_copy("o2", make_block(*bad))
        assert frontend.blocks_delivered == 0

    def test_duplicate_copies_from_same_node_count_once(self, env):
        frontend = make_frontend(env)
        args = (0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 10)], "ch0")
        for _ in range(5):
            frontend._on_block_copy("o0", make_block(*args))
        assert frontend.blocks_delivered == 0

    def test_merged_signatures(self, env):
        sim, network, registry = env
        identities = enroll_orderers(registry)
        frontend = make_frontend(env)
        delivered = []
        frontend.on_block.append(delivered.append)
        args = (0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 10)], "ch0")
        for identity in identities[:3]:
            frontend._on_block_copy(identity.name, signed_copy(args, identity))
        assert len(delivered) == 1
        assert len(delivered[0].signatures) == 3

    def test_the_body_comes_from_a_copy_that_matches_its_header(self, env):
        """o0 sends the correct header and its valid signature with the
        envelopes swapped: the copy still matches by header, but the
        delivered body is the first one that hashes to ``data_hash``."""
        _sim, _network, registry = env
        identities = enroll_orderers(registry)
        frontend = make_frontend(env)
        delivered = []
        frontend.on_block.append(delivered.append)
        envelopes = [Envelope.raw("ch0", 10), Envelope.raw("ch0", 20)]
        args = (0, GENESIS_PREVIOUS_HASH, envelopes, "ch0")
        swapped = signed_copy(args, identities[0])
        swapped.envelopes = swapped.envelopes[::-1]
        assert not swapped.verify_data()
        frontend._on_block_copy("o0", swapped)
        for identity in identities[1:3]:
            frontend._on_block_copy(identity.name, signed_copy(args, identity))
        assert len(delivered) == 1
        assert delivered[0].verify_data()
        assert delivered[0].envelopes == envelopes
        assert sorted(delivered[0].signatures) == ["o0", "o1", "o2"]

    def test_verify_mode_needs_only_f_plus_1(self, env):
        sim, network, registry = env
        identities = enroll_orderers(registry)
        frontend = make_frontend(env, verify=True)
        assert frontend.acceptance.copies_needed == 2
        args = (0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 10)], "ch0")
        frontend._on_block_copy("o0", signed_copy(args, identities[0]))
        assert frontend.blocks_delivered == 0
        frontend._on_block_copy("o1", signed_copy(args, identities[1]))
        assert frontend.blocks_delivered == 1

    def test_verify_mode_rejects_unsigned(self, env):
        sim, network, registry = env
        enroll_orderers(registry)
        frontend = make_frontend(env, verify=True)
        args = (0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 10)], "ch0")
        for source in ("o0", "o1", "o2"):
            frontend._on_block_copy(source, make_block(*args))  # no signatures
        assert frontend.blocks_delivered == 0
        assert frontend.rejected_blocks == 3

    def test_proxy_relays_to_every_replica(self, env):
        sim, network, _registry = env
        nodes = [Inbox() for _ in range(4)]
        for i, node in enumerate(nodes):
            network.register(i, node)
        frontend = make_frontend(env)
        frontend.submit(Envelope.raw("ch0", 33))
        sim.run()
        assert [len(node.received) for node in nodes] == [1, 1, 1, 1]


class TestSignedQuorum:
    ARGS = (0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 10)], "ch0")

    def test_one_copy_with_a_quorum_is_delivered_as_is(self, env):
        _sim, _network, registry = env
        identities = enroll_orderers(registry)
        frontend = make_frontend(env, "home+quorum")
        delivered = []
        frontend.on_block.append(delivered.append)
        copy = signed_copy(self.ARGS, *identities[:3])
        frontend._on_block_copy("o3", copy)
        assert delivered == [copy]

    def test_a_quorum_over_the_header_does_not_vouch_for_a_swapped_body(self, env):
        _sim, _network, registry = env
        identities = enroll_orderers(registry)
        frontend = make_frontend(env, "home+quorum")
        envelopes = [Envelope.raw("ch0", 10), Envelope.raw("ch0", 20)]
        copy = signed_copy((0, GENESIS_PREVIOUS_HASH, envelopes, "ch0"), *identities[:3])
        copy.envelopes = envelopes[::-1]
        frontend._on_block_copy("o0", copy)
        assert frontend.blocks_delivered == 0
        assert frontend.rejected_blocks == 1

    def test_too_few_signatures_rejected(self, env):
        _sim, _network, registry = env
        identities = enroll_orderers(registry)
        frontend = make_frontend(env, "home+quorum")
        frontend._on_block_copy("o0", signed_copy(self.ARGS, *identities[:2]))
        assert frontend.blocks_delivered == 0
        assert frontend.rejected_blocks == 1

    def test_forged_and_foreign_signatures_do_not_count(self, env):
        _sim, _network, registry = env
        identities = enroll_orderers(registry)
        outsider = registry.enroll("mallory", org="evil")
        frontend = make_frontend(env, "home+quorum")
        copy = signed_copy(self.ARGS, identities[0], identities[1], outsider)
        copy.signatures["o2"] = b"\x00" * 64
        frontend._on_block_copy("o0", copy)
        assert frontend.blocks_delivered == 0
        assert frontend.rejected_blocks == 1


class TestHomeNodeRelay:
    def _nodes(self, env):
        _sim, network, _registry = env
        nodes = [Inbox() for _ in range(4)]
        for i, node in enumerate(nodes):
            network.register(i, node)
        return nodes

    def test_sends_to_the_home_node_only(self, env):
        sim, _network, _registry = env
        nodes = self._nodes(env)
        frontend = make_frontend(env, "home+quorum")
        frontend.relay.start()
        frontend.submit(Envelope.raw("ch0", 33))
        sim.run(until=0.1)
        # client 1000 % 4 nodes: home is node 0
        assert [type(m) for m in nodes[0].received] == [Subscribe, ClientRequest]
        assert all(not node.received for node in nodes[1:])

    def test_rotates_requests_and_fails_over_until_committed(self, env):
        sim, _network, registry = env
        identities = enroll_orderers(registry)
        nodes = self._nodes(env)
        frontend = make_frontend(env, "home+quorum")
        relay = frontend.relay
        envelope = Envelope.raw("ch0", 33)
        frontend.submit(envelope)
        sim.run(until=1.2)  # two request timeouts of silence
        # the request moves on at each timeout; the subscription once
        # the stream has been quiet for *longer* than one
        assert relay.resubmissions == 2 and relay.failovers == 1
        assert [type(m) for m in nodes[1].received] == [ClientRequest, Subscribe]
        assert [type(m) for m in nodes[2].received] == [ClientRequest]
        # a delivered block carrying the envelope ends the retries
        args = (0, GENESIS_PREVIOUS_HASH, [envelope], "ch0")
        frontend._on_block_copy("o2", signed_copy(args, *identities[:3]))
        sim.run(until=5.0)
        assert relay.resubmissions == 2 and not relay._outstanding


class TestOrderingNode:
    def _node(self, env, max_count=3, name="orderer0"):
        sim, network, registry = env
        identity = registry.enroll(name, org="ord")
        channel = ChannelConfig("ch0", max_message_count=max_count)
        node = BFTOrderingNode(
            sim, network, name, identity, channels={"ch0": channel}
        )
        return node

    def _request(self, operation, seq=0):
        return ClientRequest(client_id=77, sequence=seq, operation=operation)

    def test_blocks_created_deterministically(self, env):
        node_a = self._node(env, name="a")
        node_b = self._node(env, name="b")
        stream = [Envelope.raw("ch0", 16) for _ in range(7)]
        for cid, envelope in enumerate(stream):
            for node in (node_a, node_b):
                node.execute_batch(cid, [self._request(envelope, cid)], 0)
        state_a = node_a.get_state()["ch0"]
        state_b = node_b.get_state()["ch0"]
        assert state_a["next_number"] == state_b["next_number"] == 2
        assert state_a["previous_hash"] == state_b["previous_hash"]

    def test_acks_returned_per_request(self, env):
        node = self._node(env)
        envelope = Envelope.raw("ch0", 16)
        results = node.execute_batch(0, [self._request(envelope)], 0)
        assert results == [{"status": "ACK", "channel": "ch0"}]

    def test_unknown_channel_ack(self, env):
        node = self._node(env)
        envelope = Envelope.raw("elsewhere", 16)
        results = node.execute_batch(0, [self._request(envelope)], 0)
        assert results[0]["status"] == "NO_SUCH_CHANNEL"

    def test_bad_operation_rejected(self, env):
        node = self._node(env)
        results = node.execute_batch(0, [self._request("not-an-envelope")], 0)
        assert results[0]["status"] == "BAD_REQUEST"

    def test_snapshot_rollback_restores_cutter_and_chain(self, env):
        node = self._node(env, max_count=10)
        for seq in range(3):
            node.execute_batch(seq, [self._request(Envelope.raw("ch0", 8), seq)], 0)
        token = node.snapshot()
        pre_state = node.get_state()["ch0"]
        node.execute_batch(3, [self._request(Envelope.raw("ch0", 8), 3)], 0)
        assert len(node._channels["ch0"].cutter) == 4
        node.rollback(token)
        post_state = node.get_state()["ch0"]
        assert len(node._channels["ch0"].cutter) == 3
        assert post_state["previous_hash"] == pre_state["previous_hash"]

    def test_stale_ttc_ignored(self, env):
        node = self._node(env, max_count=2)
        for seq in range(2):  # cuts block 0
            node.execute_batch(seq, [self._request(Envelope.raw("ch0", 8), seq)], 0)
        assert node.blocks_created == 1
        result = node.execute_batch(2, [self._request(TimeToCut("ch0", 0), 2)], 0)
        assert result[0]["status"] == "STALE_TTC"
        assert node.blocks_created == 1

    def test_fresh_ttc_cuts(self, env):
        node = self._node(env, max_count=10)
        node.execute_batch(0, [self._request(Envelope.raw("ch0", 8), 0)], 0)
        result = node.execute_batch(1, [self._request(TimeToCut("ch0", 0), 1)], 0)
        assert result[0]["status"] == "CUT"
        assert node.blocks_created == 1

    def test_frontend_registration(self, env):
        node = self._node(env)
        node.register_frontend(1000)
        node.register_frontend(1000)
        node.register_frontend(1001)
        assert node.frontends == [1000, 1001]
        node.unregister_frontend(1000)
        assert node.frontends == [1001]
