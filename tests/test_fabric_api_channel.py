"""Tests for HLF API message sizing and channel configuration."""

import pytest

from repro.fabric.api import (
    BlockDelivery,
    BlockRequest,
    BlockResponse,
    FilteredBlock,
    ProposalMessage,
    ProposalResponseMessage,
    SubmitEnvelope,
)
from repro.fabric.block import GENESIS_PREVIOUS_HASH, make_block
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import (
    ChaincodeProposal,
    Envelope,
    ProposalResponse,
    ReadSet,
    WriteSet,
)


def proposal(args=("key", "value")):
    return ChaincodeProposal(
        channel_id="ch0", chaincode_id="kv", function="put",
        args=args, client="alice", nonce=0,
    )


class TestApiWireSizes:
    def test_proposal_message_scales_with_args(self):
        small = ProposalMessage(proposal(args=("k",)), reply_to="alice")
        large = ProposalMessage(proposal(args=("k" * 500,)), reply_to="alice")
        assert large.wire_size() > small.wire_size() + 400

    def test_response_scales_with_rwsets(self):
        lean = ProposalResponse(
            proposal_digest=b"\x00" * 32, endorser="e", org="o",
            read_set=ReadSet(), write_set=WriteSet(), result="ok", success=True,
        )
        fat = ProposalResponse(
            proposal_digest=b"\x00" * 32, endorser="e", org="o",
            read_set=ReadSet({f"k{i}": (0, 0) for i in range(20)}),
            write_set=WriteSet({f"k{i}": i for i in range(20)}),
            result="ok", success=True,
        )
        assert (
            ProposalResponseMessage(fat).wire_size()
            > ProposalResponseMessage(lean).wire_size()
        )

    def test_submit_envelope_includes_payload(self):
        small = SubmitEnvelope(Envelope.raw("ch0", 40))
        large = SubmitEnvelope(Envelope.raw("ch0", 4096))
        assert large.wire_size() - small.wire_size() == 4096 - 40

    def test_block_delivery_includes_block(self):
        block = make_block(
            0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 1000)], "ch0"
        )
        assert BlockDelivery(block=block).wire_size() > 1000

    def test_block_response_sums_blocks(self):
        blocks = [
            make_block(0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 500)], "ch0")
        ]
        single = BlockResponse("ch0", blocks).wire_size()
        double = BlockResponse("ch0", blocks * 2).wire_size()
        assert double > single + 500

    def test_control_messages_small(self):
        assert BlockRequest("ch0", 0, 5, "peer").wire_size() < 300
        assert FilteredBlock(0, "peer", 0.0, [(1, 1, "VALID")]).wire_size() < 300


class TestChannelConfig:
    def test_defaults(self):
        config = ChannelConfig("ch0")
        assert config.max_message_count == 10
        assert config.batch_timeout == 1.0

    def test_invalid_message_count(self):
        with pytest.raises(ValueError):
            ChannelConfig("ch0", max_message_count=0)

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            ChannelConfig("ch0", batch_timeout=0.0)

    def test_default_policy_applied(self):
        config = ChannelConfig("ch0")
        assert config.endorsement_policy.satisfied_by({"org0"})
        assert not config.endorsement_policy.satisfied_by({"orgX"})


class TestSoloKafkaEdges:
    def test_solo_byte_overflow_cuts_early(self):
        from repro.crypto.keys import KeyRegistry
        from repro.crypto.signatures import SimulatedECDSA
        from repro.fabric.orderers import SoloOrderer
        from repro.sim import ConstantLatency, Network, Simulator

        sim = Simulator()
        network = Network(sim, ConstantLatency(0.0005))
        registry = KeyRegistry(scheme=SimulatedECDSA())
        channel = ChannelConfig(
            "ch0", max_message_count=100, preferred_max_bytes=250, batch_timeout=0.2
        )
        orderer = SoloOrderer(
            sim, network, "solo", registry.enroll("solo"), channel
        )
        network.register("solo", orderer)
        for _ in range(3):
            orderer.submit(Envelope.raw("ch0", 100))
        sim.run(until=1.0)
        assert orderer.blocks_created == 2  # 2 then 1-by-timeout

    def test_kafka_duplicate_replication_idempotent(self):
        from repro.crypto.keys import KeyRegistry
        from repro.crypto.signatures import SimulatedECDSA
        from repro.fabric.orderers import KafkaCluster
        from repro.fabric.orderers.kafka import Replicate
        from repro.sim import ConstantLatency, Network, Simulator

        sim = Simulator()
        network = Network(sim, ConstantLatency(0.0005))
        cluster = KafkaCluster(sim, network, num_brokers=3)
        follower = cluster.brokers["kafka1"]
        record = Envelope.raw("ch0", 10)
        follower._on_replicate("kafka0", Replicate(0, record, 10))
        follower._on_replicate("kafka0", Replicate(0, record, 10))
        assert len(follower.log) == 1

    def test_kafka_out_of_order_replication_buffer(self):
        from repro.fabric.orderers import KafkaCluster
        from repro.fabric.orderers.kafka import Replicate
        from repro.sim import ConstantLatency, Network, Simulator

        sim = Simulator()
        network = Network(sim, ConstantLatency(0.0005))
        cluster = KafkaCluster(sim, network, num_brokers=3)
        follower = cluster.brokers["kafka1"]
        record = Envelope.raw("ch0", 10)
        follower._on_replicate("kafka0", Replicate(5, record, 10))
        assert len(follower.log) == 0  # gap: wait for in-order stream
