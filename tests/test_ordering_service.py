"""Integration tests for the complete BFT ordering service."""

import pytest

from repro.fabric.api import BlockDelivery
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering import (
    Frontend,
    OrderingService,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.ordering.service import BACKENDS


def build(max_count=10, num_frontends=1, enable_ttc=False, cores=None, **kwargs):
    config = OrderingServiceConfig(
        f=1,
        channel=ChannelConfig("ch0", max_message_count=max_count, batch_timeout=0.5),
        num_frontends=num_frontends,
        physical_cores=cores,
        enable_batch_timeout=enable_ttc,
        **kwargs,
    )
    return build_ordering_service(config)


class TestBlockFlow:
    def test_full_blocks_delivered(self):
        service = build()
        for _ in range(30):
            service.submit(Envelope.raw("ch0", 512))
        service.run(3.0)
        assert service.frontends[0].blocks_delivered == 3
        assert all(node.blocks_created == 3 for node in service.nodes)

    def test_blocks_identical_across_nodes(self):
        service = build()
        for _ in range(20):
            service.submit(Envelope.raw("ch0", 512))
        service.run(3.0)
        # every node produced the same header chain
        states = [node.get_state()["ch0"] for node in service.nodes]
        assert len({s["previous_hash"] for s in states}) == 1
        assert len({s["next_number"] for s in states}) == 1

    def test_multiple_frontends_see_same_blocks(self):
        service = build(num_frontends=3)
        for i in range(20):
            service.submit(Envelope.raw("ch0", 256), frontend_index=i % 3)
        service.run(3.0)
        assert [f.blocks_delivered for f in service.frontends] == [2, 2, 2]

    def test_partial_block_cut_by_timeout(self):
        service = build(enable_ttc=True)
        for _ in range(3):
            service.submit(Envelope.raw("ch0", 128))
        service.run(5.0)
        assert service.frontends[0].blocks_delivered == 1
        front = service.frontends[0]
        meter = service.stats.meter(f"{front.name}.envelopes")
        assert meter.total == 3

    def test_blocks_signed_by_all_nodes_after_merge(self):
        service = build()
        collected = []
        service.frontends[0].on_block.append(collected.append)
        for _ in range(10):
            service.submit(Envelope.raw("ch0", 64))
        service.run(3.0)
        assert len(collected) == 1
        # 2f+1 matching copies merged: at least 3 signatures
        assert len(collected[0].signatures) >= 3
        payload = collected[0].header.signing_payload()
        for name, signature in collected[0].signatures.items():
            assert service.registry.verifier_of(name).verify(payload, signature)

    def test_latency_recorded(self):
        service = build()
        for _ in range(10):
            service.submit(Envelope.raw("ch0", 64))
        service.run(3.0)
        recorder = service.stats.latency(f"{service.frontends[0].name}.latency")
        assert recorder.count == 10
        assert recorder.median > 0

    def test_envelopes_preserved_in_order_per_frontend_stream(self):
        service = build(max_count=5)
        submitted = [Envelope.raw("ch0", 64) for _ in range(15)]
        delivered = []
        service.frontends[0].on_block.append(
            lambda block: delivered.extend(e.envelope_id for e in block.envelopes)
        )
        for envelope in submitted:
            service.submit(envelope)
        service.run(3.0)
        assert delivered == [e.envelope_id for e in submitted]


class TestFaultTolerance:
    def test_one_crashed_node_does_not_stop_service(self):
        service = build()
        service.crash_node(3)  # non-leader
        for _ in range(20):
            service.submit(Envelope.raw("ch0", 128))
        service.run(3.0)
        assert service.frontends[0].blocks_delivered == 2

    def test_crashed_leader_recovered_by_regency_change(self):
        service = build(request_timeout=0.5)
        for _ in range(10):
            service.submit(Envelope.raw("ch0", 128))
        service.run(2.0)
        service.crash_node(0)
        for _ in range(10):
            service.submit(Envelope.raw("ch0", 128))
        service.run(20.0)
        assert service.frontends[0].blocks_delivered == 2

    def test_byzantine_node_sending_wrong_blocks_outvoted(self):
        """One ordering node disseminates corrupted blocks; frontends
        still only accept the 2f+1-matching correct ones."""
        service = build()

        def corrupt(src, dst, payload):
            if isinstance(payload, BlockDelivery) and payload.source == "orderer3":
                bogus = Envelope.raw("ch0", 6666)
                from repro.fabric.block import make_block

                fake = make_block(
                    payload.block.number, b"\x66" * 32, [bogus], "ch0"
                )
                fake.signatures["orderer3"] = b"\x00" * 64
                return BlockDelivery(block=fake, source="orderer3")
            return payload

        service.network.add_filter(corrupt)
        submitted = [Envelope.raw("ch0", 64) for _ in range(10)]
        for envelope in submitted:
            service.submit(envelope)
        service.run(3.0)
        assert service.frontends[0].blocks_delivered == 1
        meter = service.stats.meter(f"{service.frontends[0].name}.envelopes")
        assert meter.total == 10  # the real envelopes, not the bogus one

    def test_frontend_with_signature_verification_needs_f_plus_1(self):
        service = build(verify_block_signatures=True)
        assert service.frontends[0].acceptance.copies_needed == 2
        for _ in range(10):
            service.submit(Envelope.raw("ch0", 64))
        service.run(3.0)
        assert service.frontends[0].blocks_delivered == 1

    def test_forged_signature_rejected_in_verify_mode(self):
        service = build(verify_block_signatures=True)

        def forge(src, dst, payload):
            if isinstance(payload, BlockDelivery):
                payload.block.signatures[payload.source] = b"\x11" * 64
            return payload

        service.network.add_filter(forge)
        for _ in range(10):
            service.submit(Envelope.raw("ch0", 64))
        service.run(3.0)
        assert service.frontends[0].blocks_delivered == 0


class TestSigningPipeline:
    def test_cpu_model_limits_block_rate(self):
        """With the CPU model on, signing consumes modeled core time."""
        service = build(cores=8, max_count=1, sign_cost=0.05)
        for _ in range(50):
            service.submit(Envelope.raw("ch0", 64))
        # 50 blocks x 50ms each = 2.5 core-seconds, ~240ms on 10.4
        # effective cores: far from finished after 100ms
        service.run(0.1)
        delivered_early = service.frontends[0].blocks_delivered
        service.run(5.0)
        assert delivered_early < 50
        assert service.frontends[0].blocks_delivered == 50

    def test_double_sign_halves_throughput(self):
        slow = build(cores=8, max_count=1, sign_cost=0.05, double_sign=True)
        fast = build(cores=8, max_count=1, sign_cost=0.05, double_sign=False)
        for service in (slow, fast):
            for _ in range(50):
                service.submit(Envelope.raw("ch0", 64))
            service.run(0.15)
        assert slow.frontends[0].blocks_delivered < fast.frontends[0].blocks_delivered


class TestWheatService:
    def test_wheat_deployment_orders(self):
        config = OrderingServiceConfig(
            f=1,
            delta=1,
            vmax_holders=(0, 1),
            tentative_execution=True,
            channel=ChannelConfig("ch0", max_message_count=10),
            physical_cores=None,
        )
        service = build_ordering_service(config)
        assert service.view.n == 5
        for _ in range(20):
            service.submit(Envelope.raw("ch0", 128))
        service.run(3.0)
        assert service.frontends[0].blocks_delivered == 2
        assert any(
            replica.counters.tentative_executions > 0
            for replica in service.replicas
        )


class TestBackendTable:
    def test_every_backend_is_one_service_behind_one_frontend(self):
        services = {name: build(orderer=name, num_frontends=2) for name in BACKENDS}
        assert set(services) == {"bftsmart", "smartbft"}
        for service in services.values():
            assert type(service) is OrderingService
            assert [type(fe) for fe in service.frontends] == [Frontend, Frontend]
            assert len(service.replicas) == len(service.nodes) == len(service.cpus) == 4
        # a SmartBFT node is its own consensus replica
        assert services["smartbft"].replicas is services["smartbft"].nodes
        assert services["bftsmart"].replicas is not services["bftsmart"].nodes

    def test_named_entry_point_is_the_same_builder(self):
        from repro.smart2.deployment import build_smartbft_service

        service = build_smartbft_service(OrderingServiceConfig(physical_cores=None))
        assert type(service) is OrderingService
        assert service.config.orderer == "smartbft"

    def test_backend_without_reconfiguration_refuses_add_node(self):
        service = build(orderer="smartbft")
        registered = set(service.network.node_ids())
        with pytest.raises(NotImplementedError, match="smartbft"):
            service.add_node()
        with pytest.raises(NotImplementedError, match="smartbft"):
            service.admin_proxy()
        # nothing was half-built
        assert len(service.nodes) == len(service.cpus) == 4
        assert set(service.network.node_ids()) == registered

    def test_unknown_orderer_names_the_valid_rows(self):
        with pytest.raises(ValueError, match="'bftsmart', 'smartbft'"):
            build(orderer="raft")


class TestEagerProposeBatching:
    """The leader proposes whatever is pending the moment the previous
    instance finishes (BFT-SMaRt's eager batching), so the batch size is
    not a setting but an outcome: about ``offered rate x instance
    latency`` requests, and never fewer than one.  An instance here is
    three 0.1 ms network delays, so below ~3 000 env/s every envelope
    gets an instance of its own -- which is why the admission-controlled
    ``overload_4x_flood`` and the 1 000 env/s ``leader_crash_wal`` perf
    workloads run ``envs_per_decision`` 1.1 / 1.7, and why a per-batch
    saving has nothing to amortize there (docs/WORKLOADS.md)."""

    def envs_per_decision(self, rate: float, seconds: float = 0.1) -> float:
        service = build(request_timeout=30.0)
        count = int(rate * seconds) // 10 * 10
        for index in range(count):
            service.sim.schedule_at(
                0.01 + index / rate, service.submit, Envelope.raw("ch0", 512)
            )
        service.run(1.0)
        assert service.frontends[0].blocks_delivered == count // 10
        counters = service.replicas[0].counters
        assert counters.requests_executed == count
        return counters.requests_executed / counters.consensus_decided

    def test_envs_per_decision_rises_with_offered_rate(self):
        rates = (1_000, 4_000, 8_000, 32_000)
        sizes = [self.envs_per_decision(rate) for rate in rates]
        assert sizes[0] == 1.0  # one arrival per ms, an instance is 0.3 ms
        assert sizes == sorted(set(sizes))  # strictly rising past the knee
        assert 2.0 < sizes[2] < 3.5  # 8 000 env/s x ~0.32 ms
        assert sizes[3] > 10.0
