"""Tests for runtime reconfiguration of the ordering service (§5.2)."""


from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering import OrderingServiceConfig, build_ordering_service


def build(max_count=5, **kwargs):
    config = OrderingServiceConfig(
        f=1,
        channel=ChannelConfig("ch0", max_message_count=max_count, batch_timeout=0.4),
        physical_cores=None,
        **kwargs,
    )
    return build_ordering_service(config)


class TestAddOrderingNode:
    def test_view_change_ordered_and_installed(self):
        service = build()
        future, _node = service.add_node()
        assert service.sim.drain([future], service.sim.now + 20.0)
        service.run(0.5)  # let the activation callback fire
        assert future.value["view_id"] == 1
        assert all(r.view.n == 5 for r in service.replicas)

    def test_new_node_inherits_chain_state(self):
        service = build()
        for _ in range(15):
            service.submit(Envelope.raw("ch0", 64))
        service.run(2.0)
        future, node = service.add_node()
        service.sim.drain([future], service.sim.now + 20.0)
        service.run(3.0)
        reference = service.nodes[0].get_state()["ch0"]
        joined = node.get_state()["ch0"]
        assert joined["next_number"] == reference["next_number"] == 3
        assert joined["previous_hash"] == reference["previous_hash"]

    def test_new_node_contributes_blocks(self):
        service = build()
        future, node = service.add_node()
        service.sim.drain([future], service.sim.now + 20.0)
        service.run(2.0)
        for _ in range(10):
            service.submit(Envelope.raw("ch0", 64))
        service.run(3.0)
        assert node.blocks_created == 2
        assert service.frontends[0].blocks_delivered == 2

    def test_cluster_survives_crash_after_growth(self):
        """With 5 nodes the (still f=1) service survives one crash
        even while the newest member is load-bearing."""
        service = build()
        future, _node = service.add_node()
        service.sim.drain([future], service.sim.now + 20.0)
        service.run(2.0)
        service.crash_node(2)
        for _ in range(10):
            service.submit(Envelope.raw("ch0", 64))
        service.run(5.0)
        assert service.frontends[0].blocks_delivered == 2

    def test_frontends_track_new_view(self):
        service = build()
        future, _node = service.add_node()
        service.sim.drain([future], service.sim.now + 20.0)
        service.run(0.5)  # let the activation callback fire
        for frontend in service.frontends:
            assert frontend.relay.view.n == 5
            assert frontend.acceptance.copies_needed == 3  # 2f+1, f=1

    def test_two_sequential_additions(self):
        service = build()
        first, _ = service.add_node()
        assert service.sim.drain([first], service.sim.now + 20.0)
        service.run(2.0)
        second, _ = service.add_node()
        assert service.sim.drain([second], service.sim.now + 30.0)
        service.run(2.0)
        assert service.replicas[0].view.n == 6
        for _ in range(10):
            service.submit(Envelope.raw("ch0", 64))
        service.run(3.0)
        assert service.frontends[0].blocks_delivered == 2
        assert all(
            node.blocks_created == 2 for node in service.nodes
        )


class TestBatchTimeoutAfterJoin:
    def test_time_to_cut_reaches_the_new_membership(self):
        """After a join, every node's TimeToCut proxy (the new node's
        too) sends to the new view, and a partial batch is cut by
        timeout at the same height, into the same header, everywhere."""
        service = build(enable_batch_timeout=True)
        future, joined = service.add_node()
        assert service.sim.drain([future], service.sim.now + 20.0)
        service.run(0.5)  # let the activation callback fire
        new_view = service.replicas[0].view
        assert new_view.n == 5
        assert [node.ttc_proxy.view for node in service.nodes] == [new_view] * 5
        for _ in range(3):  # below max_message_count: only a timeout cuts
            service.submit(Envelope.raw("ch0", 64))
        service.run(3.0)
        states = [node.get_state()["ch0"] for node in service.nodes]
        assert [state["next_number"] for state in states] == [1] * 5
        assert len({state["previous_hash"] for state in states}) == 1
        assert all(state["pending"] == [] for state in states)
        assert joined.blocks_created == 1
        assert service.frontends[0].blocks_delivered == 1
