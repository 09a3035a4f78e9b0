"""Unit tests for the simulated network."""

import pytest

from repro.sim import ConstantLatency, MatrixLatency, Network
from repro.sim.network import MESSAGE_OVERHEAD_BYTES, NIC


class Inbox:
    def __init__(self):
        self.messages = []

    def deliver(self, src, payload):
        self.messages.append((src, payload))


@pytest.fixture
def net(sim):
    return Network(sim, ConstantLatency(0.010), default_bandwidth_bps=1e9)


def wire(net, *names):
    inboxes = {}
    for name in names:
        inbox = Inbox()
        net.register(name, inbox)
        inboxes[name] = inbox
    return inboxes


class TestDelivery:
    def test_message_arrives_with_latency(self, sim, net):
        boxes = wire(net, "a", "b")
        net.send("a", "b", "hello", size_bytes=0)
        sim.run()
        assert boxes["b"].messages == [("a", "hello")]
        assert sim.now == pytest.approx(
            0.010 + MESSAGE_OVERHEAD_BYTES * 8 / 1e9, rel=1e-6
        )

    def test_transmission_time_scales_with_size(self, sim, net):
        wire(net, "a", "b")
        net.send("a", "b", "big", size_bytes=1_000_000)
        sim.run()
        expected = 0.010 + (1_000_000 + MESSAGE_OVERHEAD_BYTES) * 8 / 1e9
        assert sim.now == pytest.approx(expected, rel=1e-6)

    def test_nic_serializes_transmissions(self, sim, net):
        boxes = wire(net, "a", "b")
        for _ in range(3):
            net.send("a", "b", "m", size_bytes=1_000_000)
        sim.run()
        expected = 0.010 + 3 * (1_000_000 + MESSAGE_OVERHEAD_BYTES) * 8 / 1e9
        assert sim.now == pytest.approx(expected, rel=1e-6)
        assert len(boxes["b"].messages) == 3

    def test_self_send_bypasses_nic(self, sim, net):
        boxes = wire(net, "a")
        net.send("a", "a", "loop", size_bytes=10_000_000)
        sim.run()
        assert boxes["a"].messages == [("a", "loop")]
        assert sim.now < 0.001

    def test_broadcast_reaches_all(self, sim, net):
        boxes = wire(net, "a", "b", "c", "d")
        net.broadcast("a", ["b", "c", "d"], "hi", size_bytes=100)
        sim.run()
        for name in ("b", "c", "d"):
            assert boxes[name].messages == [("a", "hi")]

    def test_send_to_unknown_destination_dropped(self, sim, net):
        wire(net, "a")
        net.send("a", "ghost", "m")
        sim.run()
        assert net.stats.messages_dropped == 1

    def test_duplicate_registration_rejected(self, net):
        wire(net, "a")
        with pytest.raises(ValueError):
            net.register("a", Inbox())

    def test_stats_track_bytes(self, sim, net):
        wire(net, "a", "b")
        net.send("a", "b", "m", size_bytes=100)
        sim.run()
        assert net.stats.bytes_sent == 100 + MESSAGE_OVERHEAD_BYTES
        assert net.stats.messages_delivered == 1


class TestFaults:
    def test_crashed_sender_sends_nothing(self, sim, net):
        boxes = wire(net, "a", "b")
        net.crash("a")
        net.send("a", "b", "m")
        sim.run()
        assert boxes["b"].messages == []

    def test_crashed_receiver_gets_nothing(self, sim, net):
        boxes = wire(net, "a", "b")
        net.crash("b")
        net.send("a", "b", "m")
        sim.run()
        assert boxes["b"].messages == []

    def test_recover_restores_delivery(self, sim, net):
        boxes = wire(net, "a", "b")
        net.crash("b")
        net.send("a", "b", "lost")
        net.recover("b")
        net.send("a", "b", "found")
        sim.run()
        assert boxes["b"].messages == [("a", "found")]

    def test_message_in_flight_to_crashing_node_lost(self, sim, net):
        boxes = wire(net, "a", "b")
        net.send("a", "b", "m")
        sim.schedule(0.001, net.crash, "b")
        sim.run()
        assert boxes["b"].messages == []

    def test_in_flight_message_not_delivered_to_new_incarnation(self, sim, net):
        """A message sent toward the pre-crash incarnation must not
        arrive stale after the node recovers (incarnation epochs)."""
        boxes = wire(net, "a", "b")
        net.send("a", "b", "stale")
        # crash and recover while the message is still in flight
        sim.schedule(0.0001, net.crash, "b")
        sim.schedule(0.0002, net.recover, "b")
        sim.run()
        assert boxes["b"].messages == []
        # the recovered incarnation receives fresh messages normally
        net.send("a", "b", "fresh")
        sim.run()
        assert boxes["b"].messages == [("a", "fresh")]

    def test_blocked_link_drops(self, sim, net):
        boxes = wire(net, "a", "b")
        net.block("a", "b")
        net.send("a", "b", "m")
        sim.run()
        assert boxes["b"].messages == []

    def test_block_is_bidirectional_by_default(self, sim, net):
        boxes = wire(net, "a", "b")
        net.block("a", "b")
        net.send("b", "a", "m")
        sim.run()
        assert boxes["a"].messages == []

    def test_unblock_restores(self, sim, net):
        boxes = wire(net, "a", "b")
        net.block("a", "b")
        net.unblock("a", "b")
        net.send("a", "b", "m")
        sim.run()
        assert boxes["b"].messages == [("a", "m")]

    def test_partition_separates_groups(self, sim, net):
        boxes = wire(net, "a", "b", "c", "d")
        net.partition(["a", "b"], ["c", "d"])
        net.send("a", "c", "cross")
        net.send("a", "b", "within")
        sim.run()
        assert boxes["c"].messages == []
        assert boxes["b"].messages == [("a", "within")]

    def test_heal_removes_partition(self, sim, net):
        boxes = wire(net, "a", "b")
        net.partition(["a"], ["b"])
        net.heal()
        net.send("a", "b", "m")
        sim.run()
        assert boxes["b"].messages == [("a", "m")]

    def test_drop_rate_one_drops_everything(self, sim, net):
        boxes = wire(net, "a", "b")
        net.set_drop_rate("a", "b", 1.0)
        for _ in range(10):
            net.send("a", "b", "m")
        sim.run()
        assert boxes["b"].messages == []

    def test_filter_can_drop(self, sim, net):
        boxes = wire(net, "a", "b")
        net.add_filter(lambda src, dst, payload: None if payload == "bad" else payload)
        net.send("a", "b", "bad")
        net.send("a", "b", "good")
        sim.run()
        assert boxes["b"].messages == [("a", "good")]

    def test_filter_can_mutate(self, sim, net):
        boxes = wire(net, "a", "b")
        net.add_filter(lambda src, dst, payload: payload.upper())
        net.send("a", "b", "quiet")
        sim.run()
        assert boxes["b"].messages == [("a", "QUIET")]

    def test_remove_filter(self, sim, net):
        boxes = wire(net, "a", "b")
        drop_all = lambda src, dst, payload: None
        net.add_filter(drop_all)
        net.remove_filter(drop_all)
        net.send("a", "b", "m")
        sim.run()
        assert boxes["b"].messages == [("a", "m")]


class TestLatencyModels:
    def test_constant_latency_no_jitter(self):
        model = ConstantLatency(0.05)
        assert model.delay("x", "y", None) == 0.05

    def test_constant_latency_jitter_bounded(self):
        import random

        model = ConstantLatency(0.05, jitter_fraction=0.1)
        rng = random.Random(1)
        for _ in range(100):
            delay = model.delay("x", "y", rng)
            assert 0.05 <= delay <= 0.055

    def test_matrix_symmetric_fill(self):
        model = MatrixLatency({("a", "b"): 0.1})
        assert model.delay("b", "a", None) == 0.1

    def test_matrix_local_delay(self):
        model = MatrixLatency({("a", "b"): 0.1}, local_delay=0.001)
        assert model.delay("a", "a", None) == 0.001

    def test_matrix_unknown_pair_raises(self):
        model = MatrixLatency({("a", "b"): 0.1})
        with pytest.raises(KeyError):
            model.delay("a", "z", None)

    def test_sites_affect_delay(self, sim):
        net = Network(sim, MatrixLatency({("east", "west"): 0.2}))
        boxes = {}
        for name, site in [("a", "east"), ("b", "west")]:
            inbox = Inbox()
            net.register(name, inbox, site=site)
            boxes[name] = inbox
        net.send("a", "b", "far", size_bytes=0)
        sim.run()
        assert sim.now >= 0.2


class TestLinks:
    """One record per directed link: what it caches and when it resolves."""

    def test_a_missing_matrix_entry_raises_at_the_links_first_send(self, sim):
        net = Network(sim, MatrixLatency({("east", "west"): 0.2}))
        for name, site in [("a", "east"), ("b", "mars"), ("c", "mars")]:
            net.register(name, Inbox(), site=site)
        net.crash("b")
        net.send("a", "b", "dropped before any delay is needed")
        with pytest.raises(KeyError, match="no latency entry for 'east' -> 'mars'"):
            net.broadcast("a", ["c"], "m")
        with pytest.raises(KeyError):
            net.send("a", "c", "m")
        net.recover("b")
        net.send("b", "c", "same site: the local delay")
        assert net.stats.bytes_by_link == {("b", "c"): MESSAGE_OVERHEAD_BYTES}

    def test_byte_views_cover_every_link_that_carried_a_copy(self, sim):
        net = Network(sim, ConstantLatency(0.01), overhead_bytes=0)
        wire(net, "a", "b", "c")
        net.crash("c")
        net.broadcast("a", ["a", "b", "c"], "m")  # zero bytes, one dropped
        net.send("b", "a", "m", size_bytes=7)
        assert net.stats.bytes_by_link == {("a", "a"): 0, ("a", "b"): 0, ("b", "a"): 7}
        assert net.stats.bytes_by_src == {"a": {"a": 0, "b": 0}, "b": {"a": 7}}
        # views, not state: editing one changes nothing
        net.stats.bytes_by_src["a"]["b"] = 99
        assert net.stats.bytes_by_link[("a", "b")] == 0

    def test_a_returning_id_is_reached_at_its_new_site(self, sim):
        net = Network(sim, MatrixLatency({("east", "west"): 0.2, ("east", "north"): 0.05}))
        net.register("a", Inbox(), site="east")
        net.register("b", Inbox(), site="west")
        net.send("a", "b", "to the first b")
        net.unregister("b")
        later = Inbox()
        net.register("b", later, site="north")
        net.send("a", "b", "to the second b")
        sim.run()
        # both copies reach the new endpoint, each after its own delay,
        # in send order (the FIFO floor belongs to the link)
        assert later.messages == [("a", "to the first b"), ("a", "to the second b")]
        assert net.stats.bytes_by_link == {("a", "b"): 2 * MESSAGE_OVERHEAD_BYTES}
        net.send("a", "b", "fresh")
        sent_at = sim.now
        sim.run()
        assert sim.now == pytest.approx(sent_at + 0.05, abs=1e-6)

    def test_interceptor_flag_follows_every_installer(self, sim, net):
        wire(net, "a", "b")
        hub = object()
        steps = [
            (lambda: net.add_filter(print), True),
            (lambda: net.remove_filter(print), False),
            (lambda: net.set_drop_rate("a", "b", 0.0), True),
            (net.heal, False),
            (lambda: net.block("a", "b"), True),
            (lambda: net.unblock("a", "b"), False),
            (lambda: net.partition(["a"], ["b"]), True),
            (net.heal, False),
        ]
        for install, expected in steps:
            install()
            assert net._intercepting is expected
        net.obs = hub
        assert net._intercepting and net.obs is hub
        net.obs = None
        assert not net._intercepting


class TestNIC:
    def test_queue_delay_builds_up(self, sim):
        nic = NIC(sim, bandwidth_bps=8e6)  # 1 MB/s
        nic.transmit(1_000_000)
        assert nic.queue_delay == pytest.approx(1.0)

    def test_utilization(self, sim):
        nic = NIC(sim, bandwidth_bps=8e6)
        nic.transmit(500_000)
        assert nic.utilization(1.0) == pytest.approx(0.5)

    def test_invalid_bandwidth(self, sim):
        with pytest.raises(ValueError):
            NIC(sim, bandwidth_bps=0)
