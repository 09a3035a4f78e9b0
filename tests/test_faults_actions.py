"""Unit tests: every fault action has exactly its declared effect.

Each test wires a bare two/four-node network with recording endpoints,
starts one action under a fixed injector seed, and checks the precise
observable consequence (messages lost, delayed, duplicated, reordered,
mutated, blocked, ...) -- plus that ``stop`` restores clean behavior.
"""

import pytest

from repro.faults import (
    ANY,
    BlockLink,
    CensorClients,
    Corrupt,
    CorruptWrites,
    CrashReplica,
    Delay,
    Drop,
    Duplicate,
    EquivocatePropose,
    FaultEvent,
    FaultInjector,
    FloodClient,
    Match,
    MuteReplica,
    Partition,
    Reorder,
    Scenario,
    SkipQuorumChecks,
    SuppressSync,
)
from repro.ordering import OrderingServiceConfig, build_ordering_service
from repro.sim import ConstantLatency, Network, Simulator
from repro.smart.consensus import batch_hash
from repro.smart.messages import ClientRequest, ForwardedRequest, Propose, Write
from repro.smart2.messages import Forward

pytestmark = pytest.mark.faults

LATENCY = 0.001


class Recorder:
    """Endpoint recording (time, src, payload) of every delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def deliver(self, src, payload):
        self.received.append((self.sim.now, src, payload))

    def payloads(self):
        return [payload for _, _, payload in self.received]


@pytest.fixture
def net():
    sim = Simulator()
    network = Network(sim, ConstantLatency(LATENCY))
    recorders = {}
    for node in range(4):
        recorders[node] = Recorder(sim)
        network.register(node, recorders[node])
    return sim, network, recorders


def drain(sim):
    sim.run()


class TestMatch:
    def test_single_ids_normalized_to_sets(self):
        match = Match(src=0, dst=(1, 2), types=Write)
        assert match.matches(0, 1, Write(0, 0, 0, b"h"))
        assert not match.matches(3, 1, Write(0, 0, 0, b"h"))
        assert not match.matches(0, 3, Write(0, 0, 0, b"h"))
        assert not match.matches(0, 1, "not-a-write")

    def test_where_predicate(self):
        match = Match(where=lambda s, d, p: p == "x")
        assert match.matches(0, 1, "x")
        assert not match.matches(0, 1, "y")

    def test_any_matches_everything(self):
        assert ANY.matches(0, 1, object())


class TestDrop:
    def test_full_drop_and_stop_restores(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=7)
        action = injector.start(Drop(Match(src=0, dst=1)))
        network.send(0, 1, "lost")
        network.send(0, 2, "bystander")
        drain(sim)
        assert recorders[1].payloads() == []
        assert recorders[2].payloads() == ["bystander"]
        injector.stop(action)
        network.send(0, 1, "after")
        drain(sim)
        assert recorders[1].payloads() == ["after"]

    def test_partial_rate_is_seeded(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=7)
        injector.start(Drop(Match(src=0, dst=1), rate=0.5))
        for i in range(100):
            network.send(0, 1, i)
        drain(sim)
        survivors = recorders[1].payloads()
        assert 20 < len(survivors) < 80
        # identical seed -> byte-identical survivor set
        sim2 = Simulator()
        network2 = Network(sim2, ConstantLatency(LATENCY))
        recorder2 = Recorder(sim2)
        for node in range(2):
            network2.register(node, recorder2 if node == 1 else Recorder(sim2))
        injector2 = FaultInjector(network2, seed=7)
        injector2.start(Drop(Match(src=0, dst=1), rate=0.5))
        for i in range(100):
            network2.send(0, 1, i)
        sim2.run()
        assert recorder2.payloads() == survivors


class TestDelay:
    def test_adds_exactly_the_configured_delay(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        injector.start(Delay(Match(src=0, dst=1), delay=0.25))
        network.send(0, 1, "slow")
        network.send(0, 2, "fast")
        drain(sim)
        (slow_at, _, _), = recorders[1].received
        (fast_at, _, _), = recorders[2].received
        # allow for per-message propagation jitter in the latency model
        assert slow_at == pytest.approx(fast_at + 0.25, abs=0.005)


class TestDuplicate:
    def test_copies_delivered_with_spacing(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        injector.start(Duplicate(Match(src=0, dst=1), copies=3, spacing=0.01))
        network.send(0, 1, "echo")
        drain(sim)
        times = [t for t, _, _ in recorders[1].received]
        assert recorders[1].payloads() == ["echo"] * 3
        assert times[1] == pytest.approx(times[0] + 0.01)
        assert times[2] == pytest.approx(times[0] + 0.02)

    def test_copies_must_be_positive(self):
        with pytest.raises(ValueError):
            Duplicate(copies=0)


class TestReorder:
    def test_held_message_overtaken(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        injector.start(
            Reorder(Match(src=0, dst=1, where=lambda s, d, p: p == "first"),
                    delay=0.05)
        )
        network.send(0, 1, "first")
        network.send(0, 1, "second")
        drain(sim)
        # without the fault FIFO would deliver first, second
        assert recorders[1].payloads() == ["second", "first"]


class TestCorrupt:
    def test_mutation_applied_only_to_matches(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        injector.start(
            Corrupt(Match(src=0, dst=1), mutate=lambda p, rng: p + "-corrupted")
        )
        network.send(0, 1, "data")
        network.send(0, 2, "data")
        drain(sim)
        assert recorders[1].payloads() == ["data-corrupted"]
        assert recorders[2].payloads() == ["data"]


class TestCorruptWrites:
    def test_write_hash_replaced_for_victims_only(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        injector.start(CorruptWrites(source=3, victims=(1,)))
        good = Write(3, cid=0, regency=0, value_hash=b"good")
        network.send(3, 1, good)
        network.send(3, 2, good)
        drain(sim)
        (corrupted,) = recorders[1].payloads()
        (untouched,) = recorders[2].payloads()
        assert corrupted.value_hash != b"good"
        assert corrupted.cid == 0 and corrupted.sender == 3
        assert untouched.value_hash == b"good"


class TestEquivocatePropose:
    def test_forged_batch_with_consistent_hash(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        injector.start(EquivocatePropose(leader=0, victims=2))
        batch = [ClientRequest(client_id=1, sequence=0, operation=5)]
        propose = Propose(
            sender=0, cid=0, regency=0, batch=batch,
            value_hash=batch_hash(0, batch),
        )
        network.send(0, 1, propose)
        network.send(0, 2, propose)
        drain(sim)
        (honest,) = recorders[1].payloads()
        (forged,) = recorders[2].payloads()
        assert honest.batch == batch
        assert forged.batch != batch
        assert forged.batch[0].operation == -999
        # the forgery is internally consistent (hash matches its batch)
        assert forged.value_hash == batch_hash(0, forged.batch)


class TestCensorClients:
    @pytest.mark.parametrize("orderer", ["bftsmart", "smartbft"])
    def test_the_clients_direct_and_forwarded_requests_are_ignored(self, orderer):
        """One switch on the shared ``FaultControls`` serves both
        backends: the censoring replica ignores the censored client's
        requests, sent directly or forwarded by a peer, keeps taking
        every other client's, and stops censoring when the action stops."""
        service = build_ordering_service(
            OrderingServiceConfig(orderer=orderer, physical_cores=None)
        )
        replica = service.replicas[1]
        forward = ForwardedRequest if orderer == "bftsmart" else Forward
        injector = FaultInjector(service.network, service.replicas)
        action = injector.start(CensorClients(1, {42}))
        victim, other = (
            ClientRequest(client_id=client, sequence=0, operation=1)
            for client in (42, 7)
        )
        replica.deliver(42, victim)
        replica.deliver(2, forward(2, victim))
        replica.deliver(7, other)
        replica.deliver(2, forward(2, ClientRequest(client_id=7, sequence=1, operation=1)))
        assert (42, 0) not in replica.pending
        assert (7, 0) in replica.pending and (7, 1) in replica.pending
        injector.stop(action)
        assert replica.faults.censor_clients == set()
        replica.deliver(2, forward(2, victim))
        assert (42, 0) in replica.pending


class TestPartitionAndBlock:
    def test_partition_blocks_cross_links_only(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        action = injector.start(Partition([0, 1], [2, 3]))
        assert network.is_blocked(0, 2) and network.is_blocked(3, 1)
        assert not network.is_blocked(0, 1) and not network.is_blocked(2, 3)
        injector.stop(action)
        assert not network.blocked_links()

    def test_block_link_unidirectional(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        action = injector.start(BlockLink(0, 1, bidirectional=False))
        assert network.is_blocked(0, 1)
        assert not network.is_blocked(1, 0)
        injector.stop(action)
        assert not network.is_blocked(0, 1)


class TestCrashReplica:
    def test_network_level_crash_without_replica(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        action = injector.start(CrashReplica(2))
        assert network.is_crashed(2)
        injector.stop(action)
        assert not network.is_crashed(2)

    def test_defaults_are_crash_suspend(self):
        """The historical describe() string (and hence explorer seed
        reproducibility) must not change for a plain crash."""
        action = CrashReplica(2)
        assert action.amnesia is False
        assert action.describe() == "crash replica=2"

    def test_amnesia_describe_lists_storage_faults(self):
        assert (
            CrashReplica(1, amnesia=True).describe()
            == "crash-restart replica=1 amnesia"
        )
        assert "torn-tail" in CrashReplica(1, amnesia=True, torn_tail=True).describe()
        assert "bitrot" in CrashReplica(1, amnesia=True, bitrot=True).describe()

    def test_amnesia_crash_damages_wal_disk(self):
        from repro.ordering.wal_codec import decode_value, encode_value
        from repro.sim.storage import SimDisk
        from repro.smart.wal import ConsensusWAL
        from tests.conftest import Cluster

        cluster = Cluster()
        for replica in cluster.replicas:
            replica.log = ConsensusWAL(
                SimDisk(), encode_op=encode_value, decode_op=decode_value
            )
        proxy = cluster.proxy()
        assert cluster.drain([proxy.invoke(1)])
        injector = FaultInjector(cluster.network, cluster.replicas, seed=0)
        victim = cluster.replicas[1]
        victim.log.append(99, [ClientRequest(1, 99, 0, 4)])  # unsynced
        action = injector.start(CrashReplica(1, amnesia=True))
        assert victim.log.disk.crashes == 1
        assert victim.log.disk.unsynced_size == 0
        injector.stop(action)  # recover() -> restart()
        cluster.run(3.0)
        assert victim.counters.restarts == 1
        assert not victim.crashed


class TestControlFaults:
    def make_cluster(self):
        from tests.conftest import Cluster

        return Cluster()

    def test_switches_flip_and_reset(self):
        cluster = self.make_cluster()
        injector = FaultInjector(cluster.network, cluster.replicas)
        for action_type, attribute in (
            (MuteReplica, "mute"),
            (SuppressSync, "suppress_sync"),
            (SkipQuorumChecks, "skip_quorum_checks"),
        ):
            action = injector.start(action_type(1))
            assert getattr(cluster.replicas[1].faults, attribute) is True
            injector.stop(action)
            assert getattr(cluster.replicas[1].faults, attribute) is False

    def test_control_fault_requires_registered_replica(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)  # no replicas registered
        with pytest.raises(ValueError):
            injector.start(MuteReplica(0))

    def test_muted_replica_sends_nothing(self):
        cluster = self.make_cluster()
        injector = FaultInjector(cluster.network, cluster.replicas)
        injector.start(MuteReplica(0))  # the regency-0 leader
        proxy = cluster.proxy()
        proxy.invoke_async(1)
        cluster.run(0.5)
        # leader swallowed the proposal: nothing was ordered yet
        assert all(app.total == 0 for app in cluster.apps)


class TestFloodClient:
    def test_floods_frontend_with_pinned_duplicate_ids(self, net):
        from repro.fabric.api import SubmitEnvelope

        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        flood = FloodClient(1, rate=100.0, unique_every=4, id_base=5000)
        injector.start(flood)
        sim.run(until=0.1)
        injector.stop(flood)
        payloads = recorders[1].payloads()
        assert 8 <= len(payloads) <= 12  # ~100/s for 0.1s
        assert all(isinstance(p, SubmitEnvelope) for p in payloads)
        ids = [p.envelope.envelope_id for p in payloads]
        # every 4th submission mints a fresh id; the rest replay it
        assert ids[:8] == [5000] * 4 + [5001] * 4
        assert payloads[0].envelope.submitter == "mallory"

    def test_attacker_endpoint_registered_and_cleaned_up(self, net):
        sim, network, recorders = net
        before = set(network.node_ids())
        injector = FaultInjector(network, seed=0)
        flood = FloodClient(1, rate=50.0)
        injector.start(flood)
        assert flood.attacker_id in set(network.node_ids()) - before
        sim.run(until=0.05)
        injector.stop(flood)
        assert set(network.node_ids()) == before
        # stopping silences the flood
        count = len(recorders[1].payloads())
        sim.run(until=0.2)
        assert len(recorders[1].payloads()) == count

    def test_start_resets_run_state_for_replay(self, net):
        """Pure-configuration contract: the shrinker re-runs the same
        action object against a fresh deployment and must get the same
        id sequence."""
        sim, network, recorders = net
        flood = FloodClient(1, rate=100.0, unique_every=2, id_base=9000)
        injector = FaultInjector(network, seed=0)
        injector.start(flood)
        sim.run(until=0.05)
        injector.stop(flood)
        drain(sim)  # deliver the in-flight tail
        first = [p.envelope.envelope_id for p in recorders[1].payloads()]
        assert flood.sent == len(first)

        sim2 = Simulator()
        network2 = Network(sim2, ConstantLatency(LATENCY))
        recorder2 = Recorder(sim2)
        network2.register(1, recorder2)
        injector2 = FaultInjector(network2, seed=0)
        injector2.start(flood)
        sim2.run(until=0.05)
        injector2.stop(flood)
        sim2.run()
        assert [p.envelope.envelope_id for p in recorder2.payloads()] == first

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            FloodClient(1, rate=0.0)

    def test_describe_names_target_and_rate(self):
        text = FloodClient(1, rate=500.0, unique_every=3).describe()
        assert "flood-client" in text
        assert "dst=1" in text
        assert "rate=500.0" in text
        assert "unique-every=3" in text


class TestInjectorLifecycle:
    def test_trace_records_start_stop_heal(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        action = Drop(Match(src=0, dst=1))
        injector.start(action)
        sim.run(until=1.0)
        injector.stop(action)
        injector.heal()
        assert injector.trace[0].startswith("t=0.000000 start drop")
        assert injector.trace[1].startswith("t=1.000000 stop drop")
        assert injector.trace[-1].endswith("heal")

    def test_start_is_idempotent(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        action = Drop(Match(src=0, dst=1))
        injector.start(action)
        injector.start(action)
        assert len(injector.active()) == 1
        assert len(injector.trace) == 1

    def test_heal_scrubs_network_state(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        injector.start(Partition([0], [1, 2, 3]))
        injector.start(CrashReplica(2))
        injector.heal()
        assert not network.blocked_links()
        assert not network.is_crashed(2)
        assert injector.active() == []

    def test_actions_restartable_after_stop(self, net):
        """The shrinker re-runs the same action objects; stop must leave
        them reusable."""
        sim, network, recorders = net
        action = Drop(Match(src=0, dst=1))
        for round_seed in (1, 2):
            injector = FaultInjector(network, seed=round_seed)
            injector.start(action)
            network.send(0, 1, f"lost-{round_seed}")
            drain(sim)
            injector.stop(action)
        network.send(0, 1, "clean")
        drain(sim)
        assert recorders[1].payloads() == ["clean"]


class TestScenario:
    def test_events_fire_at_their_times(self, net):
        sim, network, recorders = net
        injector = FaultInjector(network, seed=0)
        scenario = Scenario(
            [FaultEvent(at=0.5, action=Drop(Match(src=0, dst=1)), duration=0.5)],
            heal_at=2.0,
        )
        scenario.install(injector)
        network.send(0, 1, "before")
        sim.schedule_at(0.7, network.send, 0, 1, "during")
        sim.schedule_at(1.5, network.send, 0, 1, "after")
        sim.run()
        assert recorders[1].payloads() == ["before", "after"]
        assert injector.trace[-1].startswith("t=2.000000 heal")

    def test_event_after_heal_rejected(self):
        with pytest.raises(ValueError):
            Scenario([FaultEvent(at=5.0, action=Drop())], heal_at=3.0)
