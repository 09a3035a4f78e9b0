"""What durable SMR costs (paper §5.2, [3]): every replica logs its
WRITE and ACCEPT votes to a :class:`ConsensusWAL` on a simulated disk
and sends each vote only after the fsync that makes it durable."""

import pytest

from repro.sim import ConstantLatency, Network, Simulator, SimDisk
from repro.smart import ConsensusWAL, ServiceProxy, ServiceReplica, View
from tests.conftest import CounterApp


def timed_cluster(fsync_latency):
    sim = Simulator()
    network = Network(sim, ConstantLatency(0.0005))
    view = View(0, (0, 1, 2, 3), 1)
    apps = [CounterApp() for _ in range(4)]
    replicas = []
    for i in range(4):
        replica = ServiceReplica(
            sim,
            network,
            i,
            view,
            apps[i],
            log=ConsensusWAL(SimDisk(fsync_latency=fsync_latency)),
        )
        network.register(i, replica)
        replicas.append(replica)
    proxy = ServiceProxy(sim, network, 1000, view)
    return sim, proxy, apps, replicas


class TestDiskSync:
    def test_correctness_unaffected(self):
        sim, proxy, apps, _replicas = timed_cluster(0.002)
        futures = [proxy.invoke(i) for i in range(6)]
        assert sim.drain(futures, 10.0)
        assert all(app.history == apps[0].history for app in apps)
        assert sorted(apps[0].history) == list(range(6))

    def test_latency_grows_with_sync_delay(self):
        latencies = {}
        for fsync in (0.0, 0.005):
            sim, proxy, _apps, _replicas = timed_cluster(fsync)
            start = sim.now
            future = proxy.invoke(1)
            sim.drain([future], 10.0)
            latencies[fsync] = sim.now - start
        # two fsyncs sit on the critical path: before the WRITE vote and
        # before the ACCEPT vote
        assert latencies[0.005] - latencies[0.0] == pytest.approx(2 * 0.005)

    def test_tiny_state_keeps_overhead_bounded(self):
        """§5.2's point: with a fast log (0.5 ms), durability costs a
        bounded constant per consensus, not per request."""
        sim, proxy, _apps, replicas = timed_cluster(0.0005)
        start = sim.now
        futures = [proxy.invoke(i) for i in range(20)]
        assert sim.drain(futures, 20.0)
        elapsed = sim.now - start
        # 20 requests ride a handful of consensus instances; far less
        # than 20 disk syncs' worth of extra time
        assert elapsed < 0.1
        assert replicas[0].counters.consensus_decided < 20

    def test_write_not_sent_after_crash(self):
        sim, proxy, _apps, replicas = timed_cluster(0.01)
        future = proxy.invoke(1)
        # the PROPOSE reaches replica 1 at 1 ms; its WRITE waits for the
        # 10 ms fsync, and the replica crashes in between
        sim.schedule(0.002, replicas[1].crash)
        assert sim.drain([future], 10.0)
        inst = replicas[1].instances[0]
        # logged before the crash, never sent: a replica books its own
        # vote only when it sends it
        assert inst.write_sent == {0: replicas[0].instances[0].decided_hash}
        assert replicas[1].log.disk.fsyncs == 1
        assert 1 not in inst.writes(0).voters_of(inst.write_sent[0])
