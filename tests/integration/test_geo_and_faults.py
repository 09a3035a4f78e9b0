"""Integration: geo-distributed deployments and adversarial networks.

Small-scale versions of the Figure 8/9 experiments (full sweeps live
in benchmarks/) plus liveness under lossy links and a censorship
attempt by the leader.
"""


from repro.bench.figures import geo_latency_experiment
from repro.faults import CensorClients, Drop, FaultInjector, Match
from tests.conftest import Cluster


class TestGeoDeployments:
    def test_wheat_beats_bftsmart_on_wan(self):
        bft = geo_latency_experiment(
            "bftsmart", envelope_size=1024, block_size=10, rate=900, duration=4.0,
            warmup=2.0,
        )
        wheat = geo_latency_experiment(
            "wheat", envelope_size=1024, block_size=10, rate=900, duration=4.0,
            warmup=2.0,
        )
        for bft_row, wheat_row in zip(bft, wheat):
            assert wheat_row.median < bft_row.median
        # the headline: around half the latency, absolute < 0.6 s
        assert min(w.median for w in wheat) < 0.65 * min(b.median for b in bft)
        assert all(w.median < 0.6 for w in wheat)

    def test_throughput_sustained_on_wan(self):
        results = geo_latency_experiment(
            "bftsmart", envelope_size=200, block_size=10, rate=1000, duration=4.0,
            warmup=2.0,
        )
        for row in results:
            assert row.throughput > 900

    def test_bigger_blocks_increase_wan_latency(self):
        small = geo_latency_experiment(
            "wheat", envelope_size=1024, block_size=10, rate=1000, duration=4.0,
            warmup=2.0,
        )
        large = geo_latency_experiment(
            "wheat", envelope_size=1024, block_size=100, rate=1000, duration=4.0,
            warmup=2.0,
        )
        assert min(l.median for l in large) > min(s.median for s in small)

    def test_geo_cluster_survives_distant_replica_crash(self):
        """Sydney going dark must not affect safety; WHEAT's weights
        mean it barely affects latency either."""
        from repro.bench.figures import WHEAT_GEO_SITES, geo_row
        from repro.ordering.backends import OpenLoop, stand_up
        from repro.ordering.service import FRONTEND_ID_BASE

        up = stand_up(geo_row(True, block_size=10, load=OpenLoop(900, 6.0)))
        service = up.service
        service.run(2.0)
        sydney_index = WHEAT_GEO_SITES.index("sydney")
        service.crash_node(sydney_index)
        service.run(8.0)  # finish the offered load + drain the tail
        meter = service.stats.meter(f"{FRONTEND_ID_BASE}.envelopes")
        # every single offered envelope was ordered and delivered
        assert meter.total == up.submitted
        assert up.submitted > 5000


class TestAdversarialNetworks:
    def test_liveness_under_message_loss(self):
        """10% loss on every replica link: consensus may stall, but the
        leader-change machinery and client retransmissions always
        recover."""
        cluster = Cluster(request_timeout=0.4)
        injector = FaultInjector(cluster.network, cluster.replicas)
        replica_links = Match(src=tuple(range(4)), dst=tuple(range(4)))
        injector.start(Drop(replica_links, rate=0.10))
        proxy = cluster.proxy(invoke_timeout=2.0, max_retries=40)
        futures = [proxy.invoke(i) for i in range(10)]
        assert cluster.drain(futures, deadline=120.0)
        assert cluster.prefix_consistent()
        alive_histories = [a.history for a in cluster.apps]
        longest = max(alive_histories, key=len)
        assert sorted(longest) == sorted(range(10))

    def test_leader_censorship_defeated(self):
        """A Byzantine leader silently drops one client's requests.
        Forwarding plus the regency change guarantee the censored
        client eventually gets served."""
        cluster = Cluster(request_timeout=0.4)
        victim = cluster.proxy(invoke_timeout=4.0, max_retries=30)
        injector = FaultInjector(cluster.network, cluster.replicas)
        injector.start(CensorClients(0, {victim.client_id}))
        future = victim.invoke(42)
        assert cluster.drain([future], deadline=90.0)
        assert future.value == 42
        # the censoring leader was voted out
        assert all(r.regency >= 1 for r in cluster.replicas[1:])

    def test_safety_under_heavy_asymmetric_delay(self):
        """One replica's uplink crawls; ordering still agrees."""
        cluster = Cluster(latency=0.0005)
        cluster.network.nic_of(3).bandwidth_bps = 1e5  # ~12 KB/s uplink
        proxy = cluster.proxy(invoke_timeout=3.0, max_retries=20)
        futures = [proxy.invoke(i) for i in range(5)]
        assert cluster.drain(futures, deadline=60.0)
        fast = [cluster.apps[i].history for i in range(3)]
        assert fast[0] == fast[1] == fast[2]
        assert sorted(fast[0]) == sorted(range(5))
