"""Tests for the synchronization phase (leader changes)."""

import pytest

from repro.bench.topology import lan_latency_model
from repro.ordering.backends import ScenarioRow, SpacedLoad, stand_up
from repro.smart.messages import Sync
from tests.conftest import Cluster


class TestLeaderCrash:
    def test_crashed_leader_replaced(self):
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=5.0)
        first = proxy.invoke(1)
        assert cluster.drain([first])
        cluster.replicas[0].crash()
        second = proxy.invoke(2)
        assert cluster.drain([second], deadline=30.0)
        assert second.value == 3
        survivors = cluster.replicas[1:]
        assert all(r.regency >= 1 for r in survivors)
        assert all(r.view.leader_of(r.regency) != 0 for r in survivors)

    def test_state_consistent_after_leader_change(self):
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=5.0)
        assert cluster.drain([proxy.invoke(i) for i in range(5)])
        cluster.replicas[0].crash()
        assert cluster.drain([proxy.invoke(10 + i) for i in range(5)], deadline=40.0)
        histories = [app.history for app, r in zip(cluster.apps, cluster.replicas) if not r.crashed]
        assert all(h == histories[0] for h in histories)

    def test_two_consecutive_leader_crashes(self):
        cluster = Cluster(n=7, f=2, request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=5.0, max_retries=20)
        assert cluster.drain([proxy.invoke(1)])
        cluster.replicas[0].crash()
        assert cluster.drain([proxy.invoke(2)], deadline=40.0)
        cluster.replicas[1].crash()
        future = proxy.invoke(3)
        assert cluster.drain([future], deadline=60.0)
        assert future.value == 6

    def test_silent_leader_detected_without_crash(self):
        """A leader that stops proposing (but stays online) is evicted."""
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=5.0)
        assert cluster.drain([proxy.invoke(1)])
        # the leader silently ignores all client requests from now on
        leader = cluster.replicas[0]
        leader._maybe_propose = lambda: None
        future = proxy.invoke(2)
        assert cluster.drain([future], deadline=30.0)
        assert all(r.regency >= 1 for r in cluster.replicas[1:])

    def test_new_leader_crash_escalates_regency(self):
        """If the next leader is also down, the change keeps going."""
        cluster = Cluster(n=7, f=2, request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=5.0, max_retries=20)
        assert cluster.drain([proxy.invoke(1)])
        cluster.replicas[0].crash()
        cluster.replicas[1].crash()  # regency 1's leader is dead too
        future = proxy.invoke(2)
        assert cluster.drain([future], deadline=80.0)
        survivors = [r for r in cluster.replicas if not r.crashed]
        assert all(r.regency >= 2 for r in survivors)

    def test_no_requests_lost_across_leader_change(self):
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=4.0, max_retries=20)
        assert cluster.drain([proxy.invoke(1)])
        # submit a burst, then immediately kill the leader so some of
        # the burst is likely in flight
        futures = [proxy.invoke(1) for _ in range(10)]
        cluster.replicas[0].crash()
        assert cluster.drain(futures, deadline=60.0)
        survivors = [a for a, r in zip(cluster.apps, cluster.replicas) if not r.crashed]
        assert all(a.total == 11 for a in survivors)

    def test_service_survives_f_crashes_only(self):
        """With f+1 crashes the service must NOT decide (but with f it
        must)."""
        cluster = Cluster(request_timeout=0.3)
        proxy = cluster.proxy(invoke_timeout=1.0, max_retries=3)
        cluster.replicas[2].crash()
        cluster.replicas[3].crash()  # two failures, f=1
        future = proxy.invoke(1)
        cluster.drain([future], deadline=8.0)
        if future.done:  # the proxy gave up retrying
            with pytest.raises(TimeoutError):
                _ = future.value
        assert all(app.total == 0 for app in cluster.apps)


class TestValuePreservation:
    def test_write_certified_value_survives_leader_change(self):
        """If a WRITE quorum existed for a batch, the new leader must
        re-propose that batch (Mod-SMaRt's value selection rule)."""
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=5.0, max_retries=20)
        assert cluster.drain([proxy.invoke(1)])

        # block all ACCEPT messages so consensus stalls after WRITE
        from repro.smart.messages import Accept

        def drop_accepts(src, dst, payload):
            if isinstance(payload, Accept):
                return None
            return payload

        cluster.network.add_filter(drop_accepts)
        future = proxy.invoke(41)
        cluster.run(1.0)  # writes happen, accepts are dropped
        # some replica observed a write quorum
        certified = [
            r.instances[r.last_executed + 1].write_certificate
            for r in cluster.replicas
            if (r.last_executed + 1) in r.instances
        ]
        assert any(c is not None for c in certified)
        cluster.network.remove_filter(drop_accepts)
        # the stalled instance now completes (possibly after a regency
        # change); the certified value must be the one decided
        assert cluster.drain([future], deadline=60.0)
        assert future.value == 42
        assert all(41 in app.history for app in cluster.apps)


class TestRegencyBookkeeping:
    def test_regency_changes_counted(self):
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=5.0)
        assert cluster.drain([proxy.invoke(1)])
        cluster.replicas[0].crash()
        assert cluster.drain([proxy.invoke(2)], deadline=30.0)
        assert all(r.counters.regency_changes >= 1 for r in cluster.replicas[1:])

    def test_progress_resumes_normal_operation(self):
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=5.0)
        assert cluster.drain([proxy.invoke(1)])
        cluster.replicas[0].crash()
        assert cluster.drain([proxy.invoke(2)], deadline=30.0)
        regency_after = cluster.replicas[1].regency
        # more traffic should not trigger further changes
        assert cluster.drain([proxy.invoke(3), proxy.invoke(4)], deadline=10.0)
        assert cluster.replicas[1].regency == regency_after


class TestFailoverUnderBacklog:
    """The leader crashes (with amnesia, WAL on) under a 4 KB backlog.

    The leader change must cost the new leader one value per replica,
    not every replica's backlog per replica, and the new leader must
    get a full request timeout for the requests it inherited; otherwise
    SYNCs outlast the sync timeout and regencies churn for good.
    """

    @staticmethod
    def row(f, count):
        return ScenarioRow(
            f=f,
            block_size=10,
            durable_wal=True,
            crash=0,
            rejoin=True,
            request_timeout=0.5,
            latency=lan_latency_model(),
            load=SpacedLoad(count=count, payload_size=4096, spacing=0.001),
        )

    @staticmethod
    def run(row, syncs=None):
        def arm(up):
            if syncs is not None:
                def record(src, dst, payload):
                    if isinstance(payload, Sync):
                        syncs.append(payload)
                    return payload

                up.network.add_filter(record)

        up = stand_up(row, arm)
        service = up.service
        up.sim.run_until(
            lambda: service.total_delivered() >= row.load.count, deadline=20.0
        )
        return up

    @pytest.fixture(scope="class")
    def n4(self):
        syncs = []
        up = self.run(self.row(f=1, count=3000), syncs)
        return up, syncs

    def test_n4_recovers_with_one_regency_change(self, n4):
        up, _syncs = n4
        service = up.service
        assert service.total_delivered() == 3000
        assert up.sim.now < 3.1
        assert [r.counters.regency_changes for r in service.replicas[1:]] == [1, 1, 1]

    def test_sync_proofs_carry_no_pending_requests(self, n4):
        _up, syncs = n4
        assert syncs
        assert all(not proof.pending for sync in syncs for proof in sync.proofs)

    def test_n10_makes_at_most_one_regency_change(self):
        up = self.run(self.row(f=3, count=4000))
        service = up.service
        assert service.total_delivered() == 4000
        assert max(r.counters.regency_changes for r in service.replicas) == 1
