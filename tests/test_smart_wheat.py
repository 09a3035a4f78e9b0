"""Tests for WHEAT: weighted quorums and tentative execution."""

import pytest

from repro.ordering.backends import stand_up
from repro.smart.wheat import wheat_view
from tests.conftest import Cluster


class TestWheatCluster:
    def test_five_replica_deployment_orders(self):
        cluster = Cluster(n=5, f=1, delta=1, tentative=True, vmax_holders=(0, 1))
        proxy = cluster.proxy(accept_tentative=True)
        futures = [proxy.invoke(i) for i in range(8)]
        assert cluster.drain(futures)
        assert cluster.histories_agree()

    def test_tentative_execution_happens(self):
        cluster = Cluster(n=5, f=1, delta=1, tentative=True, vmax_holders=(0, 1))
        proxy = cluster.proxy(accept_tentative=True)
        assert cluster.drain([proxy.invoke(1)])
        assert any(
            r.counters.tentative_executions > 0 for r in cluster.replicas
        )

    def test_tentative_confirmed_not_rolled_back(self):
        cluster = Cluster(n=5, f=1, delta=1, tentative=True, vmax_holders=(0, 1))
        proxy = cluster.proxy(accept_tentative=True)
        futures = [proxy.invoke(i) for i in range(10)]
        assert cluster.drain(futures)
        cluster.run(1.0)
        assert all(r.counters.rollbacks == 0 for r in cluster.replicas)
        assert all(len(r._tentative_stack) == 0 for r in cluster.replicas)

    def test_tentative_replies_need_full_quorum(self):
        """A client accepting tentative replies must gather quorum
        weight, not just f+1 (paper section 4)."""
        cluster = Cluster(n=5, f=1, delta=1, tentative=True, vmax_holders=(0, 1))
        view = cluster.view
        # Vmax pair alone (weight 4) is below the quorum threshold 4.5
        assert not view.is_reply_quorum(4.0, tentative=True)
        assert view.is_reply_quorum(5.0, tentative=True)

    def test_wheat_survives_vmax_replica_crash(self):
        cluster = Cluster(
            n=5, f=1, delta=1, tentative=True, vmax_holders=(1, 2),
            request_timeout=0.4,
        )
        proxy = cluster.proxy(accept_tentative=True, invoke_timeout=5.0)
        assert cluster.drain([proxy.invoke(1)])
        cluster.replicas[1].crash()  # a Vmax holder dies
        future = proxy.invoke(2)
        assert cluster.drain([future], deadline=30.0)
        assert future.value == 3

    def test_wheat_survives_leader_crash_with_rollback_machinery(self):
        cluster = Cluster(
            n=5, f=1, delta=1, tentative=True, vmax_holders=(0, 1),
            request_timeout=0.4,
        )
        proxy = cluster.proxy(accept_tentative=True, invoke_timeout=5.0, max_retries=20)
        assert cluster.drain([proxy.invoke(1)])
        cluster.replicas[0].crash()  # leader + Vmax holder
        future = proxy.invoke(2)
        assert cluster.drain([future], deadline=40.0)
        survivors = [
            a for a, r in zip(cluster.apps, cluster.replicas) if not r.crashed
        ]
        assert all(a.total == 3 for a in survivors)


class TestRollbackMechanism:
    def test_rollback_restores_state(self):
        """Unit-level: force a divergent tentative execution and check
        the undo path rewinds the application."""
        cluster = Cluster(n=5, f=1, delta=1, tentative=True, vmax_holders=(0, 1))
        replica = cluster.replicas[2]
        app = cluster.apps[2]
        from repro.smart.messages import ClientRequest

        request = ClientRequest(client_id=77, sequence=0, operation=100)
        inst = replica.instance(replica.last_executed + 1)
        value_hash = inst.learn_value([request])
        replica._try_tentative(inst, value_hash, regency=0)
        assert app.total == 100
        assert replica.counters.tentative_executions == 1
        replica._rollback_tentative()
        assert app.total == 0
        assert replica.counters.rollbacks == 1
        # the rolled-back request is queued for re-ordering
        assert request.request_id in replica.pending

    def test_rollback_cascades_newest_first(self):
        cluster = Cluster(n=5, f=1, delta=1, tentative=True, vmax_holders=(0, 1))
        replica = cluster.replicas[2]
        app = cluster.apps[2]
        from repro.smart.messages import ClientRequest

        for seq, amount in enumerate((10, 20)):
            request = ClientRequest(client_id=77, sequence=seq, operation=amount)
            inst = replica.instance(replica.last_executed + 1 + seq)
            value_hash = inst.learn_value([request])
            replica._try_tentative(inst, value_hash, regency=0)
        assert app.total == 30
        replica._rollback_tentative()
        assert app.total == 0
        assert replica.counters.rollbacks == 2


class TestHelpers:
    def test_wheat_view_weights(self):
        view = wheat_view(0, tuple(range(5)), f=1, delta=1, vmax_holders=(2, 3))
        assert view.weights[2] == 2.0
        assert view.weights[0] == 1.0


class TestWheatAblation:
    @pytest.mark.parametrize("weights", [False, True])
    def test_weights_toggle_reaches_replicas_and_relays(self, monkeypatch, weights):
        """The ablation's ``weights=False`` cell hands every replica and
        every frontend's relay uniform weights; ``weights=True`` keeps
        Vmax (2.0 at f=1, delta=1) on replicas 0 and 1."""
        from repro.bench import figures

        stood_up = []

        def recording_stand_up(*args, **kwargs):
            stood_up.append(stand_up(*args, **kwargs))
            return stood_up[-1]

        monkeypatch.setattr(figures, "stand_up", recording_stand_up)
        figures.wheat_ablation_point(
            weights, tentative=True, rate=100.0, duration=0.2, warmup=0.1
        )
        (up,) = stood_up
        vmax = 2.0 if weights else 1.0
        expected = {0: vmax, 1: vmax, 2: 1.0, 3: 1.0, 4: 1.0}
        service = up.service
        views = [replica.view for replica in service.replicas]
        views += [frontend.relay.view for frontend in service.frontends]
        assert len(views) == 5 + 4
        assert [view.weights for view in views] == [expected] * len(views)
