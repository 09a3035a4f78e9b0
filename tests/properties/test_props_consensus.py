"""Property-based tests for consensus invariants.

The central one: under randomized latency, jitter, client interleaving
and random non-leader crashes, every replica executes the same sequence
of operations (total order) -- the paper's correctness foundation.

``sim.drain`` returns the moment the *client* holds f+1 matching
replies, which can be before the slowest correct replica has executed
the last decision.  What holds at that instant, and at every other, is
*prefix consistency*; equal histories hold once the messages still in
flight have been delivered, so each test asserts the first at drain and
the second after :func:`settle`.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sim import ConstantLatency, Network, Simulator
from repro.sim.randomness import RandomStreams
from repro.smart import ServiceProxy, ServiceReplica, View
from repro.smart.quorums import VoteSet
from repro.smart.view import View as ViewCls
from repro.smart.wheat import wheat_view
from tests.conftest import CounterApp, prefix_consistent

#: simulated seconds that outlast every message in flight at drain (a
#: hop is at most 0.0005 * (1 + jitter) <= 1.5 ms) yet stay below the
#: first request-timeout check, so settling never starts a leader change
SETTLE = 0.1


def run_cluster(seed, n, f, ops, jitter, crash_replica=None, delta=0):
    sim = Simulator()
    streams = RandomStreams(seed)
    network = Network(
        sim, ConstantLatency(0.0005, jitter_fraction=jitter), streams=streams
    )
    if delta:
        view = wheat_view(0, tuple(range(n)), f=f, delta=delta)
    else:
        view = View(0, tuple(range(n)), f)
    apps = [CounterApp() for _ in range(n)]
    replicas = []
    for i in range(n):
        replica = ServiceReplica(sim, network, i, view, apps[i])
        network.register(i, replica)
        replicas.append(replica)
    proxy = ServiceProxy(sim, network, 1000, view)
    futures = [proxy.invoke(op) for op in ops]
    if crash_replica is not None:
        # crash a random non-leader partway through
        sim.schedule(0.002, replicas[crash_replica].crash)
    ok = sim.drain(futures, deadline=60.0)
    return ok, apps, replicas, sim


def settle(sim) -> None:
    """Deliver what was still in flight when the client was satisfied."""
    sim.run(until=sim.now + SETTLE)


class TestTotalOrder:
    @given(
        seed=st.integers(0, 10_000),
        ops=st.lists(st.integers(-100, 100), min_size=1, max_size=15),
        jitter=st.floats(0.0, 2.0),
    )
    # the client is answered at t = 4.130 ms, replica 1 executes at 4.182 ms
    @example(seed=42, ops=[0], jitter=2.0)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_all_replicas_execute_identical_history(self, seed, ops, jitter):
        ok, apps, _replicas, sim = run_cluster(seed, 4, 1, ops, jitter)
        assert ok
        assert prefix_consistent(apps)
        settle(sim)
        assert all(app.history == apps[0].history for app in apps)
        assert sorted(apps[0].history) == sorted(ops)

    @given(
        seed=st.integers(0, 10_000),
        ops=st.lists(st.integers(-100, 100), min_size=1, max_size=10),
        crash=st.integers(1, 3),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_total_order_with_one_crashed_follower(self, seed, ops, crash):
        ok, apps, replicas, sim = run_cluster(seed, 4, 1, ops, 1.0, crash_replica=crash)
        assert ok
        # the crashed follower stopped early, but never diverged
        assert prefix_consistent(apps)
        settle(sim)
        alive = [
            app for app, replica in zip(apps, replicas) if not replica.crashed
        ]
        assert len(alive) == 3
        assert all(app.history == alive[0].history for app in alive)
        assert sorted(alive[0].history) == sorted(ops)

    @given(
        seed=st.integers(0, 10_000),
        ops=st.lists(st.integers(-100, 100), min_size=1, max_size=10),
    )
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_wheat_total_order(self, seed, ops):
        ok, apps, _replicas, sim = run_cluster(seed, 5, 1, ops, 1.0, delta=1)
        assert ok
        assert prefix_consistent(apps)
        settle(sim)
        assert all(app.history == apps[0].history for app in apps)
        assert sorted(apps[0].history) == sorted(ops)


class TestQuorumIntersection:
    @given(
        f=st.integers(1, 3),
        delta=st.integers(0, 2),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_weighted_quorums_intersect_correctly(self, f, delta, data):
        """For every valid (f, delta) and any two vote sets that reach
        quorum, their intersection carries more weight than the
        heaviest f replicas can muster."""
        if delta > 0 and delta % f != 0:
            delta = 0  # keep Vmax integral-ish; any delta works though
        n = 3 * f + 1 + delta
        if delta:
            view = wheat_view(0, tuple(range(n)), f=f, delta=delta)
        else:
            view = ViewCls(0, tuple(range(n)), f)
        members = list(range(n))
        q1 = set(data.draw(st.permutations(members)))
        q2_perm = data.draw(st.permutations(members))
        # shrink both to minimal quorums
        q1 = self._minimal_quorum(view, list(q1))
        q2 = self._minimal_quorum(view, list(q2_perm))
        overlap = sum(view.weights[p] for p in set(q1) & set(q2))
        heaviest_f = sum(sorted(view.weights.values(), reverse=True)[: view.f])
        assert overlap > heaviest_f

    @staticmethod
    def _minimal_quorum(view, ordered_members):
        quorum = []
        for member in ordered_members:
            quorum.append(member)
            if view.has_quorum(quorum):
                return quorum
        return quorum

    @given(f=st.integers(1, 3), delta=st.integers(0, 3))
    @settings(max_examples=40)
    def test_liveness_despite_f_heaviest_failures(self, f, delta):
        n = 3 * f + 1 + delta
        if delta:
            view = wheat_view(0, tuple(range(n)), f=f, delta=delta)
        else:
            view = ViewCls(0, tuple(range(n)), f)
        by_weight = sorted(view.processes, key=lambda p: -view.weights[p])
        survivors = by_weight[f:]
        assert view.has_quorum(survivors)


class TestVoteSetProperties:
    @given(
        votes=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from([b"a", b"b"])), max_size=30
        )
    )
    @settings(max_examples=60)
    def test_at_most_one_quorum_value(self, votes):
        view = ViewCls(0, (0, 1, 2, 3), 1)
        vote_set = VoteSet(view)
        for replica, value in votes:
            vote_set.add(replica, value)
        with_quorum = [v for v in (b"a", b"b") if vote_set.has_quorum(v)]
        assert len(with_quorum) <= 1
