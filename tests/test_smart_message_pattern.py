"""Protocol conformance: the failure-free message pattern of Figure 3.

For one consensus instance with a correct leader, BFT-SMaRt exchanges
exactly: one PROPOSE from the leader to the n-1 other replicas, then
every replica broadcasts one WRITE and one ACCEPT to the n-1 others.
"""

import pytest

from repro.smart.messages import Accept, ClientRequest, Propose, Reply, Write
from tests.conftest import Cluster


class MessageCounter:
    def __init__(self, network):
        self.counts = {}
        self.by_link = {}
        network.add_filter(self)

    def __call__(self, src, dst, payload):
        kind = type(payload).__name__
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.by_link.setdefault(kind, []).append((src, dst))
        return payload


class TestMessagePattern:
    def run_one_consensus(self, n=4, f=1, size_bytes=0):
        cluster = Cluster(n=n, f=f)
        counter = MessageCounter(cluster.network)
        proxy = cluster.proxy()
        future = proxy.invoke(1, size_bytes=size_bytes)
        assert cluster.drain([future])
        cluster.run(1.0)  # drain stragglers
        return cluster, counter

    @pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3)])
    def test_exact_phase_counts(self, n, f):
        cluster, counter = self.run_one_consensus(n, f)
        assert counter.counts["Propose"] == n - 1
        assert counter.counts["Write"] == n * (n - 1)
        assert counter.counts["Accept"] == n * (n - 1)
        # client request reached all replicas once
        assert counter.counts["ClientRequest"] == n
        # every replica replied once
        assert counter.counts["Reply"] == n

    def test_propose_only_from_leader(self):
        cluster, counter = self.run_one_consensus()
        assert all(src == 0 for src, _dst in counter.by_link["Propose"])

    def test_writes_are_all_to_all(self):
        cluster, counter = self.run_one_consensus()
        links = set(counter.by_link["Write"])
        expected = {(a, b) for a in range(4) for b in range(4) if a != b}
        assert links == expected

    def test_no_synchronization_messages_without_faults(self):
        cluster, counter = self.run_one_consensus()
        for kind in ("Stop", "StopData", "Sync", "StateRequest", "ValueRequest"):
            assert kind not in counter.counts

    @pytest.mark.xfail(
        strict=True,
        reason="value-fetch storm: a replica at the tail of the leader's "
        "serialized PROPOSE broadcast reaches the ACCEPT quorum first and "
        "broadcasts a ValueRequest that every peer answers with the full "
        "batch; BFT-SMaRt waits for the PROPOSE (ROADMAP item 3, 'The "
        "value-fetch storm at n=10'; its first commit, item 2.4, re-bases "
        "the saturated workloads' offered rates)",
    )
    def test_no_value_fetch_when_the_propose_is_merely_late(self):
        """Fault-free, n=10, one 100 KB batch on the 1 Gb/s NIC model:
        the ninth copy of the PROPOSE leaves the leader ~7 ms after the
        first, by which time the other replicas have voted.  Nothing is
        lost, so nothing should be fetched."""
        cluster, counter = self.run_one_consensus(10, 3, size_bytes=100 * 1024)
        assert counter.counts["Propose"] == 9
        assert cluster.histories_agree()
        assert "ValueRequest" not in counter.counts

    def test_two_instances_double_the_pattern(self):
        cluster = Cluster()
        counter = MessageCounter(cluster.network)
        proxy = cluster.proxy()
        first = proxy.invoke(1)
        assert cluster.drain([first])
        second = proxy.invoke(2)
        assert cluster.drain([second])
        cluster.run(1.0)
        assert counter.counts["Propose"] == 2 * 3
        assert counter.counts["Write"] == 2 * 12

    def test_batching_collapses_proposals(self):
        """A burst submitted together rides at most two consensus
        instances (one in flight + one batched behind it)."""
        cluster = Cluster()
        counter = MessageCounter(cluster.network)
        proxy = cluster.proxy()
        futures = [proxy.invoke(i) for i in range(30)]
        assert cluster.drain(futures)
        cluster.run(1.0)
        assert counter.counts["Propose"] <= 2 * 3

    def test_wheat_tentative_same_vote_pattern(self):
        """Tentative execution changes *when* results are delivered,
        not which consensus messages flow."""
        cluster = Cluster(n=5, f=1, delta=1, tentative=True, vmax_holders=(0, 1))
        counter = MessageCounter(cluster.network)
        proxy = cluster.proxy(accept_tentative=True)
        future = proxy.invoke(1)
        assert cluster.drain([future])
        cluster.run(1.0)
        assert counter.counts["Propose"] == 4
        assert counter.counts["Write"] == 5 * 4
        assert counter.counts["Accept"] == 5 * 4
