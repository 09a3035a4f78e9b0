"""Byzantine fault-injection tests for the replication layer.

These exercise the attacks the BFT machinery exists to stop: an
equivocating leader, forged value responses, fake votes from outside
the view, and network partitions.  Message-level attacks are expressed
with the :mod:`repro.faults` DSL.
"""

from repro.crypto.hashing import sha256
from repro.faults import (
    CorruptWrites,
    EquivocatePropose,
    FaultInjector,
    Partition,
)
from repro.smart.consensus import batch_hash
from repro.smart.messages import Accept, ClientRequest, Propose, ValueResponse
from tests.conftest import Cluster


class TestEquivocatingLeader:
    def test_split_proposals_never_violate_safety(self):
        """The leader sends different batches to different replicas.

        No two correct replicas may execute different histories; the
        system may stall (and recover via regency change) but must not
        fork."""
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=4.0, max_retries=20)

        injector = FaultInjector(cluster.network, cluster.replicas)
        # replica 0 (leader) sends a poisoned batch to replica 1
        injector.start(EquivocatePropose(leader=0, victims=1))
        futures = [proxy.invoke(i + 1) for i in range(3)]
        cluster.drain(futures, deadline=60.0)
        # safety: every pair of replica histories is prefix-consistent
        assert cluster.prefix_consistent()
        # the poisoned value must never have been executed anywhere
        for app in cluster.apps:
            assert -999 not in app.history

    def test_minority_write_equivocation_harmless(self):
        """A Byzantine replica WRITE-votes different hashes to
        different peers; quorum intersection stops any damage."""
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=4.0, max_retries=10)

        injector = FaultInjector(cluster.network, cluster.replicas)
        injector.start(CorruptWrites(source=3, victims=(1, 2)))
        futures = [proxy.invoke(i + 1) for i in range(5)]
        assert cluster.drain(futures, deadline=30.0)
        assert cluster.prefix_consistent()
        honest = [cluster.apps[i].history for i in (0, 1, 2)]
        assert honest[0] == honest[1] == honest[2] == [1, 2, 3, 4, 5]


class TestForgedMessages:
    def test_forged_value_response_rejected(self):
        """A lying replica answers a value fetch with a batch that does
        not match the decided hash -- it must be discarded."""
        cluster = Cluster()
        replica = cluster.replicas[1]
        fake_batch = [ClientRequest(client_id=9, sequence=0, operation=-1)]
        response = ValueResponse(
            sender=3, cid=0, value_hash=sha256("not-the-real-hash"), batch=fake_batch
        )
        replica.deliver(3, response)
        cluster.run(0.5)
        assert cluster.apps[1].total == 0

    def decide_without_the_value(self, cluster, batch):
        """Replica 1 sees an ACCEPT quorum for ``batch``'s hash but never
        the PROPOSE, so it decides cid 0 and has to fetch the value."""
        replica = cluster.replicas[1]
        value_hash = batch_hash(0, batch)
        for sender in (0, 2, 3):
            replica.deliver(sender, Accept(sender, 0, 0, value_hash))
        assert replica.instance(0).decided and replica.last_executed == -1
        assert replica.counters.value_fetches == 1
        return replica, value_hash

    def test_value_response_check_binds_ids_sizes_and_ops(self):
        """``batch_hash`` covers (client, sequence, size, operation
        digest) of every request, so a ``ValueResponse`` is held to all
        four: a lie in any of them is discarded."""

        def pay(to, client=9, seq=0, size=8):
            return [ClientRequest(client, seq, operation=to, size_bytes=size)]

        assert batch_hash(0, pay("alice")) != batch_hash(0, pay("mallory"))
        cluster = Cluster()
        replica, value_hash = self.decide_without_the_value(cluster, pay(5))
        for lie in (pay(-999, client=8), pay(-999, seq=1), pay(-999, size=9), []):
            replica.deliver(3, ValueResponse(3, 0, value_hash, lie))
        cluster.run(0.5)
        assert cluster.apps[1].history == []
        replica.deliver(2, ValueResponse(2, 0, value_hash, pay(5)))
        cluster.run(0.5)
        assert cluster.apps[1].history == [5]

    def test_value_response_with_swapped_operations_rejected(self):
        """A ``ValueResponse`` whose operations differ from the decided
        batch must be discarded like any other forged response."""
        cluster = Cluster()
        decided = [ClientRequest(9, 0, operation=5, size_bytes=8)]
        swapped = [ClientRequest(9, 0, operation=-999, size_bytes=8)]
        replica, value_hash = self.decide_without_the_value(cluster, decided)
        replica.deliver(3, ValueResponse(3, 0, value_hash, swapped))
        cluster.run(0.5)
        assert -999 not in cluster.apps[1].history

    def test_votes_from_outside_view_ignored(self):
        cluster = Cluster()
        replica = cluster.replicas[0]
        inst = replica.instance(0)
        value_hash = sha256("whatever")
        for fake_sender in (100, 101, 102):
            replica.deliver(fake_sender, Accept(fake_sender, 0, 0, value_hash))
        cluster.run(0.5)
        assert not inst.decided

    def test_propose_from_non_leader_ignored(self):
        cluster = Cluster()
        cluster.proxy()
        batch = [ClientRequest(client_id=9, sequence=0, operation=-5)]
        rogue = Propose(
            sender=2,  # not the regency-0 leader
            cid=0,
            regency=0,
            batch=batch,
            value_hash=batch_hash(0, batch),
        )
        for replica in cluster.replicas:
            if replica.replica_id != 2:
                replica.deliver(2, rogue)
        cluster.run(1.0)
        assert all(app.total == 0 for app in cluster.apps)

    def test_bad_batch_hash_in_propose_rejected(self):
        batch = [ClientRequest(client_id=9, sequence=0, operation=7)]
        swapped = [ClientRequest(client_id=9, sequence=0, operation=-7)]
        # a made-up hash, and the honest hash over a swapped operation
        for proposed, claimed in (
            (batch, sha256("lies")),
            (swapped, batch_hash(0, batch)),
        ):
            cluster = Cluster()
            bogus = Propose(
                sender=0, cid=0, regency=0, batch=proposed, value_hash=claimed
            )
            cluster.replicas[1].deliver(0, bogus)
            cluster.run(0.5)
            inst = cluster.replicas[1].instances.get(0)
            assert inst is None or 0 not in inst.write_sent


class TestPartitions:
    def test_minority_partition_stalls_then_recovers(self):
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=3.0, max_retries=30)
        assert cluster.drain([proxy.invoke(1)])
        injector = FaultInjector(cluster.network, cluster.replicas)
        # cut replicas {2,3} off from {0,1}: no quorum anywhere
        split = injector.start(Partition([0, 1], [2, 3]))
        stalled = proxy.invoke(2)
        cluster.run(3.0)
        assert not stalled.done
        injector.stop(split)
        assert cluster.drain([stalled], deadline=60.0)
        assert stalled.value == 3

    def test_leader_isolated_from_majority(self):
        cluster = Cluster(request_timeout=0.4)
        proxy = cluster.proxy(invoke_timeout=3.0, max_retries=30)
        assert cluster.drain([proxy.invoke(1)])
        injector = FaultInjector(cluster.network, cluster.replicas)
        injector.start(Partition([0], [1, 2, 3]))
        future = proxy.invoke(2)
        assert cluster.drain([future], deadline=60.0)
        # the majority side elected a new leader and decided
        assert all(r.regency >= 1 for r in cluster.replicas[1:])
        assert cluster.apps[1].total == 3
