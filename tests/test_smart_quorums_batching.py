"""Unit tests for vote sets, batching and consensus-instance state."""

import sys
import tracemalloc

import pytest

from repro.smart.batching import DEFAULT_MAX_BATCH_BYTES, PendingQueue
from repro.smart.consensus import ConsensusInstance, batch_hash
from repro.smart.messages import ClientRequest
from repro.smart.quorums import VoteSet
from repro.smart.replica import ReplicaConfig
from repro.smart.view import View


def request(client=1, seq=0, op="x", size=10):
    return ClientRequest(client_id=client, sequence=seq, operation=op, size_bytes=size)


@pytest.fixture
def view():
    return View(0, (0, 1, 2, 3), 1)


class TestVoteSet:
    def test_quorum_reached(self, view):
        votes = VoteSet(view)
        for replica in (0, 1, 2):
            votes.add(replica, b"h")
        assert votes.has_quorum(b"h")

    def test_below_quorum(self, view):
        votes = VoteSet(view)
        votes.add(0, b"h")
        votes.add(1, b"h")
        assert not votes.has_quorum(b"h")

    def test_revote_idempotent(self, view):
        votes = VoteSet(view)
        assert votes.add(0, b"h")
        assert not votes.add(0, b"h")
        assert votes.weight_for(b"h") == 1.0

    def test_equivocation_detected_and_first_vote_kept(self, view):
        votes = VoteSet(view)
        votes.add(0, b"h1")
        votes.add(0, b"h2")
        assert 0 in votes.equivocators
        assert votes.weight_for(b"h1") == 1.0
        assert votes.weight_for(b"h2") == 0.0

    def test_votes_from_non_members_ignored(self, view):
        votes = VoteSet(view)
        assert not votes.add(99, b"h")
        assert votes.weight_for(b"h") == 0.0

    def test_quorum_value(self, view):
        votes = VoteSet(view)
        for replica in (0, 1, 2):
            votes.add(replica, b"h")
        assert votes.quorum_value() == b"h"

    def test_no_quorum_value_when_split(self, view):
        votes = VoteSet(view)
        votes.add(0, b"a")
        votes.add(1, b"b")
        votes.add(2, b"a")
        assert votes.quorum_value() is None

    def test_voters_of(self, view):
        votes = VoteSet(view)
        votes.add(2, b"h")
        votes.add(0, b"h")
        assert votes.voters_of(b"h") == (0, 2)


def table_bytes(queue: PendingQueue) -> int:
    """What the pool's own tables hold, not the requests in them."""
    return sum(
        sys.getsizeof(table) for table in (queue._requests, queue._arrivals, queue._slot_of)
    )


class TestPendingQueue:
    def test_fifo_order(self):
        queue = PendingQueue()
        for i in range(5):
            queue.add(request(seq=i), now=0.0)
        batch = queue.next_batch(10, DEFAULT_MAX_BATCH_BYTES)
        assert [r.sequence for r in batch] == [0, 1, 2, 3, 4]

    def test_deduplication(self):
        queue = PendingQueue()
        r = request()
        assert queue.add(r, 0.0)
        assert not queue.add(r, 1.0)
        assert len(queue) == 1

    def test_batch_respects_count_limit(self):
        queue = PendingQueue()
        for i in range(10):
            queue.add(request(seq=i), 0.0)
        assert len(queue.next_batch(3, DEFAULT_MAX_BATCH_BYTES)) == 3
        assert len(queue) == 7

    def test_batch_respects_byte_limit(self):
        queue = PendingQueue()
        for i in range(5):
            queue.add(request(seq=i, size=100), 0.0)
        batch = queue.next_batch(100, 250)
        assert len(batch) == 2

    def test_single_oversized_request_still_batched(self):
        queue = PendingQueue()
        queue.add(request(size=500), 0.0)
        assert len(queue.next_batch(100, 50)) == 1

    def test_drained_backlog_releases_its_table(self):
        """A list, an array and a dict keep their slots after their
        entries are deleted; an emptied pool must not hold a past
        backlog's tables for the run."""
        fresh = table_bytes(PendingQueue())
        backlog = [request(seq=i) for i in range(10_000)]
        batched, decided = PendingQueue(), PendingQueue()
        for queue in (batched, decided):
            for i, r in enumerate(backlog):
                queue.add(r, float(i))
            assert table_bytes(queue) > fresh
        while batched:  # the BFT-SMaRt leader's path
            batched.next_batch(400, DEFAULT_MAX_BATCH_BYTES)
        for start in range(0, len(backlog), 400):  # a decision's path
            decided.remove_all(backlog[start:start + 400])
        for queue in (batched, decided):
            assert len(queue) == 0 and queue.oldest_age(0.0) is None
            assert table_bytes(queue) == fresh
            queue.add(request(seq=10_000), 1.0)  # and keeps working
            assert queue.oldest_age(2.0) == 1.0

    def test_a_pending_request_costs_under_a_hundred_bytes(self):
        """Past saturation every replica holds a backlog of thousands:
        one slot, one arrival double and one id-table entry per request
        (the ``OrderedDict`` of ``(request, arrival)`` pairs, with each
        arrival a boxed float, cost about 155 B).  Measured as the
        tracemalloc growth of a pool of 10 000, with every arrival a
        fresh float, as the simulator's clock hands them out."""
        backlog = [request(seq=i) for i in range(10_000)]
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            queue = PendingQueue()
            for i, r in enumerate(backlog):
                queue.add(r, i * 1e-3)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            if started:
                tracemalloc.stop()
        assert len(queue) == len(backlog)
        assert (after - before) / len(backlog) < 100

    def test_oldest_age(self):
        queue = PendingQueue()
        assert queue.oldest_age(5.0) is None
        queue.add(request(seq=0), 1.0)
        queue.add(request(seq=1), 4.0)
        assert queue.oldest_age(5.0) == pytest.approx(4.0)

    def test_restart_clocks_keeps_order(self):
        queue = PendingQueue()
        first, second = request(seq=0), request(seq=1)
        queue.add(first, 1.0)
        queue.add(second, 4.0)
        queue.restart_clocks(6.0)
        assert queue.oldest_age(7.0) == pytest.approx(1.0)
        assert queue.peek_all() == [first, second]

    def test_contains(self):
        queue = PendingQueue()
        r = request()
        queue.add(r, 0.0)
        assert r.request_id in queue

    def test_invalid_max_batch(self):
        """The queue holds no limits: the one it drains by is checked
        where it enters, in the replica's config."""
        with pytest.raises(ValueError):
            ReplicaConfig(max_batch=0)


class TestConsensusInstance:
    def test_batch_hash_depends_on_cid(self):
        batch = [request(seq=0), request(seq=1)]
        assert batch_hash(0, batch) != batch_hash(1, batch)

    def test_batch_hash_depends_on_contents(self):
        assert batch_hash(0, [request(seq=0)]) != batch_hash(0, [request(seq=1)])

    def test_learn_value(self, view):
        inst = ConsensusInstance(0, view)
        batch = [request()]
        value_hash = inst.learn_value(batch)
        assert inst.value_of(value_hash) == batch
        assert inst.value_of(b"unknown") is None

    def test_mark_decided(self, view):
        inst = ConsensusInstance(3, view)
        batch = [request()]
        value_hash = inst.learn_value(batch)
        inst.mark_decided(0, value_hash)
        assert inst.decided
        assert inst.decided_batch == batch

    def test_write_certificate_records_quorum(self, view):
        inst = ConsensusInstance(0, view)
        batch = [request()]
        value_hash = inst.learn_value(batch)
        for replica in (0, 1, 2):
            inst.writes(0).add(replica, value_hash)
        inst.record_write_quorum(0, value_hash)
        cert = inst.write_certificate
        assert cert is not None
        assert cert.writers == (0, 1, 2)
        assert cert.batch == batch

    def test_vote_sets_separate_per_regency(self, view):
        inst = ConsensusInstance(0, view)
        inst.writes(0).add(0, b"h")
        assert inst.writes(1).weight_for(b"h") == 0.0


class TestEquivocatorTracking:
    """Satellite: equivocation bookkeeping in VoteSet (a Byzantine
    replica voting two hashes in one instance)."""

    def test_equivocator_recorded(self, view):
        votes = VoteSet(view)
        assert votes.add(0, b"h1")
        assert not votes.add(0, b"h2")
        assert votes.equivocators == {0}

    def test_weight_counted_at_most_once_across_hashes(self, view):
        votes = VoteSet(view)
        votes.add(0, b"h1")
        votes.add(0, b"h2")
        # the first vote stands; the conflicting one adds no weight
        assert votes.weight_for(b"h1") == 1.0
        assert votes.weight_for(b"h2") == 0.0
        assert votes.total_votes == 1

    def test_equivocator_cannot_tip_two_quorums(self, view):
        """With n=4, f=1 the quorum is 3 votes; an equivocator plus two
        honest votes per hash must not certify both values."""
        votes = VoteSet(view)
        votes.add(0, b"h1")
        votes.add(1, b"h1")
        votes.add(2, b"h2")
        votes.add(3, b"h2")
        votes.add(0, b"h2")  # equivocation: does not count for h2
        assert 0 in votes.equivocators
        assert not votes.has_quorum(b"h2")
        assert votes.add(2, b"h1") is False  # 2 already voted h2
        assert not votes.has_quorum(b"h1")

    def test_third_vote_still_flags_once(self, view):
        votes = VoteSet(view)
        votes.add(1, b"a")
        votes.add(1, b"b")
        votes.add(1, b"c")
        assert votes.equivocators == {1}
        assert votes.weight_for(b"a") == 1.0
        assert votes.voters_of(b"b") == ()
        assert votes.voters_of(b"c") == ()

    def test_weighted_equivocator_counts_vmax_once(self):
        from repro.smart.wheat import wheat_view

        view = wheat_view(0, (0, 1, 2, 3, 4), f=1, delta=1)
        votes = VoteSet(view)
        vmax = view.vmax
        assert vmax > 1.0
        votes.add(0, b"h1")  # a Vmax holder
        votes.add(0, b"h2")
        assert votes.weight_for(b"h1") == vmax
        assert votes.weight_for(b"h2") == 0.0
        assert votes.equivocators == {0}
