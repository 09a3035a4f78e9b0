"""Property-based tests for blocks, ledgers, cutters and the state DB."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.block import make_block
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.fabric.ledger import Ledger
from repro.fabric.statedb import VersionedKVStore
from repro.ordering.blockcutter import BlockCutter
from repro.smart.batching import DEFAULT_MAX_BATCH_BYTES, ExecutedRequests, PendingQueue
from repro.smart.messages import ClientRequest


class TestLedgerChain:
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=12))
    @settings(max_examples=40)
    def test_chain_always_verifies(self, block_sizes):
        ledger = Ledger("ch0")
        for size in block_sizes:
            envelopes = [Envelope.raw("ch0", 10) for _ in range(size)]
            ledger.append(make_block(ledger.height, ledger.last_hash, envelopes, "ch0"))
        assert ledger.verify_chain()
        assert ledger.total_transactions() == sum(block_sizes)

    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=8),
        st.data(),
    )
    @settings(max_examples=40)
    def test_any_tamper_breaks_verification(self, block_sizes, data):
        ledger = Ledger("ch0")
        for size in block_sizes:
            envelopes = [Envelope.raw("ch0", 10) for _ in range(size)]
            ledger.append(make_block(ledger.height, ledger.last_hash, envelopes, "ch0"))
        victim = data.draw(st.integers(0, ledger.height - 2))
        # replace a middle block with a forged one of the same number
        forged = make_block(
            victim,
            ledger.get(victim).header.previous_hash,
            [Envelope.raw("ch0", 11)],
            "ch0",
        )
        ledger._blocks[victim] = forged
        assert not ledger.verify_chain()


class TestBlockCutterProperties:
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=50, max_value=400),
        st.lists(st.integers(min_value=1, max_value=200), min_size=0, max_size=60),
    )
    @settings(max_examples=60)
    def test_no_envelope_lost_duplicated_or_reordered(
        self, max_count, max_bytes, sizes
    ):
        config = ChannelConfig(
            "ch0", max_message_count=max_count, preferred_max_bytes=max_bytes
        )
        cutter = BlockCutter(config)
        envelopes = [Envelope.raw("ch0", size) for size in sizes]
        out = []
        for envelope in envelopes:
            for batch in cutter.ordered(envelope):
                out.extend(batch)
        out.extend(cutter.cut())
        assert [e.envelope_id for e in out] == [e.envelope_id for e in envelopes]

    @given(
        st.integers(min_value=1, max_value=7),
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=60),
    )
    @settings(max_examples=60)
    def test_batches_respect_count_limit(self, max_count, sizes):
        config = ChannelConfig("ch0", max_message_count=max_count)
        cutter = BlockCutter(config)
        for size in sizes:
            for batch in cutter.ordered(Envelope.raw("ch0", size)):
                assert 0 < len(batch) <= max_count


class TestPendingQueueProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 20)),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=60)
    def test_drain_everything_preserves_fifo_of_first_occurrence(self, id_pairs):
        queue = PendingQueue()
        seen = set()
        expected = []
        for client, seq in id_pairs:
            request = ClientRequest(client_id=client, sequence=seq, operation=None)
            queue.add(request, 0.0)
            if (client, seq) not in seen:
                seen.add((client, seq))
                expected.append((client, seq))
        drained = []
        while len(queue):
            batch = queue.next_batch(7, DEFAULT_MAX_BATCH_BYTES)
            assert 0 < len(batch) <= 7
            drained.extend(r.request_id for r in batch)
        assert drained == expected


class OrderedDictPendingQueue:
    """``PendingQueue`` when it kept an ``OrderedDict`` of ``(request,
    arrival)`` pairs by request id: the oracle of the slot layout."""

    def __init__(self):
        self._queue = OrderedDict()

    def add(self, request, now):
        rid = request.request_id
        if rid in self._queue:
            return False
        self._queue[rid] = (request, now)
        return True

    def remove_all(self, requests):
        for request in requests:
            self._queue.pop(request.request_id, None)

    def __len__(self):
        return len(self._queue)

    def oldest_age(self, now):
        for _request, arrival in self._queue.values():
            return now - arrival
        return None

    def peek_all(self):
        return [request for request, _arrival in self._queue.values()]

    def restart_clocks(self, now):
        for rid, (request, _arrival) in self._queue.items():
            self._queue[rid] = (request, now)

    def next_batch(self, max_batch, max_batch_bytes):
        batch = []
        batch_bytes = 0
        for request, _arrival in self._queue.values():
            if len(batch) == max_batch:
                break
            if batch and batch_bytes + request.size_bytes > max_batch_bytes:
                break
            batch.append(request)
            batch_bytes += request.size_bytes
        self.remove_all(batch)
        return batch


#: ids 0-15 of one client: adds re-add removed ids, removals name ids in
#: any order, pending or not, and the pool empties and compacts often;
#: the clock moves on at every step
pool_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 15)),
        st.tuples(st.just("add"), st.integers(0, 15)),
        st.tuples(st.just("add"), st.integers(0, 15)),
        st.tuples(st.just("remove_all"), st.lists(st.integers(0, 15), max_size=6)),
        st.tuples(
            st.just("next_batch"), st.tuples(st.integers(1, 6), st.integers(1, 400))
        ),
        st.tuples(st.just("restart_clocks"), st.none()),
    ),
    max_size=120,
)


class TestPendingQueueDifferential:
    @given(pool_ops)
    @settings(max_examples=300, deadline=None)
    def test_same_answers_as_the_ordered_dict(self, ops):
        """After every step: the same ``peek_all``, ``oldest_age``,
        ``len`` and membership, the same batches -- and never more empty
        slots than filled ones."""
        oracle = OrderedDictPendingQueue()
        queue = PendingQueue()
        requests = {
            key: ClientRequest(client_id=7, sequence=key, operation=None, size_bytes=10 * key)
            for key in range(16)
        }
        for step, (op, arg) in enumerate(ops):
            now = step * 0.25
            if op == "add":
                request = requests[arg]
                assert queue.add(request, now) == oracle.add(request, now)
            elif op == "remove_all":
                doomed = [requests[key] for key in arg]
                queue.remove_all(doomed)
                oracle.remove_all(doomed)
            elif op == "next_batch":
                batch, expected = queue.next_batch(*arg), oracle.next_batch(*arg)
                assert len(batch) == len(expected)
                assert all(got is want for got, want in zip(batch, expected))
            else:
                queue.restart_clocks(now)
                oracle.restart_clocks(now)
            assert queue.peek_all() == oracle.peek_all()
            assert len(queue) == len(oracle)
            assert queue.oldest_age(now + 0.5) == oracle.oldest_age(now + 0.5)
            for request in requests.values():
                assert (request.request_id in queue) == (request.request_id in oracle._queue)
            assert len(queue._requests) <= 2 * len(queue)


#: a small id space: batches repeat ids, run out of order and leave gaps
#: below sequence 12 that no later batch fills
request_ids = st.tuples(st.integers(0, 3), st.integers(0, 12))


class TestExecutedRequestsProperties:
    @given(
        st.lists(st.lists(request_ids, max_size=8), max_size=12),
        st.lists(request_ids, max_size=10),
    )
    @settings(max_examples=150)
    def test_answers_exactly_as_a_plain_set(self, batches, probes):
        table = ExecutedRequests()
        reference = set()
        for batch in batches:
            assert table.isdisjoint(batch) == reference.isdisjoint(batch)
            for rid in probes + batch:
                assert (rid in table) == (rid in reference)
            table.update(batch)
            reference.update(batch)
            for rid in probes + batch:
                assert (rid in table) == (rid in reference)
        # canonical: only ids past their client's watermark are held, so
        # the same ids added in any order give an equal table
        for client, sequence in table.above:
            assert sequence > table.low.get(client, 0)
        assert all(mark > 0 for mark in table.low.values())
        assert table == ExecutedRequests(sorted(reference, reverse=True))
        one_by_one = ExecutedRequests()
        for rid in sorted(reference):
            one_by_one.add(rid)
        assert one_by_one == table
        assert (table == ExecutedRequests()) == (not reference)


class TestStateDB:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.one_of(st.none(), st.integers(0, 100)),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60)
    def test_matches_plain_dict_semantics(self, writes):
        store = VersionedKVStore()
        reference = {}
        for index, (key, value) in enumerate(writes):
            store.apply_write(key, value, (0, index))
            if value is None:
                reference.pop(key, None)
            else:
                reference[key] = value
        assert {k: store.get_value(k) for k in store.keys()} == reference

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c"]), st.integers(0, 9), max_size=3
        )
    )
    @settings(max_examples=40)
    def test_snapshot_restore_identity(self, mapping):
        store = VersionedKVStore()
        for index, (key, value) in enumerate(sorted(mapping.items())):
            store.apply_write(key, value, (1, index))
        clone = VersionedKVStore()
        clone.restore(store.snapshot())
        assert clone.snapshot() == store.snapshot()
        assert clone.height == store.height
