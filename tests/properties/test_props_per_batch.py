"""Pay per batch, not per envelope: differential tests against the
per-envelope code.

The ordering path does everything it does to the envelopes of a decided
batch (or a delivered block) in one pass: ``ServiceReplica.
_execute_batch`` dedups and books a batch at a time,
``BFTOrderingNode.execute_batch`` orders whole channel runs through
``BlockCutter.ordered_run``, ``PendingQueue`` keeps one record per
request, ``LatencyRecorder.extend`` appends in bulk.  The rule
(docs/KERNEL.md) is that none of this may change *what* is done or in
which order -- so the code it replaced lives on here, verbatim, as the
oracle, and random mixes must leave both sides in the same state having
made the same calls in the same order.
"""

from collections import OrderedDict
from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.blockcutter import BlockCutter, BlockWriter, TimeToCutMachine
from repro.ordering.node import BFTOrderingNode, TimeToCut
from repro.sim import ConstantLatency, Network, Simulator
from repro.sim.monitor import LatencyRecorder
from repro.smart import ServiceReplica, View
from repro.smart.batching import PendingQueue, RequestBatch
from repro.smart.consensus import ConsensusInstance
from repro.smart.messages import ClientRequest, RequestId
from repro.smart.reconfiguration import ReconfigOp
from tests.conftest import CounterApp


# ----------------------------------------------------------------------
# oracles: the code this PR replaced, as it stood at the parent commit
# ----------------------------------------------------------------------
def ordered_one_by_one(cutter: BlockCutter, envelope: Envelope) -> List[List[Envelope]]:
    """``BlockCutter.ordered`` before ``ordered_run`` existed."""
    batches: List[List[Envelope]] = []
    if envelope.is_config:
        if cutter._pending:
            batches.append(cutter.cut())
        batches.append([envelope])
        cutter.batches_cut += 1
        return batches
    message_will_overflow = (
        cutter._pending
        and cutter._pending_bytes + envelope.payload_size
        > cutter.config.preferred_max_bytes
    )
    if message_will_overflow:
        batches.append(cutter.cut())
    cutter._pending.append(envelope)
    cutter._pending_bytes += envelope.payload_size
    if len(cutter._pending) >= cutter.config.max_message_count:
        batches.append(cutter.cut())
    return batches


class PerEnvelopeNode(BFTOrderingNode):
    """``BFTOrderingNode`` with the per-envelope execute path, on the
    shared block writer and TimeToCut machine."""

    def execute_batch(self, cid, requests, regency, tentative=False):
        results: List[Any] = []
        for request in requests:
            operation = request.operation
            if isinstance(operation, Envelope):
                results.append(self._handle_envelope(operation))
            elif isinstance(operation, TimeToCut):
                results.append(self.ttc.on_ttc(operation))
            else:
                results.append({"status": "BAD_REQUEST"})
        return results

    def _handle_envelope(self, envelope: Envelope) -> Dict[str, Any]:
        state = self._channels.get(envelope.channel_id)
        if state is None:
            return {"status": "NO_SUCH_CHANNEL", "channel": envelope.channel_id}
        self.envelopes_processed += 1
        batches = ordered_one_by_one(state.cutter, envelope)
        for batch in batches:
            self.writer.write(state.chain.append(batch, envelope.channel_id))
        if batches:
            state.ttc_pending = False
        if len(state.cutter) > 0:
            self.ttc.arm(envelope.channel_id, state)
        return {"status": "ACK", "channel": envelope.channel_id}


class TwoDictPendingQueue:
    """``PendingQueue`` when it kept the arrival times in a dict of
    their own and copied the whole backlog for every batch."""

    def __init__(self, max_batch, max_batch_bytes):
        self.max_batch = max_batch
        self.max_batch_bytes = max_batch_bytes
        self._queue: "OrderedDict[RequestId, ClientRequest]" = OrderedDict()
        self._arrival: Dict[RequestId, float] = {}

    def add(self, request, now):
        rid = request.request_id
        if rid in self._queue:
            return False
        self._queue[rid] = request
        self._arrival[rid] = now
        return True

    def remove(self, rid):
        self._queue.pop(rid, None)
        self._arrival.pop(rid, None)

    def remove_all(self, requests):
        for request in requests:
            self.remove(request.request_id)

    def __contains__(self, rid):
        return rid in self._queue

    def __len__(self):
        return len(self._queue)

    def oldest_age(self, now):
        if not self._arrival:
            return None
        first_rid = next(iter(self._queue))
        return now - self._arrival[first_rid]

    def peek_all(self):
        return list(self._queue.values())

    def next_batch(self):
        batch = RequestBatch()
        batch_bytes = 0
        for rid in list(self._queue):
            request = self._queue[rid]
            if len(batch) >= self.max_batch:
                break
            if batch and batch_bytes + request.size_bytes > self.max_batch_bytes:
                break
            batch.append(request)
            batch_bytes += request.size_bytes
            self.remove(rid)
        return batch


class PerRequestReplica(ServiceReplica):
    """``ServiceReplica`` with the per-request execute path (and the
    pending queue it ran on)."""

    def _execute_batch(self, inst, batch, regency, tentative):
        to_run: List[ClientRequest] = []
        for request in batch:
            if request.request_id in self._executed_ids:
                self.counters.duplicate_requests += 1
                continue
            to_run.append(request)
        reconfigs = [r for r in to_run if r.reconfig]
        normal = [r for r in to_run if not r.reconfig]
        results: List[Any] = []
        if normal:
            results = self.app.execute_batch(inst.cid, normal, regency, tentative)
        for request, result in zip(normal, results):
            self._complete_request(request, result, regency, tentative)
        for request in reconfigs:
            result = self._apply_reconfiguration(request)
            self._complete_request(request, result, regency, tentative)
        self.pending.remove_all(batch)
        if not tentative:
            self._forwarded = False

    def _complete_request(self, request, result, regency, tentative):
        if not tentative:
            self.counters.requests_executed += 1
            self._executed_ids.add(request.request_id)
            cached = self._last_reply.get(request.client_id)
            if cached is None or request.sequence >= cached[0]:
                self._last_reply[request.client_id] = (request.sequence, result, regency)
        self.replier(self, request, result, regency, tentative)


# ----------------------------------------------------------------------
# BlockCutter.ordered_run == feeding ordered() one envelope at a time
# ----------------------------------------------------------------------
envelope_specs = st.lists(
    st.tuples(st.integers(1, 60), st.integers(0, 9).map(lambda roll: roll == 0)),
    max_size=40,
)


def make_envelopes(specs, channel_id="ch0") -> List[Envelope]:
    envelopes = []
    for size, is_config in specs:
        envelope = Envelope.raw(channel_id, size)
        envelope.is_config = is_config
        envelopes.append(envelope)
    return envelopes


def cutter_state(cutter: BlockCutter):
    return (
        [e.envelope_id for e in cutter._pending],
        cutter.pending_bytes,
        cutter.batches_cut,
        len(cutter),
    )


class TestCutterRun:
    @given(
        specs=envelope_specs,
        max_count=st.integers(1, 6),
        preferred=st.integers(1, 150),
        strides=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_split_of_a_run_cuts_what_one_by_one_cuts(
        self, specs, max_count, preferred, strides
    ):
        config = ChannelConfig(
            "ch0", max_message_count=max_count, preferred_max_bytes=preferred
        )
        envelopes = make_envelopes(specs)
        oracle, bulk, single = BlockCutter(config), BlockCutter(config), BlockCutter(config)
        expected = []  # (index of the cutting envelope, its batches)
        for index, envelope in enumerate(envelopes):
            batches = ordered_one_by_one(oracle, envelope)
            assert single.ordered(envelope) == batches  # the one-element case
            if batches:
                expected.append((index, batches))
        assert cutter_state(single) == cutter_state(oracle)
        # the same run through ordered_run, stopping wherever the strides say
        seen = []
        fed, turn = 0, 0
        while fed < len(envelopes):
            stop = min(len(envelopes), fed + strides[turn % len(strides)])
            turn += 1
            batches, after = bulk.ordered_run(envelopes, fed, stop)
            assert fed < after <= stop
            if batches:
                seen.append((after - 1, batches))  # stopped right at the cut
            else:
                assert after == stop
            fed = after
        assert seen == expected
        assert cutter_state(bulk) == cutter_state(oracle)

    def test_an_empty_range_feeds_nothing(self):
        cutter = BlockCutter(ChannelConfig("ch0", max_message_count=2))
        envelopes = make_envelopes([(10, False), (10, False)])
        assert cutter.ordered_run(envelopes, 1, 1) == ([], 1)
        assert cutter_state(cutter) == ([], 0, 0, 0)


# ----------------------------------------------------------------------
# BFTOrderingNode.execute_batch == the per-envelope node
# ----------------------------------------------------------------------
CHANNELS = ("a", "b")

#: one operation of a decided batch, resolved against the node's state
#: when the batch is built (a "live" TimeToCut names the current height)
operations = st.one_of(
    st.tuples(st.just("env"), st.sampled_from(CHANNELS), st.integers(1, 60)),
    st.tuples(st.just("env"), st.sampled_from(CHANNELS), st.integers(1, 60)),
    st.tuples(st.just("env"), st.sampled_from(CHANNELS), st.integers(1, 60)),
    st.tuples(st.just("config"), st.sampled_from(CHANNELS), st.integers(1, 60)),
    st.tuples(st.just("env"), st.just("nowhere"), st.integers(1, 60)),
    st.tuples(st.just("ttc-live"), st.sampled_from(CHANNELS), st.just(0)),
    st.tuples(st.just("ttc"), st.sampled_from(CHANNELS + ("nowhere",)), st.integers(0, 4)),
    st.tuples(st.just("junk"), st.just(""), st.integers(0, 3)),
)

#: decided batches, each followed by a stretch of simulated time long
#: enough, sometimes, for an armed cut timer to fire
schedules = st.lists(
    st.tuples(st.lists(operations, max_size=14), st.sampled_from((0.0, 0.0, 0.05, 0.25))),
    min_size=1,
    max_size=6,
)


class NodeUnderTest:
    """One ordering node on a simulator of its own, with everything it
    does to the outside world written to ``log`` in order."""

    def __init__(self, node_class, max_counts, preferred, batch_timeout):
        self.sim = Simulator()
        self.network = Network(self.sim, ConstantLatency(0.0005))
        self.log: List[tuple] = []
        identity = KeyRegistry(scheme=SimulatedECDSA()).enroll("orderer0", org="ord")
        channels = {
            channel_id: ChannelConfig(
                channel_id,
                max_message_count=max_count,
                preferred_max_bytes=preferred,
                batch_timeout=0.1,
            )
            for channel_id, max_count in zip(CHANNELS, max_counts)
        }
        self.node = node_class(
            self.sim,
            self.network,
            "orderer0",
            identity,
            channels=channels,
            ttc_submitter=self.submit_ttc if batch_timeout else None,
        )
        schedule = self.sim.schedule

        def logged_schedule(delay, fn, *args):
            self.log.append(("timer", self.sim.now, delay, fn.__name__, args))
            return schedule(delay, fn, *args)

        self.sim.schedule = logged_schedule
        sign_and_send = self.node.writer._sign_and_send

        def logged_sign_and_send(block, cut_time):
            self.log.append(
                (
                    "block",
                    block.channel_id,
                    block.number,
                    block.header.digest(),
                    [e.envelope_id for e in block.envelopes],
                    cut_time,
                )
            )
            sign_and_send(block, cut_time)

        self.node.writer._sign_and_send = logged_sign_and_send

    def submit_ttc(self, ttc: TimeToCut) -> None:
        self.log.append(("ttc", self.sim.now, ttc))

    def state(self):
        return {
            channel_id: (
                state.chain.number,
                state.chain.previous_hash,
                state.ttc_pending,
                state.ttc_epoch,
                cutter_state(state.cutter),
            )
            for channel_id, state in self.node._channels.items()
        }


def build_batch(specs, height_of: Dict[str, int], first_sequence: int):
    batch = []
    for offset, (kind, channel_id, number) in enumerate(specs):
        if kind in ("env", "config"):
            operation: Any = Envelope.raw(channel_id, number)
            operation.is_config = kind == "config"
        elif kind == "ttc-live":
            operation = TimeToCut(channel_id, height_of[channel_id])
        elif kind == "ttc":
            operation = TimeToCut(channel_id, number)
        else:
            operation = ("not", "an", "envelope", number)
        batch.append(
            ClientRequest(client_id=77, sequence=first_sequence + offset, operation=operation)
        )
    return batch


class TestNodeExecuteBatch:
    @given(
        schedule=schedules,
        max_counts=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        preferred=st.sampled_from((40, 90, 2 * 1024 * 1024)),
        batch_timeout=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_results_blocks_timers_and_state(
        self, schedule, max_counts, preferred, batch_timeout
    ):
        oracle = NodeUnderTest(PerEnvelopeNode, max_counts, preferred, batch_timeout)
        batched = NodeUnderTest(BFTOrderingNode, max_counts, preferred, batch_timeout)
        sequence = 0
        for cid, (specs, pause) in enumerate(schedule):
            heights = {c: s[0] for c, s in oracle.state().items()}
            # both sides execute the very same request objects, as the
            # replicas of one simulation do
            batch = build_batch(specs, heights, sequence)
            sequence += len(batch)
            expected = oracle.node.execute_batch(cid, batch, 0)
            assert batched.node.execute_batch(cid, batch, 0) == expected
            assert batched.state() == oracle.state()
            for side in (oracle, batched):
                side.sim.run(until=side.sim.now + pause)
            assert batched.state() == oracle.state()
        assert batched.log == oracle.log
        assert batched.node.blocks_created == oracle.node.blocks_created
        assert batched.node.envelopes_processed == oracle.node.envelopes_processed
        assert batched.sim.processed_events == oracle.sim.processed_events

    def test_ack_results_are_shared_and_read_only(self):
        side = NodeUnderTest(BFTOrderingNode, (3, 3), 1024, False)
        batch = build_batch([("env", "a", 10), ("env", "a", 10), ("env", "b", 10)], {}, 0)
        first, second, other = side.node.execute_batch(0, batch, 0)
        assert first is second and first == {"status": "ACK", "channel": "a"}
        assert other == {"status": "ACK", "channel": "b"}
        with pytest.raises(TypeError):  # shared by every envelope, so read-only
            first["status"] = "NACK"


# ----------------------------------------------------------------------
# ServiceReplica._execute_batch == the per-request replica
# ----------------------------------------------------------------------
class ReplicaUnderTest:
    def __init__(self, replica_class):
        self.sim = Simulator()
        self.network = Network(self.sim, ConstantLatency(0.0005))
        self.app = CounterApp()
        self.replies: List[tuple] = []
        self.replica = replica_class(
            self.sim,
            self.network,
            0,
            View(0, (0, 1, 2, 3, 4), 1),
            self.app,
            replier=self.reply,
        )
        if replica_class is PerRequestReplica:
            config = self.replica.config
            self.replica.pending = TwoDictPendingQueue(
                config.max_batch, config.max_batch_bytes
            )

    def reply(self, replica, request, result, regency, tentative):
        # the arguments, plus what a reply is built from besides them:
        # the view (a reconfiguration in the batch installs one between
        # two replies) and the reply cache entry of the client
        self.replies.append(
            (
                request.uid,
                result,
                regency,
                tentative,
                replica.view.view_id,
                replica._last_reply.get(request.client_id),
            )
        )

    def state(self):
        replica = self.replica
        return (
            replica.counters,
            replica._last_reply,
            replica._executed_ids,
            [request.uid for request in replica.pending.peek_all()],
            replica.pending.oldest_age(self.sim.now),
            len(replica.pending),
            replica.view,
            replica.is_leader,
            replica._forwarded,
            self.app.history,
            self.app.total,
            [cid for cid, _token, _batch in replica._tentative_stack],
        )


RECONFIGS = (
    ReconfigOp("add", 7),
    ReconfigOp("remove", 4),
    ReconfigOp("remove", 9),  # not a member: idempotent no-op
    ReconfigOp("remove", 1),
    ReconfigOp("remove", 2),  # would shrink below the minimum once 1 and 4 left
)

#: (client, sequence, kind): a small id space, so a batch repeats ids it
#: holds already and ids executed by earlier batches
request_specs = st.tuples(
    st.integers(1, 3),
    st.integers(0, 5),
    st.sampled_from(("op", "op", "op", "op", "reconfig")),
)

steps = st.lists(
    st.tuples(
        st.sampled_from(("final", "final", "tentative-confirmed", "tentative-rolled-back")),
        st.lists(request_specs, max_size=8),
        st.lists(request_specs, max_size=4),  # waiting in the pending queue
    ),
    min_size=1,
    max_size=6,
)


def build_requests(specs, picks) -> List[ClientRequest]:
    requests = []
    for client_id, sequence, kind in specs:
        if kind == "reconfig":
            operation: Any = picks.draw(st.sampled_from(RECONFIGS))
        else:
            operation = picks.draw(st.integers(-9, 9))
        requests.append(
            ClientRequest(
                client_id=client_id,
                sequence=sequence,
                operation=operation,
                reconfig=kind == "reconfig",
            )
        )
    return requests


def run_step(side: ReplicaUnderTest, cid, kind, batch, waiting, regency) -> None:
    replica = side.replica
    for request in waiting:
        replica.pending.add(request, side.sim.now)
    replica._forwarded = True
    inst = ConsensusInstance(cid, replica.view)
    replica.instances[cid] = inst
    if kind == "final":
        replica._execute_batch(inst, batch, regency, tentative=False)
        return
    # WHEAT: execute on the WRITE quorum, then learn the decision
    replica._tentative_stack.append((cid, replica.app.snapshot(), batch))
    inst.tentative_hash = b"tentative"
    replica.counters.tentative_executions += 1
    replica._execute_batch(inst, batch, regency, tentative=True)
    if kind == "tentative-confirmed":
        replica._tentative_stack.pop(0)
        replica._confirm_batch(batch, regency)
    else:
        replica._rollback_tentative()
        replica._execute_batch(inst, batch[::-1], regency, tentative=False)


class TestReplicaExecuteBatch:
    @given(steps=steps, picks=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_counters_reply_cache_queue_and_replier_calls(self, steps, picks):
        oracle = ReplicaUnderTest(PerRequestReplica)
        batched = ReplicaUnderTest(ServiceReplica)
        for cid, (kind, batch_specs, waiting_specs) in enumerate(steps):
            batch = build_requests(batch_specs, picks)
            waiting = build_requests(waiting_specs, picks)
            if cid % 2:
                batch = RequestBatch(batch)  # what a leader's queue hands out
            for side in (oracle, batched):
                side.sim.run(until=side.sim.now + 0.01)
                run_step(side, cid, kind, batch, waiting, regency=cid // 2)
            assert batched.state() == oracle.state()
            assert batched.replies == oracle.replies
        assert len(batch) == len(batch_specs)  # executing never edits the batch

    def test_app_result_count_is_still_checked(self):
        side = ReplicaUnderTest(ServiceReplica)
        side.app.execute_batch = lambda cid, requests, regency, tentative=False: []
        inst = ConsensusInstance(0, side.replica.view)
        batch = [ClientRequest(client_id=1, sequence=0, operation=3)]
        with pytest.raises(RuntimeError, match="0 results for 1 requests"):
            side.replica._execute_batch(inst, batch, 0, tentative=False)


# ----------------------------------------------------------------------
# PendingQueue == the two-dict queue
# ----------------------------------------------------------------------
queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 12), st.integers(0, 120)),
        st.tuples(st.just("add"), st.integers(0, 12), st.integers(0, 120)),
        st.tuples(st.just("remove"), st.integers(0, 12), st.just(0)),
        st.tuples(st.just("remove_all"), st.integers(0, 12), st.integers(0, 12)),
        st.tuples(st.just("next_batch"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


class TestPendingQueue:
    @given(ops=queue_ops, max_batch=st.integers(1, 5), max_bytes=st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_same_answers_same_order(self, ops, max_batch, max_bytes):
        oracle = TwoDictPendingQueue(max_batch, max_bytes)
        queue = PendingQueue(max_batch, max_bytes)
        pool = {}
        for now, (op, key, extra) in enumerate(ops):
            if op == "add":
                request = pool.setdefault(
                    key, ClientRequest(client_id=5, sequence=key, operation=None, size_bytes=extra)
                )
                assert queue.add(request, float(now)) == oracle.add(request, float(now))
            elif op == "remove":
                queue.remove((5, key))
                oracle.remove((5, key))
            elif op == "remove_all":
                doomed = [pool[k] for k in (key, extra, key) if k in pool]
                queue.remove_all(doomed)
                oracle.remove_all(doomed)
            else:
                batch = queue.next_batch()
                assert batch == oracle.next_batch()
                assert isinstance(batch, RequestBatch)
            assert queue.peek_all() == oracle.peek_all()
            assert len(queue) == len(oracle)
            assert queue.oldest_age(now + 0.5) == oracle.oldest_age(now + 0.5)
            assert ((5, key) in queue) == ((5, key) in oracle)


# ----------------------------------------------------------------------
# LatencyRecorder.extend == a record() loop
# ----------------------------------------------------------------------
latencies = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestRecorderExtend:
    @given(chunks=st.lists(st.lists(latencies, max_size=30), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_recording_one_by_one(self, chunks):
        looped, bulk = LatencyRecorder(), LatencyRecorder()
        for chunk in chunks:
            for sample in chunk:
                looped.record(sample)
            bulk.extend(iter(chunk))  # any iterable, consumed once
            assert bulk._sum == looped._sum  # the same additions in the same order
            assert bulk.samples == looped.samples
            assert bulk.count == looped.count
            if chunk:
                assert bulk.percentile(50.0) == looped.percentile(50.0)  # sorted view rebuilt
        assert repr(bulk.summary()) == repr(looped.summary())  # NaN-safe equality

    def test_extend_invalidates_the_sorted_view(self):
        recorder = LatencyRecorder()
        recorder.extend([3.0, 1.0])
        assert recorder.maximum == 3.0
        recorder.extend([9.0])
        assert recorder.maximum == 9.0 and recorder.samples == [3.0, 1.0, 9.0]
        recorder.extend([])
        assert recorder.count == 3


def test_oracles_match_the_documented_signatures():
    """The oracles override what they replace and nothing else."""
    assert PerEnvelopeNode.execute_batch is not BFTOrderingNode.execute_batch
    oracle = NodeUnderTest(PerEnvelopeNode, (1, 1), 1024, True).node
    batched = NodeUnderTest(BFTOrderingNode, (1, 1), 1024, True).node
    assert type(oracle.writer) is type(batched.writer) is BlockWriter
    assert type(oracle.ttc) is type(batched.ttc) is TimeToCutMachine
    assert PerRequestReplica._execute_batch is not ServiceReplica._execute_batch
    assert PerRequestReplica._confirm_batch is ServiceReplica._confirm_batch
    assert PerRequestReplica._rollback_tentative is ServiceReplica._rollback_tentative
