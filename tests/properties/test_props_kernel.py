"""Property-based tests for the simulator kernel fast path.

The kernel's fast paths (``post*`` events that are plain heap tuples,
the inlined ``broadcast`` hot loop) are pure re-encodings of the slow
paths: these properties pin the invariants that make that true -- total
and deterministic pop order, every posted callback firing exactly once
while a cancelled timer never does, per-link FIFO surviving batched
scheduling and jitter, and the network's two sending paths (the
``broadcast`` loop and the interceptor path) computing the same copies.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.core import Simulator
from repro.sim.network import ConstantLatency, MatrixLatency, Network
from repro.sim.randomness import RandomStreams

#: a handful of delays with forced collisions, so ties are common
DELAYS = st.sampled_from([0.0, 1e-9, 0.05, 0.05, 0.1, 0.25])


class TestPopOrder:
    """Heap pop order is a total, deterministic order.

    Ties in time break by sequence number, i.e. by scheduling order --
    for posted and cancellable events alike, in any interleaving.
    """

    @given(st.lists(st.tuples(DELAYS, st.booleans()), min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_ties_fire_in_schedule_order_and_replay_identically(self, plan):
        def run_once():
            sim = Simulator()
            fired = []
            for index, (delay, posted) in enumerate(plan):
                if posted:
                    sim.post(delay, fired.append, index)
                else:
                    sim.schedule(delay, fired.append, index)
            sim.run()
            return fired

        first = run_once()
        # sorted() is stable: equal delays keep scheduling order
        assert first == sorted(range(len(plan)), key=lambda i: plan[i][0])
        assert first == run_once()

    @given(st.lists(st.tuples(DELAYS, DELAYS), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_nested_posts_keep_total_order(self, plan):
        """Events posted *during* the run obey the same (time, seq)
        order as events posted up front."""

        def run_once():
            sim = Simulator()
            fired = []

            def outer(index, inner_delay):
                fired.append(("outer", index))
                sim.post(inner_delay, fired.append, ("inner", index))

            for index, (delay, inner_delay) in enumerate(plan):
                sim.post(delay, outer, index, inner_delay)
            sim.run()
            return fired

        first = run_once()
        assert len(first) == 2 * len(plan)
        assert first == run_once()


class TestEntryShapes:
    """The two entry shapes under any interleaving.

    A posted event is its heap tuple: it fires exactly once, with its
    own arguments, and nothing a caller holds can cancel it.  A
    cancellable timer is the handle ``schedule`` returned: cancelled, it
    never fires and is counted nowhere.
    """

    OPS = st.lists(
        st.tuples(
            st.sampled_from(["post", "post_at", "schedule", "cancel", "step"]),
            DELAYS,
            st.integers(min_value=0, max_value=10**6),
        ),
        min_size=1,
        max_size=60,
    )

    @given(OPS)
    @settings(max_examples=80)
    def test_posts_fire_once_cancelled_timers_never(self, ops):
        sim = Simulator()
        fired = []
        posted = []  # tokens of post / post_at
        handles = {}  # token -> handle, in schedule order
        cancelled = set()

        def check():
            live = [t for t in handles if t not in cancelled and t not in fired]
            unfired_posts = [t for t in posted if t not in fired]
            assert sim.pending_events == len(live) + len(unfired_posts)
            assert sim.processed_events == len(fired)

        for token, (op, delay, pick) in enumerate(ops):
            if op == "post":
                assert sim.post(delay, fired.append, token) is None
                posted.append(token)
            elif op == "post_at":
                assert sim.post_at(sim.now + delay, fired.append, token) is None
                posted.append(token)
            elif op == "schedule":
                handles[token] = sim.schedule(delay, fired.append, token)
            elif op == "cancel":
                if handles:
                    victim = list(handles)[pick % len(handles)]
                    # cancelling a handle that already fired is a no-op
                    if victim not in fired:
                        cancelled.add(victim)
                    handles[victim].cancel()
            else:
                sim.step()
            check()
        while sim.step():
            check()
        assert sim.pending_events == 0
        assert len(fired) == len(set(fired)), "an event fired twice"
        # every post and every timer left alone fired; no cancelled one did
        assert set(fired) == (set(posted) | set(handles)) - cancelled

    @given(OPS)
    @settings(max_examples=40)
    def test_run_and_step_fire_the_same_sequence(self, ops):
        """``run()``, ``run(until=...)`` and a ``step()`` loop are three
        spellings of one pop order, cancelled timers included."""

        def build():
            sim = Simulator()
            fired = []
            handles = []
            for token, (op, delay, pick) in enumerate(ops):
                if op in ("post", "post_at"):
                    sim.post(delay, fired.append, token)
                elif op == "schedule":
                    handles.append(sim.schedule(delay, fired.append, token))
                elif op == "cancel" and handles:
                    handles[pick % len(handles)].cancel()
            return sim, fired

        sim, by_step = build()
        while sim.step():
            pass
        sim, by_run = build()
        sim.run()
        sim, by_until = build()
        sim.run(until=1.0)
        assert by_step == by_run == by_until
        assert sim.now == 1.0

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=30)
    def test_each_post_carries_its_own_payload(self, rounds):
        """N posts of one callback, drained one at a time, yield each
        payload exactly once, in order."""
        sim = Simulator()
        fired = []
        for index in range(rounds):
            sim.post(0.0, fired.append, index)
            sim.run()
        assert fired == list(range(rounds))
        assert sim.processed_events == rounds


class TestPerLinkFifo:
    """Batched/pooled broadcast scheduling preserves per-link FIFO.

    Jitter may not reorder messages on the same (src, dst) connection
    (TCP in-order delivery) -- including across the fast broadcast loop,
    plain sends, and NIC queueing for arbitrary message sizes.
    """

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=50_000)),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40)
    def test_jittered_broadcast_and_send_deliver_in_order(self, plan, seed):
        sim = Simulator()
        net = Network(
            sim,
            ConstantLatency(0.001, jitter_fraction=0.9),
            streams=RandomStreams(seed),
        )
        received = {}

        class Box:
            def __init__(self, name):
                self.name = name

            def deliver(self, src, payload):
                received.setdefault((src, self.name), []).append(payload)

        for name in ("a", "b", "c"):
            net.register(name, Box(name))
        for index, (use_broadcast, size) in enumerate(plan):
            if use_broadcast:
                net.broadcast("a", ["b", "c"], index, size_bytes=size)
            else:
                net.send("a", "b", index, size_bytes=size)
                net.send("a", "c", index, size_bytes=size)
        sim.run()
        for link, payloads in received.items():
            assert payloads == list(range(len(plan))), (
                f"link {link} delivered out of send order"
            )

    SITES = ("east", "west", "south")
    MATRIX = {("east", "west"): 0.03, ("east", "south"): 0.07, ("west", "south"): 0.05}
    IDS = (0, 1, 2, "x")
    OPS = st.lists(
        st.tuples(
            st.sampled_from(
                ["send", "send", "broadcast", "broadcast", "crash", "recover",
                 "unregister", "register", "reregister", "advance"]
            ),
            st.sampled_from(IDS),
            st.lists(st.sampled_from(IDS + ("ghost",)), max_size=5),
            st.sampled_from([0, 1, 1500, 50_000]),
            st.sampled_from([0.0, 1e-5, 0.001, 0.02]),
        ),
        min_size=1,
        max_size=40,
    )

    @given(OPS, st.sampled_from(["lan", "wan"]), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=80)
    # a receiver, then a sender, returns at another site with copies in
    # flight; a receiver returns after a crash and recovery moved its epoch
    @example([("send", 0, [1], 0, 0.0), ("reregister", 1, [], 0, 0.0),
              ("send", 0, [1], 0, 0.0)], "wan", 0)
    @example([("send", 1, [0], 0, 0.0), ("reregister", 1, [], 0, 0.0),
              ("send", 1, [0], 0, 0.0)], "wan", 0)
    @example([("send", 0, [1], 0, 0.0), ("crash", 1, [], 0, 0.0),
              ("recover", 1, [], 0, 0.0), ("reregister", 1, [], 0, 0.0),
              ("send", 0, [1], 0, 0.0)], "lan", 0)
    def test_fast_broadcast_equals_filtered_slow_path(self, ops, model, seed):
        """The two sending paths are one computation.  An always-pass
        filter sends every copy down the interceptor path; under any
        interleaving of send / broadcast / crash / recover / unregister /
        register (a returning id may come back at another site, with its
        copies and the copies to it still in flight) on both latency
        models with jitter, both networks deliver the same payloads at
        the same instants in the same order and end with equal counters,
        NIC state, ``bytes_by_link`` and RNG state."""

        def run(install_filter):
            sim = Simulator()
            if model == "lan":
                latency = ConstantLatency(0.001, jitter_fraction=0.9)
            else:
                latency = MatrixLatency(self.MATRIX, jitter_fraction=0.5)
            net = Network(sim, latency, streams=RandomStreams(seed))
            if install_filter:
                net.add_filter(lambda src, dst, payload: payload)
            deliveries = []
            incarnations = {}

            class Box:
                def __init__(self, name):
                    self.name = name

                def deliver(self, src, payload):
                    deliveries.append((sim.now, src, self.name, payload))

            def register(node, index):
                incarnations[node] = incarnations.get(node, -1) + 1
                site = self.SITES[(index + incarnations[node]) % len(self.SITES)]
                net.register(node, Box((node, incarnations[node])), site=site,
                             bandwidth_bps=1e8 * (index + 1))

            for index, node in enumerate(self.IDS):
                register(node, index)
            for token, (op, node, dsts, size, delay) in enumerate(ops):
                registered = node in net.node_ids()
                if op == "send":
                    net.send(node, (dsts or [node])[0], token, size_bytes=size)
                elif op == "broadcast":
                    net.broadcast(node, dsts, token, size_bytes=size)
                elif op == "crash" and registered:
                    net.crash(node)
                elif op == "recover" and registered:
                    net.recover(node)
                elif op == "unregister":
                    net.unregister(node)
                elif op == "register" and not registered:
                    register(node, token)
                elif op == "reregister" and registered:
                    net.unregister(node)
                    register(node, token)
                sim.run(until=sim.now + delay)
            sim.run()
            nics = {}
            for node in sorted(net.node_ids(), key=str):
                nic = net.nic_of(node)
                nics[str(node)] = (nic.bytes_sent, nic.busy_seconds, nic._next_free)
            stats = net.stats
            counters = (
                stats.messages_sent, stats.messages_delivered,
                stats.messages_dropped, stats.bytes_sent,
            )
            return (
                deliveries, counters, nics, stats.bytes_by_link, net._rng.random()
            )

        assert run(install_filter=False) == run(install_filter=True)
