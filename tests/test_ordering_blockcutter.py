"""Tests for the block cutter and the batch timer of an orderer that
cuts alone."""

import pytest

from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.blockcutter import BatchTimer, BlockCutter
from repro.sim.core import Simulator


def cutter(max_count=10, max_bytes=1000):
    return BlockCutter(
        ChannelConfig("ch0", max_message_count=max_count, preferred_max_bytes=max_bytes)
    )


def raw(size=10):
    return Envelope.raw("ch0", size)


class TestBlockCutter:
    def test_cut_at_message_count(self):
        c = cutter(max_count=3)
        assert c.ordered(raw()) == []
        assert c.ordered(raw()) == []
        batches = c.ordered(raw())
        assert len(batches) == 1
        assert len(batches[0]) == 3
        assert len(c) == 0

    def test_preserves_order(self):
        c = cutter(max_count=3)
        envelopes = [raw() for _ in range(3)]
        batches = []
        for envelope in envelopes:
            batches.extend(c.ordered(envelope))
        assert batches[0] == envelopes

    def test_byte_overflow_cuts_early(self):
        c = cutter(max_count=100, max_bytes=250)
        c.ordered(raw(100))
        c.ordered(raw(100))
        batches = c.ordered(raw(100))  # would exceed 250 bytes
        assert len(batches) == 1
        assert len(batches[0]) == 2
        assert len(c) == 1  # the overflowing envelope is pending

    def test_single_oversized_envelope_gets_own_block(self):
        c = cutter(max_count=100, max_bytes=250)
        assert c.ordered(raw(500)) == []
        assert len(c) == 1  # pending until count/timeout cut

    def test_config_envelope_cuts_immediately(self):
        c = cutter(max_count=10)
        c.ordered(raw())
        config_envelope = raw()
        config_envelope.is_config = True
        batches = c.ordered(config_envelope)
        assert len(batches) == 2
        assert len(batches[0]) == 1  # flushed pending
        assert batches[1] == [config_envelope]

    def test_config_envelope_alone(self):
        c = cutter()
        config_envelope = raw()
        config_envelope.is_config = True
        batches = c.ordered(config_envelope)
        assert batches == [[config_envelope]]

    def test_manual_cut(self):
        c = cutter()
        c.ordered(raw())
        c.ordered(raw())
        batch = c.cut()
        assert len(batch) == 2
        assert len(c) == 0

    def test_cut_empty_returns_empty(self):
        c = cutter()
        assert c.cut() == []
        assert c.batches_cut == 0

    def test_batches_cut_counter(self):
        c = cutter(max_count=2)
        for _ in range(6):
            c.ordered(raw())
        assert c.batches_cut == 3

    def test_pending_bytes_tracked(self):
        c = cutter()
        c.ordered(raw(30))
        c.ordered(raw(40))
        assert c.pending_bytes == 70

    def test_determinism_across_instances(self):
        """Two cutters fed the same stream cut identical batches --
        the property ordering nodes rely on."""
        stream = [raw(50) for _ in range(25)]
        c1, c2 = cutter(max_count=4, max_bytes=180), cutter(max_count=4, max_bytes=180)
        batches1, batches2 = [], []
        for envelope in stream:
            batches1.extend(c1.ordered(envelope))
            batches2.extend(c2.ordered(envelope))
        assert [[e.envelope_id for e in b] for b in batches1] == [
            [e.envelope_id for e in b] for b in batches2
        ]


class TestBatchTimer:
    """Fabric solo's rule, which the SmartBFT leader follows too: the
    first envelope left pending arms the timer, every cut resets it."""

    def setup_method(self):
        self.sim = Simulator()
        self.cutter = cutter(max_count=3)
        self.due = []
        self.timer = BatchTimer(self.sim, 1.0, lambda: self.due.append(self.sim.now))

    def feed(self, at: float, count: int = 1) -> None:
        def order():
            for _ in range(count):
                batches = self.cutter.ordered(raw())
                self.timer.ordered(bool(batches), len(self.cutter))

        self.sim.schedule_at(at, order)

    def test_arms_on_the_first_pending_envelope_only(self):
        self.feed(0.0)
        self.feed(0.5)  # a second pending envelope leaves the countdown alone
        self.sim.run(until=5.0)
        assert self.due == [1.0]

    def test_a_cut_with_a_remainder_re_arms_a_full_timeout_from_the_cut(self):
        self.feed(0.0)
        self.feed(0.5, count=3)  # cuts three, leaves one pending
        self.sim.run(until=5.0)
        assert len(self.cutter) == 1
        assert self.due == [pytest.approx(1.5)]

    def test_a_cut_that_leaves_nothing_leaves_the_timer_idle(self):
        self.feed(0.0)
        self.feed(0.5, count=2)
        self.sim.run(until=5.0)
        assert len(self.cutter) == 0 and self.cutter.batches_cut == 1
        assert self.due == []

    def test_cancel_before_due_means_on_due_never_runs(self):
        self.feed(0.0)
        self.sim.schedule_at(0.5, self.timer.cancel)
        self.sim.run(until=5.0)
        assert self.due == []
        self.feed(6.0)  # and a cancelled timer arms again
        self.sim.run(until=10.0)
        assert self.due == [7.0]
