"""Unit tests for measurement instruments."""

import bisect
import math
import random
import tracemalloc

import pytest

from repro.fabric.channel import ChannelConfig
from repro.sim.monitor import (
    Counter,
    LatencyRecorder,
    StatsRegistry,
    ThroughputMeter,
    percentile_of_sorted,
    sample_stdev,
    summarize,
)


class TestPercentileOfSorted:
    def test_empty_is_nan(self):
        assert math.isnan(percentile_of_sorted([], 50.0))
        assert math.isnan(percentile_of_sorted([], 0.0))

    def test_single_sample_is_every_percentile(self):
        for p in (0.0, 50.0, 95.0, 100.0):
            assert percentile_of_sorted([7.5], p) == 7.5

    def test_p0_p100_are_extremes(self):
        data = [1.0, 4.0, 9.0]
        assert percentile_of_sorted(data, 0.0) == 1.0
        assert percentile_of_sorted(data, 100.0) == 9.0

    def test_linear_interpolation(self):
        # rank = 0.25 * 3 = 0.75 between 1.0 and 2.0
        assert percentile_of_sorted([1.0, 2.0, 3.0, 4.0], 25.0) == pytest.approx(1.75)
        assert percentile_of_sorted([1.0, 2.0], 50.0) == pytest.approx(1.5)

    def test_p95_of_hundred(self):
        data = [float(i) for i in range(100)]
        assert percentile_of_sorted(data, 95.0) == pytest.approx(94.05)

    def test_out_of_range_rejected(self):
        for p in (-0.1, 100.1, 1000.0):
            with pytest.raises(ValueError):
                percentile_of_sorted([1.0], p)


class TestSampleStdev:
    def test_fewer_than_two_is_nan(self):
        assert math.isnan(sample_stdev([]))
        assert math.isnan(sample_stdev([3.0]))

    def test_bessel_correction(self):
        # variance of [2, 4, 4, 4, 5, 5, 7, 9] is 32/7 with n-1
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        assert sample_stdev(data) == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_constant_samples_zero(self):
        assert sample_stdev([5.0, 5.0, 5.0]) == 0.0

    def test_precomputed_mean_matches(self):
        data = [1.0, 2.0, 6.0]
        assert sample_stdev(data, mean=3.0) == pytest.approx(sample_stdev(data))


class TestSummarize:
    def test_keys(self):
        assert set(summarize([1.0])) == {
            "count", "mean", "median", "p95", "stdev", "min", "max",
        }

    def test_empty_all_nan_except_count(self):
        stats = summarize([])
        assert stats["count"] == 0.0
        for key in ("mean", "median", "p95", "stdev", "min", "max"):
            assert math.isnan(stats[key]), key

    def test_values(self):
        stats = summarize([3.0, 1.0, 2.0, 4.0])
        assert stats["count"] == 4.0
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["median"] == pytest.approx(2.5)
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0
        assert stats["stdev"] == pytest.approx(sample_stdev([1.0, 2.0, 3.0, 4.0]))

    def test_input_order_irrelevant(self):
        assert summarize([3.0, 1.0, 2.0]) == summarize([1.0, 2.0, 3.0])


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter().value == 0

    def test_increment(self):
        counter = Counter()
        counter.increment()
        counter.increment(5)
        assert counter.value == 6


class TestLatencyRecorder:
    def test_empty_stats_are_nan(self):
        recorder = LatencyRecorder()
        assert math.isnan(recorder.mean)
        assert math.isnan(recorder.median)

    def test_mean(self):
        recorder = LatencyRecorder()
        recorder.extend([1.0, 2.0, 3.0])
        assert recorder.mean == pytest.approx(2.0)

    def test_median_odd(self):
        recorder = LatencyRecorder()
        recorder.extend([3.0, 1.0, 2.0])
        assert recorder.median == pytest.approx(2.0)

    def test_median_even_interpolates(self):
        recorder = LatencyRecorder()
        recorder.extend([1.0, 2.0, 3.0, 4.0])
        assert recorder.median == pytest.approx(2.5)

    def test_p90(self):
        recorder = LatencyRecorder()
        recorder.extend(float(i) for i in range(1, 11))
        assert recorder.p90 == pytest.approx(9.1)

    def test_percentile_bounds(self):
        recorder = LatencyRecorder()
        recorder.extend([5.0, 1.0])
        assert recorder.percentile(0) == 1.0
        assert recorder.percentile(100) == 5.0
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_min_max(self):
        recorder = LatencyRecorder()
        recorder.extend([4.0, 2.0, 9.0])
        assert recorder.minimum == 2.0
        assert recorder.maximum == 9.0

    def test_reset(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        recorder.reset()
        assert recorder.count == 0
        recorder.record(2.0)
        assert recorder.median == 2.0

    def test_empty_percentiles_are_nan(self):
        recorder = LatencyRecorder()
        assert math.isnan(recorder.percentile(50.0))
        assert math.isnan(recorder.p95)
        assert math.isnan(recorder.minimum)
        assert math.isnan(recorder.maximum)

    def test_single_sample_percentiles(self):
        recorder = LatencyRecorder()
        recorder.record(3.5)
        for p in (0.0, 50.0, 100.0):
            assert recorder.percentile(p) == 3.5

    def test_p95(self):
        recorder = LatencyRecorder()
        recorder.extend(float(i) for i in range(1, 101))
        assert recorder.p95 == pytest.approx(95.05)

    def test_stdev(self):
        recorder = LatencyRecorder()
        assert math.isnan(recorder.stdev)
        recorder.record(1.0)
        assert math.isnan(recorder.stdev)
        recorder.extend([2.0, 3.0])
        assert recorder.stdev == pytest.approx(1.0)

    def test_cached_sort_invalidated_by_record(self):
        # regression: the cached sorted view must be rebuilt after a
        # mid-run insertion, or percentiles silently report stale data
        recorder = LatencyRecorder()
        recorder.extend([3.0, 1.0])
        assert recorder.median == pytest.approx(2.0)  # builds the cache
        recorder.record(100.0)
        assert recorder.median == pytest.approx(3.0)
        assert recorder.maximum == 100.0

    def test_cached_sort_invalidated_by_reset(self):
        recorder = LatencyRecorder()
        recorder.extend([5.0, 6.0])
        assert recorder.median == pytest.approx(5.5)  # builds the cache
        recorder.reset()
        recorder.record(1.0)
        assert recorder.median == 1.0

    def test_queries_never_disturb_arrival_order(self):
        # regression: an earlier revision sorted the sample list in
        # place, so querying a percentile mid-run destroyed the arrival
        # order that order-sensitive statistics rely on
        recorder = LatencyRecorder()
        recorder.extend([3.0, 1.0, 2.0])
        recorder.median
        recorder.percentile(90.0)
        assert recorder.samples == [3.0, 1.0, 2.0]
        recorder.record(0.5)
        assert recorder.samples == [3.0, 1.0, 2.0, 0.5]

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        summary = recorder.summary()
        assert set(summary) == {
            "count", "mean", "median", "p90", "p95", "stdev", "min", "max",
        }

    def test_interleaved_record_and_query(self):
        """Queries between insertions must see the up-to-date sample set
        (the lazy sort cache invalidates on every record)."""
        recorder = LatencyRecorder()
        recorder.extend([5.0, 1.0])
        assert recorder.median == pytest.approx(3.0)
        recorder.record(0.0)
        assert recorder.median == pytest.approx(1.0)
        assert recorder.minimum == 0.0
        recorder.record(9.0)
        assert recorder.maximum == 9.0

    def test_lazy_sort_matches_insort_reference(self):
        """Percentiles from the amortized append+sort scheme are identical
        to an insort-per-sample reference over random interleavings."""
        rng = random.Random(20180625)
        recorder = LatencyRecorder()
        reference: list = []
        for _ in range(500):
            sample = rng.expovariate(1.0)
            recorder.record(sample)
            bisect.insort(reference, sample)
            if rng.random() < 0.2:
                for p in (0.0, 25.0, 50.0, 90.0, 95.0, 100.0):
                    assert recorder.percentile(p) == percentile_of_sorted(reference, p)
        assert recorder._sorted_samples().tolist() == reference  # an array("d")
        summary = recorder.summary()
        # mean/stdev accumulate in insertion order, the reference sums in
        # sorted order — equal up to float addition reordering only
        assert summary["mean"] == pytest.approx(sum(reference) / 500.0, rel=1e-12)
        assert summary["stdev"] == pytest.approx(sample_stdev(reference), rel=1e-9)
        for key, p in (("median", 50.0), ("p90", 90.0), ("p95", 95.0)):
            assert summary[key] == percentile_of_sorted(reference, p)
        assert summary["min"] == reference[0]
        assert summary["max"] == reference[-1]
        assert summary["count"] == 500.0


class TestThroughputMeter:
    def test_rate_over_window(self):
        meter = ThroughputMeter()
        for i in range(11):
            meter.record(float(i), 10.0)
        assert meter.rate() == pytest.approx(110.0 / 10.0)

    def test_rate_with_explicit_window(self):
        meter = ThroughputMeter()
        for i in range(11):
            meter.record(float(i), 1.0)
        assert meter.rate(start=5.0, end=10.0) == pytest.approx(6.0 / 5.0)

    def test_empty_meter_rate_zero(self):
        assert ThroughputMeter().rate() == 0.0

    def test_out_of_order_rejected(self):
        meter = ThroughputMeter()
        meter.record(2.0)
        with pytest.raises(ValueError):
            meter.record(1.0)

    def test_total(self):
        meter = ThroughputMeter()
        meter.record(0.0, 5.0)
        meter.record(1.0, 7.0)
        assert meter.total == 12.0


class TestUnboxedSeries:
    """A series that grows with the run costs one double per value.

    A frontend records one latency sample per delivered envelope and two
    meter values per block for the whole run; boxed in a list they cost
    32 and 40 bytes.  Measured as the tracemalloc growth the instrument
    keeps, with every value a fresh float only the instrument holds.
    """

    N = 100_000

    def growth_per_item(self, fill) -> float:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = fill()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            if started:
                tracemalloc.stop()
        assert kept is not None
        return (after - before) / self.N

    def test_record_costs_a_double_per_sample(self):
        def fill():
            recorder = LatencyRecorder()
            for i in range(self.N):
                recorder.record(i * 1e-6)
            return recorder

        assert self.growth_per_item(fill) <= 9.0

    def test_extend_costs_a_double_per_sample(self):
        def fill():
            recorder = LatencyRecorder()
            for start in range(0, self.N, 100):  # one block's samples a call
                recorder.extend([i * 1e-6 for i in range(start, start + 100)])
            return recorder

        assert self.growth_per_item(fill) <= 9.0

    def test_meter_record_costs_two_doubles(self):
        def fill():
            meter = ThroughputMeter()
            for i in range(self.N):
                meter.record(i * 1e-3, 1.0)
            return meter

        assert self.growth_per_item(fill) <= 17.0


class TestStatsRegistry:
    """``StatsRegistry`` is the one registry under its earlier name."""

    def test_same_name_same_instrument(self):
        registry = StatsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")
        assert registry.meter("z") is registry.meter("z")

    def test_summary_contains_all(self):
        registry = StatsRegistry()
        registry.counter("c").increment()
        registry.histogram("l").record(1.0)
        registry.meter("m").record(0.0, 1.0)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"c", "l", "m"}
        assert snapshot["c"] == 1.0
        assert snapshot["l"] == registry.histogram("l").summary()
        assert snapshot["m"] == {"total": 1.0, "rate": 0.0}

    def test_an_empty_registry_is_still_a_registry(self):
        """An empty registry is falsy (it has a length), so an owner
        must test it with ``is not None``: with ``or`` it would keep a
        private registry and the service's meters would read zero."""
        from repro.fabric.orderers.solo import SoloOrderer
        from repro.ordering.frontend import Frontend

        shared = StatsRegistry()
        assert not shared
        frontend = Frontend(None, None, 1000, relay=None, acceptance=None, stats=shared)
        solo = SoloOrderer(None, None, "solo", None, ChannelConfig("ch0"), stats=shared)
        assert frontend.stats is shared and solo.stats is shared
