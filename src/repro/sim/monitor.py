"""Measurement instruments for simulated experiments.

These mirror what the paper measures: throughput at the leader ordering
node (transactions and blocks per second) and client-observed latency
percentiles at each frontend.  The module-level helpers
(:func:`percentile_of_sorted`, :func:`sample_stdev`, :func:`summarize`)
are shared with the benchmark harness (:mod:`repro.bench.harness`),
which records per-repeat metric samples through these instruments and
emits the same summary statistics into its JSON result schema.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence


def percentile_of_sorted(data: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample.

    ``p`` is in [0, 100].  Empty input yields NaN; a single sample is
    every percentile of itself.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if not data:
        return math.nan
    if len(data) == 1:
        return data[0]
    rank = (p / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    frac = rank - low
    return data[low] * (1.0 - frac) + data[high] * frac


def sample_stdev(data: Sequence[float], mean: Optional[float] = None) -> float:
    """Bessel-corrected sample standard deviation; NaN below 2 samples."""
    n = len(data)
    if n < 2:
        return math.nan
    if mean is None:
        mean = sum(data) / n
    return math.sqrt(sum((x - mean) ** 2 for x in data) / (n - 1))


def summarize(samples: Iterable[float]) -> Dict[str, float]:
    """Summary statistics over a sample set.

    The keys are the per-metric statistics of the benchmark result
    schema: count, mean, median, p95, stdev, min, max.
    """
    data = sorted(samples)
    n = len(data)
    if n == 0:
        mean = math.nan
    else:
        mean = sum(data) / n
    return {
        "count": float(n),
        "mean": mean,
        "median": percentile_of_sorted(data, 50.0),
        "p95": percentile_of_sorted(data, 95.0),
        "stdev": sample_stdev(data, mean if n else None),
        "min": data[0] if data else math.nan,
        "max": data[-1] if data else math.nan,
    }


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str = "counter"):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class LatencyRecorder:
    """Collects individual latency samples; reports percentiles.

    Samples are appended in O(1) and kept in *insertion order*; the
    sorted view needed by percentile queries is a separate cached list,
    rebuilt lazily on the first query after an insertion.  (An earlier
    revision sorted ``_samples`` in place, which destroyed arrival
    order and made order-sensitive statistics depend on whether a
    percentile had been queried mid-run -- see
    ``tests/test_sim_monitor.py``.)
    """

    def __init__(self, name: str = "latency"):
        self.name = name
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._sum = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self._sorted = None  # invalidate the cached sorted view
        self._sum += seconds

    def reset(self) -> None:
        """Discard all samples (used to trim experiment warm-up)."""
        self._samples = []
        self._sorted = None
        self._sum = 0.0

    def extend(self, samples: Iterable[float]) -> None:
        """:meth:`record` every sample, in order, in one call."""
        samples = list(samples)
        if not samples:
            return
        self._samples += samples
        self._sorted = None
        # the same left-to-right additions a record() loop performs
        # (the builtin sum() compensates its float total on newer
        # interpreters, which would change the last bits of the mean)
        total = self._sum
        for sample in samples:
            total += sample
        self._sum = total

    @property
    def samples(self) -> List[float]:
        """The raw samples, in insertion (arrival) order."""
        return list(self._samples)

    def _sorted_samples(self) -> List[float]:
        cached = self._sorted
        if cached is None:
            cached = self._sorted = sorted(self._samples)
        return cached

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        return self._sum / len(self._samples) if self._samples else math.nan

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        return percentile_of_sorted(self._sorted_samples(), p)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p90(self) -> float:
        return self.percentile(90.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def stdev(self) -> float:
        # summed over the sorted view so the float accumulation order
        # is stable regardless of sample arrival order / query history
        return sample_stdev(
            self._sorted_samples(), self.mean if self._samples else None
        )

    @property
    def minimum(self) -> float:
        data = self._sorted_samples()
        return data[0] if data else math.nan

    @property
    def maximum(self) -> float:
        data = self._sorted_samples()
        return data[-1] if data else math.nan

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "median": self.median,
            "p90": self.p90,
            "p95": self.p95,
            "stdev": self.stdev,
            "min": self.minimum,
            "max": self.maximum,
        }


class ThroughputMeter:
    """Counts weighted events over time and reports rates.

    ``record(t, n)`` registers ``n`` events at simulated time ``t``.
    ``rate(start, end)`` gives events/second over a window, allowing
    warm-up trimming exactly like the paper's 5-minute runs.
    """

    def __init__(self, name: str = "throughput"):
        self.name = name
        self._times: List[float] = []
        self._weights: List[float] = []
        self.total = 0.0

    def record(self, time: float, count: float = 1.0) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError("throughput samples must be recorded in time order")
        self._times.append(time)
        self._weights.append(count)
        self.total += count

    def rate(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Events per second within ``[start, end]``."""
        times = self._times
        if not times:
            return 0.0
        start = times[0] if start is None else start
        end = times[-1] if end is None else end
        if end <= start:
            return 0.0
        # times are recorded in ascending order, so the window is a
        # contiguous slice; bisect + slice-sum keeps the exact same
        # left-to-right float accumulation as a full linear scan
        lo = bisect_left(times, start)
        hi = bisect_right(times, end)
        return sum(self._weights[lo:hi]) / (end - start)

    @property
    def first_time(self) -> Optional[float]:
        return self._times[0] if self._times else None

    @property
    def last_time(self) -> Optional[float]:
        return self._times[-1] if self._times else None


class StatsRegistry:
    """A named bag of instruments shared by an experiment's components."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._latencies: Dict[str, LatencyRecorder] = {}
        self._meters: Dict[str, ThroughputMeter] = {}

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter(name))

    def latency(self, name: str) -> LatencyRecorder:
        return self._latencies.setdefault(name, LatencyRecorder(name))

    def meter(self, name: str) -> ThroughputMeter:
        return self._meters.setdefault(name, ThroughputMeter(name))

    def summary(self) -> Dict[str, Dict[str, float]]:
        report: Dict[str, Dict[str, float]] = {}
        for name, counter in sorted(self._counters.items()):
            report[name] = {"count": float(counter.value)}
        for name, recorder in sorted(self._latencies.items()):
            report[name] = recorder.summary()
        for name, meter in sorted(self._meters.items()):
            report[name] = {"total": meter.total, "rate": meter.rate()}
        return report
