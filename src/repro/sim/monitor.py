"""Measurement instruments and the one registry that names them.

These mirror what the paper measures: throughput at the leader ordering
node (transactions and blocks per second) and client-observed latency
percentiles at each frontend.  The module-level helpers
(:func:`percentile_of_sorted`, :func:`sample_stdev`, :func:`summarize`)
are shared with the benchmark harness (:mod:`repro.bench.harness`),
which emits the same summary statistics into its JSON result schema.

A :class:`MetricsRegistry` holds instruments of four kinds --
:class:`Counter`, :class:`Gauge`, :class:`LatencyRecorder` (the
``histogram``) and :class:`ThroughputMeter` (the ``meter``) -- under
dot-separated hierarchical names (``smart.replica.3.consensus.
write_quorum_wait``, ``1000.latency``), so a report can slice it by
subsystem prefix.  A deployment keeps one always-on registry
(``OrderingService.stats``) and an attached observability hub keeps
its own (``Observability.registry``).

Naming semantics (enforced, tested):

- a name is one or more non-empty dot-separated segments of
  ``[A-Za-z0-9_-]``;
- a registered name owns its *kind*: asking for ``x.y`` as a counter
  after it was created as a histogram raises :class:`MetricNameError`;
- a registered leaf cannot also be an interior node: once ``a.b``
  exists, creating ``a.b.c`` (or vice versa) raises, keeping the
  hierarchy a proper tree.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Type, Union


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


class MetricNameError(ValueError):
    """An instrument name collides with an existing registration."""


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str = "counter"):
        self.name = name
        self.value = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value: set directly or tracked via a callback."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value

    def track(self, fn: Callable[[], float]) -> None:
        """Make the gauge read ``fn()`` at every observation."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def snapshot(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


class LatencyRecorder:
    """The histogram: collects individual samples; reports percentiles.

    Samples are appended in O(1) and kept in *insertion order*; the
    sorted view needed by percentile queries is a separate cached copy,
    rebuilt lazily on the first query after an insertion.  (An earlier
    revision sorted ``_samples`` in place, which destroyed arrival
    order and made order-sensitive statistics depend on whether a
    percentile had been queried mid-run -- see
    ``tests/test_sim_monitor.py``.)

    Both are unboxed ``array('d')``: a frontend records one sample per
    delivered envelope for the whole run, and a boxed float in a list
    costs 32 bytes where the array's IEEE double costs 8.  The doubles
    are the values a list would hold, in the same order, so every
    statistic is bit-identical; an ``int`` sample reads back as a float.
    """

    kind = "histogram"

    def __init__(self, name: str = "latency"):
        self.name = name
        self._samples = array("d")
        self._sorted: Optional[array] = None
        self._sum = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self._sorted = None  # invalidate the cached sorted view
        self._sum += seconds

    def reset(self) -> None:
        """Discard all samples (used to trim experiment warm-up)."""
        self._samples = array("d")
        self._sorted = None
        self._sum = 0.0

    def extend(self, samples: Iterable[float]) -> None:
        """:meth:`record` every sample, in order, in one call."""
        samples = list(samples)
        if not samples:
            return
        # fromlist: array.extend(list) converts item by item, twice as slow
        self._samples.fromlist(samples)
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
        return self._samples.tolist()

    def _sorted_samples(self) -> array:
        cached = self._sorted
        if cached is None:
            cached = self._sorted = array("d", sorted(self._samples))
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

    snapshot = summary


class ThroughputMeter:
    """Counts weighted events over time and reports rates.

    ``record(t, n)`` registers ``n`` events at simulated time ``t``.
    ``rate(start, end)`` gives events/second over a window, allowing
    warm-up trimming exactly like the paper's 5-minute runs.  Times and
    weights are unboxed ``array('d')`` series, as in
    :class:`LatencyRecorder`.
    """

    kind = "meter"

    def __init__(self, name: str = "throughput"):
        self.name = name
        self._times = array("d")
        self._weights = array("d")
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

    def snapshot(self) -> Dict[str, float]:
        return {"total": self.total, "rate": self.rate()}


Instrument = Union[Counter, Gauge, LatencyRecorder, ThroughputMeter]

_NAME = re.compile(r"[A-Za-z0-9_-]+(?:\.[A-Za-z0-9_-]+)*")


class MetricsRegistry:
    """One hierarchical bag of instruments, shared by the components
    that report into it."""

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}
        self._interior: set[str] = set()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _claim(self, name: str, cls: Type[Instrument]) -> Any:
        """The instrument registered as ``name``, created as a ``cls``
        on the first lookup; a repeated lookup constructs nothing."""
        existing = self._instruments.get(name)
        if existing is not None:
            if existing.kind != cls.kind:
                raise MetricNameError(
                    f"{name!r} is already a {existing.kind}, "
                    f"cannot re-register as a {cls.kind}"
                )
            return existing
        if _NAME.fullmatch(name) is None:
            raise MetricNameError(
                f"invalid metric name {name!r}: segments must be non-empty "
                "[A-Za-z0-9_-], dot-separated"
            )
        if name in self._interior:
            raise MetricNameError(
                f"{name!r} is an interior node of the metric tree "
                "(longer names exist under it); leaves only"
            )
        prefixes = []
        cut = name.rfind(".")
        while cut > 0:
            prefix = name[:cut]
            if prefix in self._instruments:
                raise MetricNameError(
                    f"cannot register {name!r}: {prefix!r} is already a "
                    f"{self._instruments[prefix].kind} leaf"
                )
            prefixes.append(prefix)
            cut = name.rfind(".", 0, cut)
        self._interior.update(prefixes)
        instrument = self._instruments[name] = cls(name)
        return instrument

    def counter(self, name: str) -> Counter:
        return self._claim(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._claim(name, Gauge)

    def histogram(self, name: str) -> LatencyRecorder:
        return self._claim(name, LatencyRecorder)

    def meter(self, name: str) -> ThroughputMeter:
        return self._claim(name, ThroughputMeter)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> Iterable[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def subtree(self, prefix: str) -> Dict[str, Instrument]:
        """Every instrument at or under ``prefix`` (dot-boundary aware)."""
        dotted = prefix + "."
        return {
            name: instrument
            for name, instrument in sorted(self._instruments.items())
            if name == prefix or name.startswith(dotted)
        }

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """Flat ``{name: value-or-summary}`` view, optionally filtered."""
        chosen = self.subtree(prefix) if prefix else dict(sorted(self._instruments.items()))
        return {name: instrument.snapshot() for name, instrument in chosen.items()}

    def tree(self) -> Dict[str, Any]:
        """Nested-dict view of the hierarchy (leaves are snapshots)."""
        root: Dict[str, Any] = {}
        for name, instrument in sorted(self._instruments.items()):
            node = root
            segments = name.split(".")
            for segment in segments[:-1]:
                node = node.setdefault(segment, {})
            node[segments[-1]] = instrument.snapshot()
        return root


#: the always-on registry's earlier name, kept for ``benchmarks/perf``
StatsRegistry = MetricsRegistry
