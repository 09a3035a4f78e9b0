"""Unit tests for the hierarchical metrics registry.

The naming semantics are load-bearing: reports slice the registry by
dot-prefix, so the name space must stay a proper tree (no leaf that is
also an interior node) and every name must own exactly one instrument
kind.
"""

import pytest

from repro.obs import Counter, Gauge, MetricNameError, MetricsRegistry
from repro.sim.monitor import LatencyRecorder, ThroughputMeter


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_accumulates(self, registry):
        counter = registry.counter("a.b")
        counter.increment()
        counter.increment(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("a").increment(-1)

    def test_gauge_set_and_read(self, registry):
        gauge = registry.gauge("g")
        gauge.set(7.0)
        assert gauge.value == 7.0

    def test_gauge_tracks_callback(self, registry):
        state = {"v": 1.0}
        gauge = registry.gauge("g")
        gauge.track(lambda: state["v"])
        state["v"] = 42.0
        assert gauge.value == 42.0

    def test_gauge_set_clears_callback(self, registry):
        gauge = registry.gauge("g")
        gauge.track(lambda: 99.0)
        gauge.set(1.0)
        assert gauge.value == 1.0

    def test_histogram_summary(self, registry):
        hist = registry.histogram("h")
        for v in (1.0, 2.0, 3.0):
            hist.record(v)
        summary = hist.snapshot()
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)


class TestRegistration:
    def test_same_name_same_kind_returns_same_instrument(self, registry):
        assert registry.counter("x.y") is registry.counter("x.y")

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram", "meter"])
    def test_a_repeated_lookup_constructs_nothing(self, registry, monkeypatch, kind):
        """Owners look instruments up per block and the hub per message:
        finding one must not build a throwaway instrument first."""
        lookup = getattr(registry, kind)
        first = lookup("x.y")
        cls = type(first)
        built = []
        original = cls.__init__

        def counting_init(self, *args, **kwargs):
            built.append(cls)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
        assert lookup("x.y") is first
        other = "gauge" if kind == "counter" else "counter"
        with pytest.raises(MetricNameError):  # a collision is caught unbuilt too
            getattr(registry, other)("x.y")
        assert built == []

    def test_kind_collision_raises(self, registry):
        registry.counter("x.y")
        with pytest.raises(MetricNameError):
            registry.histogram("x.y")
        with pytest.raises(MetricNameError):
            registry.gauge("x.y")

    def test_leaf_cannot_become_interior(self, registry):
        registry.counter("a.b")
        with pytest.raises(MetricNameError):
            registry.counter("a.b.c")

    def test_interior_cannot_become_leaf(self, registry):
        registry.counter("a.b.c")
        with pytest.raises(MetricNameError):
            registry.counter("a.b")

    def test_sibling_names_coexist(self, registry):
        registry.counter("a.b")
        registry.gauge("a.c")
        registry.histogram("a.d.e")
        assert len(registry) == 3

    @pytest.mark.parametrize("bad", ["", ".", "a..b", "a b", "a.b!", ".a", "a."])
    def test_invalid_segments_rejected(self, registry, bad):
        with pytest.raises(MetricNameError):
            registry.counter(bad)

    def test_allowed_charset(self, registry):
        registry.counter("Smart.replica-3.write_quorum_wait")
        assert "Smart.replica-3.write_quorum_wait" in registry

    def test_kinds_tagged(self, registry):
        assert isinstance(registry.counter("c"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h"), LatencyRecorder)
        assert isinstance(registry.meter("m"), ThroughputMeter)


class TestQueries:
    def test_subtree_is_dot_boundary_aware(self, registry):
        registry.counter("smart.replica.1.decided")
        registry.counter("smart.replicant")  # shares a string prefix only
        names = set(registry.subtree("smart.replica"))
        assert names == {"smart.replica.1.decided"}

    def test_subtree_includes_exact_leaf(self, registry):
        registry.counter("a.b")
        assert set(registry.subtree("a.b")) == {"a.b"}

    def test_snapshot_filtered_by_prefix(self, registry):
        registry.counter("a.x").increment(1)
        registry.counter("b.y").increment(2)
        assert registry.snapshot("a") == {"a.x": 1.0}

    def test_snapshot_unfiltered_sorted(self, registry):
        registry.counter("b").increment()
        registry.counter("a").increment()
        assert list(registry.snapshot()) == ["a", "b"]

    def test_tree_nests_by_segment(self, registry):
        registry.counter("sim.cpu.0.steals").increment(4)
        registry.gauge("sim.net.util").set(0.5)
        tree = registry.tree()
        assert tree["sim"]["cpu"]["0"]["steals"] == 4.0
        assert tree["sim"]["net"]["util"] == 0.5

    def test_get_missing_returns_none(self, registry):
        assert registry.get("nope") is None
        assert "nope" not in registry
