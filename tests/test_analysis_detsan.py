"""Tests for DetSan, the hash-seed axis of the sanitizer harness
(``repro.analysis.sanitizer``; the tie-seed axis is
``tests/test_analysis_racesan.py``).

The comparator is tested on synthesized records (one planted tie, one
genuine divergence, per-view mismatches); the capture path is tested
in-process on a short seeded scenario, and once through the child
interpreters the axis exists for.
"""

import copy

import pytest

from repro.analysis.sanitizer import (
    RECORD_SCHEMA,
    Finding,
    _digest,
    capture_record,
    compare_views,
    hash_seed_run,
)


def record(events, span_tree=None, metrics=None):
    doc = {
        "schema": RECORD_SCHEMA,
        "scenario": {"name": "smoke", "seed": 0, "duration": 0.1, "rate": 100.0},
        "events": events,
        "span_tree": span_tree or [],
        "metrics": metrics or {},
    }
    doc["digests"] = {
        "events": _digest(doc["events"]),
        "span_tree": _digest(doc["span_tree"]),
        "metrics": _digest(doc["metrics"]),
    }
    return doc


EVENTS = [
    [0.001, "Propose", "0", "1", "cid=0"],
    [0.002, "Write", "1", "0", "cid=0"],
    [0.002, "Write", "1", "2", "cid=0"],
    [0.002, "Write", "1", "3", "cid=0"],
    [0.003, "Accept", "2", "0", "cid=0"],
]


class TestComparator:
    def test_identical_records_clean(self):
        assert compare_views(record(EVENTS), record(EVENTS)) == []

    def test_planted_tie_reorder_is_detsan002(self):
        # same multiset of t=0.002 events, different order: a tie with
        # no deterministic tie-break key -- the simulated data race
        reordered = copy.deepcopy(EVENTS)
        reordered[1], reordered[3] = reordered[3], reordered[1]
        (finding,) = compare_views(record(EVENTS), record(reordered))
        assert finding.rule == "DETSAN002"
        assert "t=0.002000s" in finding.message
        assert "tie" in finding.message

    def test_genuine_divergence_is_detsan001(self):
        changed = copy.deepcopy(EVENTS)
        changed[4] = [0.003, "Accept", "3", "0", "cid=1"]
        (finding,) = compare_views(record(EVENTS), record(changed))
        assert finding.rule == "DETSAN001"

    def test_length_divergence_is_detsan001(self):
        (finding,) = compare_views(record(EVENTS), record(EVENTS[:-1]))
        assert finding.rule == "DETSAN001"
        assert "lengths" in finding.message

    def test_span_tree_divergence_is_detsan003(self):
        first = record(EVENTS, span_tree=[{"name": "consensus"}])
        second = record(EVENTS, span_tree=[{"name": "sync"}])
        (finding,) = compare_views(first, second)
        assert finding.rule == "DETSAN003"

    def test_metrics_divergence_is_detsan004(self):
        first = record(EVENTS, metrics={"decided": 5})
        second = record(EVENTS, metrics={"decided": 6})
        (finding,) = compare_views(first, second)
        assert finding.rule == "DETSAN004"
        assert "decided" in finding.message

    def test_findings_render_with_rule_id(self):
        finding = Finding("DETSAN002", "something diverged")
        assert finding.render().startswith("DETSAN002 ")


@pytest.mark.bench
class TestCapture:
    """In-process capture of the short default scenario."""

    SCENARIO = dict(seed=0, duration=0.25, rate=200.0)

    def test_capture_is_deterministic_in_process(self):
        first = capture_record(**self.SCENARIO)
        second = capture_record(**self.SCENARIO)
        assert first["digests"] == second["digests"]
        assert compare_views(first, second) == []

    def test_capture_record_shape(self):
        doc = capture_record(**self.SCENARIO)
        assert doc["schema"] == RECORD_SCHEMA
        assert doc["events"], "scenario produced no trace events"
        time, kind, src, dst, detail = doc["events"][0]
        assert isinstance(time, float) and isinstance(kind, str)
        assert set(doc["digests"]) == {"semantics", "events", "span_tree", "metrics"}

    def test_different_seeds_diverge(self):
        # sanity check that the comparator has teeth: different seeds
        # must NOT produce identical traces
        first = capture_record(seed=0, duration=0.25, rate=200.0)
        second = capture_record(seed=1, duration=0.25, rate=200.0)
        assert compare_views(first, second) != []

    def test_child_interpreters_agree_on_every_view(self):
        """The hash-seed axis end to end: two fresh interpreters, two
        hash seeds, one row the in-process tests never run."""
        findings, records = hash_seed_run("smartbft_leader_crash", **self.SCENARIO)
        assert findings == []
        assert [r["hash_seed"] for r in records] == ["1", "2"]
        assert records[0]["digests"] == records[1]["digests"]
