"""Tests for RaceSan, the tie-seed axis of the sanitizer harness
(``repro.analysis.sanitizer``; the hash-seed axis is
``tests/test_analysis_detsan.py``).

The comparator and pinpointing are tested on synthesized records; the
planted ``toy_race`` scenario (order-dependent by construction) proves
the sanitizer actually detects schedule races, in-process and through
the CLI.  Every default row is then permuted K=4 times right here, in
this process: a run's ids come from its own simulator, so sequential
runs of a protocol scenario are comparable digest for digest.
"""

import copy
import json

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.sanitizer import (
    DEFAULT_SCENARIOS,
    RECORD_SCHEMA,
    Finding,
    _digest,
    _pinpoint,
    capture_record,
    compare_semantics,
    tie_seed_run,
)

EVENTS = [
    [0.001, "Propose", "0", "1", "cid=0"],
    [0.002, "Write", "1", "0", "cid=0"],
    [0.002, "Write", "1", "2", "cid=0"],
    [0.003, "Accept", "2", "0", "cid=0"],
]


def record(semantics, events=EVENTS, tie_seed=None):
    return {
        "schema": RECORD_SCHEMA,
        "scenario": {
            "name": "smoke",
            "seed": 0,
            "duration": 0.1,
            "rate": 100.0,
        },
        "tie_seed": tie_seed,
        "hash_seed": "1",
        "semantics": semantics,
        "events": events,
        "digests": {"semantics": _digest(semantics)},
    }


class TestComparator:
    def test_identical_semantics_clean(self):
        semantics = {"ledgers": {"0": "ab"}, "delivered": 5}
        base = record(semantics)
        perm = record(copy.deepcopy(semantics), tie_seed=3)
        assert compare_semantics(base, perm) == []

    def test_divergence_is_racesan001_naming_keys_and_seed(self):
        base = record({"ledgers": {"0": "ab"}, "delivered": 5})
        perm = record({"ledgers": {"0": "cd"}, "delivered": 5}, tie_seed=2)
        (finding,) = compare_semantics(base, perm)
        assert finding.rule == "RACESAN001"
        assert "tie_seed=2" in finding.message
        assert "ledgers" in finding.message
        assert "delivered" not in finding.message.split("diverging keys")[1]

    def test_divergence_pinpoints_first_divergent_event(self):
        reordered = copy.deepcopy(EVENTS)
        reordered[1], reordered[2] = reordered[2], reordered[1]
        base = record({"delivered": 5})
        perm = record({"delivered": 6}, events=reordered, tie_seed=1)
        (finding,) = compare_semantics(base, perm)
        # a same-timestamp reorder is the *expected* schedule shift --
        # it names where the runs part ways, not a separate defect
        assert "first schedule divergence" in finding.message
        assert "t=0.002000s" in finding.message

    def test_genuine_trace_divergence_labelled_as_such(self):
        changed = copy.deepcopy(EVENTS)
        changed[3] = [0.003, "Accept", "9", "0", "cid=9"]
        base = record({"delivered": 5})
        perm = record({"delivered": 6}, events=changed, tie_seed=1)
        (finding,) = compare_semantics(base, perm)
        assert "first trace divergence" in finding.message

    def test_pinpoint_absorbs_ulp_timing_wobble(self):
        # the strict-FIFO clamp shifts arrivals by ~1 ulp under
        # permutation; quantization must not report that as divergence
        nudged = copy.deepcopy(EVENTS)
        nudged[1][0] += 1e-15
        assert _pinpoint(record({}), record({}, events=nudged)) is None

    def test_findings_render_with_rule_id(self):
        finding = Finding("RACESAN001", "semantics diverged")
        assert finding.render().startswith("RACESAN001 ")


class TestToyRaceScenario:
    """The planted order-dependent scenario must be caught."""

    def test_permutation_changes_toy_race_outcome(self):
        base = capture_record("toy_race", duration=0.5)
        permuted = capture_record("toy_race", duration=0.5, tie_seed=1)
        findings = compare_semantics(base, permuted)
        assert [f.rule for f in findings] == ["RACESAN001"]
        assert "'toy_race'" in findings[0].message

    def test_default_order_is_fifo(self):
        base = capture_record("toy_race", duration=0.5)
        assert base["semantics"]["order"] == list(range(8))

    def test_same_tie_seed_is_deterministic(self):
        first = capture_record("toy_race", duration=0.5, tie_seed=7)
        second = capture_record("toy_race", duration=0.5, tie_seed=7)
        assert first["digests"] == second["digests"]
        assert first["semantics"]["order"] != list(range(8))

    def test_record_shape(self):
        doc = capture_record("toy_race", duration=0.5, tie_seed=3)
        assert doc["schema"] == RECORD_SCHEMA
        assert doc["scenario"]["name"] == "toy_race"
        assert doc["tie_seed"] == 3
        assert doc["events"]
        assert doc["digests"]["semantics"] == _digest(doc["semantics"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            capture_record("nope")


class TestCaptureCli:
    def test_racesan_capture_writes_record(self, tmp_path, capsys):
        out = tmp_path / "record.json"
        code = analysis_main(
            [
                "capture",
                "--scenario",
                "toy_race",
                "--tie-seed",
                "2",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == RECORD_SCHEMA
        assert doc["tie_seed"] == 2

    def test_racesan_verb_reports_the_planted_race(self, tmp_path, capsys):
        report = tmp_path / "racesan.json"
        code = analysis_main(
            ["racesan", "--scenario", "toy_race", "-k", "2", "--json", str(report)]
        )
        printed = capsys.readouterr().out
        assert code == 1
        assert "RACESAN001 scenario 'toy_race'" in printed
        doc = json.loads(report.read_text())
        assert doc["sanitizer"] == "racesan" and not doc["clean"]
        assert doc["finding_count"] == 2


@pytest.mark.bench
class TestTieAxis:
    """Baseline + K permuted captures, in this process."""

    def test_toy_race_detected_end_to_end(self):
        findings, records = tie_seed_run("toy_race", permutations=2)
        assert [r["tie_seed"] for r in records] == [None, 1, 2]
        assert findings and all(f.rule == "RACESAN001" for f in findings)

    @pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS)
    def test_row_is_schedule_independent(self, scenario):
        findings, records = tie_seed_run(
            scenario, permutations=4, duration=0.25, rate=200.0
        )
        assert findings == []
        baseline = records[0]
        assert baseline["semantics"]["delivered"] == baseline["semantics"]["submitted"]
        assert {r["digests"]["semantics"] for r in records} == {
            baseline["digests"]["semantics"]
        }
