"""Regression-gate self-tests (``python -m repro.bench compare``).

The gate is the two-variant reading of :mod:`repro.bench.report`.
Feeds it synthetic baseline/candidate documents: an injected +30%
latency regression must fail the gate with a structured report,
within-tolerance noise must pass, and the Mann-Whitney layer must keep
indistinguishable repeat noise from tripping the gate.
"""

import json

import pytest

from repro.bench.harness import SCHEMA, validate_result
from repro.bench.report import compare_results, gate
from repro.bench.stats import mann_whitney_u
from repro.sim.monitor import summarize


def make_document(run_name, metric_values, direction="lower", metric="latency_s",
                  benchmark="synthetic", params=None, phases=None):
    """A minimal schema-valid result document with one metric."""
    values = list(metric_values)
    stats = summarize(values)
    summary = {
        "direction": direction,
        "values": values,
        **{k: (None if v != v else v) for k, v in stats.items()},
    }
    document = {
        "schema": SCHEMA,
        "run_name": run_name,
        "mode": "full",
        "created_unix": 0.0,
        "environment": {},
        "benchmarks": [
            {
                "benchmark": benchmark,
                "description": "",
                "mode": "full",
                "seed_policy": "per-repeat",
                "points": [
                    {
                        "params": params or {"x": 1},
                        "seeds": list(range(len(values))),
                        "repeats": len(values),
                        "metrics": {metric: summary},
                    }
                ],
            }
        ],
    }
    if phases is not None:
        document["benchmarks"][0]["points"][0]["phases"] = phases
    validate_result(document)
    return document


BASE_LATENCIES = [0.100, 0.102, 0.098, 0.101, 0.099, 0.100]


class TestMannWhitney:
    def test_matches_scipy_reference_values(self):
        # expected values computed with scipy.stats.mannwhitneyu
        # (two-sided, asymptotic, continuity correction)
        cases = [
            ([1.0, 2.0, 3.0, 4.0, 5.0], [1.2, 2.1, 2.9, 4.2, 5.1],
             11.0, 0.8345316227109287),
            ([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 11.0, 12.0, 13.0, 14.0],
             0.0, 0.012185780355344813),
            ([1.0, 1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0, 3.0],
             9.0, 0.5067287122720537),
            ([0.10, 0.11, 0.09, 0.10, 0.12, 0.11],
             [0.13, 0.14, 0.12, 0.15, 0.13, 0.14],
             0.5, 0.006027336750585726),
        ]
        for a, b, expected_u, expected_p in cases:
            u, p = mann_whitney_u(a, b)
            assert u == pytest.approx(expected_u)
            assert p == pytest.approx(expected_p, rel=1e-9)

    def test_identical_samples_p_one(self):
        _, p = mann_whitney_u([1.0] * 5, [1.0] * 5)
        assert p == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestComparator:
    def test_injected_regression_fails_gate(self):
        baseline = make_document("base", BASE_LATENCIES)
        regressed = make_document("cand", [v * 1.30 for v in BASE_LATENCIES])
        report = compare_results(baseline, regressed, tolerance=0.05)
        assert len(report.regressions) == 1
        finding = report.regressions[0]
        assert finding.unit.benchmark == "synthetic"
        assert finding.unit.metric == "latency_s"
        assert finding.delta_relative == pytest.approx(0.30, abs=0.02)
        assert finding.p_value is not None and finding.p_value < 0.05
        # candidate is uniformly 30% slower: candidate samples dominate
        assert finding.effect_a12 == pytest.approx(1.0)
        assert "A12=" in finding.describe()
        serialized = report.to_json_dict()["comparisons"]
        (regressed_row,) = [
            row for row in serialized if row["status"] == finding.status
        ]
        assert regressed_row["effect_a12"] == pytest.approx(1.0)
        assert gate(report) == 1

    def test_within_tolerance_noise_passes(self):
        baseline = make_document("base", BASE_LATENCIES)
        noisy = make_document("cand", [v * 1.02 for v in BASE_LATENCIES])
        report = compare_results(baseline, noisy, tolerance=0.05)
        assert report.regressions == []
        assert report.summary_counts()["ok"] == 1
        assert gate(report) == 0

    def test_identical_runs_pass(self):
        baseline = make_document("base", BASE_LATENCIES)
        report = compare_results(baseline, make_document("cand", BASE_LATENCIES))
        assert gate(report) == 0
        assert report.verdicts[0].status == "ok"

    def test_throughput_direction(self):
        baseline = make_document(
            "base", [1000.0, 1010.0, 990.0, 1005.0, 995.0],
            direction="higher", metric="tx_per_sec",
        )
        slower = make_document(
            "cand", [700.0, 707.0, 693.0, 703.5, 696.5],
            direction="higher", metric="tx_per_sec",
        )
        faster = make_document(
            "cand", [1300.0, 1313.0, 1287.0, 1306.5, 1293.5],
            direction="higher", metric="tx_per_sec",
        )
        assert gate(compare_results(baseline, slower)) == 1
        report = compare_results(baseline, faster)
        assert gate(report) == 0
        assert report.verdicts[0].status == "improved"

    def test_overlapping_noise_not_significant(self):
        """Median moves beyond tolerance but the distributions overlap:
        Mann-Whitney must veto the regression."""
        baseline = make_document("base", [0.10, 0.20, 0.10, 0.20, 0.10, 0.20])
        wobble = make_document("cand", [0.20, 0.10, 0.20, 0.10, 0.20, 0.20])
        report = compare_results(baseline, wobble, tolerance=0.05)
        assert report.regressions == []
        comparison = report.verdicts[0]
        assert comparison.p_value is not None and comparison.p_value >= 0.05
        assert "p >= alpha" in comparison.detail

    def test_few_repeats_median_only(self):
        """Below MIN_SAMPLES_FOR_TEST the median delta alone decides."""
        baseline = make_document("base", [0.100])
        regressed = make_document("cand", [0.130])
        report = compare_results(baseline, regressed, tolerance=0.05)
        assert len(report.regressions) == 1
        assert report.regressions[0].p_value is None
        ok = compare_results(baseline, make_document("cand", [0.102]))
        assert gate(ok) == 0

    def test_missing_coverage_reported_not_fatal(self):
        baseline = make_document("base", BASE_LATENCIES)
        other = make_document("cand", BASE_LATENCIES, benchmark="different")
        report = compare_results(baseline, other)
        assert len(report.missing) == 1
        assert gate(report) == 0
        assert gate(report, strict_missing=True) == 1

    def test_report_json_and_render(self):
        baseline = make_document("base", BASE_LATENCIES)
        regressed = make_document("cand", [v * 1.3 for v in BASE_LATENCIES])
        report = compare_results(baseline, regressed)
        document = report.to_json_dict()
        assert document["counts"]["regression"] == 1
        text = report.render()
        assert "REGRESSION" in text and "latency_s" in text

    def test_regression_localized_to_phases(self):
        """A regression at a point whose two sides both carry a
        ``phases`` breakdown names the phases that moved most, from the
        report's phase columns."""
        baseline = make_document(
            "base", BASE_LATENCIES,
            phases={"order": [0.060] * 6, "sign": [0.010] * 6,
                    "deliver": [0.030] * 6, "end_to_end": [0.100] * 6},
        )
        regressed = make_document(
            "cand", [v * 1.30 for v in BASE_LATENCIES],
            phases={"order": [0.095] * 6, "sign": [0.010] * 6,
                    "deliver": [0.025] * 6, "end_to_end": [0.130] * 6},
        )
        report = compare_results(baseline, regressed)
        (finding,) = report.regressions
        assert finding.phase_deltas["order"] == {
            "baseline": pytest.approx(0.060),
            "candidate": pytest.approx(0.095),
            "delta": pytest.approx(0.035),
        }
        assert report.render().splitlines()[-1] == (
            "             phases most moved: order 60.000ms -> 95.000ms; "
            "end_to_end 100.000ms -> 130.000ms; deliver 30.000ms -> 25.000ms"
        )
        # phases on one side only: still a regression, nothing to localize
        report = compare_results(
            make_document("base", BASE_LATENCIES), regressed
        )
        assert report.regressions[0].phase_deltas is None
        assert "phases most moved" not in report.render()


class TestCompareCli:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_cli_clean_exit_zero(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        base = self._write(tmp_path, "base.json", make_document("base", BASE_LATENCIES))
        cand = self._write(tmp_path, "cand.json", make_document("cand", BASE_LATENCIES))
        assert main(["compare", base, cand]) == 0
        assert "0 regressions" in capsys.readouterr().out

    def test_cli_regression_exit_nonzero(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        base = self._write(tmp_path, "base.json", make_document("base", BASE_LATENCIES))
        cand = self._write(
            tmp_path, "cand.json",
            make_document("cand", [v * 1.3 for v in BASE_LATENCIES]),
        )
        assert main(["compare", base, cand]) == 1
        captured = capsys.readouterr()
        assert "1 regressions" in captured.out
        assert "FAIL" in captured.err

    def test_cli_schema_error_exit_two(self, tmp_path):
        from repro.bench.__main__ import main

        base = self._write(tmp_path, "base.json", make_document("base", BASE_LATENCIES))
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other"}')
        assert main(["compare", base, str(bad)]) == 2
        assert main(["compare", base, str(tmp_path / "missing.json")]) == 2
