"""Tests for the N-way experiment report engine.

Three layers:

- the statistical kernels in :mod:`repro.bench.stats` checked against
  scipy and hand-computed references (A12, rank-by-median, Nemenyi
  critical difference, sparklines);
- the report engine (:mod:`repro.bench.report`) over synthetic result
  documents: grouping rules, pairwise matrices, ranking, history
  series, and the golden-markdown determinism pin
  (``tests/data/golden/bench_report.md``, the pin ledger's
  ``bench_report`` row: ``make golden UPDATE=bench_report``);
- the ``python -m repro.bench report`` / ``history`` CLI exit codes.
"""

import json
import math
import pathlib
import random

import pytest

from repro.bench.harness import (
    SCHEMA,
    append_history,
    load_history,
    validate_result,
)
from repro.bench.report import (
    ReportError,
    analyze,
    group_by_axis,
    group_by_files,
    history_series,
    render_markdown,
    report_to_json_dict,
)
from repro.bench.stats import (
    a12,
    a12_magnitude,
    cd_groups,
    critical_difference,
    mean_ranks,
    rank_by_median,
    sparkline,
)
from repro.sim.monitor import summarize


# ----------------------------------------------------------------------
# Synthetic result documents
# ----------------------------------------------------------------------
def metric_summary(values, direction="lower"):
    stats = summarize(list(values))
    return {
        "direction": direction,
        "values": list(values),
        **{k: (None if v != v else v) for k, v in stats.items()},
    }


def make_document(run_name, benchmarks, mode="full"):
    """``benchmarks``: name -> list of (params, {metric: summary},
    phases-or-None) point tuples."""
    document = {
        "schema": SCHEMA,
        "run_name": run_name,
        "mode": mode,
        "created_unix": 1700000000.0,
        "environment": {},
        "benchmarks": [],
    }
    for name, points in benchmarks.items():
        rendered = []
        for params, metrics, phases in points:
            repeats = len(next(iter(metrics.values()))["values"])
            point = {
                "params": dict(params),
                "seeds": list(range(repeats)),
                "repeats": repeats,
                "metrics": metrics,
            }
            if phases is not None:
                point["phases"] = phases
            rendered.append(point)
        document["benchmarks"].append(
            {
                "benchmark": name,
                "description": "",
                "mode": mode,
                "seed_policy": "per-repeat",
                "points": rendered,
            }
        )
    validate_result(document)
    return document


def golden_scenario():
    """Deterministic three-variant scenario of the ``bench_report``
    golden — change it only together with the committed golden file."""
    variants = {
        "alpha": ([0.100, 0.101, 0.099, 0.102, 0.098, 0.100], 1200.0),
        "beta": ([0.130, 0.131, 0.129, 0.132, 0.128, 0.130], 1500.0),
        "gamma": ([0.200, 0.202, 0.198, 0.201, 0.199, 0.200], 900.0),
    }
    documents = []
    for name, (latencies, tx) in variants.items():
        phases = None
        if name in ("alpha", "beta"):
            base = latencies[0]
            phases = {
                "consensus.write": [base * 0.5, base * 0.5],
                "signing": [base * 0.3, base * 0.3],
                "end_to_end": [base, base],
            }
        documents.append(
            (
                name,
                make_document(
                    name,
                    {
                        "latency_bench": [
                            ({"n": 4}, {"latency_s": metric_summary(latencies)},
                             phases),
                            (
                                {"n": 10},
                                {
                                    "latency_s": metric_summary(
                                        [v * 2 for v in latencies]
                                    )
                                },
                                None,
                            ),
                        ],
                        "throughput_bench": [
                            (
                                {},
                                {
                                    "tx_per_sec": metric_summary(
                                        [tx, tx + 1, tx - 1, tx + 2, tx - 2],
                                        direction="higher",
                                    )
                                },
                                None,
                            )
                        ],
                    },
                ),
            )
        )
    snapshots = [
        (
            f"2026010{i}T000000Z-nightly.json",
            make_document(
                "nightly",
                {
                    "latency_bench": [
                        (
                            {"n": 4},
                            {"latency_s": metric_summary([0.1 + 0.01 * i] * 3)},
                            None,
                        )
                    ]
                },
            ),
        )
        for i in range(1, 4)
    ]
    return documents, snapshots


def build_golden_report():
    documents, snapshots = golden_scenario()
    grouping = group_by_files(documents)
    return analyze(
        grouping,
        sources=[
            {"variant": name, "path": f"results/{name}.json",
             "run_name": name, "mode": "full"}
            for name, _ in documents
        ],
        grouping_mode="files",
        history=history_series(snapshots),
    )


# ----------------------------------------------------------------------
# Statistical kernels
# ----------------------------------------------------------------------
class TestA12:
    def test_hand_computed_references(self):
        assert a12([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5)
        assert a12([2.0, 2.0], [1.0, 1.0]) == 1.0
        assert a12([1.0, 1.0], [2.0, 2.0]) == 0.0
        assert a12([1.0], [1.0]) == pytest.approx(0.5)  # pure tie
        assert a12([1.0, 2.0], [1.5]) == pytest.approx(0.5)  # one win, one loss
        # 2 wins + 1 tie + 1 loss over 2x2 comparisons:
        # pairs (3,2):win (3,4):loss (2,2):tie (2,4):loss -> (1+0.5)/4
        assert a12([3.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5 / 4.0)

    def test_matches_brute_force_win_count(self):
        rng = random.Random(7)
        for _ in range(20):
            xs = [rng.randrange(10) / 2.0 for _ in range(rng.randrange(1, 9))]
            ys = [rng.randrange(10) / 2.0 for _ in range(rng.randrange(1, 9))]
            wins = sum(1 for x in xs for y in ys if x > y)
            ties = sum(1 for x in xs for y in ys if x == y)
            expected = (wins + 0.5 * ties) / (len(xs) * len(ys))
            assert a12(xs, ys) == pytest.approx(expected)

    def test_matches_scipy_u_statistic(self):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(11)
        for _ in range(5):
            xs = [rng.random() for _ in range(8)]
            ys = [rng.random() for _ in range(6)]
            u1 = stats.mannwhitneyu(xs, ys, alternative="two-sided").statistic
            assert a12(xs, ys) == pytest.approx(u1 / (len(xs) * len(ys)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            a12([], [1.0])

    def test_magnitudes(self):
        assert a12_magnitude(0.5) == "negligible"
        assert a12_magnitude(0.56) == "small"
        assert a12_magnitude(0.36) == "medium"
        assert a12_magnitude(0.92) == "large"
        assert a12_magnitude(0.08) == "large"  # symmetric below 0.5


class TestRanking:
    def test_rank_by_median_directions(self):
        medians = {"a": 10.0, "b": 30.0, "c": 20.0}
        assert rank_by_median(medians, "higher") == {"b": 1.0, "c": 2.0, "a": 3.0}
        assert rank_by_median(medians, "lower") == {"a": 1.0, "c": 2.0, "b": 3.0}

    def test_rank_ties_average(self):
        ranks = rank_by_median({"a": 10.0, "b": 20.0, "c": 20.0}, "higher")
        assert ranks == {"b": 1.5, "c": 1.5, "a": 3.0}

    def test_rank_bad_direction(self):
        with pytest.raises(ValueError):
            rank_by_median({"a": 1.0}, "sideways")

    def test_mean_ranks(self):
        ranks = mean_ranks(
            [{"a": 1.0, "b": 2.0}, {"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 2.0}]
        )
        assert ranks == {"a": pytest.approx(4 / 3), "b": pytest.approx(5 / 3)}

    def test_mean_ranks_inconsistent_variants(self):
        with pytest.raises(ValueError):
            mean_ranks([{"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0}])

    def test_critical_difference_hand_computed(self):
        # Demsar 2006: CD = q_alpha * sqrt(k(k+1) / 6N)
        assert critical_difference(4, 10, alpha=0.05) == pytest.approx(
            2.569 * math.sqrt(4 * 5 / 60.0)
        )
        assert critical_difference(2, 8, alpha=0.10) == pytest.approx(
            1.645 * math.sqrt(2 * 3 / 48.0)
        )

    def test_critical_difference_unavailable(self):
        assert critical_difference(11, 10) is None
        assert critical_difference(1, 10) is None
        assert critical_difference(4, 0) is None
        assert critical_difference(4, 10, alpha=0.01) is None

    def test_cd_groups(self):
        groups = cd_groups({"a": 1.0, "b": 1.5, "c": 3.0}, cd=1.0)
        assert groups == [("a", "b"), ("c",)]
        # everything within one CD collapses to a single group
        assert cd_groups({"a": 1.0, "b": 1.5, "c": 1.9}, cd=1.0) == [
            ("a", "b", "c")
        ]


class TestSparkline:
    def test_levels_and_gaps(self):
        line = sparkline([1.0, None, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[1] == "·"
        assert line[-1] == "█"
        assert len(line) == 4

    def test_constant_is_mid_height(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▄▄▄"

    def test_all_missing(self):
        assert sparkline([None, None]) == "··"


# ----------------------------------------------------------------------
# Grouping + analysis
# ----------------------------------------------------------------------
def two_variant_documents(base=None, cand=None):
    base = base or [0.100, 0.102, 0.098, 0.101, 0.099, 0.100]
    cand = cand or [v * 1.5 for v in base]
    return [
        ("base", make_document(
            "base", {"synthetic": [({"x": 1},
                                    {"latency_s": metric_summary(base)},
                                    None)]})),
        ("cand", make_document(
            "cand", {"synthetic": [({"x": 1},
                                    {"latency_s": metric_summary(cand)},
                                    None)]})),
    ]


class TestGrouping:
    def test_file_grouping_needs_two(self):
        docs = two_variant_documents()
        with pytest.raises(ReportError):
            group_by_files(docs[:1])

    def test_duplicate_names_rejected(self):
        docs = two_variant_documents()
        renamed = [("same", docs[0][1]), ("same", docs[1][1])]
        with pytest.raises(ReportError, match="duplicate"):
            group_by_files(renamed)

    def test_axis_grouping_strips_axis(self):
        points = [
            (
                {"orderer": name, "n": 4},
                {"blocks": metric_summary([value], direction="higher")},
                None,
            )
            for name, value in (("solo", 10.0), ("bft", 8.0))
        ]
        document = make_document("run", {"bakeoff": points})
        grouping = group_by_axis(document, "orderer")
        assert grouping.variants == ["bft", "solo"]
        (unit,) = grouping.units.values()
        assert unit.params == {"n": 4}
        assert unit.medians == {"solo": 10.0, "bft": 8.0}

    def test_axis_grouping_needs_two_values(self):
        document = make_document(
            "run",
            {"b": [({"orderer": "solo"},
                    {"m": metric_summary([1.0])}, None)]},
        )
        with pytest.raises(ReportError, match="variant"):
            group_by_axis(document, "orderer")

    def test_axis_missing_points_noted(self):
        document = make_document(
            "run",
            {
                "with_axis": [
                    ({"orderer": o}, {"m": metric_summary([1.0, 2.0])}, None)
                    for o in ("a", "b")
                ],
                "without_axis": [({"x": 1}, {"m": metric_summary([1.0])}, None)],
            },
        )
        grouping = group_by_axis(document, "orderer")
        assert any("without_axis" in note for note in grouping.notes)


class TestAnalysis:
    def test_clear_separation_is_significant(self):
        grouping = group_by_files(two_variant_documents())
        report = analyze(grouping)
        (unit,) = report.units
        (cell,) = unit.pairwise
        assert cell.p_value < 0.05
        # candidate is 1.5x slower: base stochastically smaller
        a, b = sorted(["base", "cand"])
        assert (cell.a, cell.b) == (a, b)
        assert cell.effect_a12 == 0.0  # every base sample < every cand
        assert cell.magnitude == "large"
        assert unit.ranks == {"base": 1.0, "cand": 2.0}
        assert unit.best() == ["base"]
        assert report.ranking.complete_units == 1
        assert report.ranking.mean_ranks == {"base": 1.0, "cand": 2.0}
        assert report.ranking.wins == {"base": 1, "cand": 0}

    def test_incomplete_units_excluded_from_ranking(self):
        docs = two_variant_documents()
        # candidate lacks the benchmark entirely
        docs[1] = (
            "cand",
            make_document(
                "cand",
                {"other": [({"x": 1}, {"latency_s": metric_summary([1.0])},
                            None)]},
            ),
        )
        report = analyze(group_by_files(docs))
        assert report.ranking.complete_units == 0
        assert report.ranking.total_units == 2
        assert report.ranking.mean_ranks == {}

    def test_json_document_shape(self):
        report = build_golden_report()
        document = report_to_json_dict(report)
        assert document["schema"] == "repro-bench-report/1"
        assert document["variants"] == ["alpha", "beta", "gamma"]
        ranking = document["ranking"]
        # alpha wins both latency units, beta the throughput unit
        assert ranking["complete_units"] == 3
        assert ranking["mean_ranks"]["alpha"] == pytest.approx(4 / 3)
        assert ranking["critical_difference"] == pytest.approx(
            2.343 * math.sqrt(3 * 4 / 18.0)
        )
        bench_names = [b["benchmark"] for b in document["benchmarks"]]
        assert bench_names == ["latency_bench", "throughput_bench"]
        unit = document["benchmarks"][0]["units"][0]
        assert unit["metric"] == "latency_s"
        assert unit["best"] == ["alpha"]
        assert len(unit["pairwise"]) == 3  # all variant pairs
        for cell in unit["pairwise"]:
            assert cell["significant"] is True
        assert document["phases"][0]["benchmark"] == "latency_bench"
        assert document["history"]["snapshots"][-1].startswith("20260103")
        json.dumps(document, allow_nan=False)  # JSON-clean

    def test_markdown_deterministic(self):
        first = render_markdown(build_golden_report())
        second = render_markdown(build_golden_report())
        assert first == second

    def test_markdown_matches_golden(self, golden):
        golden.check("bench_report")


class TestHistorySeries:
    def test_series_follow_newest_snapshot(self):
        _, snapshots = golden_scenario()
        history = history_series(snapshots)
        assert history["snapshots"] == [name for name, _ in snapshots]
        (series,) = history["series"]
        assert series["medians"] == [
            pytest.approx(0.11), pytest.approx(0.12), pytest.approx(0.13)
        ]
        assert len(series["sparkline"]) == 3

    def test_missing_snapshot_entries_are_gaps(self):
        _, snapshots = golden_scenario()
        empty = make_document(
            "nightly", {"other": [({}, {"m": metric_summary([1.0])}, None)]}
        )
        history = history_series(
            [("0.json", empty)] + list(snapshots)
        )
        (series,) = [
            s for s in history["series"] if s["benchmark"] == "latency_bench"
        ]
        assert series["medians"][0] is None
        assert series["sparkline"][0] == "·"


class TestHistoryStorage:
    def test_append_prunes_to_cap(self, tmp_path):
        result = tmp_path / "run.json"
        history_dir = tmp_path / "history"
        for i in range(5):
            document = make_document(
                "nightly",
                {"b": [({}, {"m": metric_summary([float(i)])}, None)]},
            )
            document["created_unix"] = 1700000000.0 + i * 86400
            result.write_text(json.dumps(document))
            append_history(str(result), str(history_dir), cap=3)
        snapshots = load_history(str(history_dir))
        assert len(snapshots) == 3
        # the oldest two were pruned; values 2, 3, 4 remain in order
        values = [
            doc["benchmarks"][0]["points"][0]["metrics"]["m"]["median"]
            for _, doc in snapshots
        ]
        assert values == [2.0, 3.0, 4.0]

    def test_same_second_snapshots_keep_order(self, tmp_path):
        result = tmp_path / "run.json"
        history_dir = tmp_path / "history"
        names = []
        for i in range(3):
            document = make_document(
                "nightly",
                {"b": [({}, {"m": metric_summary([float(i)])}, None)]},
            )
            result.write_text(json.dumps(document))
            names.append(
                pathlib.Path(
                    append_history(str(result), str(history_dir))
                ).name
            )
        assert sorted(names) == names
        values = [
            doc["benchmarks"][0]["points"][0]["metrics"]["m"]["median"]
            for _, doc in load_history(str(history_dir))
        ]
        assert values == [0.0, 1.0, 2.0]

    def test_load_history_limit(self, tmp_path):
        result = tmp_path / "run.json"
        history_dir = tmp_path / "history"
        for i in range(4):
            document = make_document(
                "nightly", {"b": [({}, {"m": metric_summary([float(i)])}, None)]}
            )
            document["created_unix"] = 1700000000.0 + i
            result.write_text(json.dumps(document))
            append_history(str(result), str(history_dir))
        # the cap on append is the only limit: load reads every snapshot
        values = [
            doc["benchmarks"][0]["points"][0]["metrics"]["m"]["median"]
            for _, doc in load_history(str(history_dir))
        ]
        assert values == [0.0, 1.0, 2.0, 3.0]
        assert load_history(str(tmp_path / "missing")) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def write_docs(tmp_path):
    paths = []
    for name, document in two_variant_documents():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        paths.append(str(path))
    return paths


class TestRenderHtml:
    """The restricted-markdown -> self-contained HTML conversion."""

    @staticmethod
    def render(markdown):
        from repro.bench.report import render_html

        return render_html(markdown)

    def test_headings_and_paragraphs(self):
        text = self.render("# Title\n\nSome prose\nacross lines.\n")
        assert "<h1>Title</h1>" in text
        assert "<p>Some prose across lines.</p>" in text

    def test_table_conversion(self):
        text = self.render(
            "| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n"
        )
        assert "<th>a</th><th>b</th>" in text.replace("\n", "")
        assert "<td>3</td><td>4</td>" in text.replace("\n", "")
        assert "|---" not in text

    def test_inline_spans_and_escaping(self):
        text = self.render("value `x < 1` is **best**\n")
        assert "<code>x &lt; 1</code>" in text
        assert "<strong>best</strong>" in text

    def test_notes_and_lists(self):
        text = self.render("> note: beware\n\n- first\n- second\n")
        assert "<blockquote>" in text
        assert "<li>first</li>" in text and "<li>second</li>" in text


class TestReportCLI:
    def test_report_success_and_outputs(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        paths = write_docs(tmp_path)
        out_md = tmp_path / "report.md"
        out_json = tmp_path / "report.json"
        code = main(
            ["report", *paths, "--out", str(out_md), "--json", str(out_json)]
        )
        assert code == 0
        markdown = out_md.read_text(encoding="utf-8")
        assert "# Benchmark experiment report" in markdown
        document = json.loads(out_json.read_text())
        assert document["schema"] == "repro-bench-report/1"
        capsys.readouterr()

    def test_report_missing_file_exits_2(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["report", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_bad_schema_exits_2(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"nope\"}")
        assert main(["report", str(bad), str(bad)]) == 2
        capsys.readouterr()

    def test_report_single_file_without_by_exits_2(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        paths = write_docs(tmp_path)
        assert main(["report", paths[0]]) == 2
        capsys.readouterr()

    def test_report_names_mismatch_exits_2(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        paths = write_docs(tmp_path)
        assert main(["report", *paths, "--names", "only-one"]) == 2
        capsys.readouterr()

    def test_github_summary(self, tmp_path, monkeypatch, capsys):
        from repro.bench.__main__ import main

        paths = write_docs(tmp_path)
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        code = main(
            ["report", *paths, "--out", str(tmp_path / "r.md"),
             "--github-summary"]
        )
        assert code == 0
        assert "# Benchmark ranking" in summary.read_text(encoding="utf-8")
        capsys.readouterr()

    def test_html_output(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        paths = write_docs(tmp_path)
        out_html = tmp_path / "report.html"
        code = main(
            ["report", *paths, "--out", str(tmp_path / "r.md"),
             "--html", str(out_html)]
        )
        assert code == 0
        text = out_html.read_text(encoding="utf-8")
        assert text.startswith("<!DOCTYPE html>")
        assert "<table>" in text and "</table>" in text
        assert "Benchmark experiment report" in text
        # self-contained: inline CSS, no external assets or scripts
        assert "<style>" in text
        assert "src=" not in text and "<script" not in text
        capsys.readouterr()

    def test_history_append_cli(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        paths = write_docs(tmp_path)
        history_dir = tmp_path / "history"
        assert main(["history", "append", paths[0],
                     "--dir", str(history_dir)]) == 0
        assert main(["history", "list", "--dir", str(history_dir)]) == 0
        assert main(["history", "append", str(tmp_path / "nope.json"),
                     "--dir", str(history_dir)]) == 2
        capsys.readouterr()
