"""The arithmetic of tools/perf_pairs.py, on canned run results."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "tools_perf_pairs", REPO_ROOT / "tools" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(_spec)
sys.modules["tools_perf_pairs"] = perf_pairs
_spec.loader.exec_module(perf_pairs)


def result(host, goodput=1000.0, rss=35.0, correct=True, failed=0):
    """One run.py --trace 0 result line, reduced to four metrics."""
    return {
        "correct": correct,
        "attempted": 5000,
        "failed": failed,
        "metrics": {
            "host_cpu_s_per_sim_s": {"value": host, "unit": "s/sim_s"},
            "host_peak_rss_mb": {"value": rss, "unit": "MiB"},
            "setup_s": {"value": 0.2, "unit": "s"},
            "sim_goodput_env_s": {"value": goodput, "unit": "env/sim_s"},
        },
    }


def pairs_of(parent, child, **child_fields):
    return [
        {"seed": seed, "parent": result(p), "child": result(c, **child_fields)}
        for seed, (p, c) in enumerate(zip(parent, child))
    ]


PARENT = [0.240, 0.244, 0.246, 0.245, 0.247, 0.243, 0.250, 0.245, 0.246, 0.244]
CHILD = [0.190, 0.188, 0.191, 0.189, 0.192, 0.187, 0.190, 0.189, 0.193, 0.188]


def test_a_clear_gain_passes_every_clause():
    summary = perf_pairs.summarize(pairs_of(PARENT, CHILD), "host_cpu_s_per_sim_s", "lower")
    assert (summary["wins"], summary["ties"], summary["losses"]) == (10, 0, 0)
    assert summary["parent"] == {"q1": 0.244, "median": 0.245, "q3": 0.246}
    assert abs(summary["parent_iqr"] - 0.002) < 1e-12
    assert abs(summary["child"]["median"] - 0.1895) < 1e-12
    assert abs(summary["change"] - (0.1895 - 0.245) / 0.245) < 1e-12
    assert summary["medians_apart_by_more_than_parent_iqr"]
    assert summary["sim_identical"] and summary["correct"]
    assert perf_pairs.claim_holds(summary)
    assert "claim holds (>= 10 pairs and all of the above): True" in perf_pairs.render(
        summary, []
    )


def test_nine_of_ten_is_enough_eight_is_not_and_ties_count_for_neither():
    child = list(CHILD)
    child[0] = 0.300  # one loss
    nine = perf_pairs.summarize(pairs_of(PARENT, child), "host_cpu_s_per_sim_s", "lower")
    assert (nine["wins"], nine["losses"]) == (9, 1) and perf_pairs.claim_holds(nine)
    child[1] = PARENT[1]  # and one tie: 8 wins of 10 pairs run
    eight = perf_pairs.summarize(pairs_of(PARENT, child), "host_cpu_s_per_sim_s", "lower")
    assert (eight["wins"], eight["ties"], eight["losses"]) == (8, 1, 1)
    assert not eight["wins_nine_tenths"] and not perf_pairs.claim_holds(eight)


def test_a_gain_inside_the_parents_own_spread_is_not_a_gain():
    parent = [0.20, 0.30, 0.22, 0.28, 0.21, 0.29, 0.23, 0.27, 0.24, 0.26]
    child = [p - 0.005 for p in parent]  # wins every pair, by far less than the IQR
    summary = perf_pairs.summarize(pairs_of(parent, child), "host_cpu_s_per_sim_s", "lower")
    assert summary["wins"] == 10
    assert not summary["medians_apart_by_more_than_parent_iqr"]
    assert not perf_pairs.claim_holds(summary)


def test_fewer_than_ten_pairs_never_hold_a_claim():
    summary = perf_pairs.summarize(
        pairs_of(PARENT[:9], CHILD[:9]), "host_cpu_s_per_sim_s", "lower"
    )
    assert summary["wins"] == 9 and not perf_pairs.claim_holds(summary)


def test_direction_follows_the_metric():
    pairs = pairs_of(PARENT, CHILD)
    as_higher = perf_pairs.summarize(pairs, "host_cpu_s_per_sim_s", "higher")
    assert as_higher["wins"] == 0 and not perf_pairs.claim_holds(as_higher)


DIRECTIONS = {"host_cpu_s_per_sim_s": "lower", "sim_goodput_env_s": "higher",
              "sim_events_per_env": "lower"}


def test_a_moved_sim_metric_an_incorrect_run_or_new_failures_void_the_claim():
    """Moved *for the worse*, that is (the next test is the other case)."""
    moved = pairs_of(PARENT, CHILD)
    moved[3]["child"]["metrics"]["sim_goodput_env_s"]["value"] = 999.0
    summary = perf_pairs.summarize(moved, "host_cpu_s_per_sim_s", "lower", DIRECTIONS)
    assert summary["sim_moves"] == [
        {"seed": 3, "metric": "sim_goodput_env_s", "parent": 1000.0, "child": 999.0,
         "worse": True}
    ]
    assert not summary["sim_identical"] and not summary["sim_never_worse"]
    assert not perf_pairs.claim_holds(summary)
    assert "seed 3: `sim_goodput_env_s` 1000 -> 999 (worse)" in perf_pairs.render(summary, [])

    incorrect = perf_pairs.summarize(
        pairs_of(PARENT, CHILD, correct=False), "host_cpu_s_per_sim_s", "lower"
    )
    assert not incorrect["correct"] and not perf_pairs.claim_holds(incorrect)

    failing = perf_pairs.summarize(
        pairs_of(PARENT, CHILD, failed=1), "host_cpu_s_per_sim_s", "lower"
    )
    assert failing["failed"] == {"parent": 0, "child": 10}
    assert not failing["no_more_failures"] and not perf_pairs.claim_holds(failing)


def test_a_sim_metric_that_moved_never_for_the_worse_is_listed_and_keeps_the_claim():
    """A change that declares fewer events per envelope: every pair
    differs, each is listed with both values, none voids the claim --
    and the summary still does not call the runs identical."""
    moved = pairs_of(PARENT, CHILD)
    for pair in moved:
        pair["parent"]["metrics"]["sim_events_per_env"] = {"value": 17.4458}
        pair["child"]["metrics"]["sim_events_per_env"] = {"value": 15.4458}
    summary = perf_pairs.summarize(moved, "host_cpu_s_per_sim_s", "lower", DIRECTIONS)
    assert [(m["seed"], m["metric"], m["worse"]) for m in summary["sim_moves"]] == [
        (seed, "sim_events_per_env", False) for seed in range(10)
    ]
    assert not summary["sim_identical"] and summary["sim_never_worse"]
    assert perf_pairs.claim_holds(summary)
    text = perf_pairs.render(summary, [])
    assert "every sim_* identical within each pair: False; none worse in any pair: True" in text
    assert "seed 9: `sim_events_per_env` 17.4458 -> 15.4458 (not worse)" in text
    # one pair where it *rose* is enough to void it
    moved[4]["child"]["metrics"]["sim_events_per_env"]["value"] = 17.5
    worse = perf_pairs.summarize(moved, "host_cpu_s_per_sim_s", "lower", DIRECTIONS)
    assert [m["seed"] for m in worse["sim_moves"] if m["worse"]] == [4]
    assert not perf_pairs.claim_holds(worse)
    # a moved metric the contract gives no direction for cannot pass as "not worse"
    unknown = perf_pairs.summarize(moved, "host_cpu_s_per_sim_s", "lower")
    assert all(m["worse"] for m in unknown["sim_moves"])


def test_quartiles_of_one_run_and_the_table_rows():
    assert perf_pairs.quartiles([0.5]) == [0.5, 0.5, 0.5]
    pairs = pairs_of(PARENT, CHILD, rss=35.7)
    claimed = perf_pairs.summarize(pairs, "host_cpu_s_per_sim_s", "lower")
    rss = perf_pairs.summarize(pairs, "host_peak_rss_mb", "lower")
    assert rss["wins"] == 0 and abs(rss["change"] - 0.02) < 1e-12
    table = perf_pairs.render(claimed, [rss])
    assert "| `host_peak_rss_mb` | 35 [35, 35] | 35.7 [35.7, 35.7] | +2.0% | 0 / 0 / 10 |" in table


# ----------------------------------------------------------------------
# one verdict row per workload: claimed rows and no-change controls
# ----------------------------------------------------------------------
END_TO_END = [
    {"name": "host_cpu_s_per_sim_s", "better": "lower", "bound": 0.25},
    {"name": "host_peak_rss_mb", "better": "lower", "bound": 0.05},
    {"name": "sim_goodput_env_s", "better": "higher", "bound": 0.07},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]
QUIET = [0.100, 0.101, 0.099]


def test_a_claimed_row_is_the_nine_of_ten_rule():
    held = perf_pairs.verdict_row("a", True, pairs_of(PARENT, CHILD), END_TO_END)
    assert (held["role"], held["verdict"]) == ("claimed", "claim holds")
    short = perf_pairs.verdict_row("a", True, pairs_of(PARENT[:3], CHILD[:3]), END_TO_END)
    assert short["verdict"] == "claim not met"  # three pairs never hold a claim


def test_a_control_row_within_every_bound():
    row = perf_pairs.verdict_row("b", False, pairs_of(QUIET, [0.102, 0.100, 0.101]), END_TO_END)
    assert (row["role"], row["verdict"]) == ("control", "within bound")
    # sim_* equal within every pair is not judged at all
    assert row["metrics"] == {
        "host_cpu_s_per_sim_s": "within bound", "host_peak_rss_mb": "within bound",
        "setup_s": "within bound",
    }
    # a control that got *faster* is within bound too, however far
    faster = perf_pairs.verdict_row("b", False, pairs_of(QUIET, [0.05, 0.05, 0.05]), END_TO_END)
    assert faster["verdict"] == "within bound"


def test_a_control_row_worse_by_more_than_its_bound_names_the_metric():
    slow = perf_pairs.verdict_row("b", False, pairs_of(QUIET, [0.130, 0.131, 0.129]), END_TO_END)
    assert slow["verdict"] == "worse: `host_cpu_s_per_sim_s`"  # +30 % against 25 %
    edge = perf_pairs.verdict_row("b", False, pairs_of(QUIET, [0.124, 0.125, 0.123]), END_TO_END)
    assert edge["verdict"] == "within bound"  # +24 %
    fat = perf_pairs.verdict_row(
        "b", False, pairs_of(QUIET, QUIET, rss=35.0 * 1.06), END_TO_END
    )
    assert fat["verdict"] == "worse: `host_peak_rss_mb`"  # +6 % against 5 %
    assert fat["metrics"]["host_cpu_s_per_sim_s"] == "within bound"


def test_a_control_row_noisier_than_its_bound_is_unresolved_not_unchanged():
    noisy_parent = [0.10, 0.20, 0.12, 0.18, 0.11]
    noisy_child = [0.11, 0.19, 0.13, 0.17, 0.10]
    row = perf_pairs.verdict_row(
        "b", False, pairs_of(noisy_parent, noisy_child), END_TO_END
    )
    assert row["verdict"] == "unresolved: `host_cpu_s_per_sim_s`"
    # ... unless every child run reads better than every parent run
    clear = perf_pairs.verdict_row(
        "b", False, pairs_of(noisy_parent, [0.05, 0.09, 0.06, 0.08, 0.07]), END_TO_END
    )
    assert clear["verdict"] == "within bound"


def test_a_control_row_judges_a_moved_sim_metric_and_new_failures():
    moved = pairs_of(QUIET, QUIET)
    for pair in moved:
        pair["child"]["metrics"]["sim_goodput_env_s"]["value"] = 900.0  # -10 % vs 7 %
    row = perf_pairs.verdict_row("b", False, moved, END_TO_END)
    assert row["verdict"] == "worse: `sim_goodput_env_s`"
    assert not row["summary"]["sim_identical"]
    nudged = pairs_of(QUIET, QUIET)
    nudged[1]["child"]["metrics"]["sim_goodput_env_s"]["value"] = 999.0
    assert perf_pairs.verdict_row("b", False, nudged, END_TO_END)["verdict"] == "within bound"
    failing = perf_pairs.verdict_row("b", False, pairs_of(QUIET, QUIET, failed=2), END_TO_END)
    assert failing["verdict"] == "worse: `failed`"


def test_the_verdict_table_has_one_row_per_workload():
    rows = [
        perf_pairs.verdict_row("smartbft_n10_sat", True, pairs_of(PARENT, CHILD), END_TO_END),
        perf_pairs.verdict_row("lan_n10_sat", False, pairs_of(QUIET, QUIET), END_TO_END),
        perf_pairs.verdict_row(
            "geo_wheat", False, pairs_of(QUIET, [0.130, 0.131, 0.129]), END_TO_END
        ),
    ]
    table = perf_pairs.render_verdicts(rows).splitlines()
    assert len(table) == 2 + 3
    assert table[2] == (
        "| `smartbft_n10_sat` | claimed | 10 | 0.245 -> 0.1895 | -22.7% | 10 / 0 / 0 "
        "| True | True | claim holds |"
    )
    assert table[3] == (
        "| `lan_n10_sat` | control | 3 | 0.1 -> 0.1 | +0.0% | 0 / 3 / 0 | True | True "
        "| within bound |"
    )
    assert table[4].endswith("| True | True | worse: `host_cpu_s_per_sim_s` |")
    # moved-never-worse and identical are two columns, not one
    moved = pairs_of(PARENT, CHILD)
    for pair in moved:
        pair["child"]["metrics"]["sim_goodput_env_s"]["value"] = 1001.0
    claimed = perf_pairs.verdict_row("lan_n10_sat", True, moved, END_TO_END)
    assert perf_pairs.render_verdicts([claimed]).splitlines()[2].endswith(
        "| False | True | claim holds |"
    )


def test_the_command_line_plans_claimed_rows_then_controls(monkeypatch, capsys):
    ran = []

    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

    def canned_pairs(parent_root, workload, pairs, first_seed, seconds, metric):
        ran.append((workload, pairs, first_seed, seconds))
        assert metric == "host_cpu_s_per_sim_s"
        canned = pairs_of(PARENT[:pairs], CHILD[:pairs] if workload == "smartbft_n10_sat"
                          else PARENT[:pairs])
        for pair in canned:  # a real run reports every metric of the contract
            for side in ("parent", "child"):
                for entry in contract["end_to_end"]:
                    pair[side]["metrics"].setdefault(entry["name"], {"value": 1.0})
        return canned

    monkeypatch.setattr(perf_pairs, "export_parent", lambda rev: REPO_ROOT / "no-such-export")
    monkeypatch.setattr(perf_pairs, "run_pairs", canned_pairs)
    assert perf_pairs.main(
        ["--parent", "HEAD", "--workload", "smartbft_n10_sat", "--controls", "2"]
    ) == 0
    assert ran[0] == ("smartbft_n10_sat", 10, 0, 15)
    assert [(name, pairs) for name, pairs, _s, _t in ran[1:]] == [
        (name, 2)
        for name in ("lan_n10_sat", "lan_n4_fanout16_sat", "geo_wheat", "overload_4x_flood",
                     "leader_crash_wal", "fabric_solo_mvcc")
    ]
    out = capsys.readouterr().out
    assert "## smartbft_n10_sat: parent HEAD vs working tree" in out
    verdicts = out[out.index("## verdicts"):].splitlines()
    assert len(verdicts) == 1 + 2 + 7
    assert verdicts[3].startswith("| `smartbft_n10_sat` | claimed | 10 |")
    assert verdicts[3].endswith("| claim holds |")
    assert all(line.endswith("| True | True | within bound |") for line in verdicts[4:])
    # two claimed workloads and no controls: two rows
    ran.clear()
    perf_pairs.main(["--parent", "HEAD", "--workload", "geo_wheat", "--workload",
                     "lan_n10_sat", "--pairs", "3"])
    assert [(name, pairs) for name, pairs, _s, _t in ran] == [("geo_wheat", 3), ("lan_n10_sat", 3)]


# ----------------------------------------------------------------------
# --metric: a claim on any end-to-end metric
# ----------------------------------------------------------------------
GOODPUT_PARENT = [2408.0 + 0.5 * seed for seed in range(10)]
GOODPUT_CHILD = [3000.0] * 10


def goodput_pairs(parent, child, host_parent=PARENT, host_child=PARENT):
    pairs = pairs_of(host_parent, host_child)
    for pair, p, c in zip(pairs, parent, child):
        pair["parent"]["metrics"]["sim_goodput_env_s"]["value"] = p
        pair["child"]["metrics"]["sim_goodput_env_s"]["value"] = c
    return pairs


def test_a_sim_claim_must_win_every_pair():
    """A ``sim_*`` metric is exact per seed: nine wins of ten hold a
    host-time claim but not a claim on it."""
    held = perf_pairs.verdict_row(
        "a", True, goodput_pairs(GOODPUT_PARENT, GOODPUT_CHILD), END_TO_END,
        "sim_goodput_env_s",
    )
    assert held["verdict"] == "claim holds"
    assert held["summary"]["metric"] == "sim_goodput_env_s"
    child = list(GOODPUT_CHILD)
    child[4] = GOODPUT_PARENT[4] - 1.0  # one loss
    nine = perf_pairs.verdict_row(
        "a", True, goodput_pairs(GOODPUT_PARENT, child), END_TO_END, "sim_goodput_env_s"
    )
    assert nine["summary"]["wins"] == 9 and nine["summary"]["wins_nine_tenths"]
    assert nine["verdict"].startswith("claim not met")
    assert "every pair (an exact sim_* metric): False" in perf_pairs.render(nine["summary"], [])
    # the same nine of ten on host time still holds
    host = list(CHILD)
    host[4] = 0.300
    assert perf_pairs.claim_holds(
        perf_pairs.summarize(pairs_of(PARENT, host), "host_cpu_s_per_sim_s", "lower")
    )


def test_a_claimed_row_judges_its_other_metrics_against_their_bounds():
    """A goodput claim that costs host time: within the bound it is
    named nowhere, past it the verdict says so beside the claim."""
    within = perf_pairs.verdict_row(
        "a", True,
        goodput_pairs(GOODPUT_PARENT, GOODPUT_CHILD, QUIET * 3 + [0.1],
                      [0.121, 0.122, 0.120] * 3 + [0.121]),
        END_TO_END, "sim_goodput_env_s",
    )
    assert within["verdict"] == "claim holds"  # +21 % against 25 %
    assert within["metrics"] == {
        "host_cpu_s_per_sim_s": "within bound", "host_peak_rss_mb": "within bound",
        "setup_s": "within bound",
    }
    costly = perf_pairs.verdict_row(
        "a", True,
        goodput_pairs(GOODPUT_PARENT, GOODPUT_CHILD, QUIET * 3 + [0.1], [0.130] * 10),
        END_TO_END, "sim_goodput_env_s",
    )
    assert costly["verdict"] == "claim holds; worse: `host_cpu_s_per_sim_s`"
    # and a host-time claim whose goodput fell past its bound says that
    fell = pairs_of(PARENT, CHILD)
    for pair in fell:
        pair["child"]["metrics"]["sim_goodput_env_s"]["value"] = 900.0
    row = perf_pairs.verdict_row("a", True, fell, END_TO_END)
    assert row["verdict"] == "claim not met; worse: `sim_goodput_env_s`"


def test_the_command_line_passes_the_metric_and_heads_the_table_with_it(
    monkeypatch, capsys
):
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    asked = []

    def canned_pairs(parent_root, workload, pairs, first_seed, seconds, metric):
        asked.append(metric)
        canned = goodput_pairs(GOODPUT_PARENT, GOODPUT_CHILD)
        for pair in canned:
            for side in ("parent", "child"):
                for entry in contract["end_to_end"]:
                    pair[side]["metrics"].setdefault(entry["name"], {"value": 1.0})
        return canned

    monkeypatch.setattr(perf_pairs, "export_parent", lambda rev: REPO_ROOT / "no-such-export")
    monkeypatch.setattr(perf_pairs, "run_pairs", canned_pairs)
    perf_pairs.main(["--parent", "HEAD", "--workload", "smartbft_n10_sat",
                     "--metric", "sim_goodput_env_s"])
    assert asked == ["sim_goodput_env_s"]
    out = capsys.readouterr().out
    assert "`sim_goodput_env_s` over 10 pairs (better: higher):" in out
    verdicts = out[out.index("## verdicts"):].splitlines()
    assert "`sim_goodput_env_s` parent -> child" in verdicts[1]
    assert verdicts[3].endswith("| claim holds |")


# ----------------------------------------------------------------------
# no claim: every workload a control row
# ----------------------------------------------------------------------
def test_with_no_workload_the_controls_are_every_workload_and_nothing_is_claimed(
    monkeypatch, capsys
):
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    ran = []

    def canned_pairs(parent_root, workload, pairs, first_seed, seconds, metric):
        ran.append((workload, pairs))
        canned = pairs_of(QUIET[:pairs], QUIET[:pairs])
        for pair in canned:
            for side in ("parent", "child"):
                for entry in contract["end_to_end"]:
                    pair[side]["metrics"].setdefault(entry["name"], {"value": 1.0})
        return canned

    monkeypatch.setattr(perf_pairs, "export_parent", lambda rev: REPO_ROOT / "no-such-export")
    monkeypatch.setattr(perf_pairs, "run_pairs", canned_pairs)
    assert perf_pairs.main(["--parent", "HEAD", "--controls", "3"]) == 0
    assert ran == [(entry["name"], 3) for entry in contract["workloads"]]
    out = capsys.readouterr().out
    assert out.startswith("## verdicts")  # no claimed row, so no claim section
    rows = out.splitlines()[3:]
    assert len(rows) == len(contract["workloads"])
    assert all("| control | 3 |" in row and row.endswith("| within bound |") for row in rows)


def test_neither_a_workload_nor_controls_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(perf_pairs, "export_parent", lambda rev: REPO_ROOT / "no-such-export")
    for argv in (["--parent", "HEAD"], ["--parent", "HEAD", "--controls", "0"]):
        with pytest.raises(SystemExit) as exit_:
            perf_pairs.main(argv)
        assert exit_.value.code == 2
    assert "--controls N with no claim" in capsys.readouterr().err


def test_the_makefile_runs_controls_without_a_workload():
    """``make perf-pairs PARENT=<rev> CONTROLS=3``: an empty WORKLOAD
    expands to no ``--workload`` at all."""
    command = subprocess.run(
        ["make", "-n", "perf-pairs", "PARENT=HEAD", "CONTROLS=3"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
    ).stdout
    assert "--controls 3" in command and "--workload" not in command
