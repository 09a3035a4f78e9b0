"""The arithmetic of tools/perf_pairs.py, on canned run results."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "tools_perf_pairs", REPO_ROOT / "tools" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(_spec)
sys.modules["tools_perf_pairs"] = perf_pairs
_spec.loader.exec_module(perf_pairs)


def result(host, goodput=1000.0, rss=35.0, correct=True, failed=0):
    """One run.py --trace 0 result line, reduced to three metrics."""
    return {
        "correct": correct,
        "attempted": 5000,
        "failed": failed,
        "metrics": {
            "host_cpu_s_per_sim_s": {"value": host, "unit": "s/sim_s"},
            "host_peak_rss_mb": {"value": rss, "unit": "MiB"},
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


def test_a_moved_sim_metric_an_incorrect_run_or_new_failures_void_the_claim():
    moved = pairs_of(PARENT, CHILD)
    moved[3]["child"]["metrics"]["sim_goodput_env_s"]["value"] = 999.0
    summary = perf_pairs.summarize(moved, "host_cpu_s_per_sim_s", "lower")
    assert summary["sim_mismatches"] == ["seed 3: sim_goodput_env_s"]
    assert not perf_pairs.claim_holds(summary)
    assert "seed 3: sim_goodput_env_s" in perf_pairs.render(summary, [])

    incorrect = perf_pairs.summarize(
        pairs_of(PARENT, CHILD, correct=False), "host_cpu_s_per_sim_s", "lower"
    )
    assert not incorrect["correct"] and not perf_pairs.claim_holds(incorrect)

    failing = perf_pairs.summarize(
        pairs_of(PARENT, CHILD, failed=1), "host_cpu_s_per_sim_s", "lower"
    )
    assert failing["failed"] == {"parent": 0, "child": 10}
    assert not failing["no_more_failures"] and not perf_pairs.claim_holds(failing)


def test_quartiles_of_one_run_and_the_table_rows():
    assert perf_pairs.quartiles([0.5]) == [0.5, 0.5, 0.5]
    pairs = pairs_of(PARENT, CHILD, rss=35.7)
    claimed = perf_pairs.summarize(pairs, "host_cpu_s_per_sim_s", "lower")
    rss = perf_pairs.summarize(pairs, "host_peak_rss_mb", "lower")
    assert rss["wins"] == 0 and abs(rss["change"] - 0.02) < 1e-12
    table = perf_pairs.render(claimed, [rss])
    assert "| `host_peak_rss_mb` | 35 [35, 35] | 35.7 [35.7, 35.7] | +2.0% | 0 / 0 / 10 |" in table
