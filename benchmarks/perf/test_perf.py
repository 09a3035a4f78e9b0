"""Self-test of the benchmark (``pytest benchmarks/perf``).

Not collected by tier-1, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from benchmarks.perf import calibration, layers, measure, worker, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def quick(name: str, seed: int = 0, mode: str = "full") -> dict:
    job = {"workload": name, "seed": seed, "scale": measure.QUICK_SCALE,
           "repeat": 0, "mode": mode}
    return worker.run_job(job)


# -- estimator ---------------------------------------------------------
def test_calibrated_window_follows_the_kernel_not_the_neighbours():
    ref = calibration.KERNEL_REF_S
    quiet = {"slice_host_s": [1.0, 2.0, 3.0], "slice_kernel_s": [ref, ref, ref]}
    # the whole repeat ran on a box 1.5x slower: program and kernel alike
    slow = {"slice_host_s": [1.5, 3.0, 4.5], "slice_kernel_s": [1.5 * ref] * 3}
    # the box was slow for slice 1 and the kernel timing after it only
    flip = {"slice_host_s": [1.0, 4.0, 3.0], "slice_kernel_s": [ref, 2 * ref, ref]}
    # a burst hit the program but was over before the kernel ran
    burst = {"slice_host_s": [1.0, 9.0, 3.0], "slice_kernel_s": [ref, ref, ref]}
    assert measure.calibrated_window([quiet]) == pytest.approx(6.0)
    assert measure.calibrated_window([slow]) == pytest.approx(6.0)
    assert measure.calibrated_window([flip]) == pytest.approx(6.0)
    assert measure.calibrated_window([quiet, slow, burst]) == pytest.approx(6.0)
    assert measure.calibrated_window([quiet, burst, slow], 2) == pytest.approx(3.0)
    # set-up: one host time per repeat against the kernel timings after it
    assert measure.calibrated([0.2, 0.3], [[ref, ref], [ref, 2 * ref]]) == pytest.approx(0.2)


def test_calibration_kernel_is_fixed_work_and_leaves_no_garbage():
    import gc

    assert calibration.kernel() == calibration.kernel() == 432
    gc.collect()
    gc.disable()
    try:
        assert 0 < calibration.time_kernel() < 1.0
        assert gc.collect() == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_cross_check_flags_a_nondeterministic_repeat():
    base = {"failures": [], "sim": {"sim_goodput_env_s": 1.0}, "counters": {},
            "slice_events": [3, 4], "outcome": {"offered": 7}}
    same = dict(base, repeat=1)
    assert measure.cross_check([dict(base, repeat=0), same]) == []
    drifted = dict(base, repeat=1, slice_events=[3, 5])
    assert "slice_events" in measure.cross_check([dict(base, repeat=0), drifted])[0]
    own = dict(base, repeat=0, failures=["hash chain broken"])
    assert measure.cross_check([own]) == ["repeat 0: hash chain broken"]


# -- layers ------------------------------------------------------------
@pytest.mark.parametrize("path,layer", [
    ("/x/src/repro/sim/core.py", "sim.core"),
    ("/x/src/repro/sim/randomness.py", "sim.core"),
    ("/x/src/repro/sim/network.py", "sim.network"),
    ("/x/src/repro/sim/trace.py", "sim.monitor"),
    ("/x/src/repro/smart/replica.py", "smart"),
    ("/x/src/repro/smart2/node.py", "smart2"),
    ("/x/src/repro/ordering/frontend.py", "ordering"),
    ("/x/src/repro/fabric/orderers/solo.py", "fabric"),
    ("/x/src/repro/workload/engine.py", "workload"),
    ("/x/src/repro/bench/workload.py", "workload"),
    ("/x/src/repro/bench/topology.py", "other"),
    ("/usr/lib/python3.11/random.py", "other"),
    ("/x/benchmarks/perf/adapter.py", "other"),
])
def test_path_to_layer(path, layer):
    assert layers.layer_of(path) == layer


def test_builtin_time_is_charged_to_the_calling_layer():
    core = ("/x/src/repro/sim/core.py", 10, "run")
    replica = ("/x/src/repro/smart/replica.py", 20, "deliver")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    sha = ("~", 0, "<built-in method _hashlib.openssl_sha256>")
    stats = {
        core: (1, 1, 2.0, 9.0, {}),
        replica: (5, 5, 3.0, 6.0, {core: (5, 5, 3.0, 6.0)}),
        # 1.0 s of heappop from the kernel, 0.5 s from the replica
        heappop: (30, 30, 1.5, 1.5, {core: (20, 20, 1.0, 1.0),
                                     replica: (10, 10, 0.5, 0.5)}),
        sha: (4, 4, 2.5, 2.5, {replica: (4, 4, 2.5, 2.5)}),
    }
    result = layers.attribute(stats)
    assert result["sim.core"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert result["smart"]["self_s"] == pytest.approx(3.0 + 0.5 + 2.5)
    assert result["sim.core"]["calls"] == 1 + 20
    assert result["smart"]["calls"] == 5 + 10 + 4
    assert sum(row["self_share"] for row in result.values()) == pytest.approx(1.0)
    assert set(result) == set(workloads.LAYERS)


def test_profiled_shares_sum_to_one_and_fabric_leads_its_workload():
    result = quick("fabric_solo_mvcc", mode="profile")
    shares = {layer: row["self_share"] for layer, row in result["layers"].items()}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    # fabric is the largest protocol layer; the canonical hashing it calls
    # is charged, by path, to crypto (README, "What the first run showed")
    protocol = ("smart", "smart2", "ordering", "fabric", "workload")
    assert max(protocol, key=shares.get) == "fabric"
    assert shares["fabric"] + shares["crypto"] > 0.7
    assert shares["smart"] == shares["smart2"] == 0.0
    assert len(result["slice_host_s"]) == workloads.TRACED_SLICES


# -- workloads ---------------------------------------------------------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_builds_commits_and_verifies_at_quick_size(name):
    result = quick(name)
    assert result["failures"] == []
    assert result["counters"]["ordering.blocks_delivered"] >= 1
    assert len(result["slice_host_s"]) == workloads.SLICES
    assert set(result["sim"]) == {n for n, *_ in workloads.END_TO_END if n.startswith("sim_")}
    assert all(value > 0 for value in result["sim"].values())
    expected = {n for n, _, _ in workloads.COUNTERS} - {"sim.core.host_us_per_event"}
    assert set(result["counters"]) == expected
    outcome = result["outcome"]
    assert outcome["offered"] == outcome["committed"] + outcome["refused"]
    by_design = name in ("overload_4x_flood", "fabric_solo_mvcc")
    assert (outcome["refused"] > 0) == by_design
    crashed = name == "leader_crash_wal"
    assert (result["counters"]["smart.regency_changes"] >= 1) == crashed
    assert (result["counters"]["smart.rejoin_sim_s"] > 0) == crashed


@pytest.mark.parametrize("name", ["geo_wheat", "overload_4x_flood"])
def test_seed_changes_the_inputs_but_not_the_metric_set(name):
    zero, one = quick(name, seed=0), quick(name, seed=1)
    assert zero["outcome"]["offered"] != one["outcome"]["offered"] or (
        zero["sim"] != one["sim"]
    )
    assert zero["slice_events"] != one["slice_events"]
    assert set(zero["sim"]) == set(one["sim"])
    assert set(zero["counters"]) == set(one["counters"])
    assert one["failures"] == []


# -- the contract document ---------------------------------------------
def test_benchmark_json_is_the_table_in_workloads_py():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == workloads.benchmark_json()


def test_benchmark_json_is_inside_the_contract_limits():
    doc = workloads.benchmark_json()
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    # 4 + 22 runs per workload, all inside the driver's 3420 s
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 3) < 3420
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(name_ok.match(name) for name in names)
    assert all(unit_ok.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(m["better"] in ("lower", "higher") for m in doc["end_to_end"] + doc["per_layer"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
