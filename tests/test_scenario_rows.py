"""Scenarios are data: one row type, one stand-up, one load loop.

The fault explorer, the sanitizers, the ``obs`` report, the benchmark
suite and the conformance battery describe every run as a
:class:`repro.ordering.backends.ScenarioRow` and stand it up through
:func:`repro.ordering.backends.stand_up`.  These tests hold that shape:
no harness builds a deployment of its own, no module hand-rolls its own
evenly spaced submit loop, and a new row is one table entry.
"""

import ast
import pathlib
from dataclasses import replace

import pytest

from repro.analysis.sanitizer import (
    DEFAULT_DURATION,
    DEFAULT_SCENARIOS,
    RACESAN_RATE,
    SCENARIOS,
    run_racesan,
)
from repro.obs.report import run_scenario
from repro.ordering.backends import (
    BACKENDS,
    OpenLoop,
    ScenarioRow,
    SpacedLoad,
    run_backend_workload,
    stand_up,
)
from repro.sim.network import ConstantLatency
from tests.conftest import smartbft_ledger

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: the harness modules that stand deployments up only through stand_up
HARNESS_FILES = (
    *sorted((SRC / "analysis").glob("*.py")),
    *sorted((SRC / "faults").glob("*.py")),
    SRC / "obs" / "report.py",
    SRC / "ordering" / "backends.py",
)

_SCHEDULERS = {"schedule", "schedule_at", "post", "post_at"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Census(ast.NodeVisitor):
    """Calls of ``target`` by enclosing function, and ``for ... in
    range(...)`` loops that schedule a ``*submit*`` callable on the
    simulator (an evenly spaced submit loop)."""

    def __init__(self, path, target):
        self.path = path
        self.target = target
        self.scope = ["<module>"]
        self.calls = []
        self.submit_loops = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if _name(node.func) == self.target:
            self.calls.append(f"{self.path.name}::{self.scope[-1]}")
        self.generic_visit(node)

    def visit_For(self, node):
        if isinstance(node.iter, ast.Call) and _name(node.iter.func) == "range":
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and _name(inner.func) in _SCHEDULERS
                    and len(inner.args) >= 2
                    and "submit" in (_name(inner.args[1]) or "")
                ):
                    relative = self.path.relative_to(SRC)
                    self.submit_loops.append(f"{relative}::{self.scope[-1]}")
                    break
        self.generic_visit(node)


def census(paths, target="build_ordering_service"):
    calls, loops = [], []
    for path in paths:
        visitor = _Census(path, target)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        calls += visitor.calls
        loops += visitor.submit_loops
    return calls, loops


@pytest.mark.parametrize(
    "paths, expected",
    [
        (HARNESS_FILES, ["backends.py::_stand_up_bft"]),
        # every paper-figure experiment is a row: bench builds nothing by hand
        (sorted((SRC / "bench").glob("*.py")), []),
    ],
    ids=["harnesses", "bench"],
)
def test_harnesses_build_deployments_only_through_the_shared_stand_up(paths, expected):
    calls, _ = census(paths)
    assert calls == expected


def test_one_evenly_spaced_submit_loop_in_the_source_tree():
    _, loops = census(sorted(SRC.rglob("*.py")))
    assert loops == ["ordering/backends.py::start_on"]


def test_unknown_backend_is_refused():
    with pytest.raises(ValueError, match="unknown backend"):
        stand_up(ScenarioRow(backend="raft"))
    assert BACKENDS == ("solo", "kafka", "bftsmart", "smartbft")


def test_constant_latency_row_is_one_entry_and_race_free():
    """Item 9's missing row: the smoke deployment on a constant-latency
    network, opted out of the defaults the telemetry golden pins."""
    assert "smoke_constant_latency" in SCENARIOS
    assert "smoke_constant_latency" not in DEFAULT_SCENARIOS
    assert run_racesan(["smoke_constant_latency"], permutations=4) == 0


def test_leader_crash_at_n10_is_one_entry_and_recovers():
    """Failover at scale: the leader_crash row at f=3 with 4 KB
    envelopes delivers everything after a single regency change."""
    assert "leader_crash_n10" not in DEFAULT_SCENARIOS
    result = run_scenario(SCENARIOS["leader_crash_n10"])
    service = result.service
    assert service.total_delivered() == result.submitted == 1000
    assert [r.counters.regency_changes for r in service.replicas[1:]] == [1] * 9


def test_smartbft_timeout_cut_row_decides_blocks_by_timeout():
    """A default row reaches the SmartBFT leader's batch timer: at the
    capture defaults every decided block is partial and far below the
    byte limit, so the timer cut each one."""
    assert "smartbft_timeout_cut" in DEFAULT_SCENARIOS
    row = SCENARIOS["smartbft_timeout_cut"]
    load = OpenLoop(RACESAN_RATE, DEFAULT_DURATION, row.load.envelope_size)
    result = run_scenario(replace(row, load=load))
    for node in result.service.nodes:
        sizes = [len(block.envelopes) for _seq, block, _batch in smartbft_ledger(node)]
        assert sizes and max(sizes) < row.block_size
        assert max(sizes) * row.load.envelope_size < row.preferred_max_bytes
    assert result.service.total_delivered() == result.submitted


def test_cft_rows_honour_their_latency():
    """A solo row on a 0.5 ms LAN commits each envelope 0.4 ms later
    than on the default 0.1 ms one: the orderer-to-peer hop."""
    load = SpacedLoad(8)
    fast = run_backend_workload("solo", ScenarioRow(load=load))
    slow = run_backend_workload(
        "solo", ScenarioRow(latency=ConstantLatency(0.0005), load=load)
    )
    assert len(slow.commit_latencies) == len(fast.commit_latencies) == 8
    for slower, faster in zip(slow.commit_latencies, fast.commit_latencies):
        assert slower - faster == pytest.approx(0.0004)


def _submit_times(seed: int, jitter_fraction: float):
    """Every frontend submit time of a jittered open loop at ``seed``."""
    times = []

    def record_submits(up):
        for frontend in up.service.frontends:
            def submit(envelope, _submit=frontend.submit):
                times.append(up.sim.now)
                return _submit(envelope)

            frontend.submit = submit

    row = ScenarioRow(
        seed=seed, load=OpenLoop(200.0, 0.5, jitter_fraction=jitter_fraction)
    )
    stand_up(row, arm=record_submits).sim.run(until=0.6)
    return times


def test_an_open_loop_draws_its_jitter_from_the_row_seed():
    """Repeats of a jittered row differ in their arrivals, and one seed
    reproduces them exactly."""
    seed0 = _submit_times(0, 0.2)
    assert len(seed0) > 50
    assert _submit_times(0, 0.2) == seed0
    assert _submit_times(1, 0.2) != seed0
    # without jitter nothing is drawn, so the seed moves no arrival
    assert _submit_times(0, 0.0) == _submit_times(1, 0.0)
