"""Scenarios are data: one row type, one stand-up, one load loop.

The fault explorer, the sanitizers, the ``obs`` report and the
conformance battery describe every run as a
:class:`repro.ordering.backends.ScenarioRow` and stand it up through
:func:`repro.ordering.backends.stand_up`.  These tests hold that shape:
no harness builds a deployment of its own, no module hand-rolls its own
evenly spaced submit loop, and a new row is one table entry.
"""

import ast
import pathlib

import pytest

from repro.analysis.sanitizer import DEFAULT_SCENARIOS, SCENARIOS, run_racesan
from repro.ordering.backends import BACKENDS, ScenarioRow, stand_up

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


def test_harnesses_build_deployments_only_through_the_shared_stand_up():
    calls, _ = census(HARNESS_FILES)
    assert calls == ["backends.py::_stand_up_bft"]


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
