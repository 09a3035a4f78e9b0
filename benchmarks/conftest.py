"""Shared helpers for the benchmark suite.

Each bench module runs one (or more) *registered* benchmarks from
:mod:`repro.bench.suite` through the harness, asserts the shape
properties the paper reports on the structured result, and records the
result twice via the shared reporter:

- ``benchmarks/results/BENCH_<name>.json`` -- the machine-readable
  result document (schema ``repro-bench-result/1``), comparable with
  ``python -m repro.bench compare``;
- ``benchmarks/results/<name>.txt`` -- the generic rendered table,
  so EXPERIMENTS.md can be checked against fresh numbers at any time.

Results are cached per session so several tests can assert on the same
(expensive) benchmark without re-running it.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

import pytest

from repro.bench import suite  # noqa: F401 - populates the registry
from repro.bench.harness import (
    REGISTRY,
    BenchmarkResult,
    SuiteResult,
    render_result,
    run_benchmark,
    write_result,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def _bench_cache():
    cache: Dict[Tuple[str, str], BenchmarkResult] = {}
    return cache


@pytest.fixture
def bench_result(results_dir, _bench_cache):
    """Run a registered benchmark (cached) and record JSON + text."""

    def _run(name: str, mode: str = "full") -> BenchmarkResult:
        key = (name, mode)
        if key not in _bench_cache:
            result = run_benchmark(REGISTRY.get(name), mode=mode)
            _bench_cache[key] = result
            document = SuiteResult(
                run_name=name,
                mode=mode,
                created_unix=0.0,
                environment={},
                benchmarks=[result],
            )
            json_path = os.path.join(results_dir, f"BENCH_{name}.json")
            write_result(document, json_path)
            text = render_result(result)
            text_path = os.path.join(results_dir, f"{name}.txt")
            with open(text_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"\n{text}\n[written to {text_path} and {json_path}]")
        return _bench_cache[key]

    return _run

