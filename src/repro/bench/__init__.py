"""Benchmark harness: one entry point per table/figure of the paper.

Everything here runs in simulated time and is bit-deterministic for a
seed; how fast the simulator itself runs on the host is measured by
``benchmarks/perf`` and nowhere else.

- :mod:`repro.bench.model` -- the analytic capacity model (Equation 1
  generalized to every resource bound) with the calibration constants
  for the paper's Dell R410 / Gigabit testbed;
- :mod:`repro.bench.topology` -- LAN and AWS WAN latency models;
- :mod:`repro.bench.figures` -- the experiments, one operating point
  per call: Figure 6 signing, the Figure 7 DES cross-check, a Figure
  8/9 geo cell, the conclusion comparison and our ablation cell;
- :mod:`repro.bench.harness` -- the declarative benchmark registry,
  runner, and versioned JSON result schema (``BENCH_<name>.json``);
- :mod:`repro.bench.suite` -- the registered benchmarks (importing it
  populates the registry);
- :mod:`repro.bench.spec` -- declarative TOML experiment sweeps;
- :mod:`repro.bench.stats` / :mod:`repro.bench.report` -- the
  statistical kernels and the N-way experiment analysis over result
  documents, whose two-variant reading is the regression gate behind
  ``make bench-check``.

See ``docs/BENCHMARKS.md`` for the workflow.
"""

from repro.bench.harness import (
    REGISTRY,
    BenchContext,
    Benchmark,
    BenchmarkRegistry,
    BenchmarkResult,
    SuiteResult,
    load_result,
    render_result,
    render_suite,
    run_benchmark,
    run_suite,
    validate_result,
    write_result,
)
from repro.bench.model import (
    OrderingCapacityModel,
    SignatureThroughputModel,
    eq1_bound,
)
from repro.bench.topology import (
    AWS_REGIONS,
    aws_latency_model,
    aws_oneway_seconds,
    lan_latency_model,
)

__all__ = [
    "AWS_REGIONS",
    "Benchmark",
    "BenchmarkRegistry",
    "BenchmarkResult",
    "BenchContext",
    "OrderingCapacityModel",
    "REGISTRY",
    "SignatureThroughputModel",
    "SuiteResult",
    "aws_latency_model",
    "aws_oneway_seconds",
    "eq1_bound",
    "lan_latency_model",
    "load_result",
    "render_result",
    "render_suite",
    "run_benchmark",
    "run_suite",
    "validate_result",
    "write_result",
]
