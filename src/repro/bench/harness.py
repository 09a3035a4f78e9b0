"""Declarative benchmark registry, runner, and JSON result schema.

The harness replaces the hand-rolled sweep loops of the original
``benchmarks/bench_*.py`` scripts with one declarative shape (borrowed
from benchalot's benchmark matrix):

- a :class:`Benchmark` declares a *parameter matrix* (the cross product
  of named value lists), a ``run`` callable that measures one matrix
  point and returns a flat ``{metric_name: value}`` mapping, and a seed
  policy;
- :func:`run_benchmark` expands the matrix, executes every point
  ``repeats`` times from ``base_seed`` (1 and 0 unless the caller --
  ``--repeats`` / ``--seed`` on the CLI -- says otherwise), records the
  per-repeat metric samples through the :mod:`repro.sim.monitor`
  instruments, and summarizes them (mean/median/p95/stdev);
- :func:`run_suite` runs any subset of the registry and produces a
  versioned, machine-readable result document that
  :func:`write_result` serializes to ``BENCH_<name>.json`` — the
  trajectory that the regression gate of :mod:`repro.bench.report`
  (``python -m repro.bench compare``) reads.

Every benchmark may declare a ``smoke_matrix``: a seconds-fast subset
used by ``make bench-smoke`` and the tier-1 test suite, while the full
matrix reproduces the paper figures.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import __version__
from repro.sim.monitor import summarize

#: Version tag of the JSON result documents.  Bump on incompatible
#: schema changes; :func:`validate_result` enforces it on load.
SCHEMA = "repro-bench-result/1"

#: Statistics reported for every metric at every matrix point.
SUMMARY_KEYS = ("count", "mean", "median", "p95", "stdev", "min", "max")

#: Seed policies: ``per-repeat`` derives a distinct seed for every
#: repeat (base + repeat index); ``fixed`` reuses the base seed, which
#: makes repeats bit-identical in the deterministic simulator.
SEED_POLICIES = ("per-repeat", "fixed")


@dataclass(frozen=True)
class BenchContext:
    """What a benchmark's callables receive for one measurement."""

    params: Mapping[str, Any]
    seed: int
    repeat: int
    mode: str  # "full" or "smoke"
    #: a :class:`repro.obs.Observability` hub when the run was started
    #: with ``phases=True``; benchmarks that build an ordering service
    #: pass it through so per-phase latencies land in the result JSON
    obs: Optional[Any] = None

    def __getitem__(self, name: str) -> Any:
        return self.params[name]


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark: a parameter matrix plus a callable.

    ``run(ctx)`` measures a single matrix point and returns a flat
    ``{metric: float}`` mapping.  ``directions`` maps metric names to
    ``"higher"`` or ``"lower"`` (is-better); unlisted metrics fall back
    to a name heuristic (latency-like names are lower-is-better).
    """

    name: str
    run: Callable[[BenchContext], Mapping[str, float]]
    matrix: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    smoke_matrix: Optional[Mapping[str, Sequence[Any]]] = None
    seed_policy: str = "per-repeat"
    directions: Mapping[str, str] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark name must be non-empty")
        if self.seed_policy not in SEED_POLICIES:
            raise ValueError(
                f"seed_policy must be one of {SEED_POLICIES}, "
                f"got {self.seed_policy!r}"
            )
        for matrix in (self.matrix, self.smoke_matrix or {}):
            for key, values in matrix.items():
                if not values:
                    raise ValueError(
                        f"{self.name}: matrix axis {key!r} has no values"
                    )
        for metric, direction in self.directions.items():
            if direction not in ("higher", "lower"):
                raise ValueError(
                    f"{self.name}: direction for {metric!r} must be "
                    f"'higher' or 'lower', got {direction!r}"
                )

    def matrix_for(self, mode: str) -> Mapping[str, Sequence[Any]]:
        if mode == "smoke" and self.smoke_matrix is not None:
            return self.smoke_matrix
        return self.matrix

    def points(self, mode: str = "full") -> Iterator[Dict[str, Any]]:
        """Expand the matrix into points, declaration order first."""
        matrix = self.matrix_for(mode)
        if not matrix:
            yield {}
            return
        keys = list(matrix)
        for combo in itertools.product(*(matrix[k] for k in keys)):
            yield dict(zip(keys, combo))

    def seed_for(self, repeat: int, base_seed: int = 0) -> int:
        if self.seed_policy == "fixed":
            return base_seed
        return base_seed + repeat

    def direction_of(self, metric: str) -> str:
        explicit = self.directions.get(metric)
        if explicit is not None:
            return explicit
        return default_direction(metric)


def default_direction(metric: str) -> str:
    """Heuristic is-better direction for metrics without a declaration:
    latency-looking names are lower-is-better, everything else higher."""
    lowered = metric.lower()
    if lowered.endswith(("_s", "_ms", "_seconds")):
        return "lower"
    for token in ("latency", "median", "p90", "p95", "p99", "delay"):
        if token in lowered:
            return "lower"
    return "higher"


class DuplicateBenchmarkError(ValueError):
    pass


class BenchmarkRegistry:
    """Named collection of benchmarks, iteration in registration order."""

    def __init__(self):
        self._benchmarks: Dict[str, Benchmark] = {}

    def add(self, benchmark: Benchmark) -> Benchmark:
        if benchmark.name in self._benchmarks:
            raise DuplicateBenchmarkError(
                f"benchmark {benchmark.name!r} already registered"
            )
        self._benchmarks[benchmark.name] = benchmark
        return benchmark

    def register(self, **kwargs) -> Callable:
        """Decorator form: ``@REGISTRY.register(name=..., matrix=...)``
        wraps the decorated callable as the benchmark's ``run``."""

        def decorate(run: Callable) -> Callable:
            self.add(
                Benchmark(
                    run=run,
                    description=kwargs.pop("description", run.__doc__ or ""),
                    **kwargs,
                )
            )
            return run

        return decorate

    def get(self, name: str) -> Benchmark:
        try:
            return self._benchmarks[name]
        except KeyError:
            raise KeyError(
                f"unknown benchmark {name!r}; registered: {sorted(self._benchmarks)}"
            ) from None

    def names(self) -> List[str]:
        return list(self._benchmarks)

    def select(self, patterns: Optional[Sequence[str]] = None) -> List[Benchmark]:
        """Benchmarks whose name contains any of the substrings (all
        benchmarks when ``patterns`` is falsy).  Unmatched patterns are
        an error, so typos fail loudly."""
        if not patterns:
            return list(self._benchmarks.values())
        chosen: Dict[str, Benchmark] = {}
        for pattern in patterns:
            hits = [b for n, b in self._benchmarks.items() if pattern in n]
            if not hits:
                raise KeyError(
                    f"pattern {pattern!r} matches no benchmark; "
                    f"registered: {sorted(self._benchmarks)}"
                )
            for benchmark in hits:
                chosen.setdefault(benchmark.name, benchmark)
        return list(chosen.values())

    def __iter__(self) -> Iterator[Benchmark]:
        return iter(self._benchmarks.values())

    def __contains__(self, name: str) -> bool:
        return name in self._benchmarks

    def __len__(self) -> int:
        return len(self._benchmarks)


#: The process-wide registry that :mod:`repro.bench.suite` populates.
REGISTRY = BenchmarkRegistry()


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class MetricSummary:
    """Per-repeat samples of one metric at one matrix point."""

    name: str
    direction: str
    values: List[float]
    stats: Dict[str, float]

    @property
    def median(self) -> float:
        return self.stats["median"]

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "direction": self.direction,
            "values": [_jsonable(v) for v in self.values],
            **{k: _jsonable(self.stats[k]) for k in SUMMARY_KEYS},
        }


@dataclass
class PointResult:
    """All metrics measured at one matrix point."""

    params: Dict[str, Any]
    seeds: List[int]
    metrics: Dict[str, MetricSummary]
    #: per-phase latency samples (one mean per repeat) when the run was
    #: started with ``phases=True`` and the benchmark produced complete
    #: envelope chains; ``None`` otherwise.  Keys are the phase labels
    #: of :data:`repro.obs.PHASES` plus ``"end_to_end"``.
    phases: Optional[Dict[str, List[float]]] = None

    def to_json_dict(self) -> Dict[str, Any]:
        document = {
            "params": dict(self.params),
            "seeds": list(self.seeds),
            "repeats": len(self.seeds),
            "metrics": {
                name: summary.to_json_dict()
                for name, summary in sorted(self.metrics.items())
            },
        }
        if self.phases is not None:
            document["phases"] = {
                label: [_jsonable(v) for v in values]
                for label, values in sorted(self.phases.items())
            }
        return document


@dataclass
class BenchmarkResult:
    """One benchmark's expanded matrix with summarized metrics."""

    benchmark: str
    description: str
    mode: str
    seed_policy: str
    points: List[PointResult]

    def point(self, **params) -> PointResult:
        """The unique point whose params include all the given ones."""
        hits = [
            p
            for p in self.points
            if all(p.params.get(k) == v for k, v in params.items())
        ]
        if not hits:
            raise KeyError(f"{self.benchmark}: no point matching {params}")
        if len(hits) > 1:
            raise KeyError(
                f"{self.benchmark}: {params} is ambiguous ({len(hits)} points)"
            )
        return hits[0]

    def value(self, metric: str, **params) -> float:
        """Median-of-repeats of a metric at the matching point."""
        return self.point(**params).metrics[metric].median

    def series(self, metric: str, over: str, **fixed) -> List[Tuple[Any, float]]:
        """``(param value, metric median)`` pairs swept along one axis."""
        rows = [
            (p.params[over], p.metrics[metric].median)
            for p in self.points
            if over in p.params
            and all(p.params.get(k) == v for k, v in fixed.items())
        ]
        if not rows:
            raise KeyError(
                f"{self.benchmark}: no points sweeping {over!r} with {fixed}"
            )
        return rows

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "description": self.description,
            "mode": self.mode,
            "seed_policy": self.seed_policy,
            "points": [p.to_json_dict() for p in self.points],
        }


@dataclass
class SuiteResult:
    """A full run: environment fingerprint plus per-benchmark results."""

    run_name: str
    mode: str
    created_unix: float
    environment: Dict[str, Any]
    benchmarks: List[BenchmarkResult]

    def benchmark(self, name: str) -> BenchmarkResult:
        for result in self.benchmarks:
            if result.benchmark == name:
                return result
        raise KeyError(f"run {self.run_name!r} has no benchmark {name!r}")

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "run_name": self.run_name,
            "mode": self.mode,
            "created_unix": self.created_unix,
            "environment": self.environment,
            "benchmarks": [b.to_json_dict() for b in self.benchmarks],
        }


def _jsonable(value: float) -> Optional[float]:
    """NaN/inf have no valid JSON encoding; map them to null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def environment_fingerprint() -> Dict[str, Any]:
    """Where a result came from.  Excluded from reproducibility
    comparisons: the simulator makes the *metrics* machine-independent,
    the fingerprint only records provenance."""
    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "argv": list(sys.argv),
    }


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_benchmark(
    benchmark: Benchmark,
    mode: str = "full",
    repeats: int = 1,
    base_seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    phases: bool = False,
) -> BenchmarkResult:
    """Execute one benchmark's matrix and summarize its metrics.

    Per-repeat metric values are collected per metric, in repeat order,
    then summarized with the shared statistics helpers of
    :mod:`repro.sim.monitor`, so the JSON numbers and the live
    instruments can never disagree.

    With ``phases=True`` every repeat gets a fresh
    :class:`repro.obs.Observability` hub on its :class:`BenchContext`;
    benchmarks that pass it to ``stand_up`` (``fig7_lan_sim``,
    ``recovery_time``, ``overload``) produce a per-phase latency
    breakdown embedded in the point's JSON, which lets ``bench
    compare`` localize a latency regression to a protocol phase.
    """
    if mode not in ("full", "smoke"):
        raise ValueError(f"mode must be 'full' or 'smoke', got {mode!r}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    points: List[PointResult] = []
    for params in benchmark.points(mode):
        samples: Dict[str, List[float]] = {}
        seeds: List[int] = []
        directions: Dict[str, str] = {}
        phase_samples: Dict[str, List[float]] = {}
        for repeat in range(repeats):
            seed = benchmark.seed_for(repeat, base_seed)
            seeds.append(seed)
            obs = None
            if phases:
                from repro.obs import Observability

                obs = Observability()
            ctx = BenchContext(
                params=params, seed=seed, repeat=repeat, mode=mode, obs=obs
            )
            metrics = benchmark.run(ctx)
            if not metrics:
                raise ValueError(
                    f"{benchmark.name}: run returned no metrics at {params}"
                )
            for metric, value in metrics.items():
                samples.setdefault(metric, []).append(float(value))
                directions.setdefault(metric, benchmark.direction_of(metric))
            if obs is not None:
                obs.close()
                breakdown = obs.phase_breakdown()
                if breakdown.complete > 0:
                    for label, mean in breakdown.means().items():
                        phase_samples.setdefault(label, []).append(mean)
                    phase_samples.setdefault("end_to_end", []).append(
                        breakdown.end_to_end_mean
                    )
        for metric in directions:
            if len(samples[metric]) != repeats:
                raise ValueError(
                    f"{benchmark.name}: metric {metric!r} missing from some "
                    f"repeats at {params}"
                )
        summaries = {
            metric: MetricSummary(
                name=metric,
                direction=directions[metric],
                values=samples[metric],
                stats=summarize(samples[metric]),
            )
            for metric in sorted(directions)
        }
        points.append(
            PointResult(
                params=dict(params),
                seeds=seeds,
                metrics=summaries,
                phases=phase_samples or None,
            )
        )
        if progress is not None:
            progress(f"{benchmark.name} {params}: done")
    return BenchmarkResult(
        benchmark=benchmark.name,
        description=benchmark.description.strip(),
        mode=mode,
        seed_policy=benchmark.seed_policy,
        points=points,
    )


def run_suite(
    benchmarks: Sequence[Benchmark],
    run_name: str,
    mode: str = "full",
    repeats: int = 1,
    base_seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    phases: bool = False,
) -> SuiteResult:
    """Run several benchmarks into one result document."""
    results = [
        run_benchmark(
            benchmark,
            mode=mode,
            repeats=repeats,
            base_seed=base_seed,
            progress=progress,
            phases=phases,
        )
        for benchmark in benchmarks
    ]
    return SuiteResult(
        run_name=run_name,
        mode=mode,
        created_unix=time.time(),  # repro: allow[DET001] provenance stamp, not simulated time
        environment=environment_fingerprint(),
        benchmarks=results,
    )


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class SchemaError(ValueError):
    """A result document does not match the expected schema."""


def validate_result(document: Mapping[str, Any]) -> None:
    """Structural validation of a result document; raises SchemaError."""

    def need(mapping, key, kinds, where):
        if key not in mapping:
            raise SchemaError(f"{where}: missing key {key!r}")
        if not isinstance(mapping[key], kinds):
            raise SchemaError(
                f"{where}: {key!r} must be {kinds}, got {type(mapping[key])}"
            )
        return mapping[key]

    if not isinstance(document, Mapping):
        raise SchemaError("result document must be a mapping")
    if document.get("schema") != SCHEMA:
        raise SchemaError(
            f"unsupported schema {document.get('schema')!r}; expected {SCHEMA!r}"
        )
    need(document, "run_name", str, "document")
    need(document, "mode", str, "document")
    need(document, "created_unix", (int, float), "document")
    need(document, "environment", Mapping, "document")
    benchmarks = need(document, "benchmarks", list, "document")
    for bench in benchmarks:
        where = f"benchmark {bench.get('benchmark')!r}"
        need(bench, "benchmark", str, where)
        points = need(bench, "points", list, where)
        for point in points:
            pwhere = f"{where} point {point.get('params')!r}"
            need(point, "params", Mapping, pwhere)
            need(point, "seeds", list, pwhere)
            need(point, "repeats", int, pwhere)
            metrics = need(point, "metrics", Mapping, pwhere)
            for metric, summary in metrics.items():
                mwhere = f"{pwhere} metric {metric!r}"
                if summary.get("direction") not in ("higher", "lower"):
                    raise SchemaError(f"{mwhere}: bad direction")
                values = need(summary, "values", list, mwhere)
                if len(values) != point["repeats"]:
                    raise SchemaError(
                        f"{mwhere}: {len(values)} values for "
                        f"{point['repeats']} repeats"
                    )
                for key in SUMMARY_KEYS:
                    if key not in summary:
                        raise SchemaError(f"{mwhere}: missing stat {key!r}")
            # optional per-phase breakdown (opt-in via --phases)
            if "phases" in point:
                phases = need(point, "phases", Mapping, pwhere)
                for label, values in phases.items():
                    lwhere = f"{pwhere} phase {label!r}"
                    if not isinstance(label, str):
                        raise SchemaError(f"{lwhere}: label must be a string")
                    if not isinstance(values, list) or not all(
                        isinstance(v, (int, float)) or v is None for v in values
                    ):
                        raise SchemaError(
                            f"{lwhere}: values must be a list of numbers"
                        )


def write_result(result: SuiteResult, path: str) -> str:
    """Serialize a suite result to ``path`` (schema-validated first)."""
    document = result.to_json_dict()
    validate_result(document)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")
    return path


def load_result(path: str) -> Dict[str, Any]:
    """Read and validate a result document from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    validate_result(document)
    return document


# ----------------------------------------------------------------------
# Regression history snapshots
# ----------------------------------------------------------------------
#: Default cap on retained history snapshots (~a month of nightlies).
HISTORY_CAP = 30


def _history_snapshot_name(document: Mapping[str, Any]) -> str:
    """``<UTC stamp>-<run name>.json`` — filename order is run order."""
    stamp = time.strftime(
        "%Y%m%dT%H%M%SZ",
        time.gmtime(float(document["created_unix"])),  # repro: allow[DET001] host-side tooling formats a recorded stamp
    )
    run_name = str(document.get("run_name") or "run")
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in run_name)
    return f"{stamp}-{safe}"


def append_history(
    result_path: str, history_dir: str, cap: int = HISTORY_CAP
) -> str:
    """Snapshot a result document into the regression-history directory.

    The snapshot is named from the run's ``created_unix`` timestamp so
    lexicographic filename order is chronological order — which is what
    :func:`load_history` and the report's sparklines rely on.  After
    appending, the oldest snapshots beyond ``cap`` are pruned.  Returns
    the snapshot path.
    """
    if cap < 1:
        raise ValueError("history cap must be >= 1")
    document = load_result(result_path)
    os.makedirs(history_dir, exist_ok=True)
    base = _history_snapshot_name(document)
    path = os.path.join(history_dir, f"{base}.json")
    suffix = 1
    while os.path.exists(path):
        # "~N" sorts after ".json" so same-second snapshots keep their
        # append order under the lexicographic == chronological rule
        path = os.path.join(history_dir, f"{base}~{suffix}.json")
        suffix += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")
    snapshots = sorted(
        name for name in os.listdir(history_dir) if name.endswith(".json")
    )
    for stale in snapshots[: max(0, len(snapshots) - cap)]:
        os.remove(os.path.join(history_dir, stale))
    return path


def load_history(history_dir: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Load history snapshots as ``(filename, document)`` pairs, oldest
    first (filename order); :func:`append_history` caps how many there
    are.  Schema-invalid files raise — history is append-only through
    :func:`append_history`, so damage should be loud, not skipped."""
    if not os.path.isdir(history_dir):
        return []
    names = sorted(
        name for name in os.listdir(history_dir) if name.endswith(".json")
    )
    return [
        (name, load_result(os.path.join(history_dir, name))) for name in names
    ]


def render_result(result: BenchmarkResult) -> str:
    """Generic ASCII table: one row per matrix point, medians only."""
    lines = [f"{result.benchmark} [{result.mode}]"]
    if result.description:
        lines.append(f"  {result.description.splitlines()[0]}")
    for point in result.points:
        params = ", ".join(f"{k}={v}" for k, v in point.params.items()) or "-"
        lines.append(f"  {params}  (repeats={len(point.seeds)})")
        for name, summary in point.metrics.items():
            stats = summary.stats
            stdev = stats["stdev"]
            spread = "" if math.isnan(stdev) else f" ± {stdev:.4g}"
            lines.append(
                f"    {name:<28} {stats['median']:>14.4f}{spread}"
                f"  [{summary.direction}]"
            )
    return "\n".join(lines)


def render_suite(result: SuiteResult) -> str:
    return "\n\n".join(render_result(b) for b in result.benchmarks)
