"""Unit tests for the declarative benchmark harness.

The fast paths (registry semantics, matrix expansion, summary
statistics, JSON schema, seed reproducibility on a cheap registered
benchmark) run in tier-1; the full smoke-suite execution is marked
``bench``.
"""

import json
import math
import random

import pytest

from repro.bench import suite  # noqa: F401 - populates REGISTRY
from repro.bench.harness import (
    REGISTRY,
    BenchContext,
    Benchmark,
    BenchmarkRegistry,
    DuplicateBenchmarkError,
    SCHEMA,
    SchemaError,
    default_direction,
    environment_fingerprint,
    load_result,
    render_suite,
    run_benchmark,
    run_suite,
    validate_result,
    write_result,
)


def _toy(ctx: BenchContext):
    return {"value": float(ctx["x"] * 10 + ctx["y"]), "latency_s": 0.1}


class TestBenchmarkDeclaration:
    def test_matrix_expansion_order(self):
        bench = Benchmark(name="t", run=_toy, matrix={"x": (1, 2), "y": (3, 4)})
        points = list(bench.points())
        assert points == [
            {"x": 1, "y": 3},
            {"x": 1, "y": 4},
            {"x": 2, "y": 3},
            {"x": 2, "y": 4},
        ]

    def test_empty_matrix_is_single_point(self):
        bench = Benchmark(name="t", run=_toy)
        assert list(bench.points()) == [{}]

    def test_smoke_matrix_fallback(self):
        bench = Benchmark(name="t", run=_toy, matrix={"x": (1, 2)})
        assert list(bench.points("smoke")) == [{"x": 1}, {"x": 2}]
        bench = Benchmark(
            name="t", run=_toy, matrix={"x": (1, 2)}, smoke_matrix={"x": (1,)}
        )
        assert list(bench.points("smoke")) == [{"x": 1}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            Benchmark(name="t", run=_toy, matrix={"x": ()})

    def test_bad_seed_policy_rejected(self):
        with pytest.raises(ValueError):
            Benchmark(name="t", run=_toy, seed_policy="random")

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            Benchmark(name="t", run=_toy, directions={"m": "sideways"})

    def test_seed_policy(self):
        per_repeat = Benchmark(name="t", run=_toy, base_seed=7)
        assert [per_repeat.seed_for(i) for i in range(3)] == [7, 8, 9]
        fixed = Benchmark(name="t", run=_toy, base_seed=7, seed_policy="fixed")
        assert [fixed.seed_for(i) for i in range(3)] == [7, 7, 7]

    def test_direction_heuristic(self):
        assert default_direction("tx_per_sec") == "higher"
        assert default_direction("canada_median_s") == "lower"
        assert default_direction("p90_ms") == "lower"
        assert default_direction("end_to_end_latency") == "lower"
        assert default_direction("samples") == "higher"
        explicit = Benchmark(name="t", run=_toy, directions={"tx_per_sec": "lower"})
        assert explicit.direction_of("tx_per_sec") == "lower"


class TestRegistry:
    def test_duplicate_rejected(self):
        registry = BenchmarkRegistry()
        registry.add(Benchmark(name="a", run=_toy))
        with pytest.raises(DuplicateBenchmarkError):
            registry.add(Benchmark(name="a", run=_toy))

    def test_select_by_substring(self):
        registry = BenchmarkRegistry()
        registry.add(Benchmark(name="fig6_signing", run=_toy))
        registry.add(Benchmark(name="fig7_capacity", run=_toy))
        assert [b.name for b in registry.select(["fig6"])] == ["fig6_signing"]
        assert len(registry.select(["fig"])) == 2
        assert len(registry.select(None)) == 2
        with pytest.raises(KeyError):
            registry.select(["nope"])

    def test_global_registry_contents(self):
        expected = {
            "fig6_signing",
            "fig6_invariance",
            "fig7_capacity",
            "fig7_lan_sim",
            "fig8_geo",
            "fig9_geo",
            "eq1_bounds",
            "conclusion",
            "ablation_wheat",
            "ablation_batching",
            "baseline_orderers",
        }
        assert expected <= set(REGISTRY.names())

    def test_every_registered_benchmark_has_a_fast_smoke(self):
        for benchmark in REGISTRY:
            smoke_points = list(benchmark.points("smoke"))
            assert 1 <= len(smoke_points) <= 8, benchmark.name


class TestRunner:
    def test_metrics_summarized_per_point(self):
        bench = Benchmark(
            name="t", run=_toy, matrix={"x": (1, 2), "y": (0,)}, repeats=3
        )
        result = run_benchmark(bench)
        assert [p.params for p in result.points] == [
            {"x": 1, "y": 0},
            {"x": 2, "y": 0},
        ]
        point = result.point(x=2)
        assert point.seeds == [0, 1, 2]
        summary = point.metrics["value"]
        assert summary.values == [20.0, 20.0, 20.0]
        assert summary.stats["median"] == 20.0
        assert summary.stats["stdev"] == 0.0
        assert summary.direction == "higher"
        assert point.metrics["latency_s"].direction == "lower"

    def test_value_and_series_accessors(self):
        bench = Benchmark(name="t", run=_toy, matrix={"x": (1, 2, 3), "y": (5,)})
        result = run_benchmark(bench)
        assert result.value("value", x=3) == 35.0
        assert result.series("value", over="x", y=5) == [
            (1, 15.0),
            (2, 25.0),
            (3, 35.0),
        ]
        with pytest.raises(KeyError):
            result.point(x=99)
        with pytest.raises(KeyError):
            result.point(y=5)  # ambiguous

    def test_repeat_statistics(self):
        def noisy(ctx):
            return {"m": float(ctx.repeat)}  # 0, 1, 2, 3

        result = run_benchmark(Benchmark(name="t", run=noisy, repeats=4))
        stats = result.points[0].metrics["m"].stats
        assert stats["count"] == 4.0
        assert stats["median"] == 1.5
        assert stats["mean"] == 1.5
        assert stats["min"] == 0.0 and stats["max"] == 3.0
        assert stats["stdev"] == pytest.approx(
            math.sqrt(sum((x - 1.5) ** 2 for x in (0, 1, 2, 3)) / 3)
        )

    def test_setup_teardown_called(self):
        calls = []
        bench = Benchmark(
            name="t",
            run=lambda ctx: (calls.append("run"), {"m": 1.0})[1],
            setup=lambda ctx: calls.append("setup"),
            teardown=lambda ctx: calls.append("teardown"),
            repeats=2,
        )
        run_benchmark(bench)
        assert calls == ["setup", "run", "teardown"] * 2

    def test_inconsistent_metrics_rejected(self):
        def flaky(ctx):
            return {"m": 1.0} if ctx.repeat == 0 else {"other": 1.0}

        with pytest.raises(ValueError):
            run_benchmark(Benchmark(name="t", run=flaky, repeats=2))

    def test_empty_metrics_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(Benchmark(name="t", run=lambda ctx: {}))


class TestResultSchema:
    def _document(self, tmp_path):
        bench = Benchmark(name="t", run=_toy, matrix={"x": (1,), "y": (2,)})
        result = run_suite([bench], run_name="unit", mode="full")
        path = str(tmp_path / "BENCH_unit.json")
        write_result(result, path)
        return path

    def test_roundtrip_and_validate(self, tmp_path):
        path = self._document(tmp_path)
        document = load_result(path)
        assert document["schema"] == SCHEMA
        assert document["run_name"] == "unit"
        point = document["benchmarks"][0]["points"][0]
        assert point["params"] == {"x": 1, "y": 2}
        assert point["metrics"]["value"]["median"] == 12.0
        assert point["metrics"]["value"]["direction"] == "higher"

    def test_validate_rejects_bad_documents(self, tmp_path):
        path = self._document(tmp_path)
        document = json.load(open(path))
        with pytest.raises(SchemaError):
            validate_result({**document, "schema": "other/9"})
        broken = json.loads(json.dumps(document))
        del broken["benchmarks"][0]["points"][0]["metrics"]["value"]["median"]
        with pytest.raises(SchemaError):
            validate_result(broken)
        broken = json.loads(json.dumps(document))
        broken["benchmarks"][0]["points"][0]["metrics"]["value"]["values"] = []
        with pytest.raises(SchemaError):
            validate_result(broken)

    def test_non_finite_metrics_serialize_as_null(self, tmp_path):
        bench = Benchmark(name="t", run=lambda ctx: {"m": math.nan})
        result = run_suite([bench], run_name="nan", mode="full")
        path = str(tmp_path / "BENCH_nan.json")
        write_result(result, path)
        document = load_result(path)
        summary = document["benchmarks"][0]["points"][0]["metrics"]["m"]
        assert summary["values"] == [None]
        assert summary["median"] is None

    def test_environment_fingerprint_fields(self):
        env = environment_fingerprint()
        assert {"repro_version", "python", "platform", "machine"} <= set(env)

    def test_render_suite_mentions_every_benchmark(self):
        bench = Benchmark(name="toy_render", run=_toy, matrix={"x": (1,), "y": (2,)})
        result = run_suite([bench], run_name="r", mode="full")
        text = render_suite(result)
        assert "toy_render" in text and "value" in text


class TestSeedReproducibility:
    """Same seed -> identical metric values in the result JSON
    (timestamps/environment excluded); different seeds -> different."""

    @staticmethod
    def _strip(document):
        document = json.loads(json.dumps(document))
        document.pop("created_unix")
        document.pop("environment")
        return document

    def test_synthetic_benchmark_reproducible(self):
        def seeded(ctx):
            rng = random.Random(ctx.seed)
            return {"m": rng.random(), "n": rng.gauss(0, 1)}

        bench = Benchmark(name="t", run=seeded, matrix={"x": (1, 2)}, repeats=3)
        first = self._strip(run_suite([bench], run_name="r", mode="full").to_json_dict())
        second = self._strip(run_suite([bench], run_name="r", mode="full").to_json_dict())
        assert first == second
        shifted = self._strip(
            run_suite([bench], run_name="r", mode="full", base_seed=99).to_json_dict()
        )
        assert shifted != first

    def test_registered_geo_benchmark_reproducible(self):
        """Harness-path mirror of test_reproducibility.py: the real
        simulated stack through a registered benchmark."""
        bench = REGISTRY.get("fig8_geo")
        first = self._strip(
            run_suite([bench], run_name="r", mode="smoke").to_json_dict()
        )
        second = self._strip(
            run_suite([bench], run_name="r", mode="smoke").to_json_dict()
        )
        assert first == second
        shifted = self._strip(
            run_suite([bench], run_name="r", mode="smoke", base_seed=5).to_json_dict()
        )
        assert shifted != first


class TestCliSubcommands:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6_signing" in out and "fig8_geo" in out

    def test_run_subset_writes_valid_json(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        path = str(tmp_path / "BENCH_unit.json")
        code = main(
            ["run", "--smoke", "--only", "fig6_invariance", "--only",
             "eq1_bounds", "--name", "unit", "--out", path, "--quiet"]
        )
        assert code == 0
        document = load_result(path)
        names = [b["benchmark"] for b in document["benchmarks"]]
        assert names == ["fig6_invariance", "eq1_bounds"]
        assert document["mode"] == "smoke"

    def test_run_unknown_pattern_is_usage_error(self, tmp_path):
        from repro.bench.__main__ import main

        assert main(["run", "--only", "zzz", "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.bench
class TestSmokeSuite:
    """The `make bench-smoke` path: every registered benchmark's smoke
    matrix, one schema-valid document."""

    @pytest.mark.usefixtures("no_handmade_ids")
    def test_full_smoke_suite(self, tmp_path):
        result = run_suite(list(REGISTRY), run_name="smoke", mode="smoke")
        path = str(tmp_path / "BENCH_smoke.json")
        write_result(result, path)
        document = load_result(path)
        assert {b["benchmark"] for b in document["benchmarks"]} == set(
            REGISTRY.names()
        )
        # a couple of paper-shape sanity checks survive even at smoke scale
        fig6 = result.benchmark("fig6_signing")
        assert fig6.value("sig_per_sec", workers=16) == pytest.approx(8400, rel=0.05)
        fig8 = result.benchmark("fig8_geo")
        wheat = fig8.value("virginia_median_s", protocol="wheat")
        bft = fig8.value("virginia_median_s", protocol="bftsmart")
        assert wheat < bft
