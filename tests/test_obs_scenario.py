"""End-to-end observability tests on the seeded 4-node LAN scenario.

The golden-determinism test is the teeth of the whole layer: two runs
of the same seeded scenario must produce byte-identical span trees, or
the tracer (or the simulator underneath it) has picked up a source of
nondeterminism.
"""

import json
from dataclasses import replace

import pytest

from repro.obs import validate_chrome_trace, chrome_trace
from repro.obs.__main__ import main as obs_main
from repro.obs.report import (
    CROSS_CHECK_TOLERANCE,
    SMOKE,
    cross_check,
    harness_end_to_end_mean,
    render_report,
    run_scenario,
)
from repro.ordering.backends import OpenLoop

pytestmark = pytest.mark.bench

ROW = replace(SMOKE, load=OpenLoop(rate=400.0, duration=0.5))


@pytest.fixture(scope="module")
def result():
    return run_scenario(ROW)


class TestGoldenDeterminism:
    def test_identical_span_trees_across_runs(self, result):
        rerun = run_scenario(ROW)
        first = result.obs.tracer.tree()
        second = rerun.obs.tracer.tree()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_identical_metric_snapshots_across_runs(self, result):
        rerun = run_scenario(ROW)
        assert result.obs.registry.snapshot() == rerun.obs.registry.snapshot()


class TestPureObserver:
    """Attaching the hub, with or without the message log, changes
    nothing the simulation does: the same events run and the same
    ledgers come out.  With no hub attached the network takes its
    uninstrumented path."""

    EVENTS = {"bftsmart": 6561, "smartbft": 1042}

    @staticmethod
    def unobserved(monkeypatch, orderer):
        from repro.obs import Observability

        with monkeypatch.context() as patch:
            patch.setattr(Observability, "attach", lambda self, service: self)
            result = run_scenario(replace(ROW, backend=orderer))
        service = result.service
        components = service.replicas + service.nodes + service.frontends
        assert service.network.obs is None and not service.network._intercepting
        assert all(component.obs is None for component in components)
        assert service.total_delivered() > 0
        return service

    @pytest.mark.parametrize("orderer", sorted(EVENTS))
    def test_the_hub_moves_nothing(self, monkeypatch, orderer):
        bare = self.unobserved(monkeypatch, orderer)
        for trace in (False, True):
            observed = run_scenario(replace(ROW, backend=orderer), trace=trace)
            service = observed.service
            assert service.network._intercepting
            assert bool(observed.obs.tracer.instants) is trace
            assert service.sim.processed_events == bare.sim.processed_events
            assert service.ledger_digests() == bare.ledger_digests()
        assert bare.sim.processed_events == self.EVENTS[orderer]


class TestCrossCheck:
    def test_phase_sum_matches_harness_latency(self, result):
        ok, line = cross_check(result)
        assert ok, line
        breakdown = result.obs.phase_breakdown()
        harness = harness_end_to_end_mean(result.service)
        assert harness is not None
        assert breakdown.phase_sum == pytest.approx(
            harness, rel=CROSS_CHECK_TOLERANCE
        )

    def test_scenario_made_progress(self, result):
        assert result.submitted > 0
        breakdown = result.obs.phase_breakdown()
        assert breakdown.complete > 0

    def test_no_orphaned_spans_in_clean_run(self, result):
        assert result.obs.tracer.orphans() == []


class TestExport:
    def test_scenario_trace_validates(self, result):
        validate_chrome_trace(chrome_trace(result.obs.tracer))

    def test_report_renders_all_sections(self, result):
        text = render_report(result)
        assert "latency by protocol phase" in text
        assert "critical path, consensus instance" in text
        assert "CPU time by activity" in text
        assert "bytes by link" in text
        assert "cross-check [OK]" in text


class TestCli:
    def test_report_command_exits_zero(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = obs_main(
            ["report", "--duration", "0.5", "--trace", str(trace_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resource attribution" in out
        validate_chrome_trace(json.load(open(trace_path)))

    def test_trace_command_writes_trace(self, tmp_path):
        trace_path = tmp_path / "only.json"
        code = obs_main(
            ["trace", "--duration", "0.5", "--out", str(trace_path)]
        )
        assert code == 0
        validate_chrome_trace(json.load(open(trace_path)))


class TestBenchPhases:
    def test_run_benchmark_embeds_phase_samples(self):
        from repro.bench.figures import simulate_lan_throughput
        from repro.bench.harness import Benchmark, run_benchmark

        def run(ctx):
            sim = simulate_lan_throughput(
                duration=0.4,
                warmup=0.2,
                receivers=1,
                seed=ctx.seed,
                observability=ctx.obs,
            )
            return {"delivered_tx_per_sec": sim.delivered_rate}

        bench = Benchmark(name="phase-probe", run=run)
        result = run_benchmark(bench, repeats=2, phases=True)
        (point,) = result.points
        assert point.phases is not None
        assert "end_to_end" in point.phases
        assert "signing" in point.phases
        assert all(len(samples) == 2 for samples in point.phases.values())
        doc = point.to_json_dict()
        assert set(doc["phases"]) == set(point.phases)

    def test_phases_off_by_default_keeps_json_clean(self):
        from repro.bench.harness import Benchmark, run_benchmark

        bench = Benchmark(name="plain", run=lambda ctx: {"m": 1.0})
        result = run_benchmark(bench)
        (point,) = result.points
        assert point.phases is None
        assert "phases" not in point.to_json_dict()
