"""Tests for the paper-style open-loop load, the retired figure CLI and
service-config validation."""

import pytest

from repro.ordering import OrderingServiceConfig, build_ordering_service
from repro.ordering.backends import OpenLoop, ScenarioRow, stand_up


def open_loop(rate=100.0, duration=2.0, num_frontends=2, arm=None, **load):
    """A row's ``OpenLoop`` of 100-byte envelopes on the small
    deployment, stood up (``arm`` runs before the first arrival)."""
    row = ScenarioRow(
        block_size=5,
        batch_timeout=0.5,
        num_frontends=num_frontends,
        load=OpenLoop(rate, duration, envelope_size=100, **load),
    )
    return stand_up(row, arm)


def submit_times(up):
    """Record the simulated time of every submission at every frontend."""
    times = []
    for frontend in up.service.frontends:
        original = frontend.submit

        def probe(envelope, _original=original):
            times.append(up.sim.now)
            return _original(envelope)

        frontend.submit = probe
    return times


class TestOpenLoopGenerator:
    """The paper's fixed-rate client load: a row's ``OpenLoop``."""

    def test_rate_and_duration(self):
        up = open_loop()
        up.service.run(5.0)
        assert up.submitted == pytest.approx(200, abs=3)
        meter = up.service.stats.meter("orderer0.envelopes")
        assert meter.total == up.submitted

    def test_round_robin_across_frontends(self):
        up = open_loop(duration=1.0)
        up.service.run(3.0)
        submitted = [f.envelopes_submitted for f in up.service.frontends]
        assert abs(submitted[0] - submitted[1]) <= 1

    def test_stop(self):
        up = open_loop(rate=1000.0, duration=10.0)
        up.service.run(0.1)
        up.engine.stop()
        count = up.submitted
        up.service.run(1.0)
        assert up.submitted == count

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            open_loop(rate=0.0, duration=1.0)

    def test_stop_is_idempotent_and_sticky(self):
        up = open_loop(rate=500.0, duration=10.0)
        up.service.run(0.05)
        up.engine.stop()
        up.engine.stop()  # double stop is harmless
        count = up.submitted
        up.service.run(1.0)
        assert up.submitted == count

    def test_deterministic_arrival_sequence(self):
        """A jittered load repeats byte for byte; every gap stays within
        the jitter of the base interval, and the gaps differ."""

        def arrivals():
            up = open_loop(
                rate=200.0, duration=0.5, num_frontends=1, arm=submit_times,
                jitter_fraction=0.3,
            )
            up.service.run(2.0)
            return up.armed

        first = arrivals()
        assert len(first) > 50
        assert arrivals() == first
        gaps = [b - a for a, b in zip(first, first[1:])]
        assert all(0.7 / 200.0 - 1e-12 <= gap <= 1.3 / 200.0 + 1e-12 for gap in gaps)
        assert len({round(gap, 9) for gap in gaps}) > len(gaps) // 2

    def test_unjittered_arrivals_are_evenly_spaced(self):
        up = open_loop(duration=0.5, arm=submit_times)
        up.service.run(2.0)
        times = up.armed
        gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
        assert gaps == {0.01}


class TestCli:
    """Figures come from the harness's ``run --only NAME`` (the README
    commands); the pre-harness ``--figure N`` interface is gone."""

    def _run(self, tmp_path, capsys, *only):
        from repro.bench.__main__ import main

        argv = ["run", "--out", str(tmp_path / "out.json")]
        for name in only:
            argv += ["--only", name]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_figure6_via_cli(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, "fig6_signing")
        assert "Figure 6" in out
        assert "8400" in out

    def test_figure7_via_cli(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, "fig7_capacity")
        assert "orderers=4, block_size=10, envelope_size=40, receivers=1 " in out

    def test_eq1_via_cli(self, tmp_path, capsys):
        out = self._run(tmp_path, capsys, "eq1", "conclusion")
        assert "Equation 1" in out and "Ethereum" in out

    def test_figure_flag_is_a_usage_error(self, capsys):
        """``--figure 6`` no longer runs anything: argparse rejects it
        (exit 2, usage on stderr)."""
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--figure", "6"])
        assert excinfo.value.code == 2
        assert "usage: python -m repro.bench" in capsys.readouterr().err

    def test_bad_figure_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["--figure", "99"])


class TestServiceConfigValidation:
    def test_site_count_mismatch(self):
        config = OrderingServiceConfig(f=1, node_sites=["a", "b"])
        with pytest.raises(ValueError):
            build_ordering_service(config)

    def test_frontend_site_count_mismatch(self):
        config = OrderingServiceConfig(
            f=1, num_frontends=2, frontend_sites=["lan"]
        )
        with pytest.raises(ValueError):
            build_ordering_service(config)

    def test_n_derived_from_f_and_delta(self):
        assert OrderingServiceConfig(f=2).n == 7
        assert OrderingServiceConfig(f=1, delta=1).n == 5

    def test_leader_node_is_node_zero(self):
        service = build_ordering_service(
            OrderingServiceConfig(f=1, physical_cores=None)
        )
        assert service.leader_node is service.nodes[0]
