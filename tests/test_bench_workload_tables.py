"""Tests for the paper-style load drivers, the retired figure CLI and
service-config validation."""

import pytest

from repro.fabric.channel import ChannelConfig
from repro.ordering import OrderingServiceConfig, build_ordering_service
from repro.workload import ClosedLoopDriver, OpenLoopGenerator


def small_service(block_size=5, num_frontends=2):
    config = OrderingServiceConfig(
        f=1,
        channel=ChannelConfig("ch0", max_message_count=block_size, batch_timeout=0.5),
        num_frontends=num_frontends,
        physical_cores=None,
        enable_batch_timeout=True,
    )
    return build_ordering_service(config)


class TestOpenLoopGenerator:
    def test_rate_and_duration(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=100.0,
            duration=2.0,
        )
        generator.start()
        service.run(5.0)
        assert generator.submitted == pytest.approx(200, abs=3)
        meter = service.stats.meter("orderer0.envelopes")
        assert meter.total == generator.submitted

    def test_round_robin_across_frontends(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=100.0,
            duration=1.0,
        )
        generator.start()
        service.run(3.0)
        submitted = [f.envelopes_submitted for f in service.frontends]
        assert abs(submitted[0] - submitted[1]) <= 1

    def test_stop(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=1000.0,
            duration=10.0,
        )
        generator.start()
        service.run(0.1)
        generator.stop()
        count = generator.submitted
        service.run(1.0)
        assert generator.submitted == count

    def test_invalid_rate(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=0.0,
            duration=1.0,
        )
        with pytest.raises(ValueError):
            generator.start()

    def test_stop_is_idempotent_and_sticky(self):
        service = small_service()
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=500.0,
            duration=10.0,
        )
        generator.start()
        service.run(0.05)
        generator.stop()
        generator.stop()  # double stop is harmless
        count = generator.submitted
        service.run(1.0)
        assert generator.submitted == count

    def test_deterministic_arrival_sequence(self):
        """Same seed => byte-identical submission times and counts."""
        from repro.sim.randomness import RandomStreams

        def arrivals(seed):
            service = small_service()
            times = []
            original = service.frontends[0].submit

            def probe(envelope, _original=original, _times=times):
                _times.append(service.sim.now)
                return _original(envelope)

            service.frontends[0].submit = probe
            generator = OpenLoopGenerator(
                sim=service.sim,
                frontends=[service.frontends[0]],
                channel_id="ch0",
                envelope_size=100,
                rate_per_second=200.0,
                duration=0.5,
                jitter_fraction=0.3,
                streams=RandomStreams(seed),
            )
            generator.start()
            service.run(2.0)
            return times

        first = arrivals(7)
        assert len(first) > 50
        assert arrivals(7) == first
        assert arrivals(8) != first

    def test_unjittered_arrivals_are_evenly_spaced(self):
        service = small_service()
        times = []
        for frontend in service.frontends:
            original = frontend.submit

            def probe(envelope, _original=original):
                times.append(service.sim.now)
                return _original(envelope)

            frontend.submit = probe
        generator = OpenLoopGenerator(
            sim=service.sim,
            frontends=service.frontends,
            channel_id="ch0",
            envelope_size=100,
            rate_per_second=100.0,
            duration=0.5,
        )
        generator.start()
        service.run(2.0)
        gaps = {round(b - a, 9) for a, b in zip(times, times[1:])}
        assert gaps == {0.01}


class TestClosedLoopClients:
    def test_completes_all_envelopes(self):
        service = small_service(block_size=2, num_frontends=1)
        clients = ClosedLoopDriver(
            sim=service.sim,
            frontend=service.frontends[0],
            channel_id="ch0",
            envelope_size=64,
            clients=4,
            max_envelopes=20,
        )
        clients.start()
        service.run(20.0)
        assert clients.done
        assert clients.completed == 20

    def test_bounded_concurrency(self):
        service = small_service(block_size=2, num_frontends=1)
        clients = ClosedLoopDriver(
            sim=service.sim,
            frontend=service.frontends[0],
            channel_id="ch0",
            envelope_size=64,
            clients=3,
            max_envelopes=30,
        )
        clients.start()
        assert len(clients._outstanding) == 3
        service.run(30.0)
        assert clients.completed == 30

    def test_done_semantics(self):
        service = small_service(block_size=2, num_frontends=1)
        clients = ClosedLoopDriver(
            sim=service.sim,
            frontend=service.frontends[0],
            channel_id="ch0",
            envelope_size=64,
            clients=2,
            max_envelopes=6,
        )
        assert not clients.done  # nothing completed yet
        clients.start()
        assert not clients.done  # submissions are in flight, not done
        service.run(20.0)
        assert clients.done
        assert clients.submitted == 6
        # done stays true and no extra submissions happen afterwards
        service.run(5.0)
        assert clients.done and clients.submitted == 6

    def test_clients_capped_by_max_envelopes(self):
        service = small_service(block_size=2, num_frontends=1)
        clients = ClosedLoopDriver(
            sim=service.sim,
            frontend=service.frontends[0],
            channel_id="ch0",
            envelope_size=64,
            clients=10,
            max_envelopes=3,
        )
        clients.start()
        assert clients.submitted == 3
        assert len(clients._outstanding) == 3


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
