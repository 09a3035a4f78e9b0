"""Integration: the randomized fault-schedule explorer.

The acceptance bar for the fault layer: 25+ seeded schedules at
``f=1, n=4`` with zero invariant violations, and bit-for-bit
reproducibility -- the same seed must yield an identical fault trace
and identical final ledger digests.
"""

import pytest

from repro.faults import (
    CrashReplica,
    Drop,
    ExplorerConfig,
    FaultEvent,
    Match,
    explore,
    run_schedule,
    run_seed,
    sample_schedule,
    shrink_schedule,
)

pytestmark = pytest.mark.faults


class TestExploration:
    def test_25_seeds_zero_violations(self):
        cfg = ExplorerConfig(f=1)
        assert cfg.n == 4
        report = explore(seeds=25, cfg=cfg)
        failing = {r.seed: [str(v) for v in r.violations] for r in report.failures}
        assert report.ok, f"seeds with violations: {failing}"
        # every run delivered the full workload and healed in time
        for result in report.results:
            assert result.delivered >= result.submitted
            assert result.trace[-1].endswith("heal")

    def test_schedules_are_diverse(self):
        """The sampler actually explores: different seeds, different
        fault mixes."""
        descriptions = {
            tuple(e.describe() for e in sample_schedule(seed))
            for seed in range(25)
        }
        assert len(descriptions) >= 20


class TestReproducibility:
    def test_same_seed_same_trace_and_ledger(self):
        first = run_seed(11)
        second = run_seed(11)
        assert first.trace == second.trace
        assert first.trace_digest == second.trace_digest
        assert first.ledger_digest == second.ledger_digest
        assert first.frontend_digests == second.frontend_digests
        assert first.sim_time == second.sim_time

    def test_sampling_is_pure(self):
        one = [e.describe() for e in sample_schedule(19)]
        two = [e.describe() for e in sample_schedule(19)]
        assert one == two

    def test_different_seeds_diverge(self):
        assert run_seed(0).trace_digest != run_seed(3).trace_digest


class TestRecoveryProfile:
    """The crash-recovery schedule space (``--profile recovery``)."""

    def test_recovery_seeds_zero_violations(self):
        cfg = ExplorerConfig(profile="recovery")
        report = explore(seeds=10, cfg=cfg)
        failing = {r.seed: [str(v) for v in r.violations] for r in report.failures}
        assert report.ok, f"seeds with violations: {failing}"
        for result in report.results:
            assert result.delivered >= result.submitted

    def test_every_schedule_leads_with_amnesiac_restart(self):
        cfg = ExplorerConfig(profile="recovery")
        for seed in range(10):
            events = sample_schedule(seed, cfg)
            crash = next(
                e.action for e in events if isinstance(e.action, CrashReplica)
            )
            assert crash.amnesia

    def test_recovery_profile_is_reproducible(self):
        cfg = ExplorerConfig(profile="recovery")
        first = run_seed(7, cfg)
        second = run_seed(7, cfg)
        assert first.trace == second.trace
        assert first.ledger_digest == second.ledger_digest

    def test_default_profile_unperturbed(self):
        """Adding the recovery stream must not change the default
        profile's schedules (historical seeds stay reproducible)."""
        default = [e.describe() for e in sample_schedule(3)]
        _ = sample_schedule(3, ExplorerConfig(profile="recovery"))
        assert [e.describe() for e in sample_schedule(3)] == default


class TestShrinking:
    def test_failing_schedule_minimized(self):
        """One fatal event (total inbound drop that outlives the run's
        deadline, swallowing the fire-and-forget workload) plus two
        harmless decoys: the shrinker must strip the decoys and keep a
        still-failing singleton."""
        cfg = ExplorerConfig(deadline=8.0, heal_at=30.0)
        fatal = FaultEvent(
            at=0.05,
            action=Drop(Match(dst=tuple(range(4)))),  # everything inbound
        )
        decoys = [
            FaultEvent(at=0.3, action=Drop(Match(src=2, dst=3), rate=0.1),
                       duration=0.5),
            FaultEvent(at=0.4, action=CrashReplica(3), duration=0.4),
        ]
        events = [fatal] + decoys
        broken = run_schedule(5, events, cfg)
        assert not broken.ok
        minimal, result = shrink_schedule(5, events, cfg)
        assert not result.ok
        assert len(minimal) == 1
        assert minimal[0] is fatal

    def test_passing_schedule_not_shrunk_to_failure(self):
        cfg = ExplorerConfig()
        events = sample_schedule(0, cfg)
        minimal, result = shrink_schedule(0, events, cfg, max_runs=4)
        # shrinking a passing schedule immediately converges on itself
        assert [e.describe() for e in minimal] == [e.describe() for e in events]


class TestOverloadProfile:
    """The adversarial-overload schedule space (``--profile overload``):
    client floods against the admission-controlled service, judged by
    the no-silent-drop backpressure invariant instead of count-based
    liveness (explicit rejections legitimately shrink commits)."""

    def test_overload_seeds_zero_violations(self):
        cfg = ExplorerConfig(profile="overload")
        report = explore(seeds=10, cfg=cfg)
        failing = {r.seed: [str(v) for v in r.violations] for r in report.failures}
        assert report.ok, f"seeds with violations: {failing}"

    def test_every_schedule_leads_with_flood(self):
        from repro.faults import FloodClient

        cfg = ExplorerConfig(profile="overload")
        for seed in range(10):
            events = sample_schedule(seed, cfg)
            assert any(
                isinstance(e.action, FloodClient) for e in events
            ), f"seed {seed} has no flood"

    def test_overload_profile_is_reproducible(self):
        cfg = ExplorerConfig(profile="overload")
        first = run_seed(7, cfg)
        second = run_seed(7, cfg)
        assert first.trace == second.trace
        assert first.ledger_digest == second.ledger_digest

    def test_default_profile_unperturbed(self):
        """The overload stream must not change the default profile's
        schedules (historical seeds stay reproducible)."""
        default = [e.describe() for e in sample_schedule(3)]
        _ = sample_schedule(3, ExplorerConfig(profile="overload"))
        assert [e.describe() for e in sample_schedule(3)] == default


class TestCli:
    """``python -m repro.faults`` refuses input it cannot run with a
    usage error (exit 2), not a traceback."""

    @staticmethod
    def usage_error(capsys, *argv):
        from repro.faults.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--seeds", "3", *argv])
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    def test_heal_before_the_fault_window_ends_is_refused(self, capsys):
        err = self.usage_error(capsys, "--heal-at", "1.0")
        assert "fault window's end, t=2.4" in err

    def test_zero_envelopes_is_refused(self, capsys):
        err = self.usage_error(capsys, "--envelopes", "0")
        assert "at least 1" in err
