"""Tests for the open-loop workload package (repro.workload)."""

import itertools

import pytest

from repro.fabric.channel import ChannelConfig
from repro.ordering import (
    AdmissionConfig,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.sim.randomness import RandomStreams
from repro.workload import (
    ConflictStorm,
    DuplicateFlood,
    FixedArrivals,
    PoissonArrivals,
    RawProfile,
    TenantSpec,
    TokenTransferProfile,
    WorkloadEngine,
    make_arrivals,
)


def small_service(block_size=4, admission=None, num_frontends=2):
    config = OrderingServiceConfig(
        f=1,
        channel=ChannelConfig("ch0", max_message_count=block_size, batch_timeout=0.25),
        num_frontends=num_frontends,
        physical_cores=None,
        enable_batch_timeout=True,
        admission=admission,
    )
    return build_ordering_service(config)


class TestArrivals:
    def test_fixed_unjittered_draws_nothing(self):
        rng = RandomStreams(1).stream("t")
        before = rng.getstate()
        arrival = FixedArrivals(rate=100.0)
        delays = [arrival.next_delay(rng, 0.0) for _ in range(5)]
        assert delays == [0.01] * 5
        assert rng.getstate() == before

    def test_fixed_jitter_is_bounded(self):
        rng = RandomStreams(1).stream("t")
        arrival = FixedArrivals(rate=100.0, jitter_fraction=0.2)
        for _ in range(100):
            assert 0.008 <= arrival.next_delay(rng, 0.0) <= 0.012

    def test_poisson_is_seeded_and_memoryless(self):
        one = [
            PoissonArrivals(rate=50.0).next_delay(RandomStreams(3).stream("t"), 0.0)
            for _ in range(1)
        ]
        two = [
            PoissonArrivals(rate=50.0).next_delay(RandomStreams(3).stream("t"), 9.9)
            for _ in range(1)
        ]
        # memoryless: `now` does not enter the draw
        assert one == two

    def test_poisson_mean_close_to_rate(self):
        rng = RandomStreams(7).stream("t")
        arrival = PoissonArrivals(rate=200.0)
        delays = [arrival.next_delay(rng, 0.0) for _ in range(4000)]
        assert sum(delays) / len(delays) == pytest.approx(1 / 200.0, rel=0.1)

    def test_factory_kinds_and_errors(self):
        assert isinstance(make_arrivals("fixed", 1.0), FixedArrivals)
        assert isinstance(make_arrivals("poisson", 1.0), PoissonArrivals)
        with pytest.raises(ValueError):
            make_arrivals("poisson", 0.0)
        with pytest.raises(ValueError):
            make_arrivals("sawtooth", 1.0)


class TestProfiles:
    def test_raw_profile_pins_requested_id(self):
        rng = RandomStreams(1).stream("t")
        profile = RawProfile(channel="chX", envelope_size=321)
        envelope = profile.make(rng, "acme", itertools.count(777))
        assert envelope.channel_id == "chX"
        assert envelope.payload_size == 321
        assert envelope.submitter == "acme"
        assert envelope.envelope_id == 777

    def test_token_transfer_counts_conflicts(self):
        rng = RandomStreams(2).stream("t")
        ids = itertools.count()
        profile = TokenTransferProfile(hot_keys=4, cold_keys=10_000, hot_fraction=0.5)
        for _ in range(500):
            profile.make(rng, "acme", ids)
        assert profile.envelopes == 500
        # P(at least one hot key) = 1 - 0.25 = 0.75
        assert profile.conflict_fraction() == pytest.approx(0.75, abs=0.08)

    def test_token_transfer_all_cold_never_conflicts(self):
        rng = RandomStreams(2).stream("t")
        ids = itertools.count()
        profile = TokenTransferProfile(hot_fraction=0.0)
        for _ in range(50):
            profile.make(rng, "acme", ids)
        assert profile.conflict_candidates == 0


class TestAdversarialProfiles:
    def test_duplicate_flood_replays_identity(self):
        rng = RandomStreams(5).stream("t")
        ids = itertools.count()
        flood = DuplicateFlood(unique_every=4)
        envelopes = [flood.make(rng, "mallory", ids) for _ in range(8)]
        # a replay draws nothing: two identities, two ids taken
        assert [e.envelope_id for e in envelopes] == [0] * 4 + [1] * 4
        assert next(ids) == 2
        # duplicates are distinct objects carrying the same identity
        assert envelopes[1] is not envelopes[0]
        assert envelopes[1].digest() == envelopes[0].digest()

    def test_conflict_storm_always_conflicts(self):
        rng = RandomStreams(7).stream("t")
        ids = itertools.count()
        storm = ConflictStorm(hot_keys=2)
        for _ in range(100):
            storm.make(rng, "mallory", ids)
        assert storm.conflict_fraction() == 1.0


class TestWorkloadEngine:
    def test_rejects_bad_tenant_tables(self):
        service = small_service()
        with pytest.raises(ValueError):
            WorkloadEngine(service.sim, service.frontends, [])
        with pytest.raises(ValueError):
            WorkloadEngine(
                service.sim,
                service.frontends,
                [TenantSpec(name="a"), TenantSpec(name="a")],
            )
        with pytest.raises(ValueError):
            WorkloadEngine(
                service.sim,
                service.frontends,
                [TenantSpec(name="a", session_rate=0.0)],
            )

    def test_offered_tracks_aggregate_rate(self):
        service = small_service()
        engine = WorkloadEngine(
            service.sim,
            service.frontends,
            [
                TenantSpec(name="big", sessions=1000, session_rate=0.2, profile=RawProfile(channel="ch0")),
                TenantSpec(name="small", sessions=100, session_rate=0.2, profile=RawProfile(channel="ch0")),
            ],
            streams=RandomStreams(11),
            duration=2.0,
        )
        engine.start()
        service.run(4.0)
        stats = engine.stats
        assert stats["big"].offered == pytest.approx(400, rel=0.2)
        assert stats["small"].offered == pytest.approx(40, rel=0.35)
        assert engine.offered == stats["big"].offered + stats["small"].offered

    def test_commit_accounting_and_latency(self):
        service = small_service()
        engine = WorkloadEngine(
            service.sim,
            service.frontends,
            [TenantSpec(name="acme", session_rate=100.0, arrival="fixed", profile=RawProfile(channel="ch0"))],
            streams=RandomStreams(12),
            duration=1.0,
        )
        engine.start()
        service.run(5.0)
        report = engine.report()
        assert report.offered > 50
        assert report.admitted == report.offered  # no admission configured
        assert report.committed > 0
        assert report.goodput_per_s > 0
        assert 0 < report.p50_latency_s <= report.p99_latency_s
        assert report.shed_fraction == 0.0

    def test_rejections_are_recorded_per_reason(self):
        service = small_service(
            admission=AdmissionConfig(
                tenant_rate=10.0, tenant_burst=5.0, max_in_flight=1000
            )
        )
        engine = WorkloadEngine(
            service.sim,
            service.frontends,
            [TenantSpec(name="flood", session_rate=500.0, arrival="fixed", profile=RawProfile(channel="ch0"))],
            streams=RandomStreams(13),
            duration=0.5,
        )
        engine.start()
        service.run(2.0)
        report = engine.report()
        assert report.rejected.get("rate-limited", 0) > 0
        assert report.admitted + sum(report.rejected.values()) == report.offered
        assert report.shed_fraction > 0.5

    def test_tenants_draw_ids_from_one_run_stream_in_order(self):
        service = small_service()
        engine = WorkloadEngine(
            service.sim,
            service.frontends,
            [
                TenantSpec(name="a", session_rate=50.0, arrival="fixed", profile=RawProfile(channel="ch0")),
                TenantSpec(name="b", session_rate=50.0, arrival="fixed", profile=RawProfile(channel="ch0")),
            ],
            streams=RandomStreams(14),
            duration=0.5,
        )
        seen = []
        for frontend in service.frontends:
            original = frontend.submit

            def probe(envelope, _original=original):
                seen.append(envelope.envelope_id)
                return _original(envelope)

            frontend.submit = probe
        engine.start()
        service.run(1.0)
        assert len(seen) > 40
        assert seen == list(range(len(seen)))

    def test_fixed_frontend_pinning(self):
        service = small_service()
        engine = WorkloadEngine(
            service.sim,
            service.frontends,
            [TenantSpec(name="pinned", session_rate=50.0, arrival="fixed", frontend_index=1, profile=RawProfile(channel="ch0"))],
            streams=RandomStreams(15),
            duration=0.5,
        )
        engine.start()
        service.run(1.0)
        assert service.frontends[0].envelopes_submitted == 0
        assert service.frontends[1].envelopes_submitted > 0

    def test_stop_halts_all_tenants(self):
        service = small_service()
        engine = WorkloadEngine(
            service.sim,
            service.frontends,
            [
                TenantSpec(name="a", session_rate=100.0, arrival="fixed", profile=RawProfile(channel="ch0")),
                TenantSpec(name="b", session_rate=100.0, arrival="fixed", profile=RawProfile(channel="ch0")),
            ],
            streams=RandomStreams(16),
            duration=10.0,
        )
        engine.start()
        service.run(0.1)
        engine.stop()
        offered = engine.offered
        service.run(1.0)
        assert engine.offered == offered

    def test_same_seed_same_run(self):
        def run(seed):
            service = small_service()
            engine = WorkloadEngine(
                service.sim,
                service.frontends,
                [
                    TenantSpec(name="a", session_rate=80.0, profile=RawProfile(channel="ch0")),
                    TenantSpec(name="b", session_rate=40.0, arrival="poisson", profile=RawProfile(channel="ch0")),
                ],
                streams=RandomStreams(seed),
                duration=1.0,
            )
            engine.start()
            service.run(3.0)
            report = engine.report()
            return (report.offered, report.committed, report.p99_latency_s)

        assert run(21) == run(21)
        assert run(21) != run(22)

    def test_fairness_under_one_tenant_flood(self):
        service = small_service(
            admission=AdmissionConfig(
                tenant_rate=100.0, tenant_burst=20.0, max_in_flight=1000
            )
        )
        engine = WorkloadEngine(
            service.sim,
            service.frontends,
            [
                TenantSpec(name="honest-a", session_rate=40.0, profile=RawProfile(channel="ch0")),
                TenantSpec(name="honest-b", session_rate=40.0, profile=RawProfile(channel="ch0")),
                TenantSpec(
                    name="mallory",
                    session_rate=2000.0,
                    arrival="fixed",
                    profile=DuplicateFlood(channel="ch0"),
                ),
            ],
            streams=RandomStreams(23),
            duration=1.0,
        )
        engine.start()
        service.run(4.0)
        report = engine.report(honest_only_fairness=True)
        stats = engine.stats
        assert stats["honest-a"].committed > 0
        assert stats["honest-b"].committed > 0
        # honest tenants keep near-equal service despite the flood
        assert report.fairness >= 0.9
        full = engine.report()
        assert full.rejected.get("rate-limited", 0) > 0

    def test_million_sessions_is_o_tenants(self):
        """1,000,000 sessions across 10 tenants: one timer per tenant,
        fast enough for the smoke budget because state never scales
        with the session count -- only with tenants and in-flight."""
        service = small_service(
            block_size=50,
            admission=AdmissionConfig(
                tenant_rate=200.0, tenant_burst=50.0, max_in_flight=500
            ),
        )
        tenants = [
            TenantSpec(name=f"tenant{i}", sessions=100_000, session_rate=0.01, profile=RawProfile(channel="ch0"))
            for i in range(10)
        ]
        assert sum(t.sessions for t in tenants) == 1_000_000
        engine = WorkloadEngine(
            service.sim,
            service.frontends,
            tenants,
            streams=RandomStreams(42),
            duration=1.0,
        )
        engine.start()
        service.run(3.0)
        report = engine.report()
        # ~10 x 1000/s offered for 1s, most of it shed by admission
        assert report.offered > 5_000
        assert report.committed > 0
        assert len(engine._states) == 10
        # pending-latency map is bounded by the admission window
        assert len(engine._pending) <= 1000
