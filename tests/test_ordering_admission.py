"""Admission control / backpressure tests (docs/WORKLOADS.md).

Covers the controller in isolation (token buckets, in-flight window,
explicit verdicts, fairness accounting) and its integration into both
frontends: a rejected envelope never reaches the cluster, an admitted
one frees its window slot when its block commits, and disabling
admission preserves the historical relay-everything behaviour.
"""

import pytest

from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope, OversizedPayloadError
from repro.ordering import OrderingServiceConfig, build_ordering_service
from repro.ordering.admission import (
    REASON_OVERSIZED,
    REASON_RATE_LIMITED,
    REASON_WINDOW_FULL,
    AdmissionConfig,
    AdmissionController,
    Rejected,
    jain_fairness,
    merge_tenant_counts,
)


class TestAdmissionController:
    def test_admits_within_burst(self):
        controller = AdmissionController(
            AdmissionConfig(tenant_rate=10.0, tenant_burst=5.0, max_in_flight=100)
        )
        verdicts = [controller.admit("alice", 0.0) for _ in range(5)]
        assert verdicts == [None] * 5
        assert controller.admitted == 5
        assert controller.in_flight == 5

    def test_rate_limits_past_burst(self):
        controller = AdmissionController(
            AdmissionConfig(tenant_rate=10.0, tenant_burst=2.0, max_in_flight=100)
        )
        assert controller.admit("alice", 0.0) is None
        assert controller.admit("alice", 0.0) is None
        verdict = controller.admit("alice", 0.0)
        assert isinstance(verdict, Rejected)
        assert verdict.reason == REASON_RATE_LIMITED
        assert verdict.retry_after == pytest.approx(0.1)

    def test_bucket_refills_over_time(self):
        controller = AdmissionController(
            AdmissionConfig(tenant_rate=10.0, tenant_burst=1.0, max_in_flight=100)
        )
        assert controller.admit("alice", 0.0) is None
        assert controller.admit("alice", 0.0).reason == REASON_RATE_LIMITED
        # 0.2s at 10 tokens/s refills 2 tokens, capped at burst=1
        assert controller.admit("alice", 0.2) is None

    def test_window_full_sheds_every_tenant(self):
        controller = AdmissionController(
            AdmissionConfig(tenant_rate=100.0, tenant_burst=10.0, max_in_flight=2)
        )
        assert controller.admit("alice", 0.0) is None
        assert controller.admit("bob", 0.0) is None
        verdict = controller.admit("carol", 0.0)
        assert verdict.reason == REASON_WINDOW_FULL
        controller.release(1)
        assert controller.admit("carol", 0.0) is None

    def test_release_never_goes_negative(self):
        controller = AdmissionController()
        controller.release(5)
        assert controller.in_flight == 0

    def test_buckets_are_per_tenant(self):
        controller = AdmissionController(
            AdmissionConfig(tenant_rate=10.0, tenant_burst=1.0, max_in_flight=100)
        )
        assert controller.admit("alice", 0.0) is None
        assert controller.admit("alice", 0.0).reason == REASON_RATE_LIMITED
        # bob's bucket is untouched by alice's exhaustion
        assert controller.admit("bob", 0.0) is None

    def test_oversized_recorded_with_zero_retry(self):
        controller = AdmissionController()
        verdict = controller.reject_oversized("alice")
        assert verdict.reason == REASON_OVERSIZED
        assert verdict.retry_after == 0.0
        assert controller.rejected[REASON_OVERSIZED] == 1

    def test_shed_fraction_and_fairness(self):
        controller = AdmissionController(
            AdmissionConfig(tenant_rate=10.0, tenant_burst=2.0, max_in_flight=100)
        )
        for _ in range(4):
            controller.admit("alice", 0.0)
        for _ in range(2):
            controller.admit("bob", 0.0)
        assert controller.shed_count == 2  # alice's 3rd and 4th
        assert controller.shed_fraction() == pytest.approx(2 / 6)
        assert controller.fairness_index() == pytest.approx(1.0)  # 2 vs 2

    def test_merge_tenant_counts(self):
        a = AdmissionController(AdmissionConfig(tenant_burst=10.0))
        b = AdmissionController(AdmissionConfig(tenant_burst=10.0))
        a.admit("alice", 0.0)
        b.admit("alice", 0.0)
        b.admit("bob", 0.0)
        admitted, rejected = merge_tenant_counts([a, b])
        assert admitted == {"alice": 2, "bob": 1}
        assert rejected == {}


class TestJainFairness:
    def test_even_allocation_is_one(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero_are_fair(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0, 0]) == 1.0


def overload_service(orderer="bftsmart", **admission_kwargs):
    defaults = dict(tenant_rate=1000.0, tenant_burst=100.0, max_in_flight=8)
    defaults.update(admission_kwargs)
    config = OrderingServiceConfig(
        orderer=orderer,
        f=1,
        channel=ChannelConfig("ch0", max_message_count=4, batch_timeout=0.25),
        num_frontends=1,
        physical_cores=None,
        enable_batch_timeout=True,
        admission=AdmissionConfig(**defaults),
    )
    return build_ordering_service(config)


@pytest.mark.parametrize("orderer", ["bftsmart", "smartbft"])
class TestFrontendIntegration:
    def test_window_full_rejects_then_drains(self, orderer):
        service = overload_service(orderer)
        frontend = service.frontends[0]
        verdicts = []
        for i in range(12):
            envelope = Envelope(
                channel_id="ch0", transaction=None, payload_size=64, envelope_id=i
            )
            # the service-level entry point hands the verdict through
            verdicts.append(service.submit(envelope))
        rejected = [v for v in verdicts if v is not None]
        assert len(rejected) == 4  # window of 8
        assert all(v.reason == REASON_WINDOW_FULL for v in rejected)
        assert frontend.envelopes_submitted == 8
        # committing the admitted envelopes frees the window
        service.sim.run_until(lambda: service.total_delivered() >= 8, 30.0)
        assert frontend.admission.in_flight == 0
        late = Envelope(
            channel_id="ch0", transaction=None, payload_size=64, envelope_id=99
        )
        assert frontend.submit(late) is None

    def test_oversized_is_explicit_verdict_with_admission(self, orderer):
        service = overload_service(orderer)
        frontend = service.frontends[0]
        huge = Envelope(
            channel_id="ch0",
            transaction=None,
            payload_size=512 * 1024 * 1024,
            envelope_id=1,
        )
        verdict = frontend.submit(huge)
        assert verdict is not None and verdict.reason == REASON_OVERSIZED
        assert frontend.envelopes_submitted == 0

    def test_rejected_envelopes_never_reach_the_cluster(self, orderer):
        service = overload_service(orderer, max_in_flight=2)
        frontend = service.frontends[0]
        for i in range(6):
            envelope = Envelope(
                channel_id="ch0", transaction=None, payload_size=64, envelope_id=i
            )
            frontend.submit(envelope)
        service.sim.run_until(lambda: service.total_delivered() >= 2, 30.0)
        service.run(2.0)
        assert service.total_delivered() == 2
        assert frontend.admission.shed_count == 4

    def test_duplicate_ids_release_every_slot(self, orderer):
        """A duplicate flood admits one envelope id many times; every
        admit holds a window slot and every slot must come back."""
        service = overload_service(orderer, max_in_flight=16)
        frontend = service.frontends[0]
        verdicts = []
        for i in range(18):  # ids 0..5, three times in a row each
            envelope = Envelope(
                channel_id="ch0", transaction=None, payload_size=64, envelope_id=i // 3
            )
            verdicts.append(frontend.submit(envelope))
        assert [v is None for v in verdicts] == [True] * 16 + [False] * 2
        assert frontend.admission.in_flight == 16
        service.run(10.0)
        assert service.total_delivered() == 16
        assert frontend.admission.in_flight == 0
        assert not frontend._window_pending
        # and nothing committed is still being resubmitted
        assert getattr(frontend.relay, "resubmissions", 0) == 0
        assert not getattr(frontend.relay, "_outstanding", None)


class TestAdmissionDisabledCompat:
    def test_oversized_still_raises_without_admission(self):
        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("ch0", max_message_count=4),
            num_frontends=1,
            physical_cores=None,
        )
        service = build_ordering_service(config)
        huge = Envelope(
            channel_id="ch0",
            transaction=None,
            payload_size=512 * 1024 * 1024,
            envelope_id=1,
        )
        with pytest.raises(OversizedPayloadError):
            service.frontends[0].submit(huge)

    def test_submit_returns_none_without_admission(self):
        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("ch0", max_message_count=4),
            num_frontends=1,
            physical_cores=None,
        )
        service = build_ordering_service(config)
        envelope = Envelope(
            channel_id="ch0", transaction=None, payload_size=64, envelope_id=1
        )
        assert service.frontends[0].submit(envelope) is None
        assert service.frontends[0].admission is None


class TestObsIntegration:
    def test_reject_counters_and_gauges(self):
        from repro.obs import Observability

        obs = Observability()
        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("ch0", max_message_count=4),
            num_frontends=1,
            physical_cores=None,
            admission=AdmissionConfig(
                tenant_rate=10.0, tenant_burst=1.0, max_in_flight=4
            ),
        )
        service = build_ordering_service(config, observability=obs)
        frontend = service.frontends[0]
        for i in range(3):
            envelope = Envelope(
                channel_id="ch0",
                transaction=None,
                payload_size=64,
                envelope_id=i,
                submitter="alice",
            )
            frontend.submit(envelope)
        name = frontend.name
        registry = obs.registry
        assert (
            registry.counter(f"ordering.frontend.{name}.rejected.rate-limited").value
            == 2
        )
        assert (
            registry.counter(f"ordering.frontend.{name}.rejected_total").value == 2
        )
        assert registry.gauge(f"ordering.frontend.{name}.in_flight").value == 1
        assert registry.gauge(f"ordering.frontend.{name}.shed_count").value == 2
