"""Tests for the capacity model: the paper's headline numbers must
emerge from the calibrated constants."""

import random

import pytest

from repro.bench.model import (
    OrderingCapacityModel,
    SignatureThroughputModel,
    cpu_capacity,
    eq1_bound,
)
from repro.bench.topology import AWS_RTT_MS, aws_latency_model, lan_latency_model


def round_trip(a, b):
    """Round trip between two regions under the unjittered WAN model."""
    model = aws_latency_model(jitter_fraction=0.0)
    rng = random.Random(0)
    return model.delay(a, b, rng) + model.delay(b, a, rng)


class TestSignatureModel:
    def test_peak_is_8400(self):
        model = SignatureThroughputModel()
        assert model.peak == pytest.approx(8400, rel=0.01)

    def test_monotone_in_workers(self):
        model = SignatureThroughputModel()
        rates = [model.throughput(w) for w in range(1, 17)]
        assert rates == sorted(rates)

    def test_linear_scaling_up_to_physical_cores(self):
        model = SignatureThroughputModel()
        assert model.throughput(8) == pytest.approx(8 * model.throughput(1), rel=1e-6)

    def test_hyperthreading_knee(self):
        """Beyond 8 workers each extra thread adds less than a core."""
        model = SignatureThroughputModel()
        gain_low = model.throughput(8) - model.throughput(7)
        gain_high = model.throughput(16) - model.throughput(15)
        assert gain_high < gain_low

    def test_theoretical_bound_84000(self):
        """§6.1: 8,400 sig/s x 10 envelopes/block = 84,000 tx/s."""
        model = SignatureThroughputModel()
        assert model.peak * 10 == pytest.approx(84000, rel=0.01)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            SignatureThroughputModel().throughput(0)

    def test_cpu_capacity_helper(self):
        assert cpu_capacity(4) == 4.0
        assert cpu_capacity(16) == pytest.approx(10.4)
        assert cpu_capacity(40) == pytest.approx(10.4)


class TestCapacityModel:
    def test_paper_peak_50k_for_10_envelope_blocks(self):
        """§6.2: ~50k tx/s peak with 10 env/block and few receivers."""
        model = OrderingCapacityModel(n=4)
        peak = model.throughput(40, 10, 1)
        assert 45_000 < peak < 60_000

    def test_block_rate_about_1100_for_100_envelope_blocks(self):
        """§6.2: ~1,100 blocks/s when cutting 100-envelope blocks of
        1 KB envelopes."""
        model = OrderingCapacityModel(n=4)
        rate = model.block_rate(200, 100, 4)
        assert 200 < rate < 2_000

    def test_worst_case_floor_about_2200(self):
        """§8: 10 nodes, 4 KB envelopes, 32 receivers -> ~2,200 tx/s."""
        model = OrderingCapacityModel(n=10)
        floor = model.throughput(4096, 100, 32)
        assert 1_500 < floor < 3_000

    def test_throughput_declines_with_receivers(self):
        model = OrderingCapacityModel(n=4)
        series = [model.throughput(40, 10, r) for r in (1, 2, 4, 8, 16, 32)]
        assert all(a >= b for a, b in zip(series, series[1:]))
        assert series[-1] < series[0]

    def test_throughput_declines_with_envelope_size(self):
        model = OrderingCapacityModel(n=4)
        series = [model.throughput(es, 10, 2) for es in (40, 200, 1024, 4096)]
        assert all(a >= b for a, b in zip(series, series[1:]))

    def test_throughput_declines_with_cluster_size(self):
        for es in (1024, 4096):
            series = [
                OrderingCapacityModel(n=n).throughput(es, 10, 2) for n in (4, 7, 10)
            ]
            assert all(a >= b for a, b in zip(series, series[1:]))

    def test_bigger_blocks_help_small_envelopes(self):
        """§6.2/§8: for small envelopes, 100-envelope blocks beat
        10-envelope blocks (less signing per transaction)."""
        model = OrderingCapacityModel(n=4)
        assert model.throughput(40, 100, 4) > model.throughput(40, 10, 4)

    def test_block_size_insignificant_for_large_envelopes(self):
        """§6.2: for 4 KB envelopes the replication protocol dominates,
        so block size barely matters (from 7 nodes onward)."""
        model = OrderingCapacityModel(n=7)
        small_blocks = model.throughput(4096, 10, 2)
        large_blocks = model.throughput(4096, 100, 2)
        assert large_blocks == pytest.approx(small_blocks, rel=0.15)

    def test_binding_resource_shifts(self):
        model = OrderingCapacityModel(n=4)
        small = model.breakdown(40, 10, 1)
        large = model.breakdown(4096, 10, 1)
        assert small.binding_resource == "cpu"  # signing-dominated
        assert large.binding_resource == "propose_bandwidth"

    def test_double_sign_halves_sign_bound(self):
        single = OrderingCapacityModel(n=4)
        double = OrderingCapacityModel(n=4, double_sign=True)
        assert double.breakdown(40, 10, 1).bounds["signing_pool"] == pytest.approx(
            single.breakdown(40, 10, 1).bounds["signing_pool"] / 2
        )


class TestEq1:
    def test_eq1_is_an_upper_bound_on_the_model(self):
        """Equation 1 uses the stand-alone signing rate, so the full
        model's prediction must stay below it."""
        for es in (40, 200, 1024, 4096):
            for bs in (10, 100):
                for r in (1, 4, 32):
                    for n in (4, 10):
                        full = OrderingCapacityModel(n=n).throughput(es, bs, r)
                        assert full <= eq1_bound(bs, es, r, n=n) * 1.0001

    def test_eq1_sign_term_dominates_small_envelopes(self):
        assert eq1_bound(10, 40, 1) == pytest.approx(84000, rel=0.01)

    def test_eq1_bftsmart_term_dominates_large_envelopes(self):
        assert eq1_bound(10, 4096, 1, n=4) < 10_000


class TestTopology:
    def test_rtt_symmetric(self):
        assert round_trip("oregon", "sydney") == round_trip(
            "sydney", "oregon"
        )

    def test_local_rtt_small(self):
        assert round_trip("oregon", "oregon") < 0.005

    def test_all_paper_regions_covered(self):
        regions = ("oregon", "virginia", "canada", "saopaulo", "ireland", "sydney")
        for a in regions:
            for b in regions:
                assert round_trip(a, b) >= 0

    def test_latency_model_one_way_half_rtt(self):
        model = aws_latency_model(jitter_fraction=0.0)
        delay = model.delay("oregon", "ireland", random.Random(0))
        assert delay == pytest.approx(AWS_RTT_MS[("oregon", "ireland")] / 2 / 1000)

    def test_lan_model_sub_millisecond(self):
        assert lan_latency_model(0.0).delay("lan", "lan", random.Random(0)) < 0.001

    def test_sao_paulo_is_far_from_everything(self):
        """The geographic fact behind the paper's frontend-placement
        observation."""
        regions = ("oregon", "virginia", "canada", "ireland")
        for region in regions:
            assert round_trip("saopaulo", region) > round_trip(
                "virginia", "canada"
            )
