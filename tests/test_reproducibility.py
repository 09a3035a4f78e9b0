"""Bit-for-bit reproducibility of whole experiments.

The simulator is the instrument of this reproduction: identical seeds
must produce identical measurements, and different seeds must sample
the same distribution (close but not identical latencies).

The golden-equivalence tests pin the instrument itself: committed
digests of the full trace/span/metric views from two seeded smoke
scenarios.  Any kernel "optimization" that reorders events, perturbs a
timestamp, or shifts an RNG draw fails here byte-for-byte, so the fast
path can only ever be a faster encoding of the same computation.
"""

import pytest

from repro.bench.figures import geo_latency_experiment, simulate_lan_throughput
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope, envelope_ids
from repro.ordering import OrderingServiceConfig, build_ordering_service


class TestSeededReproducibility:
    def test_geo_experiment_identical_for_same_seed(self):
        runs = [
            geo_latency_experiment(
                "wheat", envelope_size=1024, block_size=10,
                rate=900, duration=3.0, warmup=1.0, seed=7,
            )
            for _ in range(2)
        ]
        for a, b in zip(*runs):
            assert a.median == b.median
            assert a.p90 == b.p90
            assert a.samples == b.samples
            assert a.throughput == b.throughput

    def test_geo_experiment_differs_across_seeds(self):
        a = geo_latency_experiment(
            "wheat", envelope_size=1024, block_size=10,
            rate=900, duration=3.0, warmup=1.0, seed=1,
        )
        b = geo_latency_experiment(
            "wheat", envelope_size=1024, block_size=10,
            rate=900, duration=3.0, warmup=1.0, seed=2,
        )
        assert any(x.median != y.median for x, y in zip(a, b))
        # ... but they sample the same distribution
        for x, y in zip(a, b):
            assert x.median == pytest.approx(y.median, rel=0.15)

    def test_lan_simulation_identical_for_same_seed(self):
        first = simulate_lan_throughput(
            4, 10, 1024, 2, duration=0.5, warmup=0.2, seed=3
        )
        second = simulate_lan_throughput(
            4, 10, 1024, 2, duration=0.5, warmup=0.2, seed=3
        )
        assert first.generated_rate == second.generated_rate
        assert first.delivered_rate == second.delivered_rate

    def test_service_block_chain_identical_for_same_seed(self):
        def run(seed):
            service = build_ordering_service(
                OrderingServiceConfig(
                    f=1,
                    channel=ChannelConfig("ch0", max_message_count=5),
                    physical_cores=None,
                    latency=None,  # default LAN with no jitter
                    seed=seed,
                )
            )
            ids = envelope_ids(service.sim)
            for i in range(20):
                service.submit(Envelope.raw("ch0", 100 + i, envelope_id=next(ids)))
            service.run(3.0)
            assert service.nodes[0].blocks_created == 4
            return service.ledger_digests()

        # ids belong to the run, so the same seed gives the same ledger
        # -- header chain over envelope digests -- run after run
        assert run(5) == run(5)


class TestGoldenEquivalence:
    """The committed records are the semantic contract of the kernel.

    ``capture_record`` (the sanitizer harness) runs the seeded smoke
    scenario with tracing on; the full event stream (time/kind/src/dst/
    detail rows in emission order), the span tree and the metrics
    snapshot must match under whatever hash seed pytest runs with.
    Both files are rows of the pin ledger (``tests/golden.py``).
    """

    @pytest.mark.parametrize("name", ["smoke_seed0", "smoke_seed7"])
    def test_digests_match_golden(self, golden, name):
        golden.check(name)
