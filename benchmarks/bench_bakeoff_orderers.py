"""Bake-off: the stock HLF orderers vs the two BFT ordering services.

Not a paper figure, but the comparison §3 sets up: solo (no fault
tolerance), Kafka-like (crash-fault-tolerant), the paper's BFT-SMaRt
service and SmartBFT on the same LAN workload, each committed through
the same peer.  The point is qualitative: the BFT service pays a modest
latency premium over the weaker designs while being the only kind to
survive Byzantine ordering nodes.

Runs the registered ``bakeoff_orderers`` matrix through the harness
(every backend stands up through ``repro.ordering.backends``).
"""

import pytest

pytestmark = pytest.mark.bench


def test_bakeoff_latency_comparison(bench_result):
    result = bench_result("bakeoff_orderers")

    for f in (1, 3):
        solo = result.value("median_latency_s", orderer="solo", f=f)
        kafka = result.value("median_latency_s", orderer="kafka", f=f)
        bft = result.value("median_latency_s", orderer="bftsmart", f=f)
        # solo is fastest (no replication), BFT costs more than Kafka-CFT,
        # but all stay in the same order of magnitude on a LAN
        assert solo <= kafka <= bft, (f, solo, kafka, bft)
        assert bft < 0.05
