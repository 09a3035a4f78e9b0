"""repro: a BFT ordering service for Hyperledger Fabric, reproduced.

A from-scratch Python implementation of Sousa, Bessani & Vukolić,
"A Byzantine Fault-Tolerant Ordering Service for the Hyperledger
Fabric Blockchain Platform" (DSN 2018): the BFT-SMaRt replication
library with its WHEAT geo-optimizations, the Hyperledger Fabric v1.0
transaction pipeline, the BFT ordering service that connects them, and
a deterministic simulation substrate plus the benchmark harness that
regenerates every figure of the paper's evaluation.

Quickstart::

    from repro import build_ordering_service, OrderingServiceConfig
    from repro.fabric import ChannelConfig
    from repro.fabric.envelope import Envelope

    service = build_ordering_service(OrderingServiceConfig(
        f=1, channel=ChannelConfig("ch0", max_message_count=10)))
    for _ in range(20):
        service.submit(Envelope.raw("ch0", payload_size=1024))
    service.run(1.0)
    assert service.frontends[0].blocks_delivered == 2

Packages:

- :mod:`repro.sim` -- discrete-event simulation kernel (network, CPU);
- :mod:`repro.crypto` -- SHA-256 hashing and simulated signatures
  whose modeled cost is calibrated to Figure 6;
- :mod:`repro.smart` -- BFT-SMaRt state machine replication
  (consensus, leader change, state transfer, reconfiguration, WHEAT);
- :mod:`repro.fabric` -- the Hyperledger Fabric substrate (envelopes,
  blocks, endorsement, validation, ledgers, solo/Kafka orderers);
- :mod:`repro.ordering` -- the paper's contribution: the BFT ordering
  service (nodes, block cutter, frontends, deployment builders);
- :mod:`repro.bench` -- capacity models, topologies and the
  experiments behind every figure.
"""

from repro.ordering import (
    OrderingService,
    OrderingServiceConfig,
    build_ordering_service,
)

__version__ = "1.0.0"

__all__ = [
    "OrderingService",
    "OrderingServiceConfig",
    "build_ordering_service",
    "__version__",
]
