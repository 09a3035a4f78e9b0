"""The BFT-SMaRt ordering service for Hyperledger Fabric.

This package is the paper's primary contribution: ordering nodes built
on BFT-SMaRt service replicas (:mod:`repro.ordering.node`), the block
cutter (:mod:`repro.ordering.blockcutter`), the frontend/BFT shim that
bridges HLF peers to the ordering cluster -- one for every BFT backend
(:mod:`repro.ordering.frontend`) -- and the deployment builder with its
backend table (:mod:`repro.ordering.service`).
"""

from repro.fabric.blockpolicy import SignedQuorum
from repro.ordering.admission import (
    AdmissionConfig,
    AdmissionController,
    Rejected,
    jain_fairness,
)
from repro.ordering.blockcutter import BlockCutter, TimeToCut
from repro.ordering.frontend import Frontend, MatchingCopies
from repro.ordering.node import BFTOrderingNode
from repro.ordering.service import (
    OrderingService,
    OrderingServiceConfig,
    build_ordering_service,
    ordering_replier,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BFTOrderingNode",
    "BlockCutter",
    "Rejected",
    "jain_fairness",
    "Frontend",
    "MatchingCopies",
    "OrderingService",
    "OrderingServiceConfig",
    "SignedQuorum",
    "TimeToCut",
    "build_ordering_service",
    "ordering_replier",
]
