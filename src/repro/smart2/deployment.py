"""The SmartBFT deployment is a row of the one backend table
(:data:`repro.ordering.service.BACKENDS`); this entry point only pins
``orderer="smartbft"`` for callers that name the backend by function.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.ordering.service import (
    OrderingService,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.sim.core import Simulator


def build_smartbft_service(
    config: Optional[OrderingServiceConfig] = None,
    sim: Optional[Simulator] = None,
    observability: Optional[Any] = None,
) -> OrderingService:
    """``build_ordering_service`` with ``config.orderer = "smartbft"``."""
    config = replace(config or OrderingServiceConfig(), orderer="smartbft")
    return build_ordering_service(config, sim=sim, observability=observability)
