"""SmartBFT-style ordering backend (successor design, arXiv:2107.06922).

The key departure from the paper's BFT-SMaRt service (``repro.smart`` +
``repro.ordering``): consensus runs *on blocks*, every node cuts and
signs the block being agreed on, and a decided block travels to each
frontend exactly once carrying a ``2f+1`` signature quorum -- instead
of every node pushing its own full copy and the frontend matching
``2f+1`` of them.  The backend plugs into the shared deployment builder
and frontend (``repro.ordering``) as one row of its backend table:
:class:`SmartBFTNode` is the machine, :class:`HomeNodeRelay` what the
frontend relays through.  See ``docs/SMARTBFT.md`` for the full design
and the bandwidth bake-off against the paper's service.
"""

from repro.smart2.deployment import build_smartbft_service
from repro.smart2.node import SmartBFTNode
from repro.smart2.relay import HomeNodeRelay

__all__ = [
    "HomeNodeRelay",
    "SmartBFTNode",
    "build_smartbft_service",
]
