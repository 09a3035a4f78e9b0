"""WHEAT [23]: a BFT-SMaRt variant optimized for geo-replication.

WHEAT differs from baseline BFT-SMaRt in exactly two ways (paper
section 4), both implemented by the shared replica/view machinery and
merely *configured* here:

1. **Weighted quorums**: with ``n = 3f + 1 + delta`` replicas, the
   ``2f`` expected-fastest replicas receive weight ``Vmax = 1 +
   delta/f`` and the rest ``Vmin = 1``; WRITE/ACCEPT quorums need
   ``2 f Vmax + 1`` votes.  A spare fast replica thus lets quorums
   form without waiting for distant ones.
2. **Tentative executions** (from PBFT): deliver after the WRITE
   quorum, run ACCEPT asynchronously, keep undo snapshots, and make
   clients wait for a full quorum of matching replies.

The paper's geo experiment uses five replicas (Oregon, Ireland,
Sydney, São Paulo + Virginia as WHEAT's spare), with Oregon and
Virginia holding ``Vmax = 2``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.smart.view import View, binary_weights


def wheat_view(
    view_id: int,
    processes: Sequence[int],
    f: int,
    delta: int = 1,
    vmax_holders: Optional[Iterable[int]] = None,
) -> View:
    """Build a WHEAT view with binary weights (equal ones at ``delta`` 0).

    ``vmax_holders`` names the 2f replicas that get Vmax (pass the ones
    closest to clients/leader, as the paper does with Oregon+Virginia).
    """
    weights = binary_weights(tuple(processes), f, delta, vmax_holders)
    return View(
        view_id=view_id, processes=tuple(processes), f=f, delta=delta, weights=weights
    )
