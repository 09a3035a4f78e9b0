"""Views: the replica group, its leader and its vote weights.

A view is the unit of reconfiguration: adding or removing replicas
creates a new view with a larger ``view_id``.  Within a view, leaders
rotate by *regency* (synchronization phase): the leader of regency
``r`` is ``processes[r mod n]``.

Vote weights implement WHEAT's weighted replication [23]: with
``n = 3f + 1 + delta`` replicas, ``2f`` of them get weight
``Vmax = 1 + delta/f`` and the rest ``Vmin = 1``.  Quorums then need
``Qv = 2 f Vmax + 1`` votes, which for ``delta = 0`` degenerates to the
classical ``ceil((n + f + 1) / 2)`` used by BFT-SMaRt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple


def one_correct_size(f: int) -> int:
    """``f + 1``: any such set contains at least one correct replica.

    The threshold for trusting a matching answer (state-transfer
    replies, final client replies, block-copy witnesses).
    """
    return f + 1


def byzantine_majority_size(f: int) -> int:
    """``2f + 1``: a majority of the correct replicas.

    The STOP/regency-change quorum and the unweighted vote count that
    guarantees intersection in a correct replica.
    """
    return 2 * f + 1


def bft_group_size(f: int, delta: int = 0) -> int:
    """``3f + 1 + delta``: the smallest group tolerating ``f``
    Byzantine faults with ``delta`` spare replicas (WHEAT)."""
    return 3 * f + 1 + delta


def max_faults(n: int, delta: int = 0) -> int:
    """Largest f such that n >= 3f + 1 + delta."""
    f = (n - 1 - delta) // 3
    if f < 0:
        raise ValueError(f"n={n} too small for delta={delta}")
    return f


def binary_weights(
    processes: Sequence[int], f: int, delta: int, vmax_holders: Optional[Iterable[int]] = None
) -> Dict[int, float]:
    """WHEAT's binary weight distribution.

    ``vmax_holders`` picks which replicas receive ``Vmax`` (the 2f
    expected fastest ones); defaults to the first ``2f`` processes.
    """
    if delta == 0:
        # no spare-replica weighting: everyone counts equally, whatever
        # the group size (n may exceed 3f+1 after reconfigurations)
        return {p: 1.0 for p in processes}
    n = len(processes)
    if n != 3 * f + 1 + delta:
        raise ValueError(f"n={n} must equal 3f+1+delta = {3 * f + 1 + delta}")
    vmax = 1.0 + delta / f
    holders = list(vmax_holders) if vmax_holders is not None else list(processes[: 2 * f])
    if len(holders) != 2 * f:
        raise ValueError(f"exactly 2f={2 * f} replicas must hold Vmax, got {len(holders)}")
    unknown = set(holders) - set(processes)
    if unknown:
        raise ValueError(f"Vmax holders not in view: {sorted(unknown)}")
    return {p: (vmax if p in holders else 1.0) for p in processes}


@dataclass(frozen=True)
class View:
    """An immutable replica-group configuration."""

    view_id: int
    processes: Tuple[int, ...]
    f: int
    delta: int = 0
    weights: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.processes)
        if len(set(self.processes)) != n:
            raise ValueError("duplicate replica ids in view")
        if n < 3 * self.f + 1 + self.delta:
            raise ValueError(
                f"n={n} cannot tolerate f={self.f} Byzantine faults with delta={self.delta}"
            )
        if not self.weights:
            object.__setattr__(
                self, "weights", binary_weights(self.processes, self.f, self.delta)
            )
        else:
            missing = set(self.processes) - set(self.weights)
            if missing:
                raise ValueError(f"missing weights for replicas {sorted(missing)}")
        # views are immutable, so the derived quorum quantities are
        # computed once here instead of on every vote (they sit on the
        # hottest consensus path: one quorum check per WRITE/ACCEPT)
        weights = self.weights.values()
        object.__setattr__(self, "_vmax", max(weights))
        object.__setattr__(self, "_total_weight", sum(weights))
        object.__setattr__(
            self, "_quorum_threshold", (self._total_weight + self.f * self._vmax) / 2.0
        )

    @property
    def n(self) -> int:
        return len(self.processes)

    @property
    def vmax(self) -> float:
        return self._vmax

    @property
    def total_weight(self) -> float:
        return self._total_weight

    @property
    def quorum_threshold(self) -> float:
        """WRITE/ACCEPT quorums need combined weight *strictly above*
        ``(V + f * Vmax) / 2``.

        Any two such quorums overlap in weight ``> f * Vmax``, i.e. in
        at least one correct replica; and the ``f`` heaviest replicas
        failing still leaves ``V - f*Vmax >`` threshold available, so
        liveness holds.  With WHEAT's binary weights this gives the
        paper's ``Qv = 2 f Vmax + 1`` votes; with uniform weights it
        degenerates to the classic ``ceil((n+f+1)/2)`` rule.
        """
        return self._quorum_threshold

    def is_quorum_weight(self, weight: float) -> bool:
        return weight > self._quorum_threshold + 1e-9

    def leader_of(self, regency: int) -> int:
        return self.processes[regency % self.n]

    def weight_of(self, replica: int) -> float:
        return self.weights[replica]

    def has_quorum(self, voters: Iterable[int]) -> bool:
        """Do ``voters`` (distinct replicas) carry a WRITE/ACCEPT quorum?"""
        distinct = set(voters)
        return self.is_quorum_weight(sum(self.weights.get(v, 0.0) for v in distinct))

    def is_reply_quorum(self, weight: float, tentative: bool) -> bool:
        """Has a client gathered enough matching reply weight?

        Final replies only need one correct replica vouching for the
        result: weight strictly above ``f * Vmax``.  Tentative (WHEAT)
        replies need a full quorum (paper section 4).
        """
        if tentative:
            return self.is_quorum_weight(weight)
        return weight > self.f * self.vmax + 1e-9

    def with_processes(
        self, processes: Sequence[int], f: Optional[int] = None, delta: Optional[int] = None
    ) -> "View":
        """Derive the successor view after a reconfiguration."""
        new_delta = self.delta if delta is None else delta
        new_f = max_faults(len(processes), new_delta) if f is None else f
        return View(
            view_id=self.view_id + 1,
            processes=tuple(processes),
            f=new_f,
            delta=new_delta,
        )
