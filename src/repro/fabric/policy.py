"""Endorsement policies.

An endorsement policy states which organizations must have endorsed a
transaction for it to be valid (paper section 3, steps 2 and 5).
Policies are expression trees evaluated over the set of organizations
with *valid* signatures on the transaction.
"""

from __future__ import annotations

import itertools
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence


class EndorsementPolicy:
    """Base class: ``satisfied_by(orgs)`` decides acceptance."""

    def satisfied_by(self, orgs: Iterable[str]) -> bool:
        raise NotImplementedError

    def required_orgs(self) -> FrozenSet[str]:
        """Every org mentioned anywhere in the policy tree."""
        raise NotImplementedError


class SignedBy(EndorsementPolicy):
    """Requires an endorsement from one specific organization."""

    def __init__(self, org: str):
        self.org = org

    def satisfied_by(self, orgs: Iterable[str]) -> bool:
        return self.org in set(orgs)

    def required_orgs(self) -> FrozenSet[str]:
        return frozenset({self.org})

    def __repr__(self) -> str:
        return f"SignedBy({self.org!r})"


class OutOf(EndorsementPolicy):
    """Requires ``k`` of the sub-policies to be satisfied."""

    def __init__(self, k: int, *subpolicies: EndorsementPolicy):
        if not 1 <= k <= len(subpolicies):
            raise ValueError(f"k={k} out of range for {len(subpolicies)} subpolicies")
        self.k = k
        self.subpolicies: Sequence[EndorsementPolicy] = subpolicies

    def satisfied_by(self, orgs: Iterable[str]) -> bool:
        orgs = set(orgs)
        satisfied = sum(1 for sub in self.subpolicies if sub.satisfied_by(orgs))
        return satisfied >= self.k

    def required_orgs(self) -> FrozenSet[str]:
        required: FrozenSet[str] = frozenset()
        for sub in self.subpolicies:
            required |= sub.required_orgs()
        return required

    def __repr__(self) -> str:
        subs = ", ".join(repr(s) for s in self.subpolicies)
        return f"OutOf({self.k}, {subs})"


def And(*subpolicies: EndorsementPolicy) -> OutOf:
    """All sub-policies must hold."""
    return OutOf(len(subpolicies), *subpolicies)


def Or(*subpolicies: EndorsementPolicy) -> OutOf:
    """Any one sub-policy suffices."""
    return OutOf(1, *subpolicies)


def minimal_cover(
    policy: EndorsementPolicy,
    endorsers: Sequence[str],
    org_of: Callable[[str], Optional[str]],
) -> Optional[List[str]]:
    """The smallest subset of ``endorsers`` whose orgs satisfy ``policy``.

    Among subsets of one size the first in configured order wins (the
    order ``itertools.combinations`` yields them), so the choice is
    deterministic.  ``None`` when even all of them cannot satisfy it.
    """
    orgs = [org_of(endorser) for endorser in endorsers]
    for size in range(1, len(endorsers) + 1):
        for chosen in itertools.combinations(range(len(endorsers)), size):
            if policy.satisfied_by(orgs[index] for index in chosen):
                return [endorsers[index] for index in chosen]
    return None
