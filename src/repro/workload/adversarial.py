"""Adversarial traffic mixes.

Each adversary is just an :class:`~repro.workload.profiles.ApplicationProfile`
that abuses the submission interface instead of using it: the engine
drives them exactly like honest tenants, which is the point -- the
admission layer must tell them apart by *behaviour* (budget
exhaustion, size ceilings), not by labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.fabric.envelope import DEFAULT_MAX_PAYLOAD_BYTES, Envelope
from repro.workload.profiles import ApplicationProfile, TokenTransferProfile


@dataclass
class DuplicateFlood(ApplicationProfile):
    """Replays one envelope identity over and over.

    Every ``unique_every``-th envelope is fresh; the rest are byte-
    identical duplicates (same envelope id, same digest).  Without
    per-tenant budgets a duplicate flood inflates every queue in the
    pipeline at near-zero cost to the attacker; with admission control
    each duplicate still burns one of the flooder's own tokens.
    """

    channel: str = "channel0"
    envelope_size: int = 256
    unique_every: int = 8
    _count: int = field(default=0, init=False)
    _current: Optional[Envelope] = field(default=None, init=False)

    def make(self, rng, tenant, ids):
        fresh = self._current is None or self._count % self.unique_every == 0
        self._count += 1
        if fresh:
            self._current = self._envelope(
                self.channel, self.envelope_size, tenant, ids
            )
            return self._current
        original = self._current
        # a fresh object with the same identity: what a replayed wire
        # message looks like to the frontend
        return Envelope(
            channel_id=original.channel_id,
            transaction=None,
            payload_size=original.payload_size,
            submitter=original.submitter,
            envelope_id=original.envelope_id,
        )


@dataclass
class OversizedSpam(ApplicationProfile):
    """Envelopes over the channel's AbsoluteMaxBytes ceiling.

    ``oversize_fraction`` of submissions exceed the ceiling by
    ``factor``; the rest are normal-size cover traffic.  Every
    oversized envelope must come back as an explicit ``oversized``
    rejection -- never a silent drop, and never an admitted giant.
    """

    channel: str = "channel0"
    envelope_size: int = 1024
    ceiling: int = DEFAULT_MAX_PAYLOAD_BYTES
    factor: float = 2.0
    oversize_fraction: float = 0.5

    def make(self, rng, tenant, ids):
        if rng.random() < self.oversize_fraction:
            size = int(self.ceiling * self.factor)
        else:
            size = self.envelope_size
        return self._envelope(self.channel, size, tenant, ids)


def ConflictStorm(
    channel: str = "channel0",
    envelope_size: int = 200,
    hot_keys: int = 2,
) -> TokenTransferProfile:
    """Conflict-maximizing key choices: every transfer touches one of
    ``hot_keys`` keys, so nearly every pair in a block is an MVCC
    conflict at the committing peers (wasted ordering throughput --
    the blocks commit, the transactions inside mostly abort)."""
    return TokenTransferProfile(
        channel=channel,
        envelope_size=envelope_size,
        hot_keys=hot_keys,
        cold_keys=1,
        hot_fraction=1.0,
    )


@dataclass
class CensorshipTargetSpam(ApplicationProfile):
    """Cover spam aimed at a censorship victim's frontend.

    Models the attack where spam is pointed at the exact frontend a
    colluding orderer censors, hoping the extra queueing hides the
    censorship as overload.  Pair it with a ``censor`` fault on the
    same frontend (the explorer's overload profile does) and pin the
    tenant's ``frontend_index`` to the victim.
    """

    channel: str = "channel0"
    envelope_size: int = 256
    victim: str = "victim"

    def make(self, rng, tenant, ids):
        return self._envelope(self.channel, self.envelope_size, tenant, ids)
