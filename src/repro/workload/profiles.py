"""Application profiles: what a tenant's envelopes look like.

Drawn from "Evaluating Blockchain Application Requirements and their
Satisfaction in Hyperledger Fabric" (arXiv:2111.15399): token-transfer
apps with skewed key popularity (the MVCC-conflict generator), beside
the paper's size-only microworkload.

A profile's job is to produce the tenant's *next envelope* -- channel,
payload size, key choices -- from the tenant's seeded RNG.  The
ordering service never looks inside an envelope, so key choices are
tracked as profile statistics (``hot_touches``/``conflict_candidates``)
rather than materialized read/write sets: that is what the committing
peers would contend on, reported without paying per-envelope object
churn in the ordering path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Iterator, Tuple

from repro.fabric.envelope import Envelope


class ApplicationProfile:
    """Builds one tenant's envelopes.

    ``make(rng, tenant, ids)`` returns the next envelope; a fresh
    identity takes the next id of ``ids``, the run's stream
    (:func:`repro.fabric.envelope.envelope_ids`), a replayed one draws
    nothing.
    """

    def make(self, rng: Random, tenant: str, ids: Iterator[int]) -> Envelope:
        raise NotImplementedError

    def _envelope(
        self, channel: str, size: int, tenant: str, ids: Iterator[int]
    ) -> Envelope:
        return Envelope(
            channel_id=channel,
            transaction=None,
            payload_size=size,
            submitter=tenant,
            envelope_id=next(ids),
        )


@dataclass
class RawProfile(ApplicationProfile):
    """Size-only envelopes on one channel -- the paper's microworkload."""

    channel: str = "channel0"
    envelope_size: int = 1024

    def make(self, rng, tenant, ids):
        return self._envelope(self.channel, self.envelope_size, tenant, ids)


@dataclass
class TokenTransferProfile(ApplicationProfile):
    """Token transfers with hot keys: the MVCC-conflict storm maker.

    Each transfer reads and writes two account keys.  With probability
    ``hot_fraction`` a key is drawn from the small ``hot_keys`` set
    (everyone fighting over the same accounts -- exchange wallets,
    popular NFTs); otherwise from a ``cold_keys``-sized cold space.
    Two transfers touching one hot key in the same block are an MVCC
    conflict at the committing peers, so the profile's
    ``conflict_candidates`` counter estimates the conflict pressure
    this tenant generates.
    """

    channel: str = "channel0"
    envelope_size: int = 200  # three endorsement signatures (§6.1)
    hot_keys: int = 16
    cold_keys: int = 1_000_000
    hot_fraction: float = 0.5
    #: profile statistics (cumulative, cheap ints)
    envelopes: int = field(default=0, init=False)
    hot_touches: int = field(default=0, init=False)
    conflict_candidates: int = field(default=0, init=False)

    def pick_keys(self, rng: Random) -> Tuple[int, int]:
        keys = []
        for _ in range(2):
            if rng.random() < self.hot_fraction:
                keys.append(rng.randrange(self.hot_keys))
            else:
                keys.append(self.hot_keys + rng.randrange(self.cold_keys))
        return keys[0], keys[1]

    def make(self, rng, tenant, ids):
        src, dst = self.pick_keys(rng)
        hot = sum(1 for key in (src, dst) if key < self.hot_keys)
        self.envelopes += 1
        self.hot_touches += hot
        if hot:
            self.conflict_candidates += 1
        return self._envelope(self.channel, self.envelope_size, tenant, ids)

    def conflict_fraction(self) -> float:
        """Fraction of transfers touching at least one hot key."""
        return self.conflict_candidates / self.envelopes if self.envelopes else 0.0
