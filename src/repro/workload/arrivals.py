"""Tenant-aggregated arrival processes.

The central trick that makes million-session scenarios cheap: the
superposition of ``S`` independent Poisson session processes of rate
``r`` is one Poisson process of rate ``S * r``.  A tenant is therefore
modelled as a *single* arrival process with the aggregate rate -- one
pending timer and O(1) state no matter how many sessions it stands
for.

Every process draws exclusively from the RNG handed to it -- a named
:class:`repro.sim.randomness.RandomStreams` stream -- so arrival
sequences are seed-reproducible (DET002-clean).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

#: floor on inter-arrival delays: keeps a mis-parameterized process
#: from scheduling zero-delay event storms that stall the simulator
MIN_DELAY = 1e-9


class ArrivalProcess:
    """One tenant's aggregate arrival process.

    ``next_delay(rng, now)`` returns the seconds until the tenant's
    next submission.  ``rate`` is the long-run average aggregate rate
    in envelopes/second.
    """

    rate: float

    def next_delay(self, rng: Random, now: float) -> float:
        raise NotImplementedError


@dataclass
class FixedArrivals(ArrivalProcess):
    """Evenly spaced arrivals, optionally jittered.

    The spacing of a scenario row's ``OpenLoop`` load: the base
    interval stretched by a single uniform draw in
    ``±jitter_fraction`` -- and *no* draw at all when the jitter is
    zero, so unjittered schedules consume no randomness.
    """

    rate: float
    jitter_fraction: float = 0.0

    def next_delay(self, rng: Random, now: float) -> float:
        delay = 1.0 / self.rate
        if self.jitter_fraction > 0:
            delay *= 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return max(delay, MIN_DELAY)


@dataclass
class PoissonArrivals(ArrivalProcess):
    """Memoryless aggregate arrivals -- the superposition of many
    independent client sessions."""

    rate: float

    def next_delay(self, rng: Random, now: float) -> float:
        return max(rng.expovariate(self.rate), MIN_DELAY)


def make_arrivals(kind: str, rate: float, **kwargs) -> ArrivalProcess:
    """Build an arrival process by name ("fixed" or "poisson") -- the
    string form a :class:`repro.workload.engine.TenantSpec` names."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if kind == "fixed":
        return FixedArrivals(rate=rate, **kwargs)
    if kind == "poisson":
        return PoissonArrivals(rate=rate, **kwargs)
    raise ValueError(f"unknown arrival kind {kind!r}")
