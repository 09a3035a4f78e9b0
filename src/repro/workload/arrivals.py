"""Tenant-aggregated arrival processes.

The central trick that makes million-session scenarios cheap: the
superposition of ``S`` independent Poisson session processes of rate
``r`` is one Poisson process of rate ``S * r``.  A tenant is therefore
modelled as a *single* arrival process with the aggregate rate -- one
pending timer and O(1) state no matter how many sessions it stands
for.  The bursty and diurnal processes modulate that aggregate rate
over time (correlated session behaviour: everyone trades at the open,
sleeps at night), which superposition alone cannot express.

Every process draws exclusively from the RNG handed to it -- a named
:class:`repro.sim.randomness.RandomStreams` stream -- so arrival
sequences are seed-reproducible (DET002-clean).
"""

from __future__ import annotations

import math
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


@dataclass
class BurstyArrivals(ArrivalProcess):
    """On/off modulated Poisson arrivals (correlated session bursts).

    Sessions all wake in the first ``on_fraction`` of every ``period``
    and go quiet for the rest; the on-phase rate is scaled by
    ``1 / on_fraction`` so the long-run average stays ``rate``.  This
    is the workload that stresses the admission window: the burst's
    instantaneous rate is far above the service rate even when the
    average is comfortably below it.
    """

    rate: float
    period: float = 1.0
    on_fraction: float = 0.25

    def next_delay(self, rng: Random, now: float) -> float:
        on_window = self.period * self.on_fraction
        burst_rate = self.rate / self.on_fraction
        phase = now % self.period
        if phase < on_window:
            step = rng.expovariate(burst_rate)
            if phase + step < on_window:
                return max(step, MIN_DELAY)
            # the draw fell into the silent phase: carry the overshoot
            # into the next burst
            overshoot = (phase + step) - on_window
            return max((self.period - phase) + overshoot, MIN_DELAY)
        # silent phase: wait for the next burst, then draw within it
        until_on = self.period - phase
        return max(until_on + rng.expovariate(burst_rate), MIN_DELAY)


@dataclass
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally modulated arrivals (day/night load swing).

    The instantaneous rate is
    ``rate * (1 + amplitude * sin(2*pi*now/period))``; each delay is an
    exponential draw at the current instantaneous rate -- the standard
    piecewise approximation of a non-homogeneous Poisson process, exact
    in the limit of rates high relative to ``1/period``.
    """

    rate: float
    period: float = 86400.0
    amplitude: float = 0.5

    def next_delay(self, rng: Random, now: float) -> float:
        phase = math.sin(2.0 * math.pi * (now % self.period) / self.period)
        instantaneous = self.rate * (1.0 + self.amplitude * phase)
        floor = self.rate * max(1.0 - abs(self.amplitude), 0.01)
        return max(rng.expovariate(max(instantaneous, floor * 0.1)), MIN_DELAY)


def make_arrivals(kind: str, rate: float, **kwargs) -> ArrivalProcess:
    """Build an arrival process by name ("fixed"/"poisson"/"bursty"/
    "diurnal") -- the string form TOML specs and tenant tables use."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if kind == "fixed":
        return FixedArrivals(rate=rate, **kwargs)
    if kind == "poisson":
        return PoissonArrivals(rate=rate, **kwargs)
    if kind == "bursty":
        return BurstyArrivals(rate=rate, **kwargs)
    if kind == "diurnal":
        return DiurnalArrivals(rate=rate, **kwargs)
    raise ValueError(f"unknown arrival kind {kind!r}")
