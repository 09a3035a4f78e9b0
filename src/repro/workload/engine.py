"""The open-loop workload engine.

Drives any number of tenants -- each an aggregate arrival process plus
an application profile standing in for up to millions of client
sessions -- against a set of ordering frontends, open loop: arrivals
never wait for completions, so overload is *visible* instead of being
absorbed by a closed feedback loop.

State is strictly O(tenants) + O(in-flight): one timer, one RNG stream
and one stats record per tenant, one pending-latency entry per admitted
envelope (bounded by the admission window when backpressure is on).
Nothing is allocated per session, ever.

The engine is also the measurement instrument: it records offered /
admitted / rejected-by-reason / committed counts and admitted latency
per tenant, and renders them as a :class:`WorkloadReport` (goodput,
tail latency, Jain fairness) -- the numbers the ``overload`` benchmark
gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.fabric.envelope import Envelope, envelope_ids
from repro.ordering.admission import jain_fairness
from repro.sim.core import Simulator
from repro.sim.randomness import RandomStreams
from repro.workload.arrivals import ArrivalProcess, make_arrivals
from repro.workload.profiles import ApplicationProfile, RawProfile


@dataclass
class TenantSpec:
    """One tenant: an aggregate of ``sessions`` lightweight clients.

    ``sessions * session_rate`` is the tenant's aggregate offered rate;
    the tenant is simulated as ONE arrival process at that rate (see
    :mod:`repro.workload.arrivals`), so a million sessions cost the
    same as one.
    """

    name: str
    sessions: int = 1
    session_rate: float = 1.0
    #: arrival kind ("fixed"/"poisson"/"bursty"/"diurnal") or a
    #: pre-built process (its rate overrides sessions*session_rate)
    arrival: Union[str, ArrivalProcess] = "poisson"
    profile: ApplicationProfile = field(default_factory=RawProfile)
    #: fixed frontend, or None for round-robin over all of them
    frontend_index: Optional[int] = None
    #: submission window, relative to engine start
    start: float = 0.0
    duration: Optional[float] = None
    #: RandomStreams stream name (default "workload/<name>")
    stream: Optional[str] = None

    @property
    def offered_rate(self) -> float:
        if isinstance(self.arrival, ArrivalProcess):
            return self.arrival.rate
        return self.sessions * self.session_rate


@dataclass
class TenantStats:
    """Submission accounting for one tenant (cheap counters only)."""

    offered: int = 0
    admitted: int = 0
    committed: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)


class _TenantState:
    """Runtime state of one tenant -- O(1) regardless of sessions."""

    __slots__ = ("spec", "arrival", "rng", "stats", "deadline")

    def __init__(self, spec, arrival, rng, deadline):
        self.spec = spec
        self.arrival = arrival
        self.rng = rng
        self.stats = TenantStats()
        self.deadline = deadline


@dataclass
class WorkloadReport:
    """Aggregate view of one engine run."""

    duration: float
    offered: int
    admitted: int
    committed: int
    rejected: Dict[str, int]
    goodput_per_s: float
    p50_latency_s: float
    p99_latency_s: float
    fairness: float
    shed_fraction: float
    per_tenant: Dict[str, TenantStats]


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(fraction * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


class WorkloadEngine:
    """Drives tenants against frontends; one timer chain per tenant."""

    def __init__(
        self,
        sim: Simulator,
        frontends: Sequence,
        tenants: Sequence[TenantSpec],
        streams: Optional[RandomStreams] = None,
        duration: float = 1.0,
        track_latency: bool = True,
        max_latency_samples: int = 100_000,
    ):
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.sim = sim
        self.frontends = list(frontends)
        self.streams = streams or RandomStreams(0)
        self.duration = duration
        self.track_latency = track_latency
        self.max_latency_samples = max_latency_samples
        self._stopped = False
        self._ids = envelope_ids(sim)
        self._started_at: Optional[float] = None
        #: envelope_id -> (tenant state, submit time); O(in-flight)
        self._pending: Dict[int, tuple] = {}
        self._states: List[_TenantState] = []
        for spec in tenants:
            if isinstance(spec.arrival, ArrivalProcess):
                arrival = spec.arrival
            else:
                rate = spec.offered_rate
                if rate <= 0:
                    raise ValueError(f"tenant {spec.name!r}: rate must be positive")
                arrival = make_arrivals(spec.arrival, rate)
            rng = self.streams.stream(spec.stream or f"workload/{spec.name}")
            self._states.append(_TenantState(spec, arrival, rng, 0.0))

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, TenantStats]:
        return {state.spec.name: state.stats for state in self._states}

    @property
    def offered(self) -> int:
        return sum(state.stats.offered for state in self._states)

    @property
    def admitted(self) -> int:
        return sum(state.stats.admitted for state in self._states)

    @property
    def committed(self) -> int:
        return sum(state.stats.committed for state in self._states)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._started_at = self.sim.now
        if self.track_latency:
            for frontend in self.frontends:
                frontend.on_block.append(self._on_block)
        for state in self._states:
            spec = state.spec
            window = spec.duration if spec.duration is not None else self.duration
            state.deadline = self.sim.now + spec.start + window
            if spec.start > 0:
                self.sim.post(spec.start, self._tick, state)
            else:
                self.sim.call_soon(self._tick, state)

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    def _tick(self, state: _TenantState) -> None:
        if self._stopped or self.sim.now > state.deadline:
            return
        spec = state.spec
        stats = state.stats
        envelope = spec.profile.make(state.rng, spec.name, self._ids)
        if spec.frontend_index is not None:
            frontend = self.frontends[spec.frontend_index % len(self.frontends)]
        else:
            frontend = self.frontends[stats.offered % len(self.frontends)]
        stats.offered += 1
        verdict = frontend.submit(envelope)
        if verdict is None:
            stats.admitted += 1
            if self.track_latency:
                self._pending[envelope.envelope_id] = (state, self.sim.now)
        else:
            stats.rejected[verdict.reason] = (
                stats.rejected.get(verdict.reason, 0) + 1
            )
        self.sim.post(state.arrival.next_delay(state.rng, self.sim.now), self._tick, state)

    def _on_block(self, block) -> None:
        if not self._pending:
            return
        for envelope in block.envelopes:
            entry = self._pending.pop(envelope.envelope_id, None)
            if entry is None:
                continue
            state, submitted_at = entry
            state.stats.committed += 1
            if len(state.stats.latencies) < self.max_latency_samples:
                state.stats.latencies.append(self.sim.now - submitted_at)

    # ------------------------------------------------------------------
    def report(self, honest_only_fairness: bool = False) -> WorkloadReport:
        """Aggregate the run (call after draining the simulator).

        ``honest_only_fairness`` drops tenants whose profile module is
        :mod:`repro.workload.adversarial` from the fairness index, to
        measure what the abuse did to everyone *else*.
        """
        offered = self.offered
        admitted = self.admitted
        committed = self.committed
        rejected: Dict[str, int] = {}
        latencies: List[float] = []
        shares: List[float] = []
        for state in self._states:
            stats = state.stats
            for reason, count in stats.rejected.items():
                rejected[reason] = rejected.get(reason, 0) + count
            latencies.extend(stats.latencies)
            if honest_only_fairness and type(
                state.spec.profile
            ).__module__.endswith("adversarial"):
                continue
            # fairness over throughput per unit of demand: tenants with
            # unequal offered rates are compared on their service ratio
            demand = max(stats.offered, 1)
            shares.append(stats.committed / demand)
        latencies.sort()
        elapsed = (
            (self.sim.now - self._started_at) if self._started_at is not None else 0.0
        )
        span = max(elapsed, self.duration, 1e-9)
        return WorkloadReport(
            duration=span,
            offered=offered,
            admitted=admitted,
            committed=committed,
            rejected=rejected,
            goodput_per_s=committed / span,
            p50_latency_s=_percentile(latencies, 0.50),
            p99_latency_s=_percentile(latencies, 0.99),
            fairness=jain_fairness(shares),
            shed_fraction=(offered - admitted) / offered if offered else 0.0,
            per_tenant={s.spec.name: s.stats for s in self._states},
        )


@dataclass
class OpenLoopGenerator:
    """Submits raw envelopes at a fixed aggregate rate, round-robin over
    frontends (each frontend then behaves like the paper's client
    threads feeding the ordering cluster, §6.2-6.3).

    A single-tenant :class:`WorkloadEngine` with fixed-interval
    arrivals on the ``"workload"`` stream: no draws when unjittered,
    one draw per arrival otherwise, so the paper-figure experiments
    and the committed seeds that drive it stay byte-identical.
    """

    sim: Simulator
    frontends: Sequence
    channel_id: str
    envelope_size: int
    rate_per_second: float
    duration: float
    jitter_fraction: float = 0.0
    streams: Optional[RandomStreams] = None
    _engine: Optional[WorkloadEngine] = field(default=None, init=False, repr=False)

    def start(self) -> None:
        spec = TenantSpec(
            name="loadgen",
            arrival=make_arrivals(
                "fixed", self.rate_per_second, jitter_fraction=self.jitter_fraction
            ),
            profile=RawProfile(
                channel=self.channel_id, envelope_size=self.envelope_size
            ),
            stream="workload",
        )
        self._engine = WorkloadEngine(
            self.sim,
            self.frontends,
            [spec],
            streams=self.streams or RandomStreams(0),
            duration=self.duration,
            track_latency=False,
        )
        self._engine.start()

    def stop(self) -> None:
        if self._engine is not None:
            self._engine.stop()

    @property
    def submitted(self) -> int:
        return self._engine.offered if self._engine is not None else 0


@dataclass
class ClosedLoopDriver:
    """``clients`` concurrent submitters, each sending its next
    envelope as soon as the previous one is committed at its frontend.

    Uses the frontend's ``on_block`` hook as the completion signal, so
    in-flight envelopes are bounded by the client count -- useful to
    probe latency at a fixed concurrency instead of a fixed rate.
    """

    sim: Simulator
    frontend: object
    channel_id: str
    envelope_size: int
    clients: int
    max_envelopes: int
    submitter: str = "closedloop"
    submitted: int = 0
    completed: int = 0
    _outstanding: dict = field(default_factory=dict)

    def start(self) -> None:
        self.frontend.on_block.append(self._on_block)
        for _ in range(min(self.clients, self.max_envelopes)):
            self._submit_next()

    def _submit_next(self) -> None:
        if self.submitted >= self.max_envelopes:
            return
        envelope = Envelope.raw(
            self.channel_id,
            self.envelope_size,
            submitter=self.submitter,
            envelope_id=next(envelope_ids(self.sim)),
        )
        self._outstanding[envelope.envelope_id] = envelope
        self.submitted += 1
        self.frontend.submit(envelope)

    def _on_block(self, block) -> None:
        for envelope in block.envelopes:
            if envelope.envelope_id in self._outstanding:
                del self._outstanding[envelope.envelope_id]
                self.completed += 1
                self._submit_next()

    @property
    def done(self) -> bool:
        return self.completed >= self.max_envelopes
