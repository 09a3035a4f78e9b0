"""Seeded randomized fault-schedule exploration (a mini-Jepsen).

``run_seed(seed)`` derives a fault schedule from the seed, stands up a
complete ordering-service deployment (``3f+1`` BFT-SMaRt replicas +
ordering nodes + frontends) on a fresh simulator, drives an envelope
workload through it while the schedule fires, heals every fault, runs
to quiescence, and checks the global invariants of
:mod:`repro.faults.invariants`.

Everything is derived deterministically from the seed: the same seed
produces a byte-identical fault trace and identical final ledger
hashes, which is what makes a failing seed *reproducible*.  A failing
schedule can additionally be *shrunk* to a locally-minimal fault trace
(greedy one-event removal, re-running after each candidate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.hashing import sha256_hex
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.faults.actions import (
    ATTACKER_ID_BASE,
    FLOOD_ID_BASE,
    CensorClients,
    CorruptWrites,
    CrashReplica,
    Delay,
    Drop,
    Duplicate,
    EquivocatePropose,
    FloodClient,
    Match,
    Partition,
    Reorder,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    BlockRecorder,
    SubmissionRecorder,
    Violation,
    VoteRecorder,
    check_no_silent_drop,
    check_ordering_service,
)
from repro.faults.scenario import FaultEvent, Scenario
from repro.smart.view import bft_group_size
from repro.ordering.admission import AdmissionConfig
from repro.ordering.service import (
    FRONTEND_ID_BASE,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.sim.randomness import RandomStreams


@dataclass
class ExplorerConfig:
    """Knobs of one exploration run (defaults: f=1, n=4, LAN)."""

    f: int = 1
    channel: str = "ch0"
    envelopes: int = 24
    payload_size: int = 256
    block_size: int = 4
    batch_timeout: float = 0.25
    num_frontends: int = 2
    request_timeout: float = 0.5
    #: envelope submissions spread over [load_start, load_start + load_window]
    load_start: float = 0.1
    load_window: float = 1.5
    #: fault events sampled within this window
    fault_window: Tuple[float, float] = (0.2, 2.4)
    heal_at: float = 3.0
    #: absolute simulated-time budget to reach quiescence
    deadline: float = 60.0
    min_events: int = 1
    max_events: int = 4
    #: a row of :data:`PROFILES`: the schedule space sampled and the
    #: deployment, recorders and invariants it is run against
    profile: str = "default"
    #: admission-control knobs of the overload profile (per tenant and
    #: per frontend; generous enough that the honest workload passes
    #: untouched while floods are shed explicitly)
    admission_rate: float = 200.0
    admission_burst: float = 50.0
    admission_window: int = 256

    @property
    def n(self) -> int:
        return bft_group_size(self.f)


@dataclass
class RunResult:
    """Outcome of one schedule run."""

    seed: int
    events: List[FaultEvent]
    trace: List[str]
    trace_digest: str
    ledger_digest: str
    frontend_digests: Dict[Any, str]
    violations: List[Violation]
    submitted: int
    delivered: int
    sim_time: float

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# fault kinds: how each is sampled, and how often per schedule
# ----------------------------------------------------------------------
def _sample_action(kind: str, rng, cfg: ExplorerConfig, index: int, used: int):
    """Draw one ``kind`` fault from the schedule stream.  The order of
    draws within a kind is fixed: seeds are pinned on it."""
    n = cfg.n
    if kind in ("drop", "delay", "duplicate", "reorder"):
        src, dst = rng.sample(range(n), 2)
        match = Match(src=src, dst=dst)
        if kind == "drop":
            rate = round(rng.uniform(0.3, 0.9), 2)
            return Drop(match, rate=rate, stream=f"drop-{index}")
        if kind == "delay":
            return Delay(match, delay=round(rng.uniform(0.02, 0.15), 3))
        if kind == "duplicate":
            return Duplicate(match, copies=rng.randint(2, 3), spacing=0.004)
        delay = round(rng.uniform(0.01, 0.06), 3)
        rate = round(rng.uniform(0.4, 1.0), 2)
        return Reorder(match, delay=delay, rate=rate, stream=f"reorder-{index}")
    if kind == "crash":
        return CrashReplica(rng.randrange(n))
    if kind == "crash_restart":
        # amnesiac restart; half of them (per the stream) leave a torn
        # tail on the victim's disk, the rest lose the unsynced suffix
        victim = rng.randrange(n)
        return CrashReplica(victim, amnesia=True, torn_tail=rng.random() < 0.5)
    if kind == "partition":
        size = rng.randint(1, n // 2)
        isolated = sorted(rng.sample(range(n), size))
        return Partition(isolated, [p for p in range(n) if p not in isolated])
    if kind == "equivocate":
        return EquivocatePropose(0, rng.randrange(1, n))
    if kind == "corrupt-writes":
        return CorruptWrites(rng.randrange(n))
    if kind == "censor":
        # a node silently dropping one frontend's requests -- the fault
        # SmartBFT's leader rotation and censorship blacklist must survive
        client = FRONTEND_ID_BASE + rng.randrange(cfg.num_frontends)
        return CensorClients(rng.randrange(n), {client})
    if kind == "flood":
        # an attacker injecting duplicate-heavy submissions into one
        # frontend at hundreds to thousands of envelopes per second;
        # the ``used``-th flood gets its own attacker id and a block
        # of envelope ids disjoint from the honest load's 0..n-1
        target = FRONTEND_ID_BASE + rng.randrange(cfg.num_frontends)
        rate = round(rng.uniform(400.0, 2000.0), 1)
        return FloodClient(
            target,
            rate=rate,
            channel=cfg.channel,
            payload_size=cfg.payload_size,
            submitter=f"mallory{used}",
            unique_every=rng.randint(1, 6),
            id_base=FLOOD_ID_BASE + used * 1_000_000,
            attacker_id=ATTACKER_ID_BASE + used,
        )
    raise ValueError(f"unknown fault kind {kind!r}")


#: kind -> budget it spends.  A budget is used at most once per
#: schedule (``flood``: once per frontend) and further draws of the
#: kind fall back to ``delay``, so the fault assumption (at most f=1
#: faulty replica, quorums eventually available) is never exceeded by
#: construction.  Kinds not listed are unlimited.
_BUDGETS = {
    "crash": "crash",
    "crash_restart": "crash",
    "partition": "partition",
    "equivocate": "byzantine",
    "corrupt-writes": "byzantine",
    "censor": "censor",
    "flood": "flood",
}


@dataclass(frozen=True)
class Profile:
    """A schedule space and what its schedules are run against."""

    #: one line for ``--help`` and the docs
    summary: str
    #: name of the seed's random stream the schedule is drawn from (one
    #: per profile, so adding a profile never moves another's seeds)
    stream: str
    #: fault kinds drawn uniformly
    kinds: Tuple[str, ...]
    #: kind of every schedule's first event (not drawn), if any
    lead: Optional[str] = None
    orderer: str = "bftsmart"
    durable_wal: bool = False
    #: admission control on (``ExplorerConfig.admission_*``): load may
    #: be refused, so every submission's verdict is recorded, the run
    #: ends when every *admitted* envelope is committed rather than
    #: every offered one, and no-silent-drop is checked
    admission: bool = False
    #: record WRITE/ACCEPT votes; check no-equivocation-by-amnesia
    record_votes: bool = False
    #: everything submitted must be delivered once faults heal
    expect_live: bool = True


_MESSAGE_KINDS = ("drop", "delay", "duplicate", "reorder")

#: ``--profile`` / ``ExplorerConfig.profile`` -> profile; a new profile
#: is a new row
PROFILES: Dict[str, Profile] = {
    "default": Profile(
        summary="the historical kinds: message, crash, partition and "
        "Byzantine-replica faults against the BFT-SMaRt service "
        "(docs/FAULTS.md)",
        stream="fault-schedule",
        kinds=_MESSAGE_KINDS + ("crash", "partition", "equivocate", "corrupt-writes"),
    ),
    # Byzantine kinds are excluded on purpose: the vote-equivocation
    # check must only ever fire on a *protocol* failure (an amnesiac
    # replica contradicting its pre-crash votes), never on deliberately
    # injected equivocation.  Bit-rot is exercised by unit tests instead
    # -- corrupting already-synced data is outside the crash fault model
    # the explorer samples.
    "recovery": Profile(
        summary="amnesiac crash_restart + storage faults against "
        "durable-WAL replicas, plus the no-equivocation-by-amnesia "
        "invariant (docs/RECOVERY.md)",
        stream="fault-schedule/recovery",
        kinds=_MESSAGE_KINDS + ("crash_restart", "partition"),
        lead="crash_restart",
        durable_wal=True,
        record_votes=True,
    ),
    # ``censor`` is the signature Byzantine fault; the BFT-SMaRt-specific
    # Byzantine kinds (``equivocate``/``corrupt-writes`` forge Propose
    # and Write messages SmartBFT never sends) are excluded.  Amnesiac
    # restarts are exercised by the smart2 unit tests -- SmartBFT
    # recovers by peer state transfer, not WAL replay, so the
    # vote-equivocation machinery has nothing to record.
    "smartbft": Profile(
        summary="leader censorship + message/crash faults against the "
        "SmartBFT backend, same invariants (docs/SMARTBFT.md)",
        stream="fault-schedule/smartbft",
        kinds=_MESSAGE_KINDS + ("crash", "partition", "censor"),
        lead="censor",
        orderer="smartbft",
    ),
    # ``flood`` is the signature fault; the Byzantine replica kinds are
    # excluded so every violation under overload is attributable to the
    # backpressure path, not to forged protocol messages.
    "overload": Profile(
        summary="adversarial client floods against the admission-"
        "controlled service, judged by the no-silent-drop backpressure "
        "invariant instead of liveness (docs/WORKLOADS.md)",
        stream="fault-schedule/overload",
        kinds=("flood",) + _MESSAGE_KINDS + ("crash", "partition"),
        lead="flood",
        admission=True,
        expect_live=False,
    ),
}


def profile_of(cfg: ExplorerConfig) -> Profile:
    """The :data:`PROFILES` row ``cfg.profile`` names."""
    try:
        return PROFILES[cfg.profile]
    except KeyError:
        raise ValueError(
            f"unknown profile {cfg.profile!r}; expected one of {sorted(PROFILES)}"
        ) from None


def sample_schedule(seed: int, cfg: Optional[ExplorerConfig] = None) -> List[FaultEvent]:
    """Derive a fault schedule deterministically from ``seed``."""
    cfg = cfg or ExplorerConfig()
    profile = profile_of(cfg)
    rng = RandomStreams(seed).stream(profile.stream)
    count = rng.randint(cfg.min_events, cfg.max_events)
    used: Dict[str, int] = {}
    events: List[FaultEvent] = []
    for index in range(count):
        if index == 0 and profile.lead is not None:
            kind = profile.lead
        else:
            kind = rng.choice(profile.kinds)
        at = round(rng.uniform(*cfg.fault_window), 3)
        duration = round(rng.uniform(0.4, 1.5), 3)
        budget = _BUDGETS.get(kind)
        spent = used.get(budget, 0)
        if budget is not None:
            used[budget] = spent + 1
            if spent >= (cfg.num_frontends if budget == "flood" else 1):
                kind = "delay"
        action = _sample_action(kind, rng, cfg, index, spent)
        events.append(FaultEvent(at=at, action=action, duration=duration))
    events.sort(key=lambda e: e.at)
    return events


def run_schedule(
    seed: int, events: List[FaultEvent], cfg: Optional[ExplorerConfig] = None
) -> RunResult:
    """Run one fault schedule against a fresh deployment and check the
    invariants."""
    cfg = cfg or ExplorerConfig()
    profile = profile_of(cfg)
    service = build_ordering_service(
        OrderingServiceConfig(
            orderer=profile.orderer,
            f=cfg.f,
            channel=ChannelConfig(
                cfg.channel,
                max_message_count=cfg.block_size,
                batch_timeout=cfg.batch_timeout,
            ),
            num_frontends=cfg.num_frontends,
            physical_cores=None,
            request_timeout=cfg.request_timeout,
            enable_batch_timeout=True,
            durable_wal=profile.durable_wal,
            seed=seed,
            admission=(
                AdmissionConfig(
                    tenant_rate=cfg.admission_rate,
                    tenant_burst=cfg.admission_burst,
                    max_in_flight=cfg.admission_window,
                )
                if profile.admission
                else None
            ),
        )
    )
    recorder = BlockRecorder(service.network)
    vote_recorder = VoteRecorder(service.network) if profile.record_votes else None
    submissions = SubmissionRecorder(service.frontends) if profile.admission else None
    injector = FaultInjector(service.network, service.replicas, seed=seed)
    Scenario(events, heal_at=cfg.heal_at).install(injector)

    # the workload: evenly spaced envelopes, round-robin over frontends,
    # each named by its index in the offered load (violation reports and
    # the submission recorder speak in these ids)
    spacing = cfg.load_window / cfg.envelopes
    for i in range(cfg.envelopes):
        envelope = Envelope(
            channel_id=cfg.channel,
            transaction=None,
            payload_size=cfg.payload_size,
            envelope_id=i,
        )
        service.sim.schedule_at(
            cfg.load_start + i * spacing,
            service.submit,
            envelope,
            i % cfg.num_frontends,
        )

    if submissions is not None:
        # some honest envelopes are legitimately (and explicitly)
        # rejected, so "delivered >= offered" is the wrong finish line:
        # run until the floods healed and every *admitted* envelope has
        # been committed
        load_end = cfg.load_start + cfg.load_window
        quiesce_at = max(load_end, cfg.heal_at) + 0.001
        service.sim.run_until(
            lambda: service.sim.now >= quiesce_at
            and not submissions.unresolved_ids(),
            cfg.deadline,
        )
    else:
        service.sim.run_until(
            lambda: service.total_delivered() >= cfg.envelopes, cfg.deadline
        )
    # make sure healing happened even if delivery finished early, so the
    # deployment is always left in (and checked in) a fault-free state
    if service.sim.now < cfg.heal_at:
        service.sim.run(until=cfg.heal_at + 0.001)

    violations = check_ordering_service(
        service,
        recorder,
        vote_recorder=vote_recorder,
        expect_live=profile.expect_live,
    )
    if submissions is not None:
        violations += check_no_silent_drop(submissions)
    frontend_digests = {
        frontend.name: frontend.ledger_digest().hex()
        for frontend in service.frontends
    }
    log_digest = sha256_hex(
        "replica-logs",
        [
            (rid, sorted((cid, digest) for cid, digest in cids.items()))
            for rid, cids in sorted(service.replica_log_digests().items())
        ],
    )
    ledger_digest = sha256_hex(
        "run-ledger",
        [frontend_digests[fe.name] for fe in service.frontends],
        log_digest,
    )
    return RunResult(
        seed=seed,
        events=list(events),
        trace=list(injector.trace),
        trace_digest=sha256_hex("trace", list(injector.trace)),
        ledger_digest=ledger_digest,
        frontend_digests=frontend_digests,
        violations=violations,
        submitted=service.total_submitted(),
        delivered=service.total_delivered(),
        sim_time=service.sim.now,
    )


def run_seed(seed: int, cfg: Optional[ExplorerConfig] = None) -> RunResult:
    """Sample the seed's schedule and run it."""
    cfg = cfg or ExplorerConfig()
    return run_schedule(seed, sample_schedule(seed, cfg), cfg)


def shrink_schedule(
    seed: int,
    events: List[FaultEvent],
    cfg: Optional[ExplorerConfig] = None,
    max_runs: int = 64,
) -> Tuple[List[FaultEvent], RunResult]:
    """Greedily minimize a *failing* schedule.

    Repeatedly tries dropping one event at a time, keeping any removal
    that still violates an invariant, until no single removal does (or
    the run budget is exhausted).  Returns the minimal schedule and its
    run result.
    """
    cfg = cfg or ExplorerConfig()
    current = list(events)
    runs = 0
    changed = True
    while changed and runs < max_runs:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            runs += 1
            if not run_schedule(seed, candidate, cfg).ok:
                current = candidate
                changed = True
                break
            if runs >= max_runs:
                break
    return current, run_schedule(seed, current, cfg)


@dataclass
class ExplorationReport:
    """Aggregate of an exploration sweep."""

    results: List[RunResult] = field(default_factory=list)
    shrunk: Dict[int, List[FaultEvent]] = field(default_factory=dict)

    @property
    def failures(self) -> List[RunResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def explore(
    seeds: int,
    start_seed: int = 0,
    cfg: Optional[ExplorerConfig] = None,
    shrink: bool = False,
) -> ExplorationReport:
    """Run ``seeds`` consecutive seeds; optionally shrink the failures."""
    cfg = cfg or ExplorerConfig()
    report = ExplorationReport()
    for seed in range(start_seed, start_seed + seeds):
        result = run_seed(seed, cfg)
        report.results.append(result)
        if not result.ok and shrink:
            minimal, _ = shrink_schedule(seed, result.events, cfg)
            report.shrunk[seed] = minimal
    return report
