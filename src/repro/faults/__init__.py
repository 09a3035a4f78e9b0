"""Composable fault injection for the simulated ordering service.

The package has four layers:

- :mod:`repro.faults.actions` -- declarative fault actions (drop,
  delay, duplicate, reorder, corrupt, partition, crash, equivocate,
  Byzantine control switches) that install as message interceptors on a
  :class:`~repro.sim.network.Network` or control hooks on a
  :class:`~repro.smart.replica.ServiceReplica`;
- :mod:`repro.faults.injector` / :mod:`repro.faults.scenario` -- the
  lifecycle manager (with deterministic fault traces) and the timed
  schedule runner;
- :mod:`repro.faults.invariants` -- global safety/liveness checks (no
  fork, block agreement, durable-log consistency, post-heal liveness);
- :mod:`repro.faults.explorer` -- seeded randomized schedule
  exploration with failing-seed shrinking (``python -m repro.faults``).
"""

from repro.faults.actions import (
    ANY,
    BlockLink,
    CensorClients,
    Corrupt,
    CorruptWrites,
    CrashReplica,
    Delay,
    Drop,
    Duplicate,
    EquivocatePropose,
    FaultAction,
    FloodClient,
    Match,
    MuteReplica,
    Partition,
    Reorder,
    SkipQuorumChecks,
    SuppressSync,
)
from repro.faults.explorer import (
    PROFILES,
    ExplorationReport,
    ExplorerConfig,
    Profile,
    RunResult,
    explore,
    run_schedule,
    run_seed,
    sample_schedule,
    shrink_schedule,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    BlockRecorder,
    SubmissionRecorder,
    Violation,
    VoteRecorder,
    check_durable_logs,
    check_frontend_agreement,
    check_history_prefixes,
    check_liveness,
    check_log_agreement,
    check_no_silent_drop,
    check_ordering_service,
    check_serializability,
)
from repro.faults.scenario import FaultEvent, Scenario
from repro.smart.consensus import replica_log_digests

__all__ = [
    "ANY",
    "BlockLink",
    "BlockRecorder",
    "CensorClients",
    "Corrupt",
    "CorruptWrites",
    "CrashReplica",
    "Delay",
    "Drop",
    "Duplicate",
    "EquivocatePropose",
    "ExplorationReport",
    "ExplorerConfig",
    "FaultAction",
    "FaultEvent",
    "FaultInjector",
    "FloodClient",
    "Match",
    "MuteReplica",
    "PROFILES",
    "Partition",
    "Profile",
    "Reorder",
    "RunResult",
    "Scenario",
    "SkipQuorumChecks",
    "SubmissionRecorder",
    "SuppressSync",
    "Violation",
    "VoteRecorder",
    "check_durable_logs",
    "check_frontend_agreement",
    "check_history_prefixes",
    "check_liveness",
    "check_log_agreement",
    "check_no_silent_drop",
    "check_ordering_service",
    "check_serializability",
    "explore",
    "replica_log_digests",
    "run_schedule",
    "run_seed",
    "sample_schedule",
    "shrink_schedule",
]
