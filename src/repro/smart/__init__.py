"""BFT-SMaRt state machine replication, from scratch.

Implements Mod-SMaRt [22] -- the protocol behind the BFT-SMaRt library
[4] the paper builds its ordering service on -- plus the WHEAT
geo-replication optimizations [23]:

- :mod:`repro.smart.replica` -- the service replica (normal case:
  PROPOSE / WRITE / ACCEPT with weighted quorums, batching, request
  deduplication, tentative execution);
- :mod:`repro.smart.synchronization` -- regency/leader changes;
- :mod:`repro.smart.statetransfer` -- checkpoint-based catch-up;
- :mod:`repro.smart.reconfiguration` -- ordered membership changes;
- :mod:`repro.smart.proxy` -- the client-side invocation proxy;
- :mod:`repro.smart.durability` -- operation logs and checkpoints;
- :mod:`repro.smart.wal` -- the consensus write-ahead log backing
  crash-recovery with amnesia (see docs/RECOVERY.md);
- :mod:`repro.smart.wheat` -- weight assignment and WHEAT configs.
"""

from repro.smart.batching import DEFAULT_MAX_BATCH, PendingQueue
from repro.smart.consensus import ConsensusInstance, batch_hash
from repro.smart.durability import Checkpoint, OperationLog
from repro.smart.messages import (
    Accept,
    ClientRequest,
    Propose,
    Reply,
    Stop,
    StopData,
    Sync,
    Write,
)
from repro.smart.proxy import ServiceProxy
from repro.smart.quorums import VoteSet
from repro.smart.reconfiguration import ReconfigOp, ReconfigurationClient, apply_reconfig
from repro.smart.replica import (
    ReplicaConfig,
    ServiceReplica,
    StateMachine,
    default_replier,
)
from repro.smart.view import View, binary_weights, classic_quorum, max_faults
from repro.smart.wal import ConsensusWAL, WalRecovery
from repro.smart.wheat import WheatConfig, optimal_vmax_assignment, wheat_view

__all__ = [
    "Accept",
    "Checkpoint",
    "ClientRequest",
    "ConsensusInstance",
    "ConsensusWAL",
    "DEFAULT_MAX_BATCH",
    "OperationLog",
    "PendingQueue",
    "Propose",
    "ReconfigOp",
    "ReconfigurationClient",
    "Reply",
    "ReplicaConfig",
    "ServiceProxy",
    "ServiceReplica",
    "StateMachine",
    "Stop",
    "StopData",
    "Sync",
    "View",
    "VoteSet",
    "WalRecovery",
    "WheatConfig",
    "Write",
    "apply_reconfig",
    "batch_hash",
    "binary_weights",
    "classic_quorum",
    "default_replier",
    "max_faults",
    "optimal_vmax_assignment",
    "wheat_view",
]
