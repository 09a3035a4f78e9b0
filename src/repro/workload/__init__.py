"""Open-loop workload engine: millions of clients, O(tenants) state.

The paper evaluates with a handful of closed-loop client threads
(§6.2-6.3); real Fabric deployments face *open-loop* traffic from
millions of lightweight client sessions that keep submitting whether
or not the service keeps up -- which is exactly the regime where the
relay-everything frontend collapses and admission control
(:mod:`repro.ordering.admission`) earns its keep.

This package models that traffic without ever allocating per-client
state:

- :mod:`repro.workload.arrivals` -- tenant-aggregated arrival
  processes (Poisson, bursty on/off, diurnal, fixed-interval): a
  tenant with a million sessions is one superposed process with a
  million times the rate, one timer, O(1) state;
- :mod:`repro.workload.profiles` -- application profiles drawn from
  the Fabric application-requirements literature (hot-key token
  transfers, deep-read provenance, multi-channel tenants);
- :mod:`repro.workload.adversarial` -- abusive mixes (duplicate
  floods, oversized envelopes, conflict-maximizing keys,
  censorship-target spam);
- :mod:`repro.workload.engine` -- the engine driving any set of
  tenants against the frontends, recording offered/admitted/rejected/
  committed counts, admitted latency and per-tenant fairness; plus the
  two paper-style drivers built on it (``OpenLoopGenerator``: one
  fixed-rate tenant; ``ClosedLoopDriver``: a fixed client count).

See docs/WORKLOADS.md for the design discussion.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    FixedArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.workload.adversarial import (
    CensorshipTargetSpam,
    ConflictStorm,
    DuplicateFlood,
    OversizedSpam,
)
from repro.workload.engine import (
    ClosedLoopDriver,
    OpenLoopGenerator,
    TenantSpec,
    TenantStats,
    WorkloadEngine,
    WorkloadReport,
)
from repro.workload.profiles import (
    ApplicationProfile,
    MultiChannelProfile,
    ProvenanceProfile,
    RawProfile,
    TokenTransferProfile,
)

__all__ = [
    "ApplicationProfile",
    "ArrivalProcess",
    "BurstyArrivals",
    "CensorshipTargetSpam",
    "ClosedLoopDriver",
    "ConflictStorm",
    "DiurnalArrivals",
    "DuplicateFlood",
    "FixedArrivals",
    "MultiChannelProfile",
    "OpenLoopGenerator",
    "OversizedSpam",
    "PoissonArrivals",
    "ProvenanceProfile",
    "RawProfile",
    "TenantSpec",
    "TenantStats",
    "TokenTransferProfile",
    "WorkloadEngine",
    "WorkloadReport",
    "make_arrivals",
]
