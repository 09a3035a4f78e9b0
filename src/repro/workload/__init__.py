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
  processes (Poisson, fixed-interval): a tenant with a million
  sessions is one superposed process with a million times the rate,
  one timer, O(1) state;
- :mod:`repro.workload.profiles` -- what a tenant's envelopes look
  like (size-only raw envelopes, hot-key token transfers);
- :mod:`repro.workload.adversarial` -- abusive mixes (duplicate
  floods, conflict-maximizing keys);
- :mod:`repro.workload.engine` -- the engine driving any set of
  tenants against the frontends, recording offered/admitted/rejected/
  committed counts, admitted latency and per-tenant fairness.  The
  paper's fixed-rate client load is a scenario row's ``OpenLoop``, one
  fixed-interval tenant of this engine (:mod:`repro.ordering.backends`).

See docs/WORKLOADS.md for the design discussion.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    FixedArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.workload.adversarial import (
    ConflictStorm,
    DuplicateFlood,
)
from repro.workload.engine import (
    TenantSpec,
    TenantStats,
    WorkloadEngine,
    WorkloadReport,
)
from repro.workload.profiles import (
    ApplicationProfile,
    RawProfile,
    TokenTransferProfile,
)

__all__ = [
    "ApplicationProfile",
    "ArrivalProcess",
    "ConflictStorm",
    "DuplicateFlood",
    "FixedArrivals",
    "PoissonArrivals",
    "RawProfile",
    "TenantSpec",
    "TenantStats",
    "TokenTransferProfile",
    "WorkloadEngine",
    "WorkloadReport",
    "make_arrivals",
]
