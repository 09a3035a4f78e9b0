"""Group reconfiguration (BFT-SMaRt's view manager).

Membership changes are themselves ordered through consensus: a trusted
administrator submits a *reconfiguration request* (``reconfig=True``)
which every replica executes at the same point of the total order,
deterministically deriving the successor view.  A joining replica is
brought up to date by state transfer -- cheap here because the
ordering service's state is tiny (paper section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.smart.view import View


@dataclass(frozen=True)
class ReconfigOp:
    """A membership command: add or remove one replica."""

    action: str  # "add" | "remove"
    replica_id: int

    def __post_init__(self):
        if self.action not in ("add", "remove"):
            raise ValueError(f"unknown reconfiguration action {self.action!r}")


#: The smallest Byzantine-tolerant group: f = 1 requires 3f+1 replicas.
MIN_GROUP_SIZE = 4


def apply_reconfig(view: View, op: ReconfigOp) -> View:
    """Deterministically derive the successor view.

    Idempotent: applying an operation the view already reflects (e.g.
    during log replay after a state transfer) returns ``view``
    unchanged instead of failing, so every replica converges on the
    same view whatever its recovery path.
    """
    processes = list(view.processes)
    if op.action == "add":
        if op.replica_id in processes:
            return view  # already applied
        processes.append(op.replica_id)
    else:
        if op.replica_id not in processes:
            return view  # already applied
        if len(processes) <= MIN_GROUP_SIZE:
            raise ValueError(
                f"cannot shrink below {MIN_GROUP_SIZE} replicas (f >= 1 required)"
            )
        processes.remove(op.replica_id)
    return view.with_processes(processes)


class ReconfigurationClient:
    """The trusted-administrator client issuing membership changes."""

    def __init__(self, proxy):
        self.proxy = proxy

    def add_replica(self, replica_id: int):
        """Order the addition of ``replica_id``; returns a future with
        the new view descriptor."""
        return self.proxy.invoke(
            ReconfigOp("add", replica_id), size_bytes=64, reconfig=True
        )

    def remove_replica(self, replica_id: int):
        return self.proxy.invoke(
            ReconfigOp("remove", replica_id), size_bytes=64, reconfig=True
        )
