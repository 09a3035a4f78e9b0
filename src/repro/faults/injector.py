"""The fault injector: lifecycle manager and trace recorder.

A :class:`FaultInjector` binds fault actions to a concrete deployment
(a :class:`~repro.sim.network.Network` plus, optionally, the
:class:`~repro.smart.replica.ServiceReplica` objects for replica-level
faults), hands them seeded random streams, and records every start and
stop into a deterministic, reproducible *fault trace*.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.faults.actions import FaultAction
from repro.sim.network import Network
from repro.sim.randomness import RandomStreams


class FaultInjector:
    """Installs and removes fault actions on one deployment."""

    def __init__(
        self,
        network: Network,
        replicas: Iterable = (),
        seed: int = 0,
    ):
        self.network = network
        self.replicas: Dict[Any, Any] = {r.replica_id: r for r in replicas}
        self.streams = RandomStreams(seed)
        self.trace: List[str] = []
        self._active: List[FaultAction] = []

    @property
    def sim(self):
        return self.network.sim

    def replica(self, replica_id):
        return self.replicas.get(replica_id)

    def rng(self, name: str):
        """A named random stream reserved for fault decisions, derived
        from the injector seed (never perturbs workload randomness)."""
        return self.streams.stream(f"faults/{name}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, action: FaultAction) -> FaultAction:
        if action in self._active:
            return action
        action.start(self)
        self._active.append(action)
        self.record(f"start {action.describe()}")
        return action

    def stop(self, action: FaultAction) -> None:
        if action not in self._active:
            return
        self._active.remove(action)
        action.stop(self)
        self.record(f"stop {action.describe()}")

    def active(self) -> List[FaultAction]:
        return list(self._active)

    def heal(self) -> None:
        """Stop every active fault and scrub residual network state.

        After ``heal`` the deployment is fault-free: blocked links and
        drop rules removed, crashed replicas recovered, Byzantine
        control switches reset.
        """
        for action in list(self._active):
            self.stop(action)
        self.network.heal()
        for replica in self.replicas.values():
            replica.faults.reset()
            if replica.crashed and replica.replica_id in replica.view.processes:
                replica.recover()
        self.record("heal")

    # ------------------------------------------------------------------
    # trace
    # ------------------------------------------------------------------
    def record(self, line: str) -> None:
        self.trace.append(f"t={self.sim.now:.6f} {line}")
