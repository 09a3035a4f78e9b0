"""Deployment builder: assemble a complete BFT ordering service.

Wires together everything from Figure 4: a cluster of ``3f+1+delta``
ordering machines (consensus replica + ordering node + per-machine CPU
with a signing thread pool) and a set of frontends, over a simulated
LAN or WAN.  The consensus module is pluggable the way Fabric means it
to be (arXiv:1801.10228): everything here is shared, and
``OrderingServiceConfig.orderer`` picks a row of :data:`BACKENDS` that
says how the backend builds one machine and what its frontends relay
through and trust.  Used by integration tests, the examples and the
benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.admission import AdmissionConfig, AdmissionController, Rejected
from repro.ordering.frontend import Frontend, MatchingCopies, SignedQuorum
from repro.ordering.node import BFTOrderingNode, TimeToCut
from repro.ordering.wal_codec import decode_value, encode_value
from repro.sim.core import Simulator
from repro.sim.cpu import CPU
from repro.sim.monitor import MetricsRegistry
from repro.sim.network import ConstantLatency, LatencyModel, Network
from repro.sim.randomness import RandomStreams
from repro.sim.storage import SimDisk
from repro.smart.consensus import replica_log_digests
from repro.smart.messages import ClientRequest
from repro.smart.proxy import ServiceProxy
from repro.smart.replica import ReplicaConfig, ServiceReplica, default_replier
from repro.smart.view import View, bft_group_size, binary_weights
from repro.smart.wal import ConsensusWAL

#: network-id base for frontends (BFT-SMaRt client ids)
FRONTEND_ID_BASE = 1000
#: network-id base for the nodes' internal TTC proxies
TTC_ID_BASE = 2000
#: network-id base for admin (reconfiguration) clients
ADMIN_ID_BASE = 3000


@dataclass
class OrderingServiceConfig:
    """Everything needed to stand up one deployment."""

    #: which BFT ordering backend to build: "bftsmart" (the paper's
    #: service) or "smartbft" (the successor design, repro.smart2)
    orderer: str = "bftsmart"
    f: int = 1
    delta: int = 0
    vmax_holders: Optional[Sequence[int]] = None
    tentative_execution: bool = False
    channel: ChannelConfig = field(
        default_factory=lambda: ChannelConfig(channel_id="channel0")
    )
    #: additional channels beyond ``channel`` (the ordering service
    #: "gathers envelopes from all channels in the network", §3)
    extra_channels: Sequence[ChannelConfig] = ()
    num_frontends: int = 1
    #: site name per node (len == n); None = all "lan"
    node_sites: Optional[Sequence[str]] = None
    #: site name per frontend; None = all "lan"
    frontend_sites: Optional[Sequence[str]] = None
    latency: Optional[LatencyModel] = None
    bandwidth_bps: float = 1e9
    #: per-node CPU model; None disables CPU cost accounting entirely
    physical_cores: Optional[int] = 8
    hardware_threads: int = 16
    signing_workers: int = 16
    sign_cost: Optional[float] = None
    #: fraction of each node's CPU consumed by BFT-SMaRt itself (§6.2)
    smart_cpu_fraction: float = 0.0
    max_batch: int = 400
    request_timeout: float = 2.0
    checkpoint_period: int = 1000
    enable_batch_timeout: bool = False
    verify_block_signatures: bool = False
    double_sign: bool = False
    #: opt-in admission control / backpressure: each frontend gets its
    #: own :class:`~repro.ordering.admission.AdmissionController` built
    #: from this config (None keeps the paper's relay-everything
    #: frontend; see docs/WORKLOADS.md)
    admission: Optional["AdmissionConfig"] = None
    #: give every replica a consensus WAL on simulated stable storage,
    #: enabling crash-recovery with amnesia (see docs/RECOVERY.md)
    durable_wal: bool = False
    seed: int = 0

    @property
    def n(self) -> int:
        return bft_group_size(self.f, self.delta)

    def channel_configs(self) -> Dict[str, ChannelConfig]:
        """Every channel the service orders, by id."""
        channels = {self.channel.channel_id: self.channel}
        for extra in self.extra_channels:
            if extra.channel_id in channels:
                raise ValueError(f"duplicate channel id {extra.channel_id!r}")
            channels[extra.channel_id] = extra
        return channels


def make_ordering_wal() -> ConsensusWAL:
    """A per-replica consensus WAL wired to the ordering-layer codec."""
    return ConsensusWAL(
        SimDisk(),
        encode_op=encode_value,
        decode_op=decode_value,
        encode_state=encode_value,
        decode_state=decode_value,
    )


def ordering_replier(replica, request: ClientRequest, result, regency, tentative):
    """The custom replier of §5.1: execution results for envelopes are
    *not* sent back to the invoking client (blocks flow to frontends
    instead); only control operations (reconfigurations, unknown ops)
    get normal replies."""
    if isinstance(request.operation, (Envelope, TimeToCut)):
        return
    default_replier(replica, request, result, regency, tentative)


@dataclass
class OrderingService:
    """A fully wired deployment, whatever the backend.

    ``replicas`` are the consensus participants (what the fault layer
    crashes and the invariants read decided logs from), ``nodes`` the
    block-cutting applications (what the observability hub and the
    throughput meters read).  Under BFT-SMaRt a node is the application
    of its replica; a SmartBFT node runs consensus on blocks itself, so
    there ``replicas is nodes``.
    """

    sim: Simulator
    network: Network
    config: OrderingServiceConfig
    registry: KeyRegistry
    view: View
    replicas: List[Any]
    nodes: List[Any]
    frontends: List[Frontend]
    stats: MetricsRegistry
    cpus: List[Optional[CPU]]
    #: optional repro.obs.Observability hub wired through every component
    observability: Optional[Any] = None

    @property
    def leader_node(self):
        """Ordering node 0 -- where the paper measures throughput."""
        return self.nodes[0]

    def submit(self, envelope: Envelope, frontend_index: int = 0) -> Optional[Rejected]:
        """Submit through one frontend; its verdict (``None`` = relayed)."""
        return self.frontends[frontend_index].submit(envelope)

    def admin_proxy(self, admin_index: int = 0, site: Optional[str] = None) -> ServiceProxy:
        """A proxy for administrative (reconfiguration) commands."""
        self._require_reconfigurable()
        proxy = ServiceProxy(
            self.sim,
            self.network,
            ADMIN_ID_BASE + admin_index,
            self.view,
            invoke_timeout=self.config.request_timeout * 2,
            register=False,
        )
        admin_site = site or (self.config.node_sites or ["lan"])[0]
        self.network.register(ADMIN_ID_BASE + admin_index, proxy, site=admin_site)
        return proxy

    def crash_node(self, index: int, amnesia: bool = False) -> None:
        self.replicas[index].crash(amnesia=amnesia)

    def recover_node(self, index: int) -> None:
        self.replicas[index].recover()

    # ------------------------------------------------------------------
    # invariant probes (repro.faults)
    # ------------------------------------------------------------------
    def ledger_digests(self) -> Dict[int, bytes]:
        """Per-frontend chain digest over the blocks each delivered."""
        return {
            frontend.name: frontend.ledger_digest() for frontend in self.frontends
        }

    def replica_log_digests(self) -> Dict[int, Dict[int, bytes]]:
        """Per-replica map of decided cid -> batch hash (durability log)."""
        return replica_log_digests(self.replicas)

    def total_submitted(self) -> int:
        return sum(frontend.envelopes_submitted for frontend in self.frontends)

    def total_delivered(self) -> int:
        """Envelopes delivered through frontend 0's meter (all frontends
        deliver the same blocks, so one meter suffices for liveness)."""
        return int(self.stats.meter(f"{FRONTEND_ID_BASE}.envelopes").total)

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    # ------------------------------------------------------------------
    # assembly (shared by the builder and by add_node)
    # ------------------------------------------------------------------
    def _add_machine(self, index: int, site: str) -> Tuple[Any, Any]:
        """One ordering machine: CPU, identity, then whatever the
        backend runs on it, attached to the network at ``site``."""
        config = self.config
        cpu: Optional[CPU] = None
        if config.physical_cores is not None:
            cpu = CPU(
                self.sim,
                physical_cores=config.physical_cores,
                hardware_threads=config.hardware_threads,
            )
            if config.smart_cpu_fraction > 0:
                cpu.set_background_load(config.smart_cpu_fraction)
        self.cpus.append(cpu)
        identity = self.registry.enroll(f"orderer{index}", org=f"ordererorg{index}")
        replica, node = BACKENDS[config.orderer].machine(
            self,
            index,
            site,
            # what every backend's ordering node is constructed from
            sim=self.sim,
            network=self.network,
            name=identity.name,
            identity=identity,
            channels=config.channel_configs(),
            cpu=cpu,
            signing_workers=config.signing_workers,
            sign_cost=config.sign_cost,
            stats=self.stats,
        )
        self.network.register(index, replica, site=site)
        self.nodes.append(node)
        if replica is node:
            self.replicas = self.nodes
        else:
            self.replicas.append(replica)
        return replica, node

    def _add_frontend(self, client_id: int, site: str, relay, acceptance) -> Frontend:
        config = self.config
        frontend = Frontend(
            sim=self.sim,
            network=self.network,
            name=client_id,
            relay=relay,
            acceptance=acceptance,
            orderer_names={node.name for node in self.nodes},
            stats=self.stats,
            max_envelope_bytes={
                channel_id: cfg.absolute_max_bytes
                for channel_id, cfg in config.channel_configs().items()
            },
            admission=(
                AdmissionController(config.admission)
                if config.admission is not None
                else None
            ),
        )
        self.network.register(client_id, frontend, site=site)
        self.frontends.append(frontend)
        return frontend

    # ------------------------------------------------------------------
    # runtime reconfiguration (paper §5.2)
    # ------------------------------------------------------------------
    def _require_reconfigurable(self) -> None:
        if not BACKENDS[self.config.orderer].reconfigurable:
            raise NotImplementedError(
                f"the {self.config.orderer!r} backend has no runtime "
                "reconfiguration (add_node/admin_proxy need 'bftsmart')"
            )

    def add_node(self, site: str = "lan"):
        """Add a new ordering node to the running cluster.

        Builds the machine exactly as the deployment builder does,
        wires it to the frontends, orders the membership change through
        consensus, and -- once decided -- brings the node up to date by
        state transfer and points every frontend at the new view.

        Returns ``(future, node)``; drive the simulator until the
        future resolves (e.g. ``service.sim.drain([future], ...)``).
        """
        from repro.smart.reconfiguration import ReconfigurationClient

        self._require_reconfigurable()
        index = len(self.replicas)
        replica, node = self._add_machine(index, site)
        for frontend in self.frontends:
            node.register_frontend(frontend.name)

        admin = self.admin_proxy(admin_index=index, site=site)
        future = ReconfigurationClient(admin).add_replica(index)

        def _activate(fut):
            try:
                fut.value
            except Exception:
                return
            new_view = self.replicas[0].view
            replica.view = new_view
            replica.state_transfer.start()
            for frontend in self.frontends:
                frontend.relay.update_view(new_view)
                frontend.acceptance.f = new_view.f

        future.add_callback(_activate)
        return future, node


# ----------------------------------------------------------------------
# the backend table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Backend:
    """What a consensus module contributes to a deployment."""

    #: ``(service, index, site, **node_kwargs) -> (replica, node)``:
    #: what runs on one ordering machine (the same object twice when
    #: the node is its own consensus replica)
    machine: Callable[..., Tuple[Any, Any]]
    #: ``(service, client_id, site, streams)``: stand up one frontend
    #: through ``service._add_frontend(client_id, site, relay,
    #: acceptance)`` and connect it to the cluster's block stream
    frontend: Callable[..., None]
    #: membership can change at runtime (``add_node``/``admin_proxy``)
    reconfigurable: bool


def _bftsmart_machine(
    service: OrderingService, index: int, site: str, **node_kwargs
) -> Tuple[ServiceReplica, BFTOrderingNode]:
    """A BFT-SMaRt replica with the ordering node as its application."""
    config = service.config
    # a machine joining a running cluster adopts its view and settings
    peer = service.replicas[0] if service.replicas else None
    view = peer.view if peer is not None else service.view
    node = BFTOrderingNode(
        double_sign=config.double_sign, net_id=index, **node_kwargs
    )
    if config.enable_batch_timeout:
        # deterministic batch timeouts: the node submits TTCs through a
        # lightweight internal proxy living on its own machine
        ttc_proxy = ServiceProxy(
            service.sim, service.network, TTC_ID_BASE + index, view, register=False
        )
        service.network.register(TTC_ID_BASE + index, ttc_proxy, site=site)
        node.ttc_submitter = lambda ttc: ttc_proxy.invoke_async(ttc, size_bytes=24)
    replica = ServiceReplica(
        sim=service.sim,
        network=service.network,
        replica_id=index,
        view=view,
        app=node,
        config=(
            peer.config
            if peer is not None
            else ReplicaConfig(
                max_batch=config.max_batch,
                request_timeout=config.request_timeout,
                checkpoint_period=config.checkpoint_period,
                tentative_execution=config.tentative_execution,
            )
        ),
        log=make_ordering_wal() if config.durable_wal else None,
        replier=ordering_replier,
    )
    return replica, node


def _bftsmart_frontend(
    service: OrderingService, client_id: int, site: str, streams: RandomStreams
) -> None:
    """Relay through a ``ServiceProxy``; every node pushes its copy of
    each block and ``2f+1`` matching ones are trusted."""
    config = service.config
    proxy = ServiceProxy(
        service.sim,
        service.network,
        client_id,
        service.view,
        accept_tentative=config.tentative_execution,
        register=False,
        # retry backoff jitter comes from the deployment's seeded
        # streams -- never ambient randomness (DET002)
        rng=streams.stream(f"proxy-backoff/{client_id}"),
    )
    service._add_frontend(
        client_id,
        site,
        proxy,
        MatchingCopies(
            config.f,
            registry=service.registry,
            verify_signatures=config.verify_block_signatures,
        ),
    )
    for node in service.nodes:
        node.register_frontend(client_id)


def _smartbft_machine(service: OrderingService, index: int, site: str, **node_kwargs):
    """A SmartBFT node: consensus on blocks, its own replica."""
    # smart2 builds on this package's block cutter, so it is imported
    # when a smartbft deployment is built, not when this module loads
    from repro.smart2.node import SmartBFTNode

    config = service.config
    node = SmartBFTNode(
        replica_id=index,
        registry=service.registry,
        membership=service.view,
        peer_names=_orderer_names(service.view),
        log=make_ordering_wal() if config.durable_wal else None,
        request_timeout=config.request_timeout,
        heartbeat_interval=config.request_timeout / 4,
        **node_kwargs,
    )
    return node, node


def _smartbft_frontend(
    service: OrderingService, client_id: int, site: str, streams: RandomStreams
) -> None:
    """Relay through one home node and subscribe to its single signed
    copies; a copy is trusted iff its signature quorum verifies."""
    from repro.smart2.relay import HomeNodeRelay

    relay = HomeNodeRelay(
        service.sim,
        service.network,
        client_id,
        service.view,
        request_timeout=service.config.request_timeout,
    )
    frontend = service._add_frontend(
        client_id,
        site,
        relay,
        SignedQuorum(service.view, service.registry, _orderer_names(service.view)),
    )
    frontend.on_block.append(relay.on_block)
    relay.start()


def _orderer_names(view: View) -> Dict[int, str]:
    """Enrolled identity name of every member (see ``_add_machine``)."""
    return {pid: f"orderer{pid}" for pid in view.processes}


#: every BFT ordering backend ``OrderingServiceConfig.orderer`` can name
BACKENDS: Dict[str, Backend] = {
    # the paper's service: repro.smart replicas + repro.ordering nodes
    "bftsmart": Backend(_bftsmart_machine, _bftsmart_frontend, reconfigurable=True),
    # the successor design (arXiv:2107.06922): repro.smart2
    "smartbft": Backend(_smartbft_machine, _smartbft_frontend, reconfigurable=False),
}


def build_ordering_service(
    config: Optional[OrderingServiceConfig] = None,
    sim: Optional[Simulator] = None,
    observability: Optional[Any] = None,
) -> OrderingService:
    """Stand up a complete ordering service on a fresh simulator.

    ``observability`` optionally receives a
    :class:`repro.obs.Observability` hub; it is attached to every
    component (network, replicas, nodes, frontends, relays) so the
    deployment emits metrics and consensus spans as it runs.
    """
    config = config or OrderingServiceConfig()
    backend = BACKENDS.get(config.orderer)
    if backend is None:
        raise ValueError(
            f"unknown orderer {config.orderer!r}; expected one of "
            + ", ".join(repr(name) for name in BACKENDS)
        )
    sim = sim or Simulator()
    streams = RandomStreams(config.seed)
    latency = config.latency or ConstantLatency(0.0001)
    network = Network(
        sim, latency, default_bandwidth_bps=config.bandwidth_bps, streams=streams
    )
    scheme = SimulatedECDSA()
    if config.sign_cost is not None:
        scheme.sign_cost = config.sign_cost
    registry = KeyRegistry(scheme=scheme, rng=streams.stream("keys"))

    n = config.n
    processes = tuple(range(n))
    weights = binary_weights(processes, config.f, config.delta, config.vmax_holders)
    view = View(
        view_id=0, processes=processes, f=config.f, delta=config.delta, weights=weights
    )
    node_sites = list(config.node_sites or ["lan"] * n)
    frontend_sites = list(config.frontend_sites or ["lan"] * config.num_frontends)
    if len(node_sites) != n:
        raise ValueError(f"need {n} node sites, got {len(node_sites)}")
    if len(frontend_sites) != config.num_frontends:
        raise ValueError(
            f"need {config.num_frontends} frontend sites, got {len(frontend_sites)}"
        )
    config.channel_configs()  # duplicate channel ids fail before anything is built

    service = OrderingService(
        sim=sim,
        network=network,
        config=config,
        registry=registry,
        view=view,
        replicas=[],
        nodes=[],
        frontends=[],
        stats=MetricsRegistry(),
        cpus=[],
        observability=observability,
    )
    for index, site in enumerate(node_sites):
        service._add_machine(index, site)
    for j, site in enumerate(frontend_sites):
        backend.frontend(service, FRONTEND_ID_BASE + j, site, streams)
    if observability is not None:
        observability.attach(service)
    return service
