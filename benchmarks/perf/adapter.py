"""The one seam between the benchmark and the program it measures.

Every ``repro`` import of ``benchmarks/perf`` lives in this file, so a
refactor of the program knows which public names must survive (README,
"Seam list").  Deployments are built from the public constructors --
never through ``repro.ordering.backends.run_backend_workload`` (its
completion predicate is quadratic) and never at a rate derived from
``OrderingCapacityModel`` (it does not saturate the simulator).

A :class:`Deployment` is driven with exactly five calls -- ``build`` /
``arm`` / ``run(dt)`` / ``report`` / ``verify`` -- which is where the
benchmark records its spans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.bench.topology import aws_latency_model, lan_latency_model
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric import (
    ChannelConfig,
    CommittingPeer,
    EndorsingPeer,
    FabricClient,
    KVChaincode,
    Or,
    SignedBy,
)
from repro.fabric.orderers import SoloOrderer
from repro.ordering import (
    AdmissionConfig,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.sim import Network, RandomStreams, Simulator, StatsRegistry, StorageFaults
from repro.sim.monitor import percentile_of_sorted
from repro.smart2.deployment import build_smartbft_service
from repro.workload import (
    ArrivalProcess,
    DuplicateFlood,
    RawProfile,
    TenantSpec,
    WorkloadEngine,
    make_arrivals,
)

from benchmarks.perf import workloads as W

FLOOD_TENANT = "mallory"


class DueArrivals(ArrivalProcess):
    """An arrival process that also records how late the generator ran.

    Each arrival is due at the previous arrival plus the delay drawn
    then; the lag is how far ``now`` is past that when the engine asks
    for the next delay.  A discrete-event generator is never late, so
    the benchmark asserts the maximum is exactly 0.
    """

    def __init__(self, inner: ArrivalProcess):
        self.inner = inner
        self.rate = inner.rate
        self.max_lag = 0.0
        self._due: Optional[float] = None

    def next_delay(self, rng, now: float) -> float:
        if self._due is not None and now - self._due > self.max_lag:
            self.max_lag = now - self._due
        delay = self.inner.next_delay(rng, now)
        self._due = now + delay
        return delay


class Deployment:
    """What the benchmark drives; subclasses wire one kind of system.

    ``blocks`` / ``block_times`` is the ledger as delivered at the
    observation point (frontend 0, or committing peer 0), recorded by a
    callback that costs two list appends per block.
    """

    #: whether every offered envelope must commit (no refusals by design)
    lossless = True

    def __init__(self, spec: Dict[str, Any], seed: int, scale: float):
        self.spec = spec
        self.seed = seed
        self.warmup = spec["warmup"] * scale
        self.window = spec["window"] * scale
        self.blocks: List[Any] = []
        self.block_times: List[float] = []
        self.sim: Simulator
        self.network: Network

    # -- the five calls ------------------------------------------------
    def arm(self) -> None:
        raise NotImplementedError

    def run(self, dt: float) -> None:
        self.sim.run(until=self.sim.now + dt)

    def drain(self) -> None:
        """Run until everything in flight has been delivered."""
        steps = int(W.DRAIN_CAP / 0.1)
        for _ in range(steps):
            if self.quiescent():
                break
            self.run(0.1)

    def mark(self) -> Dict[str, Any]:
        """Cumulative counters at this instant; windows are differences."""
        stats = self.network.stats
        return {
            "now": self.sim.now,
            "events": self.sim.processed_events,
            "bytes": stats.bytes_sent,
            "msgs": stats.messages_sent,
            "dropped": stats.messages_dropped,
            "blocks": len(self.blocks),
            "nic_busy": {
                node: self.network.nic_of(node).busy_seconds
                for node in self.network.node_ids()
            },
            **self.layer_mark(),
        }

    def report(self, start: Dict[str, Any], end: Dict[str, Any]) -> Dict[str, Any]:
        """Simulated metrics and exact counters of the window [start, end],
        plus the whole-run outcome; call after :meth:`drain`."""
        window = end["now"] - start["now"]
        blocks = self.blocks[start["blocks"]:end["blocks"]]
        times = self.block_times[start["blocks"]:end["blocks"]]
        envs = self.window_envelopes(start, end)
        good = sum(self.good_envelopes(block) for block in blocks)
        latencies = sorted(
            when - self.due_time(envelope)
            for when, block in zip(times, blocks)
            for envelope in block.envelopes
        )
        edges = [start["now"], *times, end["now"]]
        events = end["events"] - start["events"]
        outcome = self.outcome()
        sim = {
            "sim_events_per_env": events / envs,
            "sim_goodput_env_s": good / window,
            "sim_latency_p50_s": percentile_of_sorted(latencies, 50.0),
            "sim_latency_p99_s": percentile_of_sorted(latencies, 99.0),
            "sim_wire_bytes_per_env": (end["bytes"] - start["bytes"]) / envs,
            "sim_max_gap_s": max(b - a for a, b in zip(edges, edges[1:])),
            "sim_commit_share": outcome["committed"] / outcome["offered"],
        }
        nic = max(
            (busy - start["nic_busy"].get(node, 0.0)) / window
            for node, busy in end["nic_busy"].items()
        )
        # a layer this deployment does not have reports 0; the one
        # host-time counter is the parent's to compute
        counters = {
            name: 0 for name, _, _ in W.COUNTERS if name != "sim.core.host_us_per_event"
        }
        counters.update(
            {
                "sim.core.events": events,
                "sim.network.msgs_per_env": (end["msgs"] - start["msgs"]) / envs,
                "sim.network.dropped": end["dropped"] - start["dropped"],
                "sim.network.nic_util_max": nic,
                "workload.offered": outcome["offered"],
                "workload.gen_lag_sim_s": self.generator_lag(),
                **self.layer_counters(start, end, envs, window),
            }
        )
        return {
            "sim": sim,
            "counters": counters,
            "outcome": outcome,
            "window_envs": envs,
            "latency_samples": len(latencies),
        }

    def window_envelopes(self, start: Dict[str, Any], end: Dict[str, Any]) -> int:
        return sum(
            len(block.envelopes) for block in self.blocks[start["blocks"]:end["blocks"]]
        )

    def verify(self) -> List[str]:
        """Every way this run's output is wrong (empty = correct)."""
        failures = []
        previous = None
        seen: Dict[int, int] = {}
        for number, block in enumerate(self.blocks):
            header = block.header
            if header.number != number:
                failures.append(f"block {number}: numbered {header.number}")
            if previous is not None and header.previous_hash != previous:
                failures.append(f"block {number}: hash chain broken")
            if not block.verify_data():
                failures.append(f"block {number}: data hash mismatch")
            previous = header.digest()
            for envelope in block.envelopes:
                if envelope.submitter != FLOOD_TENANT:
                    seen[envelope.envelope_id] = seen.get(envelope.envelope_id, 0) + 1
        twice = sum(1 for count in seen.values() if count > 1)
        if twice:
            failures.append(f"{twice} envelopes committed more than once")
        if not self.blocks:
            failures.append("no block was delivered")
        outcome = self.outcome()
        lost = outcome["offered"] - outcome["committed"] - outcome["refused"]
        if lost:
            failures.append(f"{lost} envelopes neither committed nor refused")
        if self.lossless and outcome["refused"]:
            failures.append(f"{outcome['refused']} envelopes refused")
        if self.generator_lag() != 0.0:
            failures.append(f"generator ran {self.generator_lag()} sim s late")
        failures.extend(self.layer_failures())
        return failures

    # -- what subclasses provide ---------------------------------------
    def quiescent(self) -> bool:
        raise NotImplementedError

    def outcome(self) -> Dict[str, int]:
        """offered / committed / refused (explicitly, by design) counts."""
        raise NotImplementedError

    def due_time(self, envelope) -> float:
        return envelope.create_time

    def good_envelopes(self, block) -> int:
        return len(block.envelopes)

    def generator_lag(self) -> float:
        raise NotImplementedError

    def layer_mark(self) -> Dict[str, Any]:
        return {}

    def layer_counters(self, start, end, envs: int, window: float) -> Dict[str, Any]:
        return {}

    def layer_failures(self) -> List[str]:
        return []


class OrderingDeployment(Deployment):
    """A BFT ordering service (bftsmart/WHEAT or smartbft) under a
    :class:`WorkloadEngine`, observed at frontend 0."""

    def __init__(self, spec, seed, scale):
        super().__init__(spec, seed, scale)
        self.lossless = spec["kind"] != "overload"
        self.smartbft = spec.get("orderer") == "smartbft"
        config = getattr(self, f"_{spec['kind']}_config")()
        build = build_smartbft_service if self.smartbft else build_ordering_service
        self.service = build(config)
        self.sim = self.service.sim
        self.network = self.service.network
        self.arrivals: List[DueArrivals] = []
        self.engine = WorkloadEngine(
            self.sim,
            self.service.frontends,
            self._tenants(),
            streams=RandomStreams(seed),
            duration=self._generator_duration(),
            track_latency=False,
        )
        #: the replica the crash workload restarts: the leader of regency 0
        self.restarted = self.service.replicas[0] if spec["kind"] == "crash" else None

    # -- configurations ------------------------------------------------
    def _lan_config(self) -> OrderingServiceConfig:
        spec = self.spec
        return OrderingServiceConfig(
            orderer=spec["orderer"],
            f=(spec["n"] - 1) // 3,
            channel=ChannelConfig(
                "bench", max_message_count=spec["block_size"], batch_timeout=10.0
            ),
            num_frontends=spec["frontends"],
            latency=lan_latency_model(),
            bandwidth_bps=W.LAN_BANDWIDTH_BPS,
            smart_cpu_fraction=W.SMART_CPU_FRACTION,
            max_batch=W.BATCH_LIMIT,
            request_timeout=30.0,  # saturation must not look like a dead leader
            seed=self.seed,
            **W.LAN_CPU,
        )

    def _geo_config(self) -> OrderingServiceConfig:
        return OrderingServiceConfig(
            f=1,
            delta=1,
            vmax_holders=(0, 1),  # oregon + virginia
            tentative_execution=True,
            channel=ChannelConfig(
                "bench", max_message_count=self.spec["block_size"], batch_timeout=1.0
            ),
            num_frontends=len(W.GEO_FRONTEND_SITES),
            node_sites=list(W.WHEAT_NODE_SITES),
            frontend_sites=list(W.GEO_FRONTEND_SITES),
            latency=aws_latency_model(),
            bandwidth_bps=W.GEO_BANDWIDTH_BPS,
            physical_cores=None,
            max_batch=W.BATCH_LIMIT,
            request_timeout=8.0,
            enable_batch_timeout=True,
            seed=self.seed,
        )

    def _overload_config(self) -> OrderingServiceConfig:
        spec = self.spec
        return OrderingServiceConfig(
            f=1,
            channel=ChannelConfig(
                "bench", max_message_count=spec["block_size"], batch_timeout=0.05
            ),
            num_frontends=2,
            physical_cores=None,
            enable_batch_timeout=True,
            seed=self.seed,
            admission=AdmissionConfig(
                tenant_rate=spec["fair_share"],
                tenant_burst=spec["fair_share"] * 0.25,
                max_in_flight=spec["max_in_flight"],
            ),
        )

    def _crash_config(self) -> OrderingServiceConfig:
        spec = self.spec
        return OrderingServiceConfig(
            f=1,
            channel=ChannelConfig(
                "bench", max_message_count=spec["block_size"], batch_timeout=10.0
            ),
            num_frontends=1,
            latency=lan_latency_model(),
            durable_wal=True,
            request_timeout=spec["request_timeout"],
            seed=self.seed,
        )

    # -- load ----------------------------------------------------------
    def _due(self, kind: str, rate: float, **kwargs) -> DueArrivals:
        arrivals = DueArrivals(make_arrivals(kind, rate, **kwargs))
        self.arrivals.append(arrivals)
        return arrivals

    def _tenants(self) -> List[TenantSpec]:
        spec = self.spec
        size = spec["envelope_size"]
        if spec["kind"] != "overload":
            return [
                TenantSpec(
                    name="loadgen",
                    arrival=self._due(
                        "fixed", spec["rate"], jitter_fraction=spec.get("jitter", 0.0)
                    ),
                    profile=RawProfile(channel="bench", envelope_size=size),
                )
            ]
        # tenants are pinned to frontends: admission state is per frontend
        tenants = [
            TenantSpec(
                name=f"tenant{i}",
                sessions=spec["sessions"],
                arrival=self._due(
                    "poisson", spec["fair_share"] * spec["load_multiplier"]
                ),
                profile=RawProfile(channel="bench", envelope_size=size),
                frontend_index=i % 2,
            )
            for i in range(spec["tenants"])
        ]
        tenants.append(
            TenantSpec(
                name=FLOOD_TENANT,
                arrival=self._due("fixed", spec["flood_rate"]),
                profile=DuplicateFlood(channel="bench", envelope_size=size),
                frontend_index=0,
            )
        )
        return tenants

    def _generator_duration(self) -> float:
        """When the generator stops: the end of the window.

        The unjittered fixed-rate workloads run without a batch timeout
        (the Figure 7 model), so a partial last block would never be
        cut; they offer a whole number of blocks and stop half an
        interval after the last envelope."""
        spec = self.spec
        total = self.warmup + self.window
        if spec["kind"] in ("geo", "overload"):
            return total
        count = int(spec["rate"] * total) // spec["block_size"] * spec["block_size"]
        return (count - 0.5) / spec["rate"]

    # -- the five calls ------------------------------------------------
    def arm(self) -> None:
        self.service.frontends[0].on_block.append(self._on_block)
        self.engine.start()
        if self.restarted is not None:
            crash_at = self.warmup + self.spec["crash_at"] * self.window
            self.sim.schedule_at(crash_at, self._crash)
            self.sim.schedule_at(
                crash_at + self.spec["down_for"], self.restarted.recover
            )

    def _on_block(self, block) -> None:
        self.blocks.append(block)
        self.block_times.append(self.sim.now)

    def _crash(self) -> None:
        self.restarted.crash(amnesia=True)
        self.restarted.log.disk.crash(
            StorageFaults(torn_tail=True), RandomStreams(self.seed)["perf-storage"]
        )

    def quiescent(self) -> bool:
        frontends = self.service.frontends
        return (
            self.service.total_delivered() >= self.engine.admitted
            and len({frontend.blocks_delivered for frontend in frontends}) == 1
            and (self.restarted is None or self._rejoined())
        )

    def _rejoined(self) -> bool:
        stats = self.restarted.recovery_stats
        return stats is not None and stats["rejoined_at"] is not None

    def outcome(self) -> Dict[str, int]:
        offered = self.engine.offered
        return {
            "offered": offered,
            "committed": sum(len(block.envelopes) for block in self.blocks),
            "refused": offered - self.engine.admitted,
        }

    def generator_lag(self) -> float:
        return max(arrivals.max_lag for arrivals in self.arrivals)

    # -- per-layer counters --------------------------------------------
    def layer_mark(self) -> Dict[str, Any]:
        service = self.service
        # replica/node 1 never crashes in any workload
        witness = service.nodes[1]
        return {
            "cpu_busy": [
                cpu.busy_core_seconds for cpu in service.cpus if cpu is not None
            ],
            "decisions": (
                0 if self.smartbft else service.replicas[1].counters.consensus_decided
            ),
            "blocks_created": witness.blocks_created,
            "blocks_delivered": service.frontends[0].blocks_delivered,
        }

    def layer_counters(self, start, end, envs, window) -> Dict[str, Any]:
        service = self.service
        cores = service.config.physical_cores
        cpu = max(
            (
                (after - before) / (window * cores)
                for before, after in zip(start["cpu_busy"], end["cpu_busy"])
            ),
            default=0.0,
        )
        created = end["blocks_created"] - start["blocks_created"]
        decisions = end["decisions"] - start["decisions"]
        recovery = (self.restarted.recovery_stats if self.restarted else None) or {}
        rejoined_at = recovery.get("rejoined_at")
        admitted = self.engine.admitted
        return {
            "sim.cpu.util_max": cpu,
            "sim.storage.durable_bytes": sum(
                node.log.disk.durable_size
                for node in service.replicas
                if service.config.durable_wal
            ),
            "smart.decisions": decisions,
            "smart.envs_per_decision": envs / decisions if decisions else 0.0,
            "smart.regency_changes": self._regency_changes(),
            "smart.state_transfers": (
                0
                if self.smartbft
                else sum(r.state_transfer.transfers_completed for r in service.replicas)
            ),
            "smart.state_transfer_bytes": recovery.get("state_transfer_bytes", 0),
            "smart.wal_replay_sim_s": recovery.get("replay_s", 0.0),
            "smart.rejoin_sim_s": (
                rejoined_at - recovery["started"] if rejoined_at is not None else 0.0
            ),
            "smart2.blocks": created if self.smartbft else 0,
            "smart2.view_changes": self._view_changes(),
            "ordering.blocks_created": created,
            "ordering.blocks_delivered": end["blocks_delivered"]
            - start["blocks_delivered"],
            "ordering.admit_ratio": admitted / self.engine.offered,
            "ordering.rejected": self.engine.offered - admitted,
        }

    def _regency_changes(self) -> int:
        if self.smartbft:
            return 0
        return max(r.counters.regency_changes for r in self.service.replicas)

    def _view_changes(self) -> int:
        if not self.smartbft:
            return 0
        return max(node.view_number for node in self.service.nodes)

    def layer_failures(self) -> List[str]:
        failures = []
        service = self.service
        if len(set(service.ledger_digests().values())) != 1:
            failures.append("frontends delivered different ledgers")
        agreed: Dict[int, bytes] = {}
        for replica, log in sorted(service.replica_log_digests().items()):
            for cid, digest in log.items():
                if agreed.setdefault(cid, digest) != digest:
                    failures.append(f"replica {replica} disagrees on decision {cid}")
        changes = self._regency_changes()
        views = self._view_changes()
        if self.restarted is not None:
            if changes < 1:
                failures.append("the leader crashed but the regency never changed")
            if not self._rejoined():
                failures.append("the restarted replica never rejoined")
        elif changes or views:
            failures.append(f"{changes} regency / {views} view changes without a fault")
        return failures


class FabricDeployment(Deployment):
    """The whole Fabric pipeline on the solo orderer: one client, two
    organisations with an endorsing and a committing peer each,
    observed at committing peer 0."""

    lossless = False  # MVCC conflicts are this workload's point

    def __init__(self, spec, seed, scale):
        super().__init__(spec, seed, scale)
        streams = RandomStreams(seed)
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            lan_latency_model(),
            default_bandwidth_bps=W.LAN_BANDWIDTH_BPS,
            streams=streams,
        )
        registry = KeyRegistry(scheme=SimulatedECDSA(), rng=streams.stream("keys"))
        policy = Or(SignedBy("org1"), SignedBy("org2"))
        channel = ChannelConfig(
            "bench",
            max_message_count=spec["block_size"],
            batch_timeout=0.5,
            endorsement_policy=policy,
        )
        self.orderer = SoloOrderer(
            self.sim,
            self.network,
            "solo",
            registry.enroll("solo", org="ordererorg"),
            channel,
            stats=StatsRegistry(),
        )
        self.network.register("solo", self.orderer)
        self.committers: List[CommittingPeer] = []
        endorsers = []
        for org in ("org1", "org2"):
            peer = f"peer-{org}"
            registry.enroll(peer, org=org)
            committer = CommittingPeer(
                self.sim,
                self.network,
                peer,
                channel,
                registry=registry,
                orderer_names={"solo"},
                required_block_signatures=1,
            )
            self.network.register(peer, committer)
            self.orderer.attach_receiver(peer)
            self.committers.append(committer)
            endorser = f"endorser-{org}"
            self.network.register(
                endorser,
                EndorsingPeer(
                    self.network,
                    endorser,
                    registry.enroll(endorser, org=org),
                    state_provider=lambda _channel, c=committer: c.state,
                    chaincodes={"kv": KVChaincode()},
                ),
            )
            endorsers.append(endorser)
        self.client = FabricClient(
            self.sim,
            self.network,
            registry.enroll("client0", org="clients"),
            registry,
            endorsers=endorsers,
            orderer_endpoint="solo",
            default_policy=policy,
        )
        self.keys = streams.stream("perf-keys")
        self.interval = 1.0 / spec["rate"]
        self.total = int(spec["rate"] * (self.warmup + self.window))
        self.offered = 0
        self.max_lag = 0.0
        self.codes: List[Any] = []

    def arm(self) -> None:
        self.committers[0].on_commit.append(self._on_commit)
        self.sim.schedule(0.0, self._tick)

    def _tick(self) -> None:
        index = self.offered
        lag = self.sim.now - index * self.interval
        if lag > self.max_lag:
            self.max_lag = lag
        hot = self.spec["hot_keys"]
        if index < hot:  # create the keys first, then contend on them
            call = ("put", (f"k{index}", 0))
        else:
            call = ("increment", (f"k{self.keys.randrange(hot)}",))
        self.client.submit_transaction("bench", "kv", *call)
        self.offered += 1
        if self.offered < self.total:
            self.sim.schedule_at(self.offered * self.interval, self._tick)

    def _on_commit(self, record) -> None:
        self.blocks.append(record.block)
        self.block_times.append(self.sim.now)
        self.codes.append(record.codes)

    def quiescent(self) -> bool:
        heights = {committer.ledger.height for committer in self.committers}
        done = sum(len(block.envelopes) for block in self.blocks)
        return done >= self.offered and len(heights) == 1

    def due_time(self, envelope) -> float:
        return envelope.transaction.proposal.timestamp

    def good_envelopes(self, block) -> int:
        return self._valid(self.codes[block.header.number])

    @staticmethod
    def _valid(codes) -> int:
        return sum(1 for code in codes if code.value == "VALID")

    def outcome(self) -> Dict[str, int]:
        in_blocks = sum(len(codes) for codes in self.codes)
        valid = sum(self._valid(codes) for codes in self.codes)
        return {
            "offered": self.offered,
            "committed": valid,
            # an MVCC-invalid transaction is recorded in a block with its
            # code and reported to the client: refused, not lost
            "refused": in_blocks - valid,
        }

    def generator_lag(self) -> float:
        return self.max_lag

    def layer_mark(self) -> Dict[str, Any]:
        return {"blocks_created": self.orderer.blocks_created}

    def layer_counters(self, start, end, envs, window) -> Dict[str, Any]:
        outcome = self.outcome()
        committed = end["blocks"] - start["blocks"]
        return {
            "ordering.blocks_created": end["blocks_created"] - start["blocks_created"],
            "ordering.blocks_delivered": committed,
            "ordering.admit_ratio": 1.0,
            "fabric.blocks_committed": committed,
            "fabric.tx_valid_ratio": outcome["committed"]
            / (outcome["committed"] + outcome["refused"]),
            "fabric.rejected_blocks": sum(
                committer.rejected_blocks for committer in self.committers
            ),
        }

    def layer_failures(self) -> List[str]:
        failures = []
        first, second = self.committers
        if not (first.ledger.verify_chain() and second.ledger.verify_chain()):
            failures.append("a peer's ledger does not verify")
        if first.ledger.last_hash != second.ledger.last_hash:
            failures.append("the two peers hold different ledgers")
        if first.state.snapshot() != second.state.snapshot():
            failures.append("the two peers hold different world states")
        if not self.outcome()["refused"]:
            failures.append("no MVCC conflict on hot keys: contention is gone")
        return failures


def build(name: str, seed: int = 0, scale: float = 1.0) -> Deployment:
    """Build workload ``name`` with inputs drawn from ``seed``."""
    spec = W.WORKLOADS[name]
    kind = FabricDeployment if spec["kind"] == "fabric" else OrderingDeployment
    return kind(spec, seed, scale)
