"""The observability hub: one object the whole deployment reports to.

An :class:`Observability` instance bundles a
:class:`~repro.sim.monitor.MetricsRegistry` and a
:class:`~repro.obs.spans.SpanTracer` and exposes the ``on_*`` hook
methods that the instrumented components call.  Components hold
``self.obs = None`` by default and guard every call with
``if self.obs is not None`` -- with no hub attached the hot paths pay a
single attribute test.

The hub reconstructs the paper's end-to-end pipeline per envelope as a
*telescoping milestone chain*::

    submitted -> received -> proposed -> write_quorum -> decided
              -> block_cut -> signed -> frontend_received -> delivered

Each milestone is recorded first-wins (the earliest actor to reach it
stamps it), and every phase is the delta between two consecutive
milestones -- so the sum of the phase means equals the mean end-to-end
latency *exactly*, which is what lets ``python -m repro.obs report``
cross-check itself against the bench harness's latency recorder.

Span taxonomy (exported to Chrome trace / Perfetto):

- track ``consensus`` -- one root span per consensus instance
  (``consensus cid=N``) with ``write`` and ``accept`` phase children;
- track ``ordering`` -- one root span per block (``block ch#N``) with
  ``signing``, ``dissemination`` and ``match`` phase children;
- track ``replica.<id>`` -- one ``sync r<target>`` span per regency
  change attempt; a change that never completes shows up as an orphan;
- track ``network`` -- with ``messages=True``, the message log: one
  instant per accepted send, named by the payload's kind, with ``src``,
  ``dst`` and a ``detail`` probe (``cid=3``) as args.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fabric.envelope import Envelope
from repro.obs.spans import Span, SpanTracer
from repro.sim.monitor import MetricsRegistry

#: The milestone chain, in pipeline order.
MILESTONES = (
    "submitted",
    "received",
    "proposed",
    "write_quorum",
    "decided",
    "block_cut",
    "signed",
    "frontend_received",
    "delivered",
)

#: ``(phase label, from-milestone, to-milestone)`` -- consecutive
#: milestone pairs, so the phases telescope to the end-to-end latency.
PHASES = (
    ("transport.submit", "submitted", "received"),
    ("batching", "received", "proposed"),
    ("consensus.write", "proposed", "write_quorum"),
    ("consensus.accept", "write_quorum", "decided"),
    ("execution.cut", "decided", "block_cut"),
    ("signing", "block_cut", "signed"),
    ("dissemination", "signed", "frontend_received"),
    ("frontend.match", "frontend_received", "delivered"),
)


@dataclass
class PhaseBreakdown:
    """Per-phase latency samples over every completed envelope chain."""

    phases: Dict[str, List[float]]
    end_to_end: List[float]
    complete: int
    incomplete: int

    def mean(self, phase: str) -> float:
        samples = self.phases.get(phase, [])
        return sum(samples) / len(samples) if samples else 0.0

    def means(self) -> Dict[str, float]:
        return {label: self.mean(label) for label, _, _ in PHASES}

    @property
    def end_to_end_mean(self) -> float:
        if not self.end_to_end:
            return 0.0
        return sum(self.end_to_end) / len(self.end_to_end)

    @property
    def phase_sum(self) -> float:
        return sum(self.means().values())


def _describe(payload: Any) -> str:
    """The message log's one-field summary of a payload."""
    for attribute in ("cid", "next_regency", "sequence", "offset"):
        value = getattr(payload, attribute, None)
        if value is not None:
            return f"{attribute}={value}"
    return type(payload).__name__


class Observability:
    """Metrics + spans + the milestone pipeline, for one deployment.

    ``messages=True`` also keeps the message log: every send the
    network accepts becomes an instant on the ``network`` track.
    """

    def __init__(
        self, clock: Optional[Callable[[], float]] = None, messages: bool = False
    ):
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(clock)
        self.messages = messages
        self._service: Any = None
        # milestone tables, all first-wins
        self._env: Dict[int, Dict[str, Any]] = {}            # envelope_id ->
        self._inst: Dict[int, Dict[str, Any]] = {}           # cid ->
        self._blk: Dict[Tuple[str, int], Dict[str, Any]] = {}  # (channel, number) ->
        self._first_copy: Dict[Tuple[Any, Tuple[str, int]], float] = {}
        self._seen_write_quorum: set[Tuple[int, int]] = set()
        self._seen_decided: set[Tuple[int, int]] = set()
        self._sync_spans: Dict[Tuple[int, int], Span] = {}
        # recovery spans: replica_id -> (root "recovery" span, open child)
        self._recovery_spans: Dict[int, Tuple[Span, Optional[Span]]] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.tracer.bind_clock(clock)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, service: Any) -> "Observability":
        """Wire every component of an ``OrderingService`` to this hub."""
        self._service = service
        self.bind_clock(lambda: service.sim.now)
        service.network.obs = self
        for replica in service.replicas:
            replica.obs = self
        for node in service.nodes:
            node.obs = self
        for frontend in service.frontends:
            frontend.obs = self
            frontend.relay.obs = self
            admission = getattr(frontend, "admission", None)
            if admission is not None:
                # queue-depth / shed-count gauges for the backpressure
                # loop (docs/WORKLOADS.md): sampled, not event-driven,
                # so the hot submit path stays counter-free
                name = frontend.name
                self.registry.gauge(
                    f"ordering.frontend.{name}.in_flight"
                ).track(lambda a=admission: a.in_flight)
                self.registry.gauge(
                    f"ordering.frontend.{name}.shed_count"
                ).track(lambda a=admission: a.shed_count)
                self.registry.gauge(
                    f"ordering.frontend.{name}.admission_fairness"
                ).track(lambda a=admission: a.fairness_index())
        for i, cpu in enumerate(service.cpus):
            if cpu is None:
                continue
            sim = service.sim
            self.registry.gauge(f"sim.cpu.{i}.utilization").track(
                lambda cpu=cpu, sim=sim: cpu.utilization(sim.now)
            )
            self.registry.gauge(f"sim.cpu.{i}.busy_core_seconds").track(
                lambda cpu=cpu: cpu.busy_core_seconds
            )
        return self

    def close(self) -> List[Span]:
        """Stop tracing; still-open spans become orphans."""
        return self.tracer.close()

    # ------------------------------------------------------------------
    # frontend / proxy hooks
    # ------------------------------------------------------------------
    def on_submit(self, frontend_name: Any, envelope: Envelope, now: float) -> None:
        rec = self._env.setdefault(envelope.envelope_id, {})
        rec.setdefault("submitted", now)
        self.registry.counter(
            f"ordering.frontend.{frontend_name}.envelopes_submitted"
        ).increment()

    def on_reject(
        self, frontend_name: Any, tenant: str, reason: str, now: float
    ) -> None:
        """Admission control refused an envelope (explicit shed)."""
        self.registry.counter(
            f"ordering.frontend.{frontend_name}.rejected.{reason}"
        ).increment()
        self.registry.counter(
            f"ordering.frontend.{frontend_name}.rejected_total"
        ).increment()

    def on_invoke(self, client_id: int, asynchronous: bool) -> None:
        kind = "async_invocations" if asynchronous else "invocations"
        self.registry.counter(f"smart.proxy.{client_id}.{kind}").increment()

    def on_retry(self, client_id: int) -> None:
        self.registry.counter(f"smart.proxy.{client_id}.retries").increment()

    def on_reply(self, client_id: int, latency: float) -> None:
        self.registry.histogram(
            f"smart.proxy.{client_id}.invoke_latency"
        ).record(latency)

    # ------------------------------------------------------------------
    # replica hooks (consensus lifecycle)
    # ------------------------------------------------------------------
    def on_request(self, replica_id: int, request: Any, now: float) -> None:
        self.registry.counter(
            f"smart.replica.{replica_id}.requests_received"
        ).increment()
        operation = getattr(request, "operation", None)
        if isinstance(operation, Envelope):
            rec = self._env.setdefault(operation.envelope_id, {})
            rec.setdefault("received", now)

    def on_propose(
        self, replica_id: int, cid: int, batch: List[Any], now: float
    ) -> None:
        self.registry.counter(f"smart.replica.{replica_id}.proposes").increment()
        inst = self._inst.get(cid)
        if inst is None:
            root = self.tracer.begin(
                f"consensus cid={cid}",
                track="consensus",
                category="consensus",
                root=True,
                at=now,
                cid=cid,
            )
            inst = {
                "proposed": now,
                "_root": root,
                "_phase": self.tracer.begin(
                    "write", track="consensus", category="consensus",
                    parent=root, at=now,
                ),
            }
            self._inst[cid] = inst
        for request in batch:
            operation = getattr(request, "operation", None)
            if isinstance(operation, Envelope):
                rec = self._env.setdefault(operation.envelope_id, {})
                rec.setdefault("cid", cid)

    def _advance(
        self,
        rec: Dict[str, Any],
        milestone: str,
        now: float,
        next_phase: Optional[str],
        track: str,
    ) -> bool:
        """First-wins milestone + span phase transition for one record."""
        if milestone in rec:
            return False
        rec[milestone] = now
        phase = rec.pop("_phase", None)
        if phase is not None and phase.open:
            self.tracer.end(phase, at=now)
        root = rec.get("_root")
        if root is not None and root.open:
            if next_phase is not None:
                rec["_phase"] = self.tracer.begin(
                    next_phase, track=track, category=track, parent=root, at=now
                )
            else:
                self.tracer.end(root, at=now)
        return True

    def on_write_quorum(self, replica_id: int, cid: int, now: float) -> None:
        key = (replica_id, cid)
        if key in self._seen_write_quorum:
            return
        self._seen_write_quorum.add(key)
        inst = self._inst.get(cid)
        if inst is not None and "proposed" in inst:
            self.registry.histogram(
                f"smart.replica.{replica_id}.consensus.write_quorum_wait"
            ).record(now - inst["proposed"])
        if inst is not None:
            self._advance(inst, "write_quorum", now, "accept", "consensus")

    def on_decided(self, replica_id: int, cid: int, now: float) -> None:
        key = (replica_id, cid)
        if key in self._seen_decided:
            return
        self._seen_decided.add(key)
        self.registry.counter(f"smart.replica.{replica_id}.decided").increment()
        inst = self._inst.get(cid)
        if inst is not None:
            if "write_quorum" in inst:
                self.registry.histogram(
                    f"smart.replica.{replica_id}.consensus.accept_quorum_wait"
                ).record(now - inst["write_quorum"])
            self._advance(inst, "decided", now, None, "consensus")

    def on_executed(
        self, replica_id: int, cid: int, batch_size: int, now: float
    ) -> None:
        self.registry.counter(
            f"smart.replica.{replica_id}.executed_batches"
        ).increment()
        self.registry.counter(
            f"smart.replica.{replica_id}.executed_requests"
        ).increment(batch_size)

    # ------------------------------------------------------------------
    # synchronization hooks (regency changes)
    # ------------------------------------------------------------------
    def on_stop_sent(self, replica_id: int, target: int, now: float) -> None:
        self.registry.counter(f"smart.replica.{replica_id}.stops_sent").increment()

    def on_sync_started(self, replica_id: int, target: int, now: float) -> None:
        self.registry.counter(
            f"smart.replica.{replica_id}.regency_installs"
        ).increment()
        key = (replica_id, target)
        if key not in self._sync_spans:
            self._sync_spans[key] = self.tracer.begin(
                f"sync r{target}",
                track=f"replica.{replica_id}",
                category="sync",
                root=True,
                at=now,
                target=target,
            )

    def on_sync_completed(self, replica_id: int, regency: int, now: float) -> None:
        self.registry.counter(
            f"smart.replica.{replica_id}.syncs_completed"
        ).increment()
        for key in [
            k
            for k in self._sync_spans
            if k[0] == replica_id and k[1] <= regency
        ]:
            span = self._sync_spans.pop(key)
            if span.open:
                self.tracer.end(span, at=now)

    # ------------------------------------------------------------------
    # recovery hooks (amnesiac restart, docs/RECOVERY.md)
    # ------------------------------------------------------------------
    def on_recovery_started(self, replica_id: int, now: float) -> None:
        self.registry.counter(f"smart.replica.{replica_id}.restarts").increment()
        root = self.tracer.begin(
            "recovery",
            track=f"replica.{replica_id}",
            category="recovery",
            root=True,
            at=now,
        )
        replay = self.tracer.begin(
            "replay",
            track=f"replica.{replica_id}",
            category="recovery",
            parent=root,
            at=now,
        )
        self._recovery_spans[replica_id] = (root, replay)

    def on_recovery_replayed(
        self,
        replica_id: int,
        batches: int,
        replay_s: float,
        truncated_bytes: int,
        corrupt: bool,
        now: float,
    ) -> None:
        prefix = f"smart.replica.{replica_id}.recovery"
        self.registry.histogram(f"{prefix}.replay_time").record(replay_s)
        self.registry.counter(f"{prefix}.replayed_batches").increment(batches)
        if truncated_bytes:
            self.registry.counter(f"{prefix}.truncated_bytes").increment(
                truncated_bytes
            )
        if corrupt:
            self.registry.counter(f"{prefix}.corruptions").increment()
        entry = self._recovery_spans.get(replica_id)
        if entry is not None:
            root, child = entry
            if child is not None and child.open:
                self.tracer.end(child, at=now)
            rejoin = self.tracer.begin(
                "rejoin",
                track=f"replica.{replica_id}",
                category="recovery",
                parent=root,
                at=now,
            )
            self._recovery_spans[replica_id] = (root, rejoin)

    def on_recovery_completed(
        self, replica_id: int, bytes_received: int, now: float
    ) -> None:
        prefix = f"smart.replica.{replica_id}.recovery"
        self.registry.counter(f"{prefix}.state_transfer_bytes").increment(
            bytes_received
        )
        entry = self._recovery_spans.pop(replica_id, None)
        if entry is not None:
            root, child = entry
            if child is not None and child.open:
                self.tracer.end(child, at=now)
            if root.open:
                self.registry.histogram(f"{prefix}.rejoin_time").record(
                    now - root.start
                )
                self.tracer.end(root, at=now)

    # ------------------------------------------------------------------
    # ordering-node hooks (blocks)
    # ------------------------------------------------------------------
    def on_block_cut(self, node_name: str, block: Any, now: float) -> None:
        self.registry.counter(f"ordering.node.{node_name}.blocks_cut").increment()
        key = (block.channel_id, block.header.number)
        rec = self._blk.get(key)
        if rec is None:
            root = self.tracer.begin(
                f"block {key[0]}#{key[1]}",
                track="ordering",
                category="ordering",
                root=True,
                at=now,
                channel=key[0],
                number=key[1],
            )
            rec = {
                "block_cut": now,
                "_root": root,
                "_phase": self.tracer.begin(
                    "signing", track="ordering", category="ordering",
                    parent=root, at=now,
                ),
            }
            self._blk[key] = rec
        for envelope in block.envelopes:
            env = self._env.setdefault(envelope.envelope_id, {})
            env.setdefault("block", key)

    def on_block_signed(
        self, node_name: str, block: Any, cut_time: float, now: float
    ) -> None:
        self.registry.counter(f"ordering.node.{node_name}.blocks_signed").increment()
        self.registry.histogram(
            f"ordering.node.{node_name}.sign_time"
        ).record(now - cut_time)
        rec = self._blk.get((block.channel_id, block.header.number))
        if rec is not None:
            self._advance(rec, "signed", now, "dissemination", "ordering")

    def on_block_copy(
        self, frontend_name: Any, channel: str, number: int, now: float
    ) -> None:
        key = (channel, number)
        self._first_copy.setdefault((frontend_name, key), now)
        self.registry.counter(
            f"ordering.frontend.{frontend_name}.block_copies"
        ).increment()
        rec = self._blk.get(key)
        if rec is not None:
            self._advance(rec, "frontend_received", now, "match", "ordering")

    def on_block_delivered(self, frontend_name: Any, block: Any, now: float) -> None:
        self.registry.counter(
            f"ordering.frontend.{frontend_name}.blocks_matched"
        ).increment()
        self.registry.counter(
            f"ordering.frontend.{frontend_name}.envelopes_delivered"
        ).increment(len(block.envelopes))
        key = (block.channel_id, block.header.number)
        first = self._first_copy.get((frontend_name, key))
        if first is not None:
            self.registry.histogram(
                f"ordering.frontend.{frontend_name}.match_wait"
            ).record(now - first)
        rec = self._blk.get(key)
        if rec is not None:
            self._advance(rec, "delivered", now, None, "ordering")
        for envelope in block.envelopes:
            env = self._env.setdefault(envelope.envelope_id, {})
            env.setdefault("delivered", now)
            env.setdefault("block", key)

    # ------------------------------------------------------------------
    # network hook
    # ------------------------------------------------------------------
    def on_message(
        self, src: Any, dst: Any, payload: Any, wire_bytes: int
    ) -> None:
        kind = type(payload).__name__
        self.registry.counter("sim.network.messages_sent").increment()
        self.registry.counter("sim.network.bytes_sent").increment(wire_bytes)
        self.registry.counter(f"sim.network.kind.{kind}").increment()
        if self.messages:
            self.tracer.instant(
                kind, "network", src=src, dst=dst, detail=_describe(payload)
            )

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def _chain_of(self, rec: Dict[str, Any]) -> Optional[Dict[str, float]]:
        """The full milestone chain for one envelope, or None if any
        milestone is missing or the chain is non-monotone."""
        chain: Dict[str, float] = {}
        for name in ("submitted", "received", "delivered"):
            if name in rec:
                chain[name] = rec[name]
        inst = self._inst.get(rec["cid"]) if "cid" in rec else None
        if inst is not None:
            for name in ("proposed", "write_quorum", "decided"):
                if name in inst:
                    chain[name] = inst[name]
        blk = self._blk.get(rec["block"]) if "block" in rec else None
        if blk is not None:
            for name in ("block_cut", "signed", "frontend_received"):
                if name in blk:
                    chain[name] = blk[name]
        if any(name not in chain for name in MILESTONES):
            return None
        times = [chain[name] for name in MILESTONES]
        if any(b < a for a, b in zip(times, times[1:])):
            return None
        return chain

    def phase_breakdown(self) -> PhaseBreakdown:
        """Per-phase latency over every envelope with a complete chain."""
        phases: Dict[str, List[float]] = {label: [] for label, _, _ in PHASES}
        end_to_end: List[float] = []
        complete = 0
        incomplete = 0
        for rec in self._env.values():
            chain = self._chain_of(rec)
            if chain is None:
                incomplete += 1
                continue
            complete += 1
            end_to_end.append(chain["delivered"] - chain["submitted"])
            for label, start, stop in PHASES:
                phases[label].append(chain[stop] - chain[start])
        return PhaseBreakdown(
            phases=phases,
            end_to_end=end_to_end,
            complete=complete,
            incomplete=incomplete,
        )

    def instance_timeline(self, cid: int) -> List[Tuple[str, float]]:
        """Ordered ``(milestone, time)`` pairs for one consensus
        instance, using the earliest envelope ordered in it (the ASCII
        critical-path view of the export module renders this)."""
        candidates = [
            rec
            for rec in self._env.values()
            if rec.get("cid") == cid and "submitted" in rec
        ]
        if not candidates:
            return []
        rec = min(candidates, key=lambda r: r["submitted"])
        chain = self._chain_of(rec)
        if chain is None:
            # fall back to whatever milestones exist, in order
            partial: Dict[str, float] = {}
            inst = self._inst.get(cid, {})
            blk = self._blk.get(rec.get("block"), {}) if "block" in rec else {}
            for name in MILESTONES:
                for source in (rec, inst, blk):
                    if name in source:
                        partial[name] = source[name]
                        break
            return [(n, partial[n]) for n in MILESTONES if n in partial]
        return [(name, chain[name]) for name in MILESTONES]

    def decided_cids(self) -> List[int]:
        return sorted(c for c, rec in self._inst.items() if "decided" in rec)
