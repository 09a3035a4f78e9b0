"""Simulated message-passing network.

Models the two transports of the paper: a Gigabit-Ethernet LAN (Dell
R410 cluster) and wide-area links between Amazon EC2 regions.  The
model captures the characteristics the evaluation depends on:

- **propagation latency** per (site, site) pair with optional jitter;
- **NIC bandwidth** -- each node has an egress NIC that serializes its
  transmissions, so broadcasting a block to 32 receivers takes 32
  back-to-back transmissions (this is what makes throughput fall with
  the number of receivers in Figure 7);
- **fault injection** -- crashed nodes, blocked links, partitions,
  probabilistic loss, and message interceptors used by Byzantine tests.

Messages are Python objects; only their declared byte size touches the
network model (payloads are never actually serialized).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf as _INF, nextafter as _nextafter
from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Protocol, Tuple

from heapq import heappush as _heappush  # repro: allow[PROTO003] broadcast inlines the kernel's post_at

from repro.sim.core import Simulator
from repro.sim.randomness import RandomStreams

NodeId = Hashable

#: Fixed per-message overhead (Ethernet + IP + TCP headers), bytes.
MESSAGE_OVERHEAD_BYTES = 66

#: Delay for a loopback (self) delivery, seconds.
LOOPBACK_DELAY = 5e-6


class Endpoint(Protocol):
    """Anything that can receive messages from the network."""

    def deliver(self, src: NodeId, payload: Any) -> None: ...


class LatencyModel:
    """Base class: propagation delay between two *sites*."""

    def delay(self, src_site: str, dst_site: str, rng) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Uniform one-way delay, optionally jittered (LAN model)."""

    def __init__(self, base: float, jitter_fraction: float = 0.0):
        self.base = base
        self.jitter_fraction = jitter_fraction

    def delay(self, src_site: str, dst_site: str, rng) -> float:
        if self.jitter_fraction <= 0.0:
            return self.base
        return self.base * (1.0 + self.jitter_fraction * rng.random())


class MatrixLatency(LatencyModel):
    """One-way delays from a symmetric per-site matrix (WAN model).

    ``matrix`` maps ``(site_a, site_b)`` to one-way delay in seconds;
    missing symmetric entries are filled in automatically and the
    diagonal defaults to ``local_delay``.
    """

    def __init__(
        self,
        matrix: Dict[Tuple[str, str], float],
        jitter_fraction: float = 0.0,
        local_delay: float = 0.0001,
    ):
        self.matrix: Dict[Tuple[str, str], float] = {}
        for (a, b), value in sorted(matrix.items()):
            self.matrix[(a, b)] = value
            self.matrix.setdefault((b, a), value)
        self.jitter_fraction = jitter_fraction
        self.local_delay = local_delay

    def delay(self, src_site: str, dst_site: str, rng) -> float:
        if src_site == dst_site:
            base = self.matrix.get((src_site, dst_site), self.local_delay)
        else:
            try:
                base = self.matrix[(src_site, dst_site)]
            except KeyError:
                raise KeyError(f"no latency entry for {src_site!r} -> {dst_site!r}")
        if self.jitter_fraction <= 0.0:
            return base
        return base * (1.0 + self.jitter_fraction * rng.random())


class NIC:
    """Egress network interface: transmissions serialize at ``bandwidth``."""

    __slots__ = ("sim", "bandwidth_bps", "_next_free", "bytes_sent", "busy_seconds")

    def __init__(self, sim: Simulator, bandwidth_bps: float):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self._next_free = 0.0
        self.bytes_sent = 0
        self.busy_seconds = 0.0

    def transmit(self, size_bytes: int) -> float:
        """Queue a transmission; returns the absolute completion time."""
        start = max(self.sim.now, self._next_free)
        duration = size_bytes * 8.0 / self.bandwidth_bps
        self._next_free = start + duration
        self.bytes_sent += size_bytes
        self.busy_seconds += duration
        return self._next_free

    @property
    def queue_delay(self) -> float:
        """Seconds a new transmission would wait before starting."""
        return max(0.0, self._next_free - self.sim.now)

    def utilization(self, elapsed: float) -> float:
        return self.busy_seconds / elapsed if elapsed > 0 else 0.0


@dataclass(slots=True)
class _Node:
    endpoint: Endpoint
    site: str
    nic: NIC
    crashed: bool = False
    #: bumped on every recovery so in-flight messages addressed to the
    #: pre-crash incarnation can be recognized and discarded
    epoch: int = 0


class NetworkStats:
    """Aggregate traffic counters for one :class:`Network`.

    Per-link byte counts are stored nested by source (``{src: {dst:
    bytes}}``) because the sender hot loop updates them once per
    destination; :attr:`bytes_by_link` flattens to the classic
    ``{(src, dst): bytes}`` view on demand.
    """

    __slots__ = (
        "messages_sent",
        "messages_delivered",
        "messages_dropped",
        "bytes_sent",
        "bytes_by_src",
    )

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.bytes_by_src: Dict[NodeId, Dict[NodeId, int]] = {}

    @property
    def bytes_by_link(self) -> Dict[Tuple[NodeId, NodeId], int]:
        return {
            (src, dst): count
            for src, inner in self.bytes_by_src.items()
            for dst, count in inner.items()
        }


#: A filter takes (src, dst, payload) and returns the payload to
#: deliver (possibly mutated/substituted), None to drop the message, or
#: an :class:`Intercept` verdict for richer fault effects.
MessageFilter = Callable[[NodeId, NodeId, Any], Optional[Any]]


@dataclass
class Intercept:
    """Rich verdict an interceptor may return instead of a payload.

    Lets the fault-injection layer (:mod:`repro.faults`) express
    effects the plain payload-or-None protocol cannot:

    - ``drop`` -- discard the message (same as returning None);
    - ``extra_delay`` -- add seconds to the propagation delay;
    - ``copies`` -- deliver this many copies, ``copy_spacing`` apart;
    - ``bypass_fifo`` -- exempt the delivery from the per-link FIFO
      floor, so a delayed message may be overtaken by later ones
      (message reordering, as on a UDP-like adversarial link).
    """

    payload: Any
    drop: bool = False
    extra_delay: float = 0.0
    copies: int = 1
    copy_spacing: float = 0.0
    bypass_fifo: bool = False


class Network:
    """The message fabric connecting every simulated component."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel,
        default_bandwidth_bps: float = 1e9,
        streams: Optional[RandomStreams] = None,
        overhead_bytes: int = MESSAGE_OVERHEAD_BYTES,
    ):
        self.sim = sim
        self.latency = latency
        self.default_bandwidth_bps = default_bandwidth_bps
        self.streams = streams or RandomStreams(0)
        self.overhead_bytes = overhead_bytes
        self.stats = NetworkStats()
        #: optional repro.obs hub; when set, every accepted send is
        #: reported via ``obs.on_message`` (no-op otherwise)
        self.obs = None
        self._nodes: Dict[NodeId, _Node] = {}
        self._blocked: set[Tuple[NodeId, NodeId]] = set()
        self._drop_rates: Dict[Tuple[NodeId, NodeId], float] = {}
        self._filters: list[MessageFilter] = []
        self._rng = self.streams.stream("network")
        #: per-link FIFO enforcement (TCP in-order delivery): latest
        #: scheduled arrival per (src, dst)
        # FIFO floor per directed link, nested by source ({src: {dst:
        # last_arrival}}) so the sender hot loop avoids tuple keys
        self._last_arrival: Dict[NodeId, Dict[NodeId, float]] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(
        self,
        node_id: NodeId,
        endpoint: Endpoint,
        site: str = "lan",
        bandwidth_bps: Optional[float] = None,
    ) -> None:
        """Attach ``endpoint`` to the network as ``node_id`` at ``site``."""
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already registered")
        nic = NIC(self.sim, bandwidth_bps or self.default_bandwidth_bps)
        self._nodes[node_id] = _Node(endpoint=endpoint, site=site, nic=nic)

    def unregister(self, node_id: NodeId) -> None:
        self._nodes.pop(node_id, None)

    def node_ids(self) -> Iterable[NodeId]:
        return self._nodes.keys()

    def site_of(self, node_id: NodeId) -> str:
        return self._nodes[node_id].site

    def nic_of(self, node_id: NodeId) -> NIC:
        return self._nodes[node_id].nic

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def crash(self, node_id: NodeId) -> None:
        """Silence a node: it neither sends nor receives from now on."""
        self._nodes[node_id].crashed = True

    def recover(self, node_id: NodeId) -> None:
        """Un-silence a node as a *new incarnation*.

        Messages that were already in flight to the node when it
        crashed are dropped on arrival rather than delivered stale: a
        restarted (possibly amnesiac) process must not mistake
        pre-crash traffic for fresh messages.
        """
        node = self._nodes[node_id]
        node.crashed = False
        node.epoch += 1

    def is_crashed(self, node_id: NodeId) -> bool:
        node = self._nodes.get(node_id)
        return node is None or node.crashed

    def block(self, a: NodeId, b: NodeId, bidirectional: bool = True) -> None:
        """Drop every message on the (a -> b) link."""
        self._blocked.add((a, b))
        if bidirectional:
            self._blocked.add((b, a))

    def unblock(self, a: NodeId, b: NodeId, bidirectional: bool = True) -> None:
        self._blocked.discard((a, b))
        if bidirectional:
            self._blocked.discard((b, a))

    def partition(self, *groups: Iterable[NodeId]) -> None:
        """Block all links between members of different groups."""
        groups = [list(group) for group in groups]
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1 :]:
                for a in group_a:
                    for b in group_b:
                        self.block(a, b)

    def heal(self) -> None:
        """Remove every blocked link and drop rule."""
        self._blocked.clear()
        self._drop_rates.clear()

    def is_blocked(self, a: NodeId, b: NodeId) -> bool:
        return (a, b) in self._blocked

    def blocked_links(self) -> set[Tuple[NodeId, NodeId]]:
        return set(self._blocked)

    def crashed_nodes(self) -> list[NodeId]:
        # node ids mix ints and strings; sort on str for a total order
        return [
            nid
            for nid, node in sorted(self._nodes.items(), key=lambda kv: str(kv[0]))
            if node.crashed
        ]

    def set_drop_rate(self, a: NodeId, b: NodeId, rate: float) -> None:
        """Drop messages on (a -> b) independently with probability ``rate``."""
        self._drop_rates[(a, b)] = rate

    def add_filter(self, fn: MessageFilter) -> None:
        """Install an interceptor (used to model Byzantine links/tests)."""
        self._filters.append(fn)

    def remove_filter(self, fn: MessageFilter) -> None:
        self._filters.remove(fn)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, payload: Any, size_bytes: int = 0) -> None:
        """Send ``payload`` from ``src`` to ``dst``.

        Delivery time = egress queueing at ``src``'s NIC + transmission
        + propagation latency.  Self-sends bypass the NIC.
        """
        stats = self.stats
        stats.messages_sent += 1
        nodes = self._nodes
        src_node = nodes.get(src)
        if src_node is None or src_node.crashed:
            stats.messages_dropped += 1
            return
        dst_node = nodes.get(dst)
        if dst_node is None or dst_node.crashed:
            stats.messages_dropped += 1
            return
        link = (src, dst)
        if self._blocked and link in self._blocked:
            stats.messages_dropped += 1
            return
        if self._drop_rates:
            drop_rate = self._drop_rates.get(link, 0.0)
            if drop_rate > 0.0 and self._rng.random() < drop_rate:
                stats.messages_dropped += 1
                return
        extra_delay = 0.0
        copies = 1
        copy_spacing = 0.0
        bypass_fifo = False
        if self._filters:
            for fn in self._filters:
                verdict = fn(src, dst, payload)
                if verdict is None:
                    stats.messages_dropped += 1
                    return
                if isinstance(verdict, Intercept):
                    if verdict.drop:
                        stats.messages_dropped += 1
                        return
                    payload = verdict.payload
                    extra_delay += verdict.extra_delay
                    copies = max(copies, verdict.copies)
                    copy_spacing = max(copy_spacing, verdict.copy_spacing)
                    bypass_fifo = bypass_fifo or verdict.bypass_fifo
                else:
                    payload = verdict

        wire_bytes = size_bytes + self.overhead_bytes
        if self.obs is not None:
            self.obs.on_message(src, dst, payload, wire_bytes)
        stats.bytes_sent += wire_bytes
        bytes_by_src = stats.bytes_by_src
        bytes_inner = bytes_by_src.get(src)
        if bytes_inner is None:
            bytes_inner = bytes_by_src[src] = {}
        bytes_inner[dst] = bytes_inner.get(dst, 0) + wire_bytes

        sim = self.sim
        if src == dst:
            arrival = sim.now + LOOPBACK_DELAY
        else:
            arrival = src_node.nic.transmit(wire_bytes) + self.latency.delay(
                src_node.site, dst_node.site, self._rng
            )
        if extra_delay:
            arrival += extra_delay
        if not bypass_fifo:
            # connections deliver in order (TCP): jitter may not reorder
            # messages on the same link
            last_arrival = self._last_arrival.get(src)
            if last_arrival is None:
                last_arrival = self._last_arrival[src] = {}
            floor = last_arrival.get(dst, 0.0)
            if sim._tie_key is not None:
                # under RaceSan's tie permutation a same-link arrival
                # tie would let the shuffle break the FIFO contract;
                # an ulp bump keeps the connection strictly ordered
                if arrival <= floor:
                    arrival = _nextafter(floor, _INF)
            elif arrival < floor:
                arrival = floor
            last_arrival[dst] = arrival
        epoch = dst_node.epoch
        sim.post_at(arrival, self._deliver, src, dst, payload, epoch)
        for i in range(1, copies):
            sim.post_at(
                arrival + i * copy_spacing, self._deliver, src, dst, payload, epoch
            )

    def broadcast(
        self, src: NodeId, dsts: Iterable[NodeId], payload: Any, size_bytes: int = 0
    ) -> None:
        """Send one copy of ``payload`` to each destination in order.

        Copies serialize on the sender's NIC, so fan-out cost is linear
        in the number of receivers -- exactly the effect measured in
        Figure 7.

        Semantically identical to calling :meth:`send` once per
        destination (same stats, same RNG draws, same delivery order);
        the source-side lookups are just hoisted out of the loop, since
        most traffic in a BFT deployment is the vote broadcasts.
        """
        if self._filters or self._drop_rates or self._blocked or self.obs is not None:
            # uncommon modes (fault injection, observability) keep the
            # straightforward path -- one send per destination
            for dst in dsts:
                self.send(src, dst, payload, size_bytes)
            return
        stats = self.stats
        nodes = self._nodes
        src_node = nodes.get(src)
        if src_node is None or src_node.crashed:
            for _ in dsts:
                stats.messages_sent += 1
                stats.messages_dropped += 1
            return
        wire_bytes = size_bytes + self.overhead_bytes
        sim = self.sim
        now = sim.now  # constant within the sending event
        deliver = self._deliver
        # inlined Simulator.post_at (same entry shape, same seq
        # numbering): one heap push per destination without a function
        # call or argument re-packing -- this loop is the hottest line
        # in the whole simulator
        heap = sim._heap
        push = _heappush
        nextseq = sim._seq.__next__
        tie_key = sim._tie_key
        # inlined NIC.transmit: the NIC's three accumulators live in
        # locals for the loop and are written back once after it (the
        # same additions in the same order, so the same floats)
        nic = src_node.nic
        tx_duration = wire_bytes * 8.0 / nic.bandwidth_bps
        next_free = nic._next_free
        nic_bytes = nic.bytes_sent
        nic_busy = nic.busy_seconds
        latency = self.latency
        # LAN deployments use ConstantLatency, whose delay ignores the
        # site pair -- inline its two-float formula and skip a method
        # call per destination (the RNG draw sequence is unchanged)
        const_latency = type(latency) is ConstantLatency
        if const_latency:
            lat_base = latency.base
            lat_jitter = latency.jitter_fraction
        latency_delay = latency.delay
        src_site = src_node.site
        rng = self._rng
        rng_random = rng.random
        last_arrival = self._last_arrival.get(src)
        if last_arrival is None:
            last_arrival = self._last_arrival[src] = {}
        bytes_inner = stats.bytes_by_src.get(src)
        if bytes_inner is None:
            bytes_inner = stats.bytes_by_src[src] = {}
        sent = dropped = 0
        bytes_sent = 0
        for dst in dsts:
            sent += 1
            dst_node = nodes.get(dst)
            if dst_node is None or dst_node.crashed:
                dropped += 1
                continue
            bytes_sent += wire_bytes
            bytes_inner[dst] = bytes_inner.get(dst, 0) + wire_bytes
            if src == dst:
                arrival = now + LOOPBACK_DELAY
            else:
                if next_free < now:
                    next_free = now
                next_free += tx_duration
                nic_bytes += wire_bytes
                nic_busy += tx_duration
                if const_latency:
                    if lat_jitter <= 0.0:
                        arrival = next_free + lat_base
                    else:
                        arrival = next_free + lat_base * (
                            1.0 + lat_jitter * rng_random()
                        )
                else:
                    arrival = next_free + latency_delay(src_site, dst_node.site, rng)
            floor = last_arrival.get(dst, 0.0)
            if tie_key is not None:
                # same ulp-bump as send(): FIFO survives the permutation
                if arrival <= floor:
                    arrival = _nextafter(floor, _INF)
            elif arrival < floor:
                arrival = floor
            last_arrival[dst] = arrival
            # post_at(arrival, deliver, src, dst, payload, epoch), inlined
            seq = nextseq()
            if tie_key is not None:
                seq = tie_key(seq)
            push(heap, (arrival, seq, deliver, (src, dst, payload, dst_node.epoch)))
        # no user code runs between loop iterations (post_at only queues;
        # a LatencyModel reads no NIC or stats state), so folding the
        # counter updates after the loop is unobservable
        nic._next_free = next_free
        nic.bytes_sent = nic_bytes
        nic.busy_seconds = nic_busy
        stats.messages_sent += sent
        stats.messages_dropped += dropped
        stats.bytes_sent += bytes_sent

    def _deliver(
        self, src: NodeId, dst: NodeId, payload: Any, epoch: Optional[int] = None
    ) -> None:
        node = self._nodes.get(dst)
        if node is None or node.crashed:
            self.stats.messages_dropped += 1
            return
        if epoch is not None and epoch != node.epoch:
            # addressed to a previous incarnation that crashed meanwhile
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        node.endpoint.deliver(src, payload)
