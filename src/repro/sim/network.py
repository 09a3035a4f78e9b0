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
    """Base class: propagation delay between two *sites*.

    A model is a base delay per site pair plus a jitter fraction: one
    copy takes ``base`` seconds, or ``base * (1.0 + jitter_fraction *
    u)`` with one uniform draw ``u`` from the network's RNG when the
    fraction is positive.  :class:`Network` resolves the base once per
    directed link (it is fixed for the link's life) and evaluates the
    jitter inline per copy; :meth:`delay` is the same expression for
    everyone else.  A subclass implements :meth:`base_delay` and sets
    ``jitter_fraction``.
    """

    jitter_fraction: float = 0.0

    def base_delay(self, src_site: str, dst_site: str) -> float:
        raise NotImplementedError

    def delay(self, src_site: str, dst_site: str, rng) -> float:
        base = self.base_delay(src_site, dst_site)
        if self.jitter_fraction <= 0.0:
            return base
        return base * (1.0 + self.jitter_fraction * rng.random())


class ConstantLatency(LatencyModel):
    """Uniform one-way delay, optionally jittered (LAN model)."""

    def __init__(self, base: float, jitter_fraction: float = 0.0):
        self.base = base
        self.jitter_fraction = jitter_fraction

    def base_delay(self, src_site: str, dst_site: str) -> float:
        return self.base


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

    def base_delay(self, src_site: str, dst_site: str) -> float:
        if src_site == dst_site:
            return self.matrix.get((src_site, dst_site), self.local_delay)
        try:
            return self.matrix[(src_site, dst_site)]
        except KeyError:
            raise KeyError(f"no latency entry for {src_site!r} -> {dst_site!r}")


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
    #: this sender's links by receiver id (the table outlives the
    #: registration: see :meth:`Network.register`)
    links: Dict[NodeId, "_Link"]
    crashed: bool = False
    #: bumped on every recovery so in-flight messages addressed to the
    #: pre-crash incarnation can be recognized and discarded
    epoch: int = 0


#: the receiver of a link whose sender registered again: crashed, so the
#: link's next copy resolves receiver and base delay from scratch
_UNRESOLVED = _Node(endpoint=None, site="", nic=None, links={}, crashed=True)


class _Link:
    """One directed link, owned by its sender.

    Holds only what is fixed for the link's life or belongs to the link:
    the receiver's :class:`_Node`, the unjittered site-pair delay, the
    FIFO floor (TCP in-order delivery: the latest arrival scheduled on
    the link) and the bytes it carried.  What may change between calls
    is not cached: NIC bandwidth and the jitter fraction are read per
    call, the receiver's crash state and epoch through ``dst`` per copy.
    A receiver that crashes or is unregistered is ``crashed``, which
    sends the link's next copy back to the id lookup.
    """

    __slots__ = ("dst", "base", "floor", "bytes")

    def __init__(self, dst: _Node, base: float, floor: float = 0.0, nbytes: int = 0):
        self.dst = dst
        self.base = base
        self.floor = floor
        self.bytes = nbytes


class NetworkStats:
    """Aggregate traffic counters for one :class:`Network`.

    Per-link byte counts live on the links themselves;
    :attr:`bytes_by_src` (``{src: {dst: bytes}}``) and
    :attr:`bytes_by_link` (``{(src, dst): bytes}``) are read-only views
    over them, built on demand.
    """

    __slots__ = (
        "messages_sent",
        "messages_delivered",
        "messages_dropped",
        "bytes_sent",
        "_links",
    )

    def __init__(self, links: Dict[NodeId, Dict[NodeId, _Link]]) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self._links = links

    @property
    def bytes_by_src(self) -> Dict[NodeId, Dict[NodeId, int]]:
        return {
            src: {dst: link.bytes for dst, link in table.items()}
            for src, table in self._links.items()
            if table
        }

    @property
    def bytes_by_link(self) -> Dict[Tuple[NodeId, NodeId], int]:
        return {
            (src, dst): link.bytes
            for src, table in self._links.items()
            for dst, link in table.items()
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
        #: every sender's link table by sender id (see :meth:`register`)
        self._links: Dict[NodeId, Dict[NodeId, _Link]] = {}
        self.stats = NetworkStats(self._links)
        self._obs = None
        self._nodes: Dict[NodeId, _Node] = {}
        self._blocked: set[Tuple[NodeId, NodeId]] = set()
        self._drop_rates: Dict[Tuple[NodeId, NodeId], float] = {}
        self._filters: list[MessageFilter] = []
        #: derived: is any interceptor installed?  (see _refresh_mode)
        self._intercepting = False
        self._rng = self.streams.stream("network")

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
        """Attach ``endpoint`` to the network as ``node_id`` at ``site``.

        An id registered before keeps its links' FIFO floors and byte
        counts -- they belong to the link, not to the registration -- and
        each of them resolves its receiver and base delay again at its
        next copy, since the new incarnation may sit at another site.
        """
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already registered")
        nic = NIC(self.sim, bandwidth_bps or self.default_bandwidth_bps)
        links = self._links.get(node_id)
        if links is None:
            links = {}
        else:
            links = {
                dst: _Link(_UNRESOLVED, 0.0, link.floor, link.bytes)
                for dst, link in links.items()
            }
        self._links[node_id] = links
        self._nodes[node_id] = _Node(endpoint=endpoint, site=site, nic=nic, links=links)

    def unregister(self, node_id: NodeId) -> None:
        node = self._nodes.pop(node_id, None)
        if node is not None:
            # retired: a link into it goes back to the id lookup at its
            # next copy (and finds a new incarnation, or nobody)
            node.crashed = True

    def node_ids(self) -> Iterable[NodeId]:
        return self._nodes.keys()

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
        self._refresh_mode()

    def unblock(self, a: NodeId, b: NodeId, bidirectional: bool = True) -> None:
        self._blocked.discard((a, b))
        if bidirectional:
            self._blocked.discard((b, a))
        self._refresh_mode()

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
        self._refresh_mode()

    def is_blocked(self, a: NodeId, b: NodeId) -> bool:
        return (a, b) in self._blocked

    def blocked_links(self) -> set[Tuple[NodeId, NodeId]]:
        return set(self._blocked)

    def set_drop_rate(self, a: NodeId, b: NodeId, rate: float) -> None:
        """Drop messages on (a -> b) independently with probability ``rate``."""
        self._drop_rates[(a, b)] = rate
        self._refresh_mode()

    def add_filter(self, fn: MessageFilter) -> None:
        """Install an interceptor (used to model Byzantine links/tests)."""
        self._filters.append(fn)
        self._refresh_mode()

    def remove_filter(self, fn: MessageFilter) -> None:
        self._filters.remove(fn)
        self._refresh_mode()

    @property
    def obs(self):
        """Optional repro.obs hub; when set, every accepted copy is
        reported via ``obs.on_message``."""
        return self._obs

    @obs.setter
    def obs(self, hub) -> None:
        self._obs = hub
        self._refresh_mode()

    def _refresh_mode(self) -> None:
        # recomputed wherever an interceptor is installed or removed, so
        # the sending paths test one flag instead of four containers
        self._intercepting = bool(
            self._filters or self._drop_rates or self._blocked or self._obs is not None
        )

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, payload: Any, size_bytes: int = 0) -> None:
        """Send ``payload`` from ``src`` to ``dst``: a broadcast of one.

        Delivery time = egress queueing at ``src``'s NIC + transmission
        + propagation latency.  Self-sends bypass the NIC.
        """
        if self._intercepting:
            self._intercept(src, dst, payload, size_bytes)
        else:
            self.broadcast(src, (dst,), payload, size_bytes)

    def broadcast(
        self, src: NodeId, dsts: Iterable[NodeId], payload: Any, size_bytes: int = 0
    ) -> None:
        """Send one copy of ``payload`` to each destination in order.

        Copies serialize on the sender's NIC, so fan-out cost is linear
        in the number of receivers -- exactly the effect measured in
        Figure 7.

        This loop is where a copy's arrival is computed whenever no
        interceptor is installed (:meth:`send` is a broadcast of one);
        with one installed every copy takes :meth:`_intercept`, the same
        computation plus the fault effects, on the same link records.
        """
        if self._intercepting:
            for dst in dsts:
                self._intercept(src, dst, payload, size_bytes)
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
        # same additions in the same order, so the same floats); the
        # bandwidth is read per call, since a test may change it mid-run
        nic = src_node.nic
        tx_duration = wire_bytes * 8.0 / nic.bandwidth_bps
        next_free = nic._next_free
        nic_bytes = nic.bytes_sent
        nic_busy = nic.busy_seconds
        # inlined LatencyModel.delay on the link's cached base: one draw
        # per copy, in destination order, iff the jitter is positive
        jitter = self.latency.jitter_fraction
        rng_random = self._rng.random
        links = src_node.links
        sent = dropped = 0
        bytes_sent = 0
        for dst in dsts:
            sent += 1
            try:
                link = links[dst]
            except KeyError:
                link = None
            if link is None or link.dst.crashed:
                # the link's first copy, or its receiver crashed, was
                # unregistered or re-registered since the last one
                dst_node = nodes.get(dst)
                if dst_node is None or dst_node.crashed:
                    dropped += 1
                    continue
                link = self._open_link(src_node, dst, dst_node)
            bytes_sent += wire_bytes
            link.bytes += wire_bytes
            if src == dst:
                arrival = now + LOOPBACK_DELAY
            else:
                if next_free < now:
                    next_free = now
                next_free += tx_duration
                nic_bytes += wire_bytes
                nic_busy += tx_duration
                if jitter <= 0.0:
                    arrival = next_free + link.base
                else:
                    arrival = next_free + link.base * (1.0 + jitter * rng_random())
            # connections deliver in order (TCP): jitter may not reorder
            # messages on the same link
            floor = link.floor
            if tie_key is None:
                if arrival < floor:
                    arrival = floor
                seq = nextseq()
            else:
                # under RaceSan's tie permutation a same-link arrival tie
                # would let the shuffle break the FIFO contract; an ulp
                # bump keeps the connection strictly ordered
                if arrival <= floor:
                    arrival = _nextafter(floor, _INF)
                seq = tie_key(nextseq())
            link.floor = arrival
            # post_at(arrival, deliver, src, dst, payload, epoch), inlined
            push(heap, (arrival, seq, deliver, (src, dst, payload, link.dst.epoch)))
        # no user code runs between loop iterations (post_at only queues,
        # a link is opened from the latency model alone), so folding the
        # counter updates after the loop is unobservable
        nic._next_free = next_free
        nic.bytes_sent = nic_bytes
        nic.busy_seconds = nic_busy
        stats.messages_sent += sent
        stats.messages_dropped += dropped
        stats.bytes_sent += bytes_sent

    def _open_link(self, src_node: _Node, dst: NodeId, dst_node: _Node) -> _Link:
        """Resolve ``src_node``'s link to ``dst`` for the receiver
        ``dst_node``: create it at its first copy, re-point it after the
        receiver's registration changed.  An unknown site pair raises
        ``KeyError`` here, at the link's first send."""
        base = self.latency.base_delay(src_node.site, dst_node.site)
        links = src_node.links
        link = links.get(dst)
        if link is None:
            link = links[dst] = _Link(dst_node, base)
        else:
            link.dst = dst_node
            link.base = base
        return link

    def _intercept(self, src: NodeId, dst: NodeId, payload: Any, size_bytes: int) -> None:
        """One copy under interceptors: blocked links, drop rates,
        filters and the obs hub, then the arrival :meth:`broadcast`
        computes, on the same link record."""
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
        if (src, dst) in self._blocked:
            stats.messages_dropped += 1
            return
        drop_rate = self._drop_rates.get((src, dst), 0.0)
        if drop_rate > 0.0 and self._rng.random() < drop_rate:
            stats.messages_dropped += 1
            return
        extra_delay = 0.0
        copies = 1
        copy_spacing = 0.0
        bypass_fifo = False
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
        if self._obs is not None:
            self._obs.on_message(src, dst, payload, wire_bytes)
        link = src_node.links.get(dst)
        if link is None or link.dst is not dst_node:
            link = self._open_link(src_node, dst, dst_node)
        stats.bytes_sent += wire_bytes
        link.bytes += wire_bytes

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
            # the FIFO floor of broadcast(), shared through the link
            floor = link.floor
            if sim._tie_key is not None:
                if arrival <= floor:
                    arrival = _nextafter(floor, _INF)
            elif arrival < floor:
                arrival = floor
            link.floor = arrival
        epoch = dst_node.epoch
        sim.post_at(arrival, self._deliver, src, dst, payload, epoch)
        for i in range(1, copies):
            sim.post_at(
                arrival + i * copy_spacing, self._deliver, src, dst, payload, epoch
            )

    def _deliver(
        self, src: NodeId, dst: NodeId, payload: Any, epoch: Optional[int] = None
    ) -> None:
        try:
            node = self._nodes[dst]
        except KeyError:  # unregistered while the copy was in flight
            node = None
        if node is None or node.crashed:
            self.stats.messages_dropped += 1
            return
        if epoch is not None and epoch != node.epoch:
            # addressed to a previous incarnation that crashed meanwhile
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        node.endpoint.deliver(src, payload)
