"""Declarative fault actions.

Each action is a small configuration object with ``start``/``stop``
lifecycle hooks driven by a :class:`repro.faults.injector.FaultInjector`.
Message-level actions install interceptors on
:class:`repro.sim.network.Network` (returning rich
:class:`~repro.sim.network.Intercept` verdicts); replica-level actions
flip the :class:`~repro.smart.replica.FaultControls` switches or the
crash/recover hooks of :class:`~repro.smart.replica.ServiceReplica`.

Actions are *pure configuration*: the same action object can be started
against a fresh network run after run (the schedule explorer's shrinker
relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, FrozenSet, Iterable, Optional, Tuple

from repro.crypto.hashing import sha256
from repro.sim.network import Intercept
from repro.smart.consensus import batch_hash
from repro.smart.messages import (
    ClientRequest,
    ForwardedRequest,
    Propose,
    Write,
    request_uids,
)

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector


def _id_set(value) -> Optional[FrozenSet]:
    if value is None:
        return None
    if isinstance(value, (set, frozenset, list, tuple)):
        return frozenset(value)
    return frozenset((value,))


@dataclass(frozen=True)
class Match:
    """Selects the messages a fault applies to.

    ``src``/``dst`` accept a single node id or an iterable of ids
    (``None`` matches everything); ``types`` is a message class or a
    tuple of classes; ``where`` is an extra ``(src, dst, payload)``
    predicate for anything the structural fields cannot express.
    """

    src: Any = None
    dst: Any = None
    types: Optional[Tuple[type, ...]] = None
    where: Optional[Callable[[Any, Any, Any], bool]] = None

    def __post_init__(self):
        object.__setattr__(self, "src", _id_set(self.src))
        object.__setattr__(self, "dst", _id_set(self.dst))
        if self.types is not None and not isinstance(self.types, tuple):
            object.__setattr__(self, "types", (self.types,))

    def matches(self, src, dst, payload) -> bool:
        if self.src is not None and src not in self.src:
            return False
        if self.dst is not None and dst not in self.dst:
            return False
        if self.types is not None and not isinstance(payload, self.types):
            return False
        if self.where is not None and not self.where(src, dst, payload):
            return False
        return True

    def describe(self) -> str:
        parts = []
        if self.src is not None:
            parts.append(f"src={sorted(self.src, key=repr)}")
        if self.dst is not None:
            parts.append(f"dst={sorted(self.dst, key=repr)}")
        if self.types is not None:
            parts.append(f"types={'|'.join(t.__name__ for t in self.types)}")
        if self.where is not None:
            parts.append("where=<predicate>")
        return "[" + " ".join(parts) + "]" if parts else "[*]"


#: Match every replica-to-replica protocol message.
ANY = Match()


class FaultAction:
    """Base class: a start/stop-able fault."""

    def start(self, ctx: "FaultInjector") -> None:
        raise NotImplementedError

    def stop(self, ctx: "FaultInjector") -> None:
        pass

    def describe(self) -> str:
        return type(self).__name__.lower()


class FilterFault(FaultAction):
    """A fault realized as a network interceptor."""

    def __init__(self):
        self._installed: list = []

    def _filter(self, ctx: "FaultInjector") -> Callable:
        raise NotImplementedError

    def start(self, ctx: "FaultInjector") -> None:
        fn = self._filter(ctx)
        ctx.network.add_filter(fn)
        self._installed.append((ctx.network, fn))

    def stop(self, ctx: "FaultInjector") -> None:
        while self._installed:
            network, fn = self._installed.pop()
            try:
                network.remove_filter(fn)
            except ValueError:
                pass


class Drop(FilterFault):
    """Drop matching messages, each independently with ``rate``."""

    def __init__(self, match: Match = ANY, rate: float = 1.0, stream: str = "drop"):
        super().__init__()
        self.match = match
        self.rate = rate
        self.stream = stream

    def _filter(self, ctx):
        rng = ctx.rng(self.stream)

        def fn(src, dst, payload):
            if self.match.matches(src, dst, payload):
                if self.rate >= 1.0 or rng.random() < self.rate:
                    return None
            return payload

        return fn

    def describe(self) -> str:
        return f"drop{self.match.describe()} rate={self.rate:g}"


class Delay(FilterFault):
    """Add ``delay`` (plus uniform jitter) to matching messages.

    FIFO per-link order is preserved, so this models a slow link, not
    reordering (see :class:`Reorder` for that).
    """

    def __init__(
        self,
        match: Match = ANY,
        delay: float = 0.1,
        jitter: float = 0.0,
        stream: str = "delay",
    ):
        super().__init__()
        self.match = match
        self.delay = delay
        self.jitter = jitter
        self.stream = stream

    def _filter(self, ctx):
        rng = ctx.rng(self.stream)

        def fn(src, dst, payload):
            if self.match.matches(src, dst, payload):
                extra = self.delay + (self.jitter * rng.random() if self.jitter else 0.0)
                return Intercept(payload, extra_delay=extra)
            return payload

        return fn

    def describe(self) -> str:
        return f"delay{self.match.describe()} d={self.delay:g} j={self.jitter:g}"


class Duplicate(FilterFault):
    """Deliver ``copies`` copies of each matching message."""

    def __init__(self, match: Match = ANY, copies: int = 2, spacing: float = 0.0):
        super().__init__()
        if copies < 1:
            raise ValueError("copies must be >= 1")
        self.match = match
        self.copies = copies
        self.spacing = spacing

    def _filter(self, ctx):
        def fn(src, dst, payload):
            if self.match.matches(src, dst, payload):
                return Intercept(payload, copies=self.copies, copy_spacing=self.spacing)
            return payload

        return fn

    def describe(self) -> str:
        return f"duplicate{self.match.describe()} copies={self.copies}"


class Reorder(FilterFault):
    """Delay matching messages *past* the per-link FIFO floor.

    Each matching message (selected with ``rate``) is held back
    ``delay`` seconds and exempted from the TCP-like in-order delivery
    rule, so later messages on the link overtake it.
    """

    def __init__(
        self,
        match: Match = ANY,
        delay: float = 0.05,
        rate: float = 1.0,
        stream: str = "reorder",
    ):
        super().__init__()
        self.match = match
        self.delay = delay
        self.rate = rate
        self.stream = stream

    def _filter(self, ctx):
        rng = ctx.rng(self.stream)

        def fn(src, dst, payload):
            if self.match.matches(src, dst, payload):
                if self.rate >= 1.0 or rng.random() < self.rate:
                    return Intercept(payload, extra_delay=self.delay, bypass_fifo=True)
            return payload

        return fn

    def describe(self) -> str:
        return f"reorder{self.match.describe()} d={self.delay:g} rate={self.rate:g}"


class Corrupt(FilterFault):
    """Substitute matching messages via ``mutate(payload, rng)``.

    ``mutate`` returns the replacement payload (or ``None`` to drop).
    The replacement must still be a well-formed message object -- the
    point is semantic corruption the protocol must reject, not crashing
    the simulator.
    """

    def __init__(
        self,
        match: Match,
        mutate: Callable[[Any, Any], Any],
        rate: float = 1.0,
        stream: str = "corrupt",
    ):
        super().__init__()
        self.match = match
        self.mutate = mutate
        self.rate = rate
        self.stream = stream

    def _filter(self, ctx):
        rng = ctx.rng(self.stream)

        def fn(src, dst, payload):
            if self.match.matches(src, dst, payload):
                if self.rate >= 1.0 or rng.random() < self.rate:
                    return self.mutate(payload, rng)
            return payload

        return fn

    def describe(self) -> str:
        return f"corrupt{self.match.describe()} rate={self.rate:g}"


class CorruptWrites(FilterFault):
    """A Byzantine replica WRITE-votes a garbage hash to ``victims``.

    Quorum intersection must render this harmless for up to ``f``
    corrupting replicas (paper section 2's fault model).
    """

    def __init__(self, source, victims: Optional[Iterable] = None):
        super().__init__()
        self.source = source
        self.victims = _id_set(victims)

    def _filter(self, ctx):
        def fn(src, dst, payload):
            if (
                isinstance(payload, Write)
                and src == self.source
                and (self.victims is None or dst in self.victims)
            ):
                return Write(
                    payload.sender,
                    payload.cid,
                    payload.regency,
                    sha256("corrupt-write", self.source, payload.cid),
                )
            return payload

        return fn

    def describe(self) -> str:
        victims = sorted(self.victims, key=repr) if self.victims else "all"
        return f"corrupt-writes src={self.source} victims={victims}"


class EquivocatePropose(FilterFault):
    """An equivocating leader: PROPOSEs a forged batch to ``victims``.

    ``forge(propose, count)`` builds the substitute batch; the default
    forges a poison request (``poison_client``/``poison_op``) that
    invariant checks can look for in execution histories.
    """

    def __init__(
        self,
        leader,
        victims,
        forge: Optional[Callable[[Propose, int], list]] = None,
        poison_client: int = 666,
        poison_op: Any = -999,
    ):
        super().__init__()
        self.leader = leader
        self.victims = _id_set(victims)
        self.forge = forge
        self.poison_client = poison_client
        self.poison_op = poison_op

    def _filter(self, ctx):
        count = [0]
        uids = request_uids(ctx.sim)

        def fn(src, dst, payload):
            if (
                isinstance(payload, Propose)
                and src == self.leader
                and dst in self.victims
            ):
                if self.forge is not None:
                    fake_batch = self.forge(payload, count[0])
                else:
                    fake_batch = [
                        ClientRequest(
                            client_id=self.poison_client,
                            sequence=count[0],
                            operation=self.poison_op,
                            uid=next(uids),
                        )
                    ]
                count[0] += 1
                return Propose(
                    sender=payload.sender,
                    cid=payload.cid,
                    regency=payload.regency,
                    batch=fake_batch,
                    value_hash=batch_hash(payload.cid, fake_batch),
                )
            return payload

        return fn

    def describe(self) -> str:
        return (
            f"equivocate leader={self.leader} "
            f"victims={sorted(self.victims, key=repr)}"
        )


class CensorClient(FilterFault):
    """A Byzantine leader silently drops one client's requests.

    Both direct submissions and peer forwards addressed to ``at`` are
    censored; request forwarding plus the regency change must defeat it.
    """

    def __init__(self, client_id: int, at):
        super().__init__()
        self.client_id = client_id
        self.at = at

    def _filter(self, ctx):
        def fn(src, dst, payload):
            if dst != self.at:
                return payload
            if isinstance(payload, ClientRequest) and payload.client_id == self.client_id:
                return None
            if (
                isinstance(payload, ForwardedRequest)
                and payload.request.client_id == self.client_id
            ):
                return None
            return payload

        return fn

    def describe(self) -> str:
        return f"censor client={self.client_id} at={self.at}"


class CensorClients(FaultAction):
    """A SmartBFT node silently ignores requests from ``client_ids``.

    Unlike :class:`CensorClient` (a network filter around a BFT-SMaRt
    leader), this flips the ``censor_clients`` switch of a
    :class:`repro.smart2.node.SmartFaultControls`: the node drops the
    clients' requests *at ingest*, whether submitted directly or
    forwarded by a peer.  Follower censorship timers plus the rotation
    blacklist must defeat it.
    """

    def __init__(self, replica_id, client_ids: Iterable):
        self.replica_id = replica_id
        self.client_ids = frozenset(client_ids)

    def start(self, ctx) -> None:
        replica = ctx.replica(self.replica_id)
        if replica is None:
            raise ValueError(
                f"CensorClients needs replica {self.replica_id!r} "
                "registered with the injector"
            )
        replica.faults.censor_clients |= self.client_ids

    def stop(self, ctx) -> None:
        replica = ctx.replica(self.replica_id)
        if replica is not None:
            replica.faults.censor_clients -= self.client_ids

    def describe(self) -> str:
        clients = sorted(self.client_ids)
        return f"censor-clients replica={self.replica_id} clients={clients}"


class Partition(FaultAction):
    """Split the group: block all links between members of different
    groups, restoring exactly those links on stop."""

    def __init__(self, *groups: Iterable):
        self.groups = tuple(tuple(g) for g in groups)
        self._pairs = []

    def start(self, ctx) -> None:
        self._pairs = []
        for i, group_a in enumerate(self.groups):
            for group_b in self.groups[i + 1 :]:
                for a in group_a:
                    for b in group_b:
                        ctx.network.block(a, b)
                        self._pairs.append((a, b))

    def stop(self, ctx) -> None:
        while self._pairs:
            a, b = self._pairs.pop()
            ctx.network.unblock(a, b)

    def describe(self) -> str:
        groups = " | ".join(str(list(g)) for g in self.groups)
        return f"partition {groups}"


@dataclass
class BlockLink(FaultAction):
    """Block a single (pair of) link(s)."""

    a: Any
    b: Any
    bidirectional: bool = True

    def start(self, ctx) -> None:
        ctx.network.block(self.a, self.b, bidirectional=self.bidirectional)

    def stop(self, ctx) -> None:
        ctx.network.unblock(self.a, self.b, bidirectional=self.bidirectional)

    def describe(self) -> str:
        arrow = "<->" if self.bidirectional else "->"
        return f"block {self.a}{arrow}{self.b}"


@dataclass
class CrashReplica(FaultAction):
    """Crash a replica on start, recover it (with state transfer) on stop.

    The default is crash-*suspend*: volatile state survives and
    recovery simply resumes (historical behaviour, keeps explorer
    seeds reproducible).  With ``amnesia=True`` the crash discards all
    volatile state and recovery runs the full restart protocol from the
    replica's WAL (docs/RECOVERY.md); ``torn_tail`` and ``bitrot``
    additionally damage the simulated disk at crash time
    (:class:`~repro.sim.storage.StorageFaults`).
    """

    replica_id: Any
    amnesia: bool = False
    torn_tail: bool = False
    bitrot: bool = False

    def start(self, ctx) -> None:
        replica = ctx.replica(self.replica_id)
        if replica is not None:
            replica.crash(amnesia=self.amnesia)
            if self.amnesia:
                self._damage_disk(ctx, replica)
        else:
            ctx.network.crash(self.replica_id)

    def _damage_disk(self, ctx, replica) -> None:
        from repro.sim.storage import StorageFaults

        disk = getattr(replica.log, "disk", None)
        if disk is None:
            return
        disk.crash(
            StorageFaults(torn_tail=self.torn_tail, bitrot=self.bitrot),
            ctx.rng(f"storage-{self.replica_id}"),
        )

    def stop(self, ctx) -> None:
        replica = ctx.replica(self.replica_id)
        if replica is not None:
            if replica.crashed:
                replica.recover()
        elif ctx.network.is_crashed(self.replica_id):
            ctx.network.recover(self.replica_id)

    def describe(self) -> str:
        if not self.amnesia:
            return f"crash replica={self.replica_id}"
        flags = "".join(
            [
                " torn-tail" if self.torn_tail else "",
                " bitrot" if self.bitrot else "",
            ]
        )
        return f"crash-restart replica={self.replica_id} amnesia{flags}"


class _ControlFault(FaultAction):
    """Base for actions flipping a ServiceReplica.faults switch."""

    attribute = ""

    def __init__(self, replica_id):
        self.replica_id = replica_id

    def start(self, ctx) -> None:
        replica = ctx.replica(self.replica_id)
        if replica is None:
            raise ValueError(
                f"{type(self).__name__} needs replica {self.replica_id!r} "
                "registered with the injector"
            )
        setattr(replica.faults, self.attribute, True)

    def stop(self, ctx) -> None:
        replica = ctx.replica(self.replica_id)
        if replica is not None:
            setattr(replica.faults, self.attribute, False)

    def describe(self) -> str:
        return f"{self.attribute.replace('_', '-')} replica={self.replica_id}"


class MuteReplica(_ControlFault):
    """The replica stops sending (keeps receiving) -- a silent fault."""

    attribute = "mute"


class SuppressSync(_ControlFault):
    """The replica boycotts the synchronization (leader-change) phase."""

    attribute = "suppress_sync"


class SkipQuorumChecks(_ControlFault):
    """Safety mutation: the replica decides without a quorum.

    Exists so mutation tests can prove the fork invariant has teeth.
    """

    attribute = "skip_quorum_checks"


#: network id the flood attacker registers under -- far outside every
#: replica / frontend / admin / TTC id range
ATTACKER_ID_BASE = 900_000

#: envelope-id block the flood allocates from, far above the pinned
#: workload ids the explorer uses (run digests hash envelope ids, so
#: flood ids must be reproducible and collision-free)
FLOOD_ID_BASE = 10_000_000


class _Attacker:
    """Network endpoint of a flood source (absorbs any replies)."""

    def deliver(self, src, message) -> None:
        pass


class FloodClient(FaultAction):
    """Adversarial submission flood into one frontend.

    While active, injects ``SubmitEnvelope`` messages into the target
    frontend's network inbox at ``rate`` per second -- exactly what a
    botnet of lightweight clients looks like to the ordering service.
    Every ``unique_every``-th envelope carries a fresh identity; the
    rest replay the previous one (a duplicate flood on the wire).
    Envelope ids count up from ``id_base``, a block the honest load
    never uses, so a flooded id is recognizable in traces and reports.
    """

    def __init__(
        self,
        frontend,
        rate: float = 2000.0,
        channel: str = "ch0",
        payload_size: int = 256,
        submitter: str = "mallory",
        unique_every: int = 4,
        id_base: int = FLOOD_ID_BASE,
        attacker_id=None,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.frontend = frontend
        self.rate = rate
        self.channel = channel
        self.payload_size = payload_size
        self.submitter = submitter
        self.unique_every = max(1, unique_every)
        self.id_base = id_base
        self.attacker_id = (
            attacker_id if attacker_id is not None else ATTACKER_ID_BASE
        )
        self._on = False
        self._registered = False
        self.sent = 0
        self._current_id: Optional[int] = None
        self._next_id = id_base

    def start(self, ctx) -> None:
        # pure-configuration contract: reset all run state on start so
        # the same action object replays identically against a fresh
        # deployment (the shrinker relies on this)
        self._on = True
        self.sent = 0
        self._current_id = None
        self._next_id = self.id_base
        if self.attacker_id not in ctx.network.node_ids():
            ctx.network.register(self.attacker_id, _Attacker())
            self._registered = True
        self._tick(ctx)

    def stop(self, ctx) -> None:
        self._on = False
        if self._registered:
            ctx.network.unregister(self.attacker_id)
            self._registered = False

    def _tick(self, ctx) -> None:
        if not self._on:
            return
        from repro.fabric.api import SubmitEnvelope
        from repro.fabric.envelope import Envelope

        if self._current_id is None or self.sent % self.unique_every == 0:
            self._current_id = self._next_id
            self._next_id += 1
        envelope = Envelope(
            channel_id=self.channel,
            transaction=None,
            payload_size=self.payload_size,
            submitter=self.submitter,
            envelope_id=self._current_id,
        )
        self.sent += 1
        ctx.network.send(
            self.attacker_id,
            self.frontend,
            SubmitEnvelope(envelope),
            size_bytes=self.payload_size,
        )
        ctx.sim.post(1.0 / self.rate, self._tick, ctx)

    def describe(self) -> str:
        return (
            f"flood-client dst={self.frontend} rate={self.rate} "
            f"unique-every={self.unique_every}"
        )
