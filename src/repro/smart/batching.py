"""The request pool of both BFT machines, and the table of executed requests.

BFT-SMaRt's replicas and SmartBFT's nodes keep their pending requests
in one :class:`PendingQueue`, which feeds their request timers.  It
holds no policy: BFT-SMaRt's leader drains it into batches under the
limits of its ``ReplicaConfig`` (``max_batch`` is 400 in the paper).
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Collection, Dict, Iterable, List, Optional, Set, Tuple

from repro.smart.messages import ClientRequest, RequestId

#: BFT-SMaRt's default batch limit used throughout the paper.
DEFAULT_MAX_BATCH = 400

DEFAULT_MAX_BATCH_BYTES = 10 * 1024 * 1024


class RequestBatch(list):
    """A request batch that carries what every replica derives from it.

    Batches travel by reference inside one simulation (the network
    never serializes payloads), so every replica validates, executes
    and logs the same batch object, and requests are immutable once
    batched.  A plain list cannot carry a cache, so the leader's
    :class:`PendingQueue` hands out this subclass:
    :func:`repro.smart.consensus.batch_hash` stores one digest per cid
    in ``hash_by_cid``, and :class:`repro.smart.wal.ConsensusWAL` keeps
    the framed ``batch`` record of the decision in ``wal_frame`` as
    ``(cid, encode_op, frame)``.  Plain lists still hash and log fine
    -- they just never hit a cache (forged batches built by fault
    injections stay uncached on purpose).
    """

    __slots__ = ("hash_by_cid", "wal_frame")

    def __init__(self, *args):
        super().__init__(*args)
        self.hash_by_cid = {}
        self.wal_frame = None


class PendingQueue:
    """FIFO of requests awaiting ordering, deduplicated by request id.

    Arrivals carry the simulator's non-decreasing clock, so the head is
    the oldest.  One slot per request, in arrival order: a list of
    requests, an unboxed ``array('d')`` of arrival times and one dict
    from request id to slot.  A removed request leaves its slot empty
    (``None``) until the pool compacts, once empty slots outnumber
    filled ones, or resets, once it empties.

    Not an ``OrderedDict``: its node, pair and boxed float cost ~155 B a
    request.  Not a plain dict: DET004 flags the ``.values()`` walk.
    """

    __slots__ = ("_requests", "_arrivals", "_slot_of", "_head")

    def __init__(self) -> None:
        #: the requests in arrival order, ``None`` where one was removed
        self._requests: List[Optional[ClientRequest]] = []
        #: ``_arrivals[i]`` is when ``_requests[i]`` arrived
        self._arrivals = array("d")
        #: request id -> its slot, for every request still pending
        self._slot_of: Dict[RequestId, int] = {}
        #: every slot below this one is empty
        self._head = 0

    def add(self, request: ClientRequest, now: float) -> bool:
        """Enqueue unless already pending; returns True if added."""
        rid = request.request_id
        slot_of = self._slot_of
        if rid in slot_of:
            return False
        requests = self._requests
        slot_of[rid] = len(requests)
        requests.append(request)
        self._arrivals.append(now)
        return True

    def remove_all(self, requests: List[ClientRequest]) -> None:
        slots = self._requests
        vacate = self._slot_of.pop
        for request in requests:
            slot = vacate(request.request_id, None)
            if slot is not None:
                slots[slot] = None
        live = len(self._slot_of)
        if not live:
            # neither a list, an array nor a dict shrinks on deletion:
            # without fresh ones a drained backlog of thousands keeps
            # its slots for the run
            self._requests = []
            self._arrivals = array("d")
            self._slot_of = {}
            self._head = 0
        elif len(slots) > 2 * live:
            # empty slots outnumber filled ones: close the gaps, which
            # renumbers every slot, so the id table is built afresh
            filled = [request is not None for request in slots]
            self._requests = slots = list(compress(slots, filled))
            self._arrivals = array("d", compress(self._arrivals, filled))
            self._slot_of = {request.request_id: slot for slot, request in enumerate(slots)}
            self._head = 0

    def __contains__(self, rid: RequestId) -> bool:
        return rid in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    def oldest_age(self, now: float) -> Optional[float]:
        """Age of the longest-waiting request, or None if empty."""
        if not self._slot_of:
            return None
        slots = self._requests
        head = self._head
        while slots[head] is None:
            head += 1
        self._head = head
        return now - self._arrivals[head]

    def peek_all(self) -> List[ClientRequest]:
        return [request for request in self._requests if request is not None]

    def restart_clocks(self, now: float) -> None:
        """Re-stamp every pending request as arrived at ``now``, keeping
        FIFO order: a newly installed leader gets a full request timeout
        for the backlog it inherited."""
        self._arrivals = array("d", (now,)) * len(self._arrivals)

    def next_batch(self, max_batch: int, max_batch_bytes: int) -> List[ClientRequest]:
        """Drain at most ``max_batch`` requests and ``max_batch_bytes``
        (one oversized request still goes alone), preserving FIFO order."""
        batch = RequestBatch()
        room = max_batch
        batch_bytes = 0
        slots = self._requests
        slot = self._head
        # walks the head of the queue only: the backlog behind the batch
        # (thousands of requests past saturation) is never touched
        for slot in range(slot, len(slots)):
            request = slots[slot]
            if request is None:
                continue
            if room == 0:
                break
            if batch and batch_bytes + request.size_bytes > max_batch_bytes:
                break
            batch.append(request)
            batch_bytes += request.size_bytes
            room -= 1
        self._head = slot
        self.remove_all(batch)
        return batch


#: :meth:`ExecutedRequests.snapshot` of a table that holds nothing
EMPTY_TABLE: Tuple[tuple, tuple] = ((), ())


class ExecutedRequests:
    """The exact set of executed request ids, in O(clients + gaps) memory.

    Per client a low watermark -- every sequence below it is in the
    table -- plus a plain set of the ids above it (BFT-SMaRt keeps
    per-client sequence state the same way).  Membership stays exact:
    asynchronous clients keep many sequences outstanding, so after a
    leader change a lower sequence may be ordered after a higher one;
    it waits above the watermark until the gap fills.  Sequences are
    non-negative, as :class:`~repro.smart.proxy.ServiceProxy` and the
    SmartBFT relay number them from 0.

    The representation is canonical -- ``low`` holds only watermarks
    above 0, ``above`` only ids past their client's watermark -- so two
    tables holding the same ids compare equal.  Hot paths read ``low``
    and ``above`` directly instead of calling :meth:`__contains__`:
    ``rid in above or rid[1] < low.get(rid[0], 0)``.
    """

    __slots__ = ("low", "above")

    def __init__(self, ids: Iterable[RequestId] = ()):
        #: client -> first sequence not (yet) in the table
        self.low: Dict[int, int] = {}
        #: ids past their client's watermark
        self.above: Set[RequestId] = set()
        self.update(ids)

    def __contains__(self, rid: RequestId) -> bool:
        return rid in self.above or rid[1] < self.low.get(rid[0], 0)

    def isdisjoint(self, ids: Collection[RequestId]) -> bool:
        if not self.above.isdisjoint(ids):
            return False
        watermark = self.low.get
        for client, sequence in ids:
            if sequence < watermark(client, 0):
                return False
        return True

    def update(self, ids: Iterable[RequestId]) -> None:
        """Add ``ids``; the watermark of a client moves past every
        sequence that is now contiguous from it."""
        low = self.low
        above = self.above
        watermark = low.get
        for rid in ids:
            client, sequence = rid
            mark = watermark(client, 0)
            if sequence == mark:
                mark += 1
                while (client, mark) in above:
                    above.remove((client, mark))
                    mark += 1
                low[client] = mark
            elif sequence > mark:
                above.add(rid)

    def add(self, rid: RequestId) -> None:
        self.update((rid,))

    def snapshot(self) -> Tuple[tuple, tuple]:
        """``(watermarks, above)`` as sorted ``(client, sequence)`` pairs:
        immutable, JSON and canonically encodable, equal for equal tables
        -- what a checkpoint, its WAL record and a ``StateReply`` carry."""
        return tuple(sorted(self.low.items())), tuple(sorted(self.above))

    @classmethod
    def from_snapshot(cls, snapshot: Tuple[tuple, tuple]) -> "ExecutedRequests":
        """Invert :meth:`snapshot` (JSON gives the pairs back as lists)."""
        table = cls()
        table.low = dict(snapshot[0])
        table.above = {tuple(rid) for rid in snapshot[1]}
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutedRequests):
            return NotImplemented
        return self.low == other.low and self.above == other.above

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ExecutedRequests(low={self.low!r}, above={sorted(self.above)!r})"
