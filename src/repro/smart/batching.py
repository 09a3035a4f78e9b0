"""Request batching at the leader.

BFT-SMaRt amortizes consensus over batches: the leader drains its
pending-request queue into a batch of at most ``max_batch`` requests
(the paper's deployments use 400) and at most ``max_batch_bytes``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

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
    """FIFO of requests awaiting ordering, deduplicated by request id."""

    def __init__(
        self,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.max_batch_bytes = max_batch_bytes
        #: request id -> (request, arrival time), in arrival order
        self._queue: OrderedDict[RequestId, Tuple[ClientRequest, float]] = OrderedDict()

    def add(self, request: ClientRequest, now: float) -> bool:
        """Enqueue unless already pending; returns True if added."""
        rid = request.request_id
        if rid in self._queue:
            return False
        self._queue[rid] = (request, now)
        return True

    def remove(self, rid: RequestId) -> None:
        self._queue.pop(rid, None)

    def remove_all(self, requests: List[ClientRequest]) -> None:
        discard = self._queue.pop
        for request in requests:
            discard(request.request_id, None)

    def __contains__(self, rid: RequestId) -> bool:
        return rid in self._queue

    def __len__(self) -> int:
        return len(self._queue)

    def oldest_age(self, now: float) -> Optional[float]:
        """Age of the longest-waiting request, or None if empty."""
        for _request, arrival in self._queue.values():
            return now - arrival
        return None

    def peek_all(self) -> List[ClientRequest]:
        return [request for request, _arrival in self._queue.values()]

    def next_batch(self) -> List[ClientRequest]:
        """Drain up to the batch limits, preserving FIFO order."""
        batch = RequestBatch()
        room = self.max_batch
        batch_bytes = 0
        # walks the head of the queue only: the backlog behind the batch
        # (thousands of requests past saturation) is never touched
        for request, _arrival in self._queue.values():
            if room == 0:
                break
            if batch and batch_bytes + request.size_bytes > self.max_batch_bytes:
                break
            batch.append(request)
            batch_bytes += request.size_bytes
            room -= 1
        self.remove_all(batch)
        return batch
