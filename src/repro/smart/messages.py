"""Message types of the BFT-SMaRt replication protocol.

Sizes: every message reports a ``wire_size()`` used by the network
model.  The constants approximate BFT-SMaRt's Java serialization plus
the per-link MAC (paper section 4 / [4]).

All message classes are slotted dataclasses (no per-instance dict) and
carry an interned ``kind`` class tag used for constant-time dispatch in
:meth:`repro.smart.replica.ServiceReplica.deliver`.  Messages are
immutable after construction by convention (only
``ClientRequest.submit_time`` is ever rewritten), which lets
``wire_size()`` cache its result: batches are shared by reference
inside one simulation, so summing per-request sizes on every
(re)transmission would be O(batch) each time.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Tuple

#: Serialized message header: type, sender, consensus id, regency, MAC.
MESSAGE_HEADER_BYTES = 84

#: Per-request overhead inside a batch: client id, sequence, length,
#: client signature.
REQUEST_OVERHEAD_BYTES = 100

HASH_BYTES = 32

RequestId = Tuple[int, int]  # (client_id, client_sequence)

#: Uids of requests built by hand, outside any run (tests, a REPL);
#: nothing that runs on a simulator draws from it -- see
#: :func:`request_uids`.
_handmade_uids = itertools.count()

#: ``uid`` of a request read back from a log.  A uid orders *pending*
#: requests by submission (``Synchronizer._select_value``); a logged
#: request was decided, is never pending again, and its uid is not on
#: disk -- so recovery mints none.
LOGGED_UID = -1


def request_uids(sim: Any) -> Iterator[int]:
    """The stream a run on ``sim`` draws :attr:`ClientRequest.uid`
    from: submission order across every proxy and relay of the run,
    independent of what else the process hosted."""
    return sim.id_stream("request")


def batch_payload_bytes(batch: List["ClientRequest"]) -> int:
    """Serialized size of a request batch inside a consensus message."""
    total = 0
    for r in batch:
        total += REQUEST_OVERHEAD_BYTES + r.size_bytes
    return total


@dataclass(slots=True)
class ClientRequest:
    """An operation submitted by a client for total ordering.

    ``operation`` is opaque to the replication layer (for the ordering
    service it is a Fabric envelope).  ``size_bytes`` is the payload
    size used for network accounting.  ``reconfig`` marks view-change
    commands handled by the replication layer itself.
    """

    kind = sys.intern("ClientRequest")

    client_id: int
    sequence: int
    operation: Any
    size_bytes: int = 0
    reconfig: bool = False
    submit_time: float = 0.0
    uid: int = field(default_factory=lambda: next(_handmade_uids))
    #: precomputed (client_id, sequence) -- read on every hot-path dedup
    request_id: RequestId = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.request_id = (self.client_id, self.sequence)

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + REQUEST_OVERHEAD_BYTES + self.size_bytes


@dataclass(slots=True)
class Propose:
    """Leader's proposal of a batch for consensus instance ``cid``."""

    kind = sys.intern("Propose")

    sender: int
    cid: int
    regency: int
    batch: List[ClientRequest]
    value_hash: bytes
    _wire: int = field(default=-1, init=False, repr=False, compare=False)

    def wire_size(self) -> int:
        wire = self._wire
        if wire < 0:
            wire = self._wire = (
                MESSAGE_HEADER_BYTES + HASH_BYTES + batch_payload_bytes(self.batch)
            )
        return wire


@dataclass(slots=True)
class Write:
    """Second phase: echo of the proposed value's hash."""

    kind = sys.intern("Write")

    sender: int
    cid: int
    regency: int
    value_hash: bytes

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + HASH_BYTES


@dataclass(slots=True)
class Accept:
    """Third phase: commit vote for the value's hash."""

    kind = sys.intern("Accept")

    sender: int
    cid: int
    regency: int
    value_hash: bytes

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + HASH_BYTES


@dataclass(slots=True)
class Reply:
    """Reply to a client (suppressed when a custom replier is set)."""

    kind = sys.intern("Reply")

    sender: int
    client_id: int
    sequence: int
    result: Any
    regency: int
    tentative: bool = False
    result_size: int = 0

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + self.result_size


@dataclass(slots=True)
class ForwardedRequest:
    """A request a replica forwards to the leader after a first timeout."""

    kind = sys.intern("ForwardedRequest")

    sender: int
    request: ClientRequest

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + self.request.wire_size()


@dataclass(slots=True)
class Stop:
    """Vote to abandon the current regency (synchronization phase)."""

    kind = sys.intern("Stop")

    sender: int
    next_regency: int

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES


@dataclass(slots=True)
class WriteCertificate:
    """Proof that a write quorum existed for (cid, regency, hash)."""

    kind = sys.intern("WriteCertificate")

    cid: int
    regency: int
    value_hash: bytes
    writers: Tuple[int, ...]
    batch: Optional[List[ClientRequest]] = None

    def wire_size(self) -> int:
        payload = 0
        if self.batch is not None:
            payload = batch_payload_bytes(self.batch)
        return HASH_BYTES + 8 * len(self.writers) + payload


@dataclass(slots=True)
class StopData:
    """A replica's state report sent to the new regency's leader."""

    kind = sys.intern("StopData")

    sender: int
    regency: int
    last_executed_cid: int
    write_certificate: Optional[WriteCertificate]
    pending: List[ClientRequest] = field(default_factory=list)

    def wire_size(self) -> int:
        size = MESSAGE_HEADER_BYTES + 16
        if self.write_certificate is not None:
            size += self.write_certificate.wire_size()
        size += sum(r.wire_size() for r in self.pending)
        return size


@dataclass(slots=True)
class Sync:
    """New leader's installation message: the safe value to adopt."""

    kind = sys.intern("Sync")

    sender: int
    regency: int
    cid: int
    batch: List[ClientRequest]
    value_hash: bytes
    proofs: List[StopData]

    def wire_size(self) -> int:
        payload = batch_payload_bytes(self.batch)
        proofs = sum(p.wire_size() for p in self.proofs)
        return MESSAGE_HEADER_BYTES + HASH_BYTES + payload + proofs


@dataclass(slots=True)
class ValueRequest:
    """Ask peers for the batch behind a hash we voted on but never saw."""

    kind = sys.intern("ValueRequest")

    sender: int
    cid: int
    value_hash: bytes

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + HASH_BYTES


@dataclass(slots=True)
class ValueResponse:
    kind = sys.intern("ValueResponse")

    sender: int
    cid: int
    value_hash: bytes
    batch: List[ClientRequest]

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + HASH_BYTES + batch_payload_bytes(self.batch)


@dataclass(slots=True)
class StateRequest:
    """State-transfer request from a recovering or joining replica."""

    kind = sys.intern("StateRequest")

    sender: int
    from_cid: int

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + 8


@dataclass(slots=True)
class StateReply:
    """Checkpoint + log suffix from an up-to-date replica."""

    kind = sys.intern("StateReply")

    sender: int
    checkpoint_cid: int
    state: Any
    state_hash: bytes
    log: List[Tuple[int, List[ClientRequest]]]
    last_cid: int
    view_snapshot: Any = None
    state_size: int = 1024

    def wire_size(self) -> int:
        log_bytes = sum(
            batch_payload_bytes(batch) for _cid, batch in self.log
        )
        return MESSAGE_HEADER_BYTES + HASH_BYTES + self.state_size + log_bytes
