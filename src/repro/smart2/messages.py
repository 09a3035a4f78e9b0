"""Message types of the SmartBFT-style ordering protocol.

The protocol is PBFT-shaped and block-native: the leader's proposal
*is* the next block's batch, PREPARE echoes the header digest, and the
COMMIT vote carries the sender's signature over the block header -- the
very signature that ends up in the committed block's metadata.  A
decided block therefore leaves consensus already carrying its ``2f+1``
signature quorum, and travels to each frontend exactly once.

Wire sizes follow the conventions of :mod:`repro.smart.messages`
(header + per-request overhead + payload bytes); signatures count the
64 bytes of :class:`repro.crypto.signatures.SimulatedECDSA`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.fabric.block import BlockHeader
from repro.fabric.envelope import Envelope
from repro.smart.messages import (
    HASH_BYTES,
    MESSAGE_HEADER_BYTES,
    ClientRequest,
    batch_payload_bytes,
)

SIGNATURE_BYTES = 64


@dataclass(slots=True)
class Forward:
    """Non-leader node -> leader: a client request it received."""

    kind = sys.intern("smart2.Forward")

    sender: int
    request: ClientRequest

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + self.request.wire_size()


@dataclass(slots=True)
class Preprepare:
    """Leader -> all: the proposed next block (number + batch).

    ``number``/``previous_hash`` pin the block's position in the
    per-channel chain; followers check both against their own chain
    state, so a leader cannot silently fork or skip numbers.

    One message reaches every node, so the block body it proposes is
    derived once on it: :meth:`header` and :meth:`envelopes` are pure
    functions of the message's own fields, cached as ``wire_size`` is,
    and every node's decided block shares them.
    """

    kind = sys.intern("smart2.Preprepare")

    sender: int
    view_number: int
    seq: int
    channel_id: str
    number: int
    previous_hash: bytes
    batch: Tuple[ClientRequest, ...]
    signature: bytes = b""
    _wire: int = field(default=-1, init=False, repr=False, compare=False)
    _header: Optional[BlockHeader] = field(default=None, init=False, repr=False, compare=False)
    _envelopes: Optional[List[Envelope]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def envelopes(self) -> List[Envelope]:
        """The proposed block's envelopes: each request's operation."""
        envelopes = self._envelopes
        if envelopes is None:
            envelopes = self._envelopes = [r.operation for r in self.batch]
        return envelopes

    def header(self) -> BlockHeader:
        """The proposed block's header, at ``number`` off ``previous_hash``."""
        header = self._header
        if header is None:
            from repro.ordering.blockcutter import ChainPosition

            header = self._header = ChainPosition(self.number, self.previous_hash).header(
                self.envelopes()
            )
        return header

    def wire_size(self) -> int:
        wire = self._wire
        if wire < 0:
            wire = self._wire = (
                MESSAGE_HEADER_BYTES
                + HASH_BYTES
                + SIGNATURE_BYTES
                + batch_payload_bytes(self.batch)
            )
        return wire


@dataclass(slots=True)
class Prepare:
    """All -> all: echo of the proposed block's header digest."""

    kind = sys.intern("smart2.Prepare")

    sender: int
    view_number: int
    seq: int
    header_digest: bytes

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + HASH_BYTES


@dataclass(slots=True)
class Commit:
    """All -> all: commit vote carrying the block-header signature.

    The ``signature`` is the sender's signature over the block header
    -- collected commit votes *are* the committed block's signature
    quorum, so dissemination needs no second signing round.
    """

    kind = sys.intern("smart2.Commit")

    sender: int
    view_number: int
    seq: int
    header_digest: bytes
    signature: bytes

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + HASH_BYTES + SIGNATURE_BYTES


@dataclass(slots=True)
class Heartbeat:
    """Leader -> all: signed liveness beacon for the current view."""

    kind = sys.intern("smart2.Heartbeat")

    sender: int
    view_number: int
    seq: int
    signature: bytes

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + 8 + SIGNATURE_BYTES

    def signing_payload(self) -> bytes:
        from repro.crypto.hashing import sha256

        return sha256("smart2-heartbeat", self.sender, self.view_number, self.seq)


#: A prepared certificate carried inside a view change: a pre-prepare
#: the sender prepared but did not see committed, plus the distinct
#: prepare voters backing it.
PreparedCert = Tuple["Preprepare", Tuple[int, ...]]


def _cert_size(cert: PreparedCert) -> int:
    return cert[0].wire_size() + 8 * len(cert[1])


@dataclass(slots=True)
class ViewChange:
    """A node's signed vote to depose the current leader.

    ``prepared`` carries a certificate for every round the sender
    prepared in its proposal window, in sequence order.
    """

    kind = sys.intern("smart2.ViewChange")

    sender: int
    new_view: int
    last_seq: int
    suspected: int
    reason: str
    prepared: Tuple[PreparedCert, ...]
    signature: bytes = b""

    def wire_size(self) -> int:
        prepared = sum(_cert_size(cert) for cert in self.prepared)
        return MESSAGE_HEADER_BYTES + 24 + SIGNATURE_BYTES + prepared

    def signing_payload(self) -> bytes:
        from repro.crypto.hashing import sha256

        return sha256(
            "smart2-viewchange",
            self.sender,
            self.new_view,
            self.last_seq,
            self.suspected,
            self.reason,
        )


@dataclass(slots=True)
class NewView:
    """New leader -> all: the view-change quorum proof + blacklist.

    ``proof`` carries the ``2f+1`` signed :class:`ViewChange` votes;
    receivers re-verify every one, check the sender is the rotation's
    rightful leader under the carried blacklist, and adopt that
    blacklist as it is: they do not recompute the additions (ids
    suspected by at least ``f+1`` voters) from the proof.
    """

    kind = sys.intern("smart2.NewView")

    sender: int
    new_view: int
    proof: Tuple[ViewChange, ...]
    #: (replica id, blacklisted-until view) pairs, sorted by id
    blacklist: Tuple[Tuple[int, int], ...]
    signature: bytes = b""

    def wire_size(self) -> int:
        return (
            MESSAGE_HEADER_BYTES
            + SIGNATURE_BYTES
            + 16 * len(self.blacklist)
            + sum(vc.wire_size() for vc in self.proof)
        )

    def signing_payload(self) -> bytes:
        from repro.crypto.hashing import sha256

        return sha256(
            "smart2-newview",
            self.sender,
            self.new_view,
            [(vc.sender, vc.new_view) for vc in self.proof],
            [list(entry) for entry in self.blacklist],
        )


@dataclass(slots=True)
class BlockPull:
    """Catch-up request: send me decided blocks from ``from_seq`` on."""

    kind = sys.intern("smart2.BlockPull")

    sender: Any
    from_seq: int

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + 8


@dataclass(slots=True)
class BlockPush:
    """Catch-up reply: decided blocks with their signature quorums.

    Each entry is ``(seq, block, batch)``; the receiver re-verifies the
    quorum on every block before adopting it.
    """

    kind = sys.intern("smart2.BlockPush")

    sender: int
    decisions: Tuple[Tuple[int, Any, Tuple[ClientRequest, ...]], ...]

    def wire_size(self) -> int:
        total = MESSAGE_HEADER_BYTES
        for _seq, block, _batch in self.decisions:
            total += 8 + block.wire_size()
        return total


@dataclass(slots=True)
class Subscribe:
    """Frontend -> node: deliver me decided blocks (single copies).

    ``next_seq`` is the first consensus sequence the frontend still
    misses; the node backfills everything from there before streaming.
    """

    kind = sys.intern("smart2.Subscribe")

    sender: Any
    next_seq: int

    def wire_size(self) -> int:
        return MESSAGE_HEADER_BYTES + 8
