"""Network message types of the HLF protocol (client/peer/orderer API).

These are the messages that flow *around* the ordering service:
proposal round-trips between clients and endorsing peers, envelope
submission to an ordering service, block delivery to peers, and one
filtered block event per committed block back to each submitting
client (paper Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.fabric.block import Block
from repro.fabric.envelope import ChaincodeProposal, Envelope, ProposalResponse

#: Fixed protobuf/gRPC-ish framing overhead per HLF message.
FABRIC_MESSAGE_OVERHEAD = 128


@dataclass(slots=True)
class ProposalMessage:
    """Client -> endorsing peer: please simulate and endorse."""

    proposal: ChaincodeProposal
    reply_to: object  # network id of the client

    def wire_size(self) -> int:
        args_size = sum(len(repr(a)) for a in self.proposal.args)
        return FABRIC_MESSAGE_OVERHEAD + 64 + args_size


@dataclass(slots=True)
class ProposalResponseMessage:
    """Endorsing peer -> client: rw-sets + endorsement signature."""

    response: ProposalResponse

    def wire_size(self) -> int:
        rwset = 48 * (len(self.response.read_set) + len(self.response.write_set))
        return FABRIC_MESSAGE_OVERHEAD + 64 + rwset


@dataclass(slots=True)
class SubmitEnvelope:
    """Client -> ordering service: broadcast(envelope)."""

    envelope: Envelope

    def wire_size(self) -> int:
        return FABRIC_MESSAGE_OVERHEAD + self.envelope.payload_size


@dataclass
class BlockDelivery:
    """Ordering service -> peer (or frontend -> peer): deliver(block)."""

    block: Block
    source: str = ""

    def wire_size(self) -> int:
        return FABRIC_MESSAGE_OVERHEAD + self.block.wire_size()


@dataclass
class BlockRequest:
    """Peer -> peer: I am missing blocks [from_number, to_number]."""

    channel_id: str
    from_number: int
    to_number: int
    reply_to: object

    def wire_size(self) -> int:
        return FABRIC_MESSAGE_OVERHEAD + 24


@dataclass
class BlockResponse:
    """Peer -> peer: the blocks you asked for (gossip catch-up)."""

    channel_id: str
    blocks: list

    def wire_size(self) -> int:
        return FABRIC_MESSAGE_OVERHEAD + sum(b.wire_size() for b in self.blocks)


#: Bytes per transaction entry of a :class:`FilteredBlock`: the ids and
#: the validation code, no payload.
FILTERED_TRANSACTION_SIZE = 16


@dataclass(slots=True)
class FilteredBlock:
    """Committing peer -> client: one committed block, filtered down to
    the ``(tx_id, envelope_id, validation code)`` of each transaction
    the client submitted in it (HLF's filtered block event)."""

    block_number: int
    peer: str
    commit_time: float
    transactions: List[Tuple[int, int, str]]

    def wire_size(self) -> int:
        return FABRIC_MESSAGE_OVERHEAD + FILTERED_TRANSACTION_SIZE * len(
            self.transactions
        )


@dataclass(slots=True)
class CommitEvent:
    """One transaction's outcome at one committing peer: what the
    client's future resolves with, unpacked from a :class:`FilteredBlock`."""

    tx_id: int
    envelope_id: int
    block_number: int
    validation_code: str
    peer: str
    commit_time: float = 0.0
