"""Blocks and block headers (paper Figure 1 / section 5.1).

A block header carries the block number, the hash of the *previous
header* and the hash of the block's envelopes; ordering nodes sign the
header only, which is why signing throughput is independent of the
envelope and block sizes (paper section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.crypto.hashing import sha256
from repro.fabric.envelope import Envelope

#: Genesis "previous hash".
GENESIS_PREVIOUS_HASH = b"\x00" * 32

#: Serialized header bytes (number + two hashes + lengths).
HEADER_SIZE = 72

#: Per-envelope framing inside a block.
ENVELOPE_FRAMING = 8


#: Entries in each of the two cross-replica tables below.  Every
#: ordering node cuts the same block from the same decided batch within
#: a few network delays of the others, so the window that has to be
#: remembered is the blocks in flight, not the chain.
SHARED_DIGESTS = 128


def compute_data_hash(envelopes: List[Envelope]) -> bytes:
    """Hash of a block's envelope list."""
    # the key is read straight from the envelopes' digest slots: by the
    # time a block is assembled almost every envelope has been hashed
    return _data_hash(tuple([e._digest or e.digest() for e in envelopes]))


@lru_cache(maxsize=SHARED_DIGESTS)
def _data_hash(envelope_digests: Tuple[bytes, ...]) -> bytes:
    """``block-data`` hash by its full content, the envelope digests:
    the n nodes of a deployment assemble the same block, one hashes."""
    return sha256("block-data", envelope_digests)


@lru_cache(maxsize=SHARED_DIGESTS, typed=True)
def _header_digest(number: int, previous_hash: bytes, data_hash: bytes) -> bytes:
    """``block-header`` hash by its full content; ``typed`` because the
    canonical encoding tells ``1`` from ``1.0`` and ``True`` where a
    dict key does not."""
    return sha256("block-header", number, previous_hash, data_hash)


@dataclass(frozen=True)
class BlockHeader:
    """The signed portion of a block."""

    number: int
    previous_hash: bytes
    data_hash: bytes

    def digest(self) -> bytes:
        # headers are frozen, yet every signer/verifier/copy-witness
        # hashes the same header -- cache on the instance; each node
        # builds its own instance of the same header, so a first call
        # goes through the table shared by content
        cached = getattr(self, "_digest", None)
        if cached is None:
            cached = _header_digest(self.number, self.previous_hash, self.data_hash)
            object.__setattr__(self, "_digest", cached)
        return cached

    def signing_payload(self) -> bytes:
        return self.digest()


@dataclass
class Block:
    """A block: header + envelopes + signatures in the metadata."""

    header: BlockHeader
    envelopes: List[Envelope]
    #: ordering-node signatures over the header: signer name -> sig
    signatures: Dict[str, bytes] = field(default_factory=dict)
    channel_id: str = "system"
    #: envelopes never change after assembly, so the summed byte size is
    #: cached -- wire_size() runs once per hop per receiver
    _data_size: int = field(default=-1, init=False, repr=False, compare=False)

    @property
    def number(self) -> int:
        return self.header.number

    def digest(self) -> bytes:
        return self.header.digest()

    def data_size(self) -> int:
        size = self._data_size
        if size < 0:
            # a list, not a generator: no Python frame per envelope
            size = self._data_size = sum(
                [e.payload_size + ENVELOPE_FRAMING for e in self.envelopes]
            )
        return size

    def wire_size(self) -> int:
        return HEADER_SIZE + self.data_size() + (64 + 16) * len(self.signatures)

    def verify_data(self) -> bool:
        """Does the header's data hash match the envelopes carried?"""
        return compute_data_hash(self.envelopes) == self.header.data_hash


def make_block(
    number: int,
    previous_hash: bytes,
    envelopes: List[Envelope],
    channel_id: str = "system",
) -> Block:
    header = BlockHeader(
        number=number,
        previous_hash=previous_hash,
        data_hash=compute_data_hash(envelopes),
    )
    return Block(header=header, envelopes=list(envelopes), channel_id=channel_id)
