"""Operation log and checkpoints.

Paper section 5.2: the ordering service's state is tiny (next block
sequence number + previous block hash), so frequent checkpoints are
cheap and the operation log stays short.  :class:`OperationLog` is the
in-memory decided-batch log with checkpoint-based truncation that every
replica keeps.  Its durability hooks cost nothing here; the one durable
model is its subclass :class:`~repro.smart.wal.ConsensusWAL`, which
persists batches, checkpoints and consensus votes on a simulated disk
and charges an fsync before every WRITE and ACCEPT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.crypto.hashing import sha256
from repro.smart.batching import EMPTY_TABLE
from repro.smart.messages import ClientRequest


@dataclass
class Checkpoint:
    """A snapshot of application state after executing ``cid``, and of
    the executed-request table, so a restored replica still skips what
    was decided before ``cid``; ``state_hash`` covers both."""

    cid: int
    state: Any
    state_hash: bytes
    executed: Tuple[tuple, tuple] = EMPTY_TABLE


class OperationLog:
    """Decided batches since the last checkpoint.

    Entries are ``(cid, batch)`` in execution order.  ``truncate`` is
    called when a new checkpoint is stored, discarding all entries the
    checkpoint covers -- exactly BFT-SMaRt's log management.
    """

    def __init__(self):
        self._entries: List[Tuple[int, List[ClientRequest]]] = []
        self.checkpoint: Optional[Checkpoint] = None

    def append(self, cid: int, batch: List[ClientRequest]) -> None:
        if self._entries and cid <= self._entries[-1][0]:
            raise ValueError(f"log must grow monotonically (got cid={cid})")
        self._entries.append((cid, batch))

    def set_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Install a checkpoint and truncate entries it covers."""
        self.checkpoint = checkpoint
        self._entries = [(c, b) for c, b in self._entries if c > checkpoint.cid]

    def entries_after(self, cid: int) -> List[Tuple[int, List[ClientRequest]]]:
        return [(c, b) for c, b in self._entries if c > cid]

    @property
    def entries(self) -> List[Tuple[int, List[ClientRequest]]]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_cid(self) -> int:
        if self._entries:
            return self._entries[-1][0]
        if self.checkpoint is not None:
            return self.checkpoint.cid
        return -1

    def clear(self) -> None:
        """Drop all in-memory state (an amnesiac restart's first step)."""
        self._entries = []
        self.checkpoint = None

    # Durability hooks.  The in-memory log has no stable storage, so
    # consensus evidence costs nothing and recovery salvages nothing;
    # ConsensusWAL overrides these with real persistence.

    def log_write(self, cid: int, regency: int, value_hash: bytes) -> float:
        return 0.0

    def log_accept(self, cid: int, regency: int, value_hash: bytes) -> float:
        return 0.0

    def log_regency(self, regency: int) -> float:
        return 0.0

    def recover(self):
        return None


def state_digest(state: Any, executed: Tuple[tuple, tuple] = EMPTY_TABLE) -> bytes:
    """Canonical hash of an application-state snapshot and the
    executed-request table that goes with it."""
    return sha256("state", _jsonable(state), executed)


def _jsonable(value: Any) -> Any:
    """Normalize a snapshot into canonically encodable primitives."""
    if isinstance(value, (bytes, str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)
