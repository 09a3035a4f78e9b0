"""Durable operation log and checkpoints.

Paper section 5.2: the ordering service's state is tiny (next block
sequence number + previous block hash), so frequent checkpoints are
cheap and the operation log stays short.  This module provides:

- :class:`OperationLog` -- the in-memory decided-batch log with
  checkpoint-based truncation, used by every replica;
- :class:`FileBackedLog` -- the same interface persisted to disk in a
  simple append-only record format, recoverable after a crash (used by
  durability tests and available to deployments that want real
  persistence).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.crypto.hashing import sha256
from repro.sim.storage import LogCorruption, frame_record, scan_records
from repro.smart.messages import LOGGED_UID, ClientRequest


@dataclass
class Checkpoint:
    """A snapshot of application state after executing ``cid``."""

    cid: int
    state: Any
    state_hash: bytes


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


def state_digest(state: Any) -> bytes:
    """Canonical hash of an application-state snapshot."""
    return sha256("state", _jsonable(state))


def _jsonable(value: Any) -> Any:
    """Normalize a snapshot into canonically encodable primitives."""
    if isinstance(value, (bytes, str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class FileBackedLog(OperationLog):
    """An :class:`OperationLog` that survives process restarts.

    Records are CRC-framed JSON lines (shared framing with the
    consensus WAL, see :func:`repro.sim.storage.frame_record`):
    ``{"cid": ..., "reqs": [...]}`` for batch entries and
    ``{"checkpoint": cid, "state": ...}`` for checkpoints.  Operations
    must be JSON-serializable (or convertible through the
    ``encode_op``/``decode_op`` hooks).

    Recovery tolerates a *torn tail* -- a partial or CRC-mismatched
    final record from a crash mid-write -- by truncating the file at
    the first bad byte.  Damage in the middle of the file (a bad record
    followed by valid ones) cannot come from a torn write and raises
    :class:`~repro.sim.storage.LogCorruption` instead.
    """

    def __init__(
        self,
        path: str,
        encode_op: Optional[Callable[[Any], Any]] = None,
        decode_op: Optional[Callable[[Any], Any]] = None,
    ):
        super().__init__()
        self.path = path
        self._encode_op = encode_op or (lambda op: op)
        self._decode_op = decode_op or (lambda op: op)
        if os.path.exists(path):
            self._recover()

    def append(self, cid: int, batch: List[ClientRequest]) -> None:
        super().append(cid, batch)
        record = {
            "cid": cid,
            "reqs": [
                {
                    "client": r.client_id,
                    "seq": r.sequence,
                    "op": self._encode_op(r.operation),
                    "size": r.size_bytes,
                }
                for r in batch
            ],
        }
        self._write(record)

    def set_checkpoint(self, checkpoint: Checkpoint) -> None:
        super().set_checkpoint(checkpoint)
        self._write(
            {
                "checkpoint": checkpoint.cid,
                "state": _jsonable(checkpoint.state),
                "hash": checkpoint.state_hash.hex(),
            }
        )

    def _write(self, record: dict) -> None:
        with open(self.path, "ab") as fh:
            fh.write(frame_record(record))
            fh.flush()
            os.fsync(fh.fileno())

    def _recover(self) -> None:
        """Rebuild in-memory state from the on-disk record stream.

        A torn tail is truncated in place; mid-file corruption raises
        :class:`LogCorruption` so the operator (or recovery protocol)
        can fall back to state transfer instead of trusting the log.
        """
        with open(self.path, "rb") as fh:
            data = fh.read()
        scan = scan_records(data)
        if scan.error == "corrupt":
            raise LogCorruption(
                f"{self.path}: bad record followed by valid ones "
                f"(first bad byte at offset {scan.valid_bytes})"
            )
        if scan.error == "torn":
            with open(self.path, "r+b") as fh:
                fh.truncate(scan.valid_bytes)
        for record in scan.records:
            if "checkpoint" in record:
                OperationLog.set_checkpoint(
                    self,
                    Checkpoint(
                        cid=record["checkpoint"],
                        state=record["state"],
                        state_hash=bytes.fromhex(record["hash"]),
                    ),
                )
            else:
                batch = [
                    ClientRequest(
                        client_id=r["client"],
                        sequence=r["seq"],
                        operation=self._decode_op(r["op"]),
                        size_bytes=r["size"],
                        uid=LOGGED_UID,
                    )
                    for r in record["reqs"]
                ]
                OperationLog.append(self, record["cid"], batch)
