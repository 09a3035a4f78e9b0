"""Consensus write-ahead log over simulated stable storage.

:class:`ConsensusWAL` extends the in-memory :class:`OperationLog` with
a durable record stream on a :class:`~repro.sim.storage.SimDisk`.  On
top of decided batches and checkpoints it also records the protocol
evidence a replica must never contradict after an amnesiac restart:

- ``write`` / ``accept`` -- the (cid, regency, value-hash) of every
  WRITE/ACCEPT vote, fsynced *before* the vote message is sent;
- ``reg`` -- every regency the replica installed.

Because the disk is strictly append-ordered and ``sync`` flushes the
whole cache, the fsync guarding a vote also makes every earlier record
durable.  A vote that reached the network therefore always survives a
crash that loses the unsynced suffix, which is exactly the property the
"no equivocation by amnesia" invariant checks.

A ``ckpt`` record's ``executed`` is the checkpoint's
:meth:`~repro.smart.batching.ExecutedRequests.snapshot`, left out while
the table is empty.

A checkpoint compacts the log, as BFT-SMaRt's does: once its ``ckpt``
record is durable, the image is swapped (:meth:`SimDisk.swap`) for that
frame, one ``reg`` frame with the highest regency logged (if any was),
and the ``batch`` / ``write`` / ``accept`` frames above the
checkpoint's cid in their original order.  Recovery then reads the
checkpoint plus its suffix, and the image stays about one checkpoint
period long however long the run.

Decided-batch records deliberately ride the next vote's fsync (group
commit): losing one costs a state-transfer round-trip on recovery but
never safety.

Record format (one CRC-framed canonical-JSON line each, see
:func:`repro.sim.storage.frame_record`)::

    {"t": "batch",  "cid": C, "reqs": [[client, seq, op, size, rc], ...]}
    {"t": "ckpt",   "cid": C, "state": S, "hash": HEX, "executed": [L, A]}
    {"t": "write",  "cid": C, "reg": R, "h": HEX}
    {"t": "accept", "cid": C, "reg": R, "h": HEX}
    {"t": "reg",    "reg": R}

The three fixed-shape records -- three integers and a hex string at
most, nothing to escape -- are rendered by the byte templates below,
which *are* their definition: the bytes canonical JSON gives the same
record (``tests/properties/test_props_wal.py`` keeps that encoder as
the oracle).  A ``batch`` record is content-determined too -- every
correct replica logs the same decided batch at the same cid -- so its
frame is built once per :class:`~repro.smart.batching.RequestBatch`
object and reused by the other replicas' WALs (see
:meth:`ConsensusWAL._batch_frame`).
"""

from __future__ import annotations

from binascii import hexlify
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.storage import SimDisk, frame_payload, frame_record, scan_records
from repro.smart.batching import EMPTY_TABLE, RequestBatch
from repro.smart.durability import Checkpoint, OperationLog, _jsonable
from repro.smart.messages import LOGGED_UID, ClientRequest

#: Canonical JSON (sorted keys, no whitespace) of the vote and regency
#: records; ``cid`` and ``reg`` are integers, ``h`` is lowercase hex.
_VOTE_TEMPLATES = {
    "write": b'{"cid":%d,"h":"%b","reg":%d,"t":"write"}',
    "accept": b'{"cid":%d,"h":"%b","reg":%d,"t":"accept"}',
}
_REGENCY_TEMPLATE = b'{"reg":%d,"t":"reg"}'

#: A record's keys sort ``cid`` first (``reg`` in a ``reg`` record) and
#: ``t`` last, so :meth:`ConsensusWAL._compacted` reads a frame's kind
#: and number off its bytes without decoding it: the number runs from
#: the end of the seven-byte head to the next comma.
_REG_HEAD = b'{"reg":'
_CKPT_TAIL = b'"t":"ckpt"}\n'
_HEAD_END = 9 + len(_REG_HEAD)


def _identity(value: Any) -> Any:
    """The default codec: operations and states that are JSON already."""
    return value


@dataclass
class WalRecovery:
    """Everything :meth:`ConsensusWAL.recover` salvaged from disk."""

    checkpoint: Optional[Checkpoint]
    entries: List[Tuple[int, List[ClientRequest]]]
    #: cid -> regency -> value hash, for votes this replica already cast.
    write_evidence: Dict[int, Dict[int, bytes]] = field(default_factory=dict)
    accept_evidence: Dict[int, Dict[int, bytes]] = field(default_factory=dict)
    #: Highest regency the replica is known to have installed.
    regency: int = 0
    #: Bytes discarded from the tail (torn-write truncation).
    truncated_bytes: int = 0
    #: True when damage was mid-log (bit rot), not a torn tail.
    corrupt: bool = False
    #: Total records salvaged.
    records: int = 0


class ConsensusWAL(OperationLog):
    """An :class:`OperationLog` persisted to a :class:`SimDisk`."""

    #: How many batch objects keep the frame this WAL built for them
    #: (:meth:`_batch_frame`).  Consensus runs one instance at a time,
    #: so the replicas that keep up log a decision within an instance or
    #: two of the first, while the batch stays in every log until the
    #: next checkpoint -- far longer than its frame is of use.
    SHARED_FRAMES = 4

    def __init__(
        self,
        disk: SimDisk,
        encode_op: Optional[Callable[[Any], Any]] = None,
        decode_op: Optional[Callable[[Any], Any]] = None,
        encode_state: Optional[Callable[[Any], Any]] = None,
        decode_state: Optional[Callable[[Any], Any]] = None,
    ):
        super().__init__()
        self.disk = disk
        self._encode_op = encode_op or _identity
        self._decode_op = decode_op or _identity
        self._encode_state = encode_state or _jsonable
        self._decode_state = decode_state or _identity
        self._framed: "deque[RequestBatch]" = deque()

    # ------------------------------------------------------------------
    # OperationLog interface, now durable

    def append(self, cid: int, batch: List[ClientRequest]) -> None:
        super().append(cid, batch)
        self.disk.append(self._batch_frame(cid, batch))
        # No sync: decided batches group-commit on the next vote fsync.

    def _batch_frame(self, cid: int, batch: List[ClientRequest]) -> bytes:
        """The framed ``batch`` record, encoded once per batch object.

        Inside one simulation the replicas of a decision execute the
        *same* :class:`RequestBatch` object, so the first WAL to log it
        leaves the frame on the object and the others reuse it.  The
        share is by object identity plus ``(cid, encode_op)``, not by
        value hash: the hash binds every operation too, but a share by
        hash needs a table keyed by it, and identity needs none.
        Plain lists (batches rebuilt by :meth:`recover`, forged ones
        built by fault injections) and WALs with another codec always
        encode from scratch, and so does a replica more than
        ``SHARED_FRAMES`` decisions behind the first to log: the frame
        is taken off the object again by the WAL that put it there.
        """
        encode_op = self._encode_op
        shareable = isinstance(batch, RequestBatch)
        if shareable:
            shared = batch.wal_frame
            if shared is not None and shared[0] == cid and shared[1] is encode_op:
                return shared[2]
        frame = frame_record(
            {
                "t": "batch",
                "cid": cid,
                "reqs": [
                    [
                        r.client_id,
                        r.sequence,
                        encode_op(r.operation),
                        r.size_bytes,
                        1 if r.reconfig else 0,
                    ]
                    for r in batch
                ],
            }
        )
        if shareable:
            batch.wal_frame = (cid, encode_op, frame)
            framed = self._framed
            framed.append(batch)
            if len(framed) > self.SHARED_FRAMES:
                framed.popleft().wal_frame = None
        return frame

    def set_checkpoint(self, checkpoint: Checkpoint) -> None:
        super().set_checkpoint(checkpoint)
        record = {
            "t": "ckpt",
            "cid": checkpoint.cid,
            "state": self._encode_state(checkpoint.state),
            "hash": checkpoint.state_hash.hex(),
        }
        if any(checkpoint.executed):
            record["executed"] = checkpoint.executed
        frame = frame_record(record)
        self.disk.append(frame)
        self.disk.sync()
        self.disk.swap(self._compacted(checkpoint.cid, frame))

    def _compacted(self, cid: int, frame: bytes) -> bytearray:
        """The image a checkpoint at ``cid`` leaves, its ``frame`` first.

        Walks the durable image frame by frame without decoding one:
        the ``reg`` frames fold into one with the highest regency, and
        of the others only the non-``ckpt`` frames above ``cid`` stay,
        in their order.  The image ends with ``frame`` itself, which the
        walk stops short of.  Every frame on the disk is one this WAL
        wrote or :meth:`recover` salvaged (it cuts the image at the
        first damaged byte), so each one parses.
        """
        durable = self.disk.read()
        kept: List[Tuple[int, int]] = []
        regency: Optional[int] = None
        offset, end = 0, len(durable) - len(frame)
        while offset < end:
            line_end = durable.index(b"\n", offset) + 1
            head = offset + _HEAD_END
            number = int(durable[head : durable.index(b",", head)])
            if durable.startswith(_REG_HEAD, offset + 9):
                regency = number if regency is None else max(regency, number)
            elif number > cid and not durable.endswith(_CKPT_TAIL, offset, line_end):
                kept.append((offset, line_end))
            offset = line_end
        image = bytearray(frame)
        if regency is not None:
            image += frame_payload(_REGENCY_TEMPLATE % regency)
        view = memoryview(durable)
        for start, stop in kept:
            image += view[start:stop]
        return image

    # ------------------------------------------------------------------
    # Consensus-evidence records

    def log_write(self, cid: int, regency: int, value_hash: bytes) -> float:
        """Persist a WRITE vote; returns fsync latency to charge."""
        return self._log_vote("write", cid, regency, value_hash)

    def log_accept(self, cid: int, regency: int, value_hash: bytes) -> float:
        """Persist an ACCEPT vote; returns fsync latency to charge."""
        return self._log_vote("accept", cid, regency, value_hash)

    def log_regency(self, regency: int) -> float:
        """Persist an installed regency; returns fsync latency to charge."""
        self.disk.append(frame_payload(_REGENCY_TEMPLATE % regency))
        return self.disk.sync()

    def _log_vote(self, kind: str, cid: int, regency: int, value_hash: bytes) -> float:
        self.disk.append(
            frame_payload(_VOTE_TEMPLATES[kind] % (cid, hexlify(value_hash), regency))
        )
        return self.disk.sync()

    # ------------------------------------------------------------------
    # Recovery

    def recover(self) -> WalRecovery:
        """Rebuild in-memory state from the durable image.

        A bad region at the very end of the log is a torn write: the
        disk is truncated at the first bad byte and replay continues
        with the valid prefix.  A bad record *followed by valid ones*
        cannot come from a torn write -- the salvage still truncates at
        the first bad byte (dropping everything after it) but flags the
        log ``corrupt`` so the caller can fall back to full state
        transfer and quarantine its pre-crash votes.
        """
        data = self.disk.read()
        scan = scan_records(data)
        if scan.valid_bytes < len(data):
            self.disk.truncate(scan.valid_bytes)
        self.clear()
        recovery = WalRecovery(
            checkpoint=None,
            entries=[],
            truncated_bytes=len(data) - scan.valid_bytes,
            corrupt=scan.error == "corrupt",
            records=len(scan.records),
        )
        for record in scan.records:
            kind = record["t"]
            if kind == "batch":
                batch = [
                    ClientRequest(
                        client_id=client,
                        sequence=seq,
                        operation=self._decode_op(op),
                        size_bytes=size,
                        reconfig=bool(rc),
                        uid=LOGGED_UID,
                    )
                    for client, seq, op, size, rc in record["reqs"]
                ]
                OperationLog.append(self, record["cid"], batch)
            elif kind == "ckpt":
                OperationLog.set_checkpoint(
                    self,
                    Checkpoint(
                        cid=record["cid"],
                        state=self._decode_state(record["state"]),
                        state_hash=bytes.fromhex(record["hash"]),
                        executed=record.get("executed", EMPTY_TABLE),
                    ),
                )
            elif kind == "write":
                recovery.write_evidence.setdefault(record["cid"], {})[
                    record["reg"]
                ] = bytes.fromhex(record["h"])
            elif kind == "accept":
                recovery.accept_evidence.setdefault(record["cid"], {})[
                    record["reg"]
                ] = bytes.fromhex(record["h"])
            elif kind == "reg":
                recovery.regency = max(recovery.regency, record["reg"])
        recovery.checkpoint = self.checkpoint
        recovery.entries = self.entries
        return recovery

    # ------------------------------------------------------------------
    # Invariant checking

    def verify(self) -> List[str]:
        """Check the live (durable + cached) record stream for damage.

        Used by the fault explorer's durable-log invariant: the stream
        must parse cleanly and must never contain two different batch
        payloads for one cid or two different hashes for one
        (vote-kind, cid, regency) slot, nor a record for a cid at or
        below a checkpoint that precedes it -- no correct replica
        writes one, and no correct compaction leaves one.
        """
        problems: List[str] = []
        scan = scan_records(self.disk.contents())
        if scan.error is not None:
            problems.append(f"log scan failed: {scan.error}")
        batches: Dict[int, Any] = {}
        votes: Dict[Tuple[str, int, int], str] = {}
        checkpoint: Optional[int] = None
        for record in scan.records:
            kind = record["t"]
            if kind == "ckpt":
                checkpoint = record["cid"]
            elif checkpoint is not None and record.get("cid", checkpoint + 1) <= checkpoint:
                problems.append(
                    f"{kind} record for cid={record['cid']} after the checkpoint "
                    f"at cid={checkpoint}"
                )
            if kind == "batch":
                cid = record["cid"]
                if cid in batches and batches[cid] != record["reqs"]:
                    problems.append(f"conflicting batch records for cid={cid}")
                batches[cid] = record["reqs"]
            elif kind in ("write", "accept"):
                key = (kind, record["cid"], record["reg"])
                if key in votes and votes[key] != record["h"]:
                    problems.append(
                        "conflicting %s votes for cid=%d regency=%d" % key
                    )
                votes[key] = record["h"]
        return problems
