"""Simulated stable storage with injectable crash faults.

Real BFT deployments survive process crashes because votes and decided
batches hit stable storage before they influence the protocol.  This
module models the disk a replica writes its WAL to:

- :class:`SimDisk` -- an append-only byte device with a volatile write
  cache.  ``append`` lands in the cache; ``sync`` (fsync) moves the
  cache to the durable image and returns the modeled latency; ``swap``
  replaces the whole durable image at once (a new file written beside
  the log, then renamed over it -- how a checkpoint compacts the WAL).
  A crash discards the cache, optionally leaving a *torn tail* (a
  sector-aligned prefix of the unsynced suffix) or flipping a durable
  byte (*bit rot*).
- :func:`frame_record` / :func:`frame_payload` / :func:`scan_records`
  -- the CRC line framing of :class:`~repro.smart.wal.ConsensusWAL`.
  ``scan_records`` classifies damage as a torn tail (truncate and
  continue) or mid-log corruption (the WAL flags its recovery
  ``corrupt``; see docs/RECOVERY.md).

The disk is deliberately simulator-free: it is pure state plus latency
arithmetic, so callers decide how to account for the returned delays.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, List, Optional

SECTOR_SIZE = 512

#: Default modeled fsync latency (seconds) -- a commodity SSD flush.
DEFAULT_FSYNC_LATENCY = 0.0005

#: Default modeled sequential read bandwidth (bytes/second).
DEFAULT_READ_BANDWIDTH = 2.0e9


@dataclass
class StorageFaults:
    """What happens to the disk image at crash time.

    ``lose_unsynced`` is the baseline crash semantics: everything not
    yet fsynced vanishes.  ``torn_tail`` additionally persists a
    sector-aligned *prefix* of the unsynced suffix, which can cut a
    record in half.  ``bitrot`` flips one byte somewhere in the durable
    image -- damage that fsync cannot protect against.
    """

    torn_tail: bool = False
    lose_unsynced: bool = True
    bitrot: bool = False


@dataclass
class SimDisk:
    """Per-replica append-only stable storage with a volatile cache."""

    fsync_latency: float = DEFAULT_FSYNC_LATENCY
    sector_size: int = SECTOR_SIZE
    read_bandwidth: float = DEFAULT_READ_BANDWIDTH
    _durable: bytearray = field(default_factory=bytearray, repr=False)
    _cache: bytearray = field(default_factory=bytearray, repr=False)
    fsyncs: int = 0
    bytes_appended: int = 0
    crashes: int = 0

    def append(self, data: bytes) -> None:
        """Buffer ``data`` in the volatile write cache."""
        self._cache.extend(data)
        self.bytes_appended += len(data)

    def sync(self) -> float:
        """Flush the cache to the durable image; return modeled latency."""
        self._durable.extend(self._cache)
        self._cache.clear()
        self.fsyncs += 1
        return self.fsync_latency

    def read(self) -> bytes:
        """The durable image -- what a restarted process would see."""
        return bytes(self._durable)

    def contents(self) -> bytes:
        """The live view (durable + cached), for invariant checks."""
        return bytes(self._durable) + bytes(self._cache)

    def read_latency(self) -> float:
        """Modeled time to sequentially read the durable image."""
        return self.fsync_latency + len(self._durable) / self.read_bandwidth

    @property
    def durable_size(self) -> int:
        return len(self._durable)

    @property
    def unsynced_size(self) -> int:
        return len(self._cache)

    def swap(self, image: bytearray) -> None:
        """Atomically replace the durable image with ``image``.

        Models writing a new file and renaming it over the old one: a
        crash sees either image whole, never a mix.  Allowed only with
        an empty cache, right after the fsync the caller rides, so
        ``fsyncs`` and ``bytes_appended`` do not move.  The disk takes
        ownership of ``image``.
        """
        assert not self._cache, "swap with unsynced bytes in the cache"
        self._durable = image

    def truncate(self, length: int) -> None:
        """Discard durable bytes past ``length`` (recovery's torn-tail cut)."""
        del self._durable[length:]

    def crash(self, faults: StorageFaults, rng: random.Random) -> None:
        """Apply crash-time damage to the image and drop the cache."""
        self.crashes += 1
        if faults.torn_tail and self._cache:
            sectors = (len(self._cache) + self.sector_size - 1) // self.sector_size
            kept = rng.randrange(sectors + 1) * self.sector_size
            self._durable.extend(self._cache[:kept])
        self._cache.clear()
        if faults.bitrot and self._durable:
            index = rng.randrange(len(self._durable))
            self._durable[index] ^= 1 << rng.randrange(8)


#: The canonical JSON of every record body: sorted keys, no whitespace,
#: non-ASCII escaped.  One encoder for the process: constructing one
#: costs more than encoding a small record with it.
_encode_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def frame_payload(payload: bytes) -> bytes:
    """CRC-frame an already-encoded record body.

    Wire format: ``<crc32 of payload, 8 hex digits> <payload>\\n``.  The
    payload must be the canonical JSON of the record (what
    :func:`frame_record` would produce): fixed-shape records render it
    from a template instead of going through the encoder.
    """
    return b"%08x %b\n" % (zlib.crc32(payload), payload)


def frame_record(record: Any) -> bytes:
    """Encode one record as a CRC-framed canonical-JSON line."""
    return frame_payload(_encode_canonical(record).encode("ascii"))


@dataclass
class ScanResult:
    """Outcome of scanning a framed record stream.

    ``error`` is ``None`` for a clean scan, ``"torn"`` when only the
    final (possibly partial) region is bad -- truncate at
    ``valid_bytes`` and continue -- or ``"corrupt"`` when a bad record
    is followed by valid ones, which a torn write cannot produce.
    """

    records: List[Any]
    valid_bytes: int
    error: Optional[str] = None


def _parse_line(line: bytes) -> Optional[Any]:
    """Decode one framed line; ``None`` when malformed or CRC-mismatched."""
    if len(line) < 9 or line[8:9] != b" ":
        return None
    payload = line[9:]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(payload) != crc:
        return None
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def scan_records(data: bytes) -> ScanResult:
    """Parse a framed record stream, classifying any damage found."""
    records: List[Any] = []
    offset = 0
    bad_at: Optional[int] = None
    trailing_valid = False
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            # Unterminated tail: only ever produced by a torn write.
            if bad_at is None:
                bad_at = offset
            break
        parsed = _parse_line(data[offset:newline])
        if parsed is None:
            if bad_at is None:
                bad_at = offset
        elif bad_at is None:
            records.append(parsed)
        else:
            # A valid record after a bad one: mid-log damage, not a tear.
            trailing_valid = True
        offset = newline + 1
    if bad_at is None:
        return ScanResult(records=records, valid_bytes=len(data))
    error = "corrupt" if trailing_valid else "torn"
    return ScanResult(records=records, valid_bytes=bad_at, error=error)
