"""Per-instance consensus state (VP-Consensus [22]).

Each :class:`ConsensusInstance` tracks one slot of the total order:
the proposed batch, WRITE and ACCEPT vote sets per regency, whether
this replica already sent its own WRITE/ACCEPT, and -- once a WRITE
quorum is observed -- a :class:`~repro.smart.messages.WriteCertificate`
used as the value-selection proof during the synchronization phase.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.crypto.hashing import sha256
from repro.smart.messages import ClientRequest, WriteCertificate
from repro.smart.quorums import VoteSet
from repro.smart.view import View


def batch_hash(cid: int, batch: List[ClientRequest]) -> bytes:
    """Canonical hash of a proposed batch (what WRITE/ACCEPT vote on).

    When ``batch`` is a :class:`repro.smart.batching.RequestBatch` the
    digest is memoized per cid: inside one simulation every replica
    validates the *same* batch object (payloads are never serialized),
    and requests are immutable once batched, so hashing it ``n`` times
    per instance is pure waste.  Plain lists are hashed from scratch.
    """
    cache = getattr(batch, "hash_by_cid", None)
    if cache is not None:
        cached = cache.get(cid)
        if cached is not None:
            return cached
    ids = [(r.client_id, r.sequence, r.size_bytes) for r in batch]
    digest = sha256("batch", cid, ids)
    if cache is not None:
        cache[cid] = digest
    return digest


def replica_log_digests(replicas: Iterable) -> Dict[Any, Dict[int, bytes]]:
    """Per-replica ``cid -> batch hash`` maps from the operation logs."""
    return {
        replica.replica_id: {
            cid: batch_hash(cid, batch) for cid, batch in replica.log.entries
        }
        for replica in replicas
    }


class ConsensusInstance:
    """State of consensus instance ``cid`` at one replica."""

    __slots__ = (
        "cid",
        "view",
        "known_values",
        "proposed_hash",
        "_writes",
        "_accepts",
        "write_sent",
        "accept_sent",
        "decided",
        "decided_hash",
        "decided_regency",
        "tentative_hash",
        "write_certificate",
        "timestamps",
    )

    def __init__(self, cid: int, view: View):
        self.cid = cid
        self.view = view
        #: batches known for this instance, keyed by their hash
        self.known_values: Dict[bytes, List[ClientRequest]] = {}
        #: hash this replica received in a PROPOSE (per regency)
        self.proposed_hash: Dict[int, bytes] = {}
        self._writes: Dict[int, VoteSet] = {}
        self._accepts: Dict[int, VoteSet] = {}
        self.write_sent: Dict[int, bytes] = {}
        self.accept_sent: Dict[int, bytes] = {}
        self.decided = False
        self.decided_hash: Optional[bytes] = None
        self.decided_regency: Optional[int] = None
        self.tentative_hash: Optional[bytes] = None
        self.write_certificate: Optional[WriteCertificate] = None
        #: lifecycle timestamps this replica observed (``at=`` params),
        #: keyed "write_quorum" / "decided" -- feeds repro.obs reports
        self.timestamps: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def writes(self, regency: int) -> VoteSet:
        votes = self._writes.get(regency)
        if votes is None:
            votes = VoteSet(self.view)
            self._writes[regency] = votes
        return votes

    def accepts(self, regency: int) -> VoteSet:
        votes = self._accepts.get(regency)
        if votes is None:
            votes = VoteSet(self.view)
            self._accepts[regency] = votes
        return votes

    def learn_value(self, batch: List[ClientRequest]) -> bytes:
        """Register a batch as a candidate value; returns its hash."""
        value_hash = batch_hash(self.cid, batch)
        self.known_values[value_hash] = batch
        return value_hash

    def value_of(self, value_hash: bytes) -> Optional[List[ClientRequest]]:
        return self.known_values.get(value_hash)

    def record_write_quorum(
        self, regency: int, value_hash: bytes, at: Optional[float] = None
    ) -> None:
        """Snapshot the WRITE quorum as a proof for leader changes."""
        if at is not None:
            self.timestamps.setdefault("write_quorum", at)
        voters = self.writes(regency).voters_of(value_hash)
        self.write_certificate = WriteCertificate(
            cid=self.cid,
            regency=regency,
            value_hash=value_hash,
            writers=voters,
            batch=self.known_values.get(value_hash),
        )

    def mark_decided(
        self, regency: int, value_hash: bytes, at: Optional[float] = None
    ) -> None:
        if at is not None:
            self.timestamps.setdefault("decided", at)
        self.decided = True
        self.decided_hash = value_hash
        self.decided_regency = regency

    @property
    def decided_batch(self) -> Optional[List[ClientRequest]]:
        if self.decided_hash is None:
            return None
        return self.known_values.get(self.decided_hash)
