"""Transactions, proposals, endorsements and envelopes (HLF data model).

An *envelope* is the unit the ordering service orders: a signed wrapper
around a transaction proposal carrying the endorsing peers' read/write
sets and signatures (paper section 3, step 3).  The ordering service
never inspects its contents -- only its size matters there -- but
committing peers re-validate everything inside.

Payload bytes are modelled *by length*, never by content:
:class:`PayloadRef` is the zero-copy handle standing in for a payload,
carrying its length and a lazily computed digest.  A handle built from
real bytes (:meth:`PayloadRef.of_bytes`) reports exactly the length and
digest of those bytes, so the two modes are interchangeable for every
accounting and validation path -- which is what lets benchmarks pump
millions of simulated envelopes without allocating their payloads.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Iterator, List, Mapping, Optional, Tuple, Union

from repro.crypto.hashing import sha256

#: Version of a key: (block number, transaction index within block).
Version = Tuple[int, int]

#: Fabric's ``AbsoluteMaxBytes``: the hard per-envelope payload ceiling
#: an orderer enforces at submission (10 MB by default, as in HLF).
DEFAULT_MAX_PAYLOAD_BYTES = 10 * 1024 * 1024

#: Ids of envelopes and transactions built by hand, outside any run: a
#: test, an example or a REPL that writes ``Envelope.raw(...)`` without
#: saying which id it means.  Nothing under ``src/repro`` that runs on a
#: simulator draws from it (``tests/test_run_identity.py`` proves it
#: stands still across every run path); a run takes its ids from
#: :func:`envelope_ids`, or names them outright.
_handmade_ids = itertools.count()


def envelope_ids(sim: Any) -> Iterator[int]:
    """The stream a run on ``sim`` draws ``envelope_id`` and ``tx_id``
    from (one stream for both: a client assembles a transaction and
    wraps it in the same step), in the order the run creates them --
    so the same seed gives the same ids, digests and ledgers however
    many runs the process hosted before."""
    return sim.id_stream("envelope")


class OversizedPayloadError(ValueError):
    """An envelope payload exceeds the channel's absolute byte ceiling."""


class PayloadRef:
    """A zero-copy handle for payload bytes: length now, digest on demand.

    Synthetic handles (``PayloadRef(n)``) model an ``n``-byte payload
    without allocating it; their digest is derived deterministically
    from the length.  Handles wrapping real bytes
    (:meth:`of_bytes`) report the same length and content digest the
    bytes themselves would, so size/digest accounting is identical in
    both modes.
    """

    __slots__ = ("length", "_content", "_digest")

    def __init__(self, length: int, content: Optional[bytes] = None):
        if length < 0:
            raise ValueError("payload length must be >= 0")
        if content is not None and len(content) != length:
            raise ValueError(
                f"content is {len(content)} bytes but handle claims {length}"
            )
        self.length = length
        self._content = content
        self._digest: Optional[bytes] = None

    @classmethod
    def of_bytes(cls, content: bytes) -> "PayloadRef":
        """Wrap real payload bytes (keeps a reference, never copies)."""
        return cls(len(content), content)

    def __len__(self) -> int:
        return self.length

    def digest(self) -> bytes:
        """Content digest; computed once, then cached.

        Real-bytes handles hash the bytes; synthetic handles hash their
        length (the simulation's stand-in for content identity).
        """
        cached = self._digest
        if cached is None:
            if self._content is not None:
                cached = hashlib.sha256(self._content).digest()
            else:
                cached = sha256("payload-ref", self.length)
            self._digest = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "bytes" if self._content is not None else "synthetic"
        return f"<PayloadRef {self.length}B {mode}>"


#: Payload lengths whose synthetic handle is kept for sharing: a run
#: offers a handful of envelope sizes.
SHARED_PAYLOAD_LENGTHS = 256


@lru_cache(maxsize=SHARED_PAYLOAD_LENGTHS)
def synthetic_payload(length: int) -> PayloadRef:
    """The synthetic handle of ``length`` bytes, one per length: such a
    handle is a pure function of its length, so every raw envelope of
    that size can point at the same one."""
    return PayloadRef(length)


#: What validation paths accept as "a payload".
PayloadLike = Union[bytes, bytearray, memoryview, PayloadRef]


def payload_length(payload: PayloadLike) -> int:
    """Byte length of a payload, for real bytes and handles alike."""
    return len(payload)


def check_payload_size(
    payload: PayloadLike, max_bytes: int = DEFAULT_MAX_PAYLOAD_BYTES
) -> int:
    """Validate a payload against the absolute byte ceiling.

    Returns the payload length; raises :class:`OversizedPayloadError`
    for anything over ``max_bytes``.  Handles and real bytes take the
    exact same path, so an oversized :class:`PayloadRef` is rejected
    precisely where oversized bytes would be.
    """
    length = len(payload)
    if length > max_bytes:
        raise OversizedPayloadError(
            f"payload of {length} bytes exceeds the {max_bytes}-byte ceiling"
        )
    return length


def _digest_cache() -> Any:
    """The slot an object keeps its digest in: not a constructor
    argument, not hashed, not compared."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class ChaincodeProposal:
    """A client's signed request to invoke a chaincode function.

    Frozen, so the digest -- hashed by the client, every endorser and
    every committing peer -- is computed once and kept on the instance
    (shallowly, like :class:`WriteSet`: ``args`` are hashed by ``repr``).
    """

    channel_id: str
    chaincode_id: str
    function: str
    args: Tuple[Any, ...]
    client: str
    nonce: int
    timestamp: float = 0.0
    _digest: Optional[bytes] = _digest_cache()

    def digest(self) -> bytes:
        cached = self._digest
        if cached is None:
            cached = sha256(
                "proposal",
                self.channel_id,
                self.chaincode_id,
                self.function,
                [repr(a) for a in self.args],
                self.client,
                self.nonce,
            )
            object.__setattr__(self, "_digest", cached)
        return cached


def _seal(rw_set: Any, name: str, digest: bytes) -> None:
    """Freeze a read or write set at its first ``digest()``: its mapping
    is swapped for a read-only view of a private copy, so neither the
    set nor a dict the caller kept can change what was hashed."""
    object.__setattr__(rw_set, name, MappingProxyType(dict(getattr(rw_set, name))))
    object.__setattr__(rw_set, "_digest", digest)


@dataclass(frozen=True, slots=True)
class ReadSet:
    """Versioned keys read during simulation (MVCC check input).

    Filled in through ``reads`` while chaincode runs; the first
    :meth:`digest` *seals* the set -- ``reads`` becomes a read-only
    view, so a later write raises instead of leaving the cached digest
    stale.
    """

    reads: Mapping[str, Optional[Version]] = field(default_factory=dict)
    _digest: Optional[bytes] = _digest_cache()

    def digest(self) -> bytes:
        cached = self._digest
        if cached is None:
            cached = sha256(
                "readset", {k: list(v) if v else None for k, v in self.reads.items()}
            )
            _seal(self, "reads", cached)
        return cached

    def __len__(self) -> int:
        return len(self.reads)


@dataclass(frozen=True, slots=True)
class WriteSet:
    """Key updates produced during simulation (None value = delete).

    Sealed by the first :meth:`digest` exactly like :class:`ReadSet`.
    The seal is shallow: it fixes which keys are written and which
    object each key is bound to, and the digest covers ``repr(value)``
    as of that moment.  A mutable value (``AssetTransferChaincode``
    writes a dict) mutated *in place* afterwards is not seen by this
    digest; no code in the repo does that, chaincode results that alias
    such a value are still re-``repr``-ed by every endorsement check,
    and ``tests/test_fabric_digest_cache.py`` pins both facts.
    """

    writes: Mapping[str, Optional[Any]] = field(default_factory=dict)
    _digest: Optional[bytes] = _digest_cache()

    def digest(self) -> bytes:
        cached = self._digest
        if cached is None:
            cached = sha256("writeset", {k: repr(v) for k, v in self.writes.items()})
            _seal(self, "writes", cached)
        return cached

    def __len__(self) -> int:
        return len(self.writes)


#: Entries in each of the two composite tables below: the transactions
#: in flight between endorsement and commit, not the ledger.
SHARED_COMPOSITES = 256


def endorsement_payload(
    proposal_digest: bytes,
    read_set: ReadSet,
    write_set: WriteSet,
    result: Any,
    success: bool,
) -> bytes:
    """What an endorsing peer signs and a committing peer re-derives.

    A flat composite over the cached leaf digests, looked up by its
    full content on every call: nothing is kept on the objects it reads
    from, which stay assignable, so swapping a transaction's write set
    or result is a different key and is detected by the next check.
    """
    return _response_hash(
        proposal_digest, read_set.digest(), write_set.digest(), repr(result), success
    )


@lru_cache(maxsize=SHARED_COMPOSITES, typed=True)
def _response_hash(
    proposal_digest: bytes,
    read_digest: bytes,
    write_digest: bytes,
    result_repr: str,
    success: bool,
) -> bytes:
    """``response`` hash by everything it hashes: the endorsers sign,
    the client verifies and groups and every committing peer checks the
    same payload.
    ``typed`` because the canonical encoding tells ``True`` from ``1``
    where a dict key does not."""
    return sha256(
        "response", proposal_digest, read_digest, write_digest, result_repr, success
    )


@lru_cache(maxsize=SHARED_COMPOSITES, typed=True)
def _transaction_hash(
    proposal_digest: bytes, read_digest: bytes, write_digest: bytes, tx_id: int
) -> bytes:
    """``transaction`` hash by everything it hashes (the client signs
    it, then the envelope digest covers it)."""
    return sha256("transaction", proposal_digest, read_digest, write_digest, tx_id)


@dataclass(slots=True)
class ProposalResponse:
    """An endorsing peer's simulation result + signature."""

    proposal_digest: bytes
    endorser: str
    org: str
    read_set: ReadSet
    write_set: WriteSet
    result: Any
    success: bool
    signature: bytes = b""

    def signed_payload(self) -> bytes:
        return endorsement_payload(
            self.proposal_digest, self.read_set, self.write_set, self.result, self.success
        )


@dataclass(slots=True)
class Endorsement:
    """The (endorser, signature) pair attached to a transaction."""

    endorser: str
    org: str
    signature: bytes


@dataclass(slots=True)
class Transaction:
    """A fully-assembled transaction awaiting ordering + validation.

    Every field stays assignable and neither hash below is cached on
    the instance: both are flat composites over the sealed leaves'
    cached digests, looked up by that content.
    """

    proposal: ChaincodeProposal
    read_set: ReadSet
    write_set: WriteSet
    result: Any
    endorsements: List[Endorsement]
    client_signature: bytes = b""
    tx_id: int = field(default_factory=lambda: next(_handmade_ids))

    def response_payload(self) -> bytes:
        """What each endorsement must have signed."""
        return endorsement_payload(
            self.proposal.digest(), self.read_set, self.write_set, self.result, True
        )

    def digest(self) -> bytes:
        return _transaction_hash(
            self.proposal.digest(),
            self.read_set.digest(),
            self.write_set.digest(),
            self.tx_id,
        )


@dataclass(slots=True)
class Envelope:
    """The opaque, signed unit submitted to the ordering service.

    ``payload_size`` is the serialized size used for network/blocks
    accounting -- the paper evaluates 40 B (a SHA-256 hash), 200 B
    (three ECDSA endorsement signatures), 1 KB and 4 KB envelopes.
    ``payload`` optionally carries the zero-copy :class:`PayloadRef`
    handle; synthetic envelopes leave it ``None`` and take the shared
    handle of their length through :meth:`payload_ref`.
    """

    channel_id: str
    transaction: Optional[Transaction]
    payload_size: int
    submitter: str = ""
    signature: bytes = b""
    is_config: bool = False
    envelope_id: int = field(default_factory=lambda: next(_handmade_ids))
    create_time: Optional[float] = None
    payload: Optional[PayloadRef] = field(default=None, repr=False, compare=False)
    #: identity digest cache -- the hashed fields never change after
    #: construction, and blocks/frontends hash every envelope repeatedly
    _digest: Optional[bytes] = _digest_cache()

    def digest(self) -> bytes:
        cached = self._digest
        if cached is None:
            content = (
                self.transaction.digest() if self.transaction is not None else b"raw"
            )
            cached = sha256("envelope", self.channel_id, content, self.envelope_id)
            self._digest = cached
        return cached

    def payload_ref(self) -> PayloadRef:
        """The payload handle: for a raw envelope, the one synthetic
        handle of its length (:func:`synthetic_payload`)."""
        ref = self.payload
        if ref is None:
            ref = self.payload = synthetic_payload(self.payload_size)
        return ref

    @classmethod
    def raw(
        cls,
        channel_id: str,
        payload_size: int,
        submitter: str = "",
        envelope_id: Optional[int] = None,
    ) -> "Envelope":
        """A synthetic envelope with no transaction inside -- what the
        paper's micro-benchmarks submit (only the size matters to the
        ordering service).  A run passes ``next(envelope_ids(sim))``;
        left out, the id is a hand-built one."""
        if envelope_id is None:
            envelope_id = next(_handmade_ids)
        return cls(
            channel_id=channel_id,
            transaction=None,
            payload_size=payload_size,
            submitter=submitter,
            envelope_id=envelope_id,
        )

    @classmethod
    def from_bytes(
        cls, channel_id: str, content: bytes, submitter: str = ""
    ) -> "Envelope":
        """An envelope around real payload bytes (kept zero-copy)."""
        ref = PayloadRef.of_bytes(content)
        return cls(
            channel_id=channel_id,
            transaction=None,
            payload_size=ref.length,
            submitter=submitter,
            payload=ref,
        )
