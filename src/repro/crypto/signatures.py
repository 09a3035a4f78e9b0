"""The simulated signature scheme and its signer / verifier halves.

The ordering service signs every block header and every HLF component
verifies those signatures (paper section 5).  Inside the simulator we
want signing to be (a) cheap in wall-clock time, (b) unforgeable
without the private key, and (c) charged to the CPU model at the
*modeled* cost of a real ECDSA signature, calibrated to Figure 6.
:class:`SimulatedECDSA` delivers exactly that behind the
:class:`SignatureScheme` protocol.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Protocol, Tuple

#: Core-seconds for one ECDSA P-256 signature on one physical core of
#: the paper's 2.27 GHz Xeon E5520.  Chosen so that 8 physical cores
#: with a 1.3x hyper-threading yield produce ~8,400 signatures/second
#: at 16 worker threads -- the Figure 6 peak.
DEFAULT_SIGN_COST = 8 * 1.3 / 8400.0  # ~1.24 ms

#: ECDSA verification is roughly as expensive as signing for P-256
#: (two scalar multiplications vs one, but the signer also derives the
#: nonce); the paper's frontends skip verification entirely, relying on
#: 2f+1 matching blocks, so this constant mostly matters to peers.
DEFAULT_VERIFY_COST = 1.45e-3

#: SHA-256's block size and RFC 2104's inner / outer pad translations
_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class SignatureScheme(Protocol):
    """What every signature scheme must provide."""

    name: str
    signature_size: int

    def keygen(self, rng) -> Tuple[object, bytes]: ...

    def sign(self, private: object, message: bytes) -> bytes: ...

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool: ...


class SimulatedECDSA:
    """Keyed-hash signatures with ECDSA's interface, size and cost.

    ``sign`` is an HMAC-SHA256 under the private key; ``verify``
    recomputes it from the private key *derivable only through the
    public key registry lookup* -- i.e. the scheme is trivially
    unforgeable for any component that does not hold the key, which is
    the property the protocols rely on.  Signature size is padded to 64
    bytes to match ECDSA P-256 for network accounting.

    The HMAC is RFC 2104's, from two SHA-256 states kept per private
    key -- after the key block XOR ipad and after the key block XOR
    opad -- so a MAC is two copies, two updates and two digests instead
    of re-deriving both pads on every call: the bytes of
    ``hmac.digest(key, message, "sha256")``.  :meth:`_mac` is the one
    function ``sign`` and ``verify`` compute it with.

    Verifying is deterministic in ``(public, message, signature)``, and
    one block signature is checked by every node, frontend and peer of a
    deployment, so a scheme instance remembers the last
    ``VERIFIED_TRIPLES`` triples that *passed* the comparison and
    answers those from memory.  Only a pass is remembered: a bad
    signature, a signature under another key and an unknown key are
    recomputed on every call, so nothing is accepted that the HMAC did
    not accept.  The modeled ``verify_cost`` is charged by the callers
    either way.
    """

    name = "sim-ecdsa"
    signature_size = 64
    public_key_size = 33

    #: verified triples kept per scheme instance (oldest dropped first)
    VERIFIED_TRIPLES = 256

    def __init__(
        self,
        sign_cost: float = DEFAULT_SIGN_COST,
        verify_cost: float = DEFAULT_VERIFY_COST,
    ):
        self.sign_cost = sign_cost
        self.verify_cost = verify_cost
        self._secrets: dict[bytes, bytes] = {}
        self._verified: dict[Tuple[bytes, bytes, bytes], None] = {}
        #: private key -> SHA-256 states after its ipad and opad blocks
        self._pads: dict[bytes, Tuple[Any, Any]] = {}

    def keygen(self, rng) -> Tuple[bytes, bytes]:
        secret = rng.getrandbits(256).to_bytes(32, "big")
        public = b"\x02" + hashlib.sha256(b"pub" + secret).digest()
        self._secrets[public] = secret
        return secret, public

    def _mac(self, private: bytes, message: bytes) -> bytes:
        """HMAC-SHA256 of ``message`` under ``private`` (RFC 2104)."""
        pads = self._pads.get(private)
        if pads is None:
            key = private
            if len(key) > _BLOCK:
                key = hashlib.sha256(key).digest()
            key = key.ljust(_BLOCK, b"\0")
            pads = self._pads[private] = (
                hashlib.sha256(key.translate(_IPAD)),
                hashlib.sha256(key.translate(_OPAD)),
            )
        inner = pads[0].copy()
        inner.update(message)
        outer = pads[1].copy()
        outer.update(inner.digest())
        return outer.digest()

    def sign(self, private: bytes, message: bytes) -> bytes:
        mac = self._mac(private, message)
        return mac + mac  # pad to 64 bytes, ECDSA-sized

    def verify(self, public: bytes, message: bytes, signature: bytes) -> bool:
        triple = (public, message, signature)
        verified = self._verified
        if triple in verified:
            return True
        secret = self._secrets.get(public)
        if secret is None or len(signature) != 64:
            return False
        if not hmac.compare_digest(self.sign(secret, message), signature):
            return False
        if len(verified) >= self.VERIFIED_TRIPLES:
            del verified[next(iter(verified))]
        verified[triple] = None
        return True


@dataclass
class Signer:
    """An identity's signing half: scheme + private key + public key."""

    scheme: SignatureScheme
    private: object
    public: bytes

    def sign(self, message: bytes) -> bytes:
        return self.scheme.sign(self.private, message)

    @property
    def sign_cost(self) -> float:
        """Modeled core-seconds per signature (0 if not modeled)."""
        return getattr(self.scheme, "sign_cost", DEFAULT_SIGN_COST)


@dataclass
class Verifier:
    """The verification half: scheme + public key."""

    scheme: SignatureScheme
    public: bytes

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.scheme.verify(self.public, message, signature)

    @property
    def verify_cost(self) -> float:
        return getattr(self.scheme, "verify_cost", DEFAULT_VERIFY_COST)
