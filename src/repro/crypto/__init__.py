"""Cryptographic substrate.

Signatures are simulated: :class:`repro.crypto.signatures.SimulatedECDSA`
is a keyed-hash scheme with ECDSA's interface and signature size
(unforgeable without the private key, tamper-evident) plus a *modeled
CPU cost* per operation, calibrated to the paper's Figure 6, so the
simulator charges signing time to the ordering node's cores as a real
ECDSA P-256 signer would.

Hashing (:mod:`repro.crypto.hashing`) is always real SHA-256 over a
canonical encoding, so hash chains in the ledger are genuinely
tamper-evident even in simulation.
"""

from repro.crypto.hashing import canonical_encode, sha256
from repro.crypto.keys import Identity, KeyRegistry
from repro.crypto.signatures import (
    SignatureScheme,
    Signer,
    SimulatedECDSA,
    Verifier,
)

__all__ = [
    "Identity",
    "KeyRegistry",
    "SignatureScheme",
    "Signer",
    "SimulatedECDSA",
    "Verifier",
    "canonical_encode",
    "sha256",
]
