"""Per-backend block-validity policies for committing peers.

Every ordering backend hands blocks to the same
:class:`~repro.fabric.committer.CommittingPeer`, but what makes a block
*trustworthy* differs by backend:

- **solo / Kafka** orderers are trusted individually (crash-fault
  model): any well-formed block is accepted
  (:class:`AcceptAllBlocks`);
- **BFT-SMaRt** frontends gather ``2f+1`` matching block copies and
  merge their signatures, so the committer only needs ``f+1`` valid
  signatures to know a correct node vouched for the block
  (:class:`SignatureCountPolicy`);
- **SmartBFT-style** nodes disseminate a *single* copy carrying a
  ``2f+1`` signature quorum, so the committer itself verifies the
  quorum (:class:`SignatureQuorumPolicy`).

Factoring this into policy objects gives all backends one verified
entry point (``CommittingPeer.receive_block``) instead of the historic
copy-matching assumption baked into the committer.
"""

from __future__ import annotations

from typing import Container, List, Optional, Set

from repro.crypto.keys import KeyRegistry
from repro.fabric.block import Block
from repro.smart.view import byzantine_majority_size


class BlockValidityPolicy:
    """Decides whether a delivered block may be committed."""

    def check(self, block: Block) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class AcceptAllBlocks(BlockValidityPolicy):
    """Crash-fault backends (solo, Kafka): the orderer is trusted."""

    def check(self, block: Block) -> bool:
        return True

    def describe(self) -> str:
        return "accept-all"


def valid_signers(
    block: Block,
    registry: Optional[KeyRegistry],
    orderer_names: Optional[Container[str]] = None,
) -> List[str]:
    """Distinct ordering nodes with a valid signature on ``block``.

    Signers outside ``orderer_names`` (when given) or unknown to the
    registry never count.  Without a registry, signatures cannot be
    verified and every attached signature counts -- callers opt into
    that weaker mode explicitly by passing ``registry=None``.
    """
    if registry is None:
        return [
            name
            for name in block.signatures
            if not orderer_names or name in orderer_names
        ]
    payload = block.header.signing_payload()
    valid = []
    for signer, signature in sorted(block.signatures.items()):
        if orderer_names and signer not in orderer_names:
            continue
        if signer not in registry:
            continue
        if registry.verifier_of(signer).verify(payload, signature):
            valid.append(signer)
    return valid


def count_valid_signatures(
    block: Block,
    registry: Optional[KeyRegistry],
    orderer_names: Optional[Container[str]] = None,
) -> int:
    """How many :func:`valid_signers` ``block`` carries."""
    return len(valid_signers(block, registry, orderer_names))


class SignatureCountPolicy(BlockValidityPolicy):
    """At least ``required`` valid ordering-node signatures.

    The BFT-SMaRt committer policy (paper section 5.1): the frontend's
    ``2f+1`` copy matching already happened upstream, and the merged
    block carries at least ``f+1`` honest signatures, so peers check a
    configured count.  ``required <= 0`` disables the check (the
    historic ``required_block_signatures=0`` default).
    """

    def __init__(
        self,
        required: int,
        registry: Optional[KeyRegistry] = None,
        orderer_names: Optional[Set[str]] = None,
    ):
        self.required = required
        self.registry = registry
        self.orderer_names = orderer_names or set()

    def check(self, block: Block) -> bool:
        if self.required <= 0:
            return True
        return (
            count_valid_signatures(block, self.registry, self.orderer_names)
            >= self.required
        )

    def describe(self) -> str:
        return f"signature-count>={self.required}"


class SignatureQuorumPolicy(BlockValidityPolicy):
    """A Byzantine-majority signature quorum travels *on* the block.

    The SmartBFT committer policy (arXiv:2107.06922): a single block
    copy is only trustworthy if it carries ``2f+1`` valid signatures
    from distinct ordering nodes, which guarantees a majority of the
    correct nodes agreed on exactly this block.
    """

    def __init__(
        self,
        f: int,
        registry: Optional[KeyRegistry] = None,
        orderer_names: Optional[Set[str]] = None,
    ):
        self.f = f
        self.quorum = byzantine_majority_size(f)
        self.registry = registry
        self.orderer_names = orderer_names or set()

    def check(self, block: Block) -> bool:
        return (
            count_valid_signatures(block, self.registry, self.orderer_names)
            >= self.quorum
        )

    def describe(self) -> str:
        return f"signature-quorum>={self.quorum}"
