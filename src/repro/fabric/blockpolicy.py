"""Block-validity policies: one signed-quorum rule, one signature walk.

Every ordering backend hands blocks to the same
:class:`~repro.fabric.committer.CommittingPeer`, but what makes a block
*trustworthy* differs by backend:

- **solo / Kafka** orderers are trusted individually (crash-fault
  model): a block needs only its one orderer's valid signature
  (:class:`SignatureCountPolicy` of 1);
- **BFT-SMaRt** frontends gather ``2f+1`` matching block copies and
  merge their signatures, so the committer only needs ``f+1`` valid
  signatures to know a correct node vouched for the block
  (:class:`SignatureCountPolicy`);
- **SmartBFT-style** nodes disseminate a *single* copy carrying a
  signature quorum, which the committer, the frontend and a node
  catching up all verify by one rule (:class:`SignedQuorum`).

:func:`valid_signers` is the only code that verifies an ordering
node's signature on a block.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Container, List, Mapping, Optional, Set

from repro.crypto.keys import KeyRegistry
from repro.fabric.block import Block
from repro.smart.view import View


class BlockValidityPolicy:
    """Decides whether a delivered block may be committed."""

    def check(self, block: Block) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


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
    payload = block.header.signing_payload()
    return [
        signer
        for signer, signature in sorted(block.signatures.items())
        if (not orderer_names or signer in orderer_names)
        and (
            registry is None
            or signer in registry
            and registry.verifier_of(signer).verify(payload, signature)
        )
    ]


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
    configured count.  ``required <= 0`` accepts every block (the
    committer's default).
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
        return self.required <= 0 or (
            count_valid_signatures(block, self.registry, self.orderer_names) >= self.required
        )

    def describe(self) -> str:
        return f"signature-count>={self.required}"


class SignedQuorum(BlockValidityPolicy):
    """Trust a block iff its verified signers form a quorum of ``view``.

    The SmartBFT rule (arXiv:2107.06922): one copy carries the proof of
    consensus.  The quorum is ``View.has_quorum``'s, so a WHEAT-weighted
    membership is judged by weight and an equal-weight ``3f+1`` group
    needs ``2f+1`` signers.  The signatures cover the header only, so
    the envelopes must hash to the header's ``data_hash``.  One rule for a
    committing peer (:meth:`check`), a frontend's acceptance
    (:meth:`valid`, :meth:`offer`) and a SmartBFT node's catch-up.
    """

    def __init__(
        self,
        view: View,
        registry: Optional[KeyRegistry],
        node_names: Mapping[int, str],
    ):
        self.view = view
        self.registry = registry
        self._id_by_name = {name: pid for pid, name in node_names.items()}

    @classmethod
    def equal_weight(cls, f: int, registry, orderer_names) -> "SignedQuorum":
        """The rule over the named orderers, one vote each."""
        names = dict(enumerate(sorted(orderer_names)))
        return cls(View(0, tuple(names), f), registry, names)

    def check(self, block: Block) -> bool:
        if not block.verify_data():
            return False
        ids = self._id_by_name
        return self.view.has_quorum(
            [ids[name] for name in valid_signers(block, self.registry, ids)]
        )

    def valid(self, source: str, block: Block) -> bool:
        return self.check(block)

    def offer(self, source: str, block: Block) -> Optional[Block]:
        return block

    @property
    def quorum(self) -> int:
        """The fewest signers that can form a quorum (the heaviest)."""
        running = accumulate(sorted(self.view.weights.values(), reverse=True))
        return 1 + next(i for i, w in enumerate(running) if self.view.is_quorum_weight(w))

    def describe(self) -> str:
        return f"signature-quorum>={self.quorum}"
