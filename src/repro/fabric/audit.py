"""Ledger auditing: chain verification across peers.

Downstream tooling for operators of a deployment: verify a single
ledger's integrity end to end (hash chain, data hashes, ordering-node
signature coverage) and compare ledgers across peers to detect forks
-- the failure the Kafka-based orderer exhibits under a Byzantine
broker and the BFT service prevents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.crypto.keys import KeyRegistry
from repro.fabric.block import GENESIS_PREVIOUS_HASH
from repro.fabric.blockpolicy import valid_signers
from repro.fabric.ledger import Ledger


@dataclass
class BlockAuditRecord:
    """Findings for one block."""

    number: int
    chain_ok: bool
    data_ok: bool
    valid_signatures: int
    invalid_signatures: int
    unknown_signers: int

    @property
    def ok(self) -> bool:
        return self.chain_ok and self.data_ok and self.invalid_signatures == 0


@dataclass
class AuditReport:
    """Full single-ledger audit."""

    channel_id: str
    height: int
    records: List[BlockAuditRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(record.ok for record in self.records)

    @property
    def min_signatures(self) -> int:
        if not self.records:
            return 0
        return min(record.valid_signatures for record in self.records)

    def problems(self) -> List[BlockAuditRecord]:
        return [record for record in self.records if not record.ok]


def audit_ledger(
    ledger: Ledger,
    registry: Optional[KeyRegistry] = None,
    orderer_names: Optional[Set[str]] = None,
) -> AuditReport:
    """Verify a ledger block by block.

    Checks the number sequence, the previous-header hash links, the
    data hashes, and -- when a ``registry`` is given -- every
    ordering-node signature on every block (restricted to
    ``orderer_names`` when provided).
    """
    report = AuditReport(channel_id=ledger.channel_id, height=ledger.height)
    previous = GENESIS_PREVIOUS_HASH
    for number, block in enumerate(ledger):
        chain_ok = block.header.number == number and block.header.previous_hash == previous
        data_ok = block.verify_data()
        valid, invalid, unknown = len(block.signatures), 0, 0
        if registry is not None:
            known = [
                signer
                for signer in block.signatures
                if signer in registry
                and (orderer_names is None or signer in orderer_names)
            ]
            # (an empty name filter would mean "every signer")
            valid = len(valid_signers(block, registry, known)) if known else 0
            invalid, unknown = len(known) - valid, len(block.signatures) - len(known)
        report.records.append(
            BlockAuditRecord(
                number=number,
                chain_ok=chain_ok,
                data_ok=data_ok,
                valid_signatures=valid,
                invalid_signatures=invalid,
                unknown_signers=unknown,
            )
        )
        previous = block.header.digest()
    return report


@dataclass
class ForkReport:
    """Result of comparing ledgers across peers."""

    common_height: int
    fork_at: Optional[int]
    diverging_peers: Dict[str, bytes] = field(default_factory=dict)

    @property
    def forked(self) -> bool:
        return self.fork_at is not None


def compare_ledgers(ledgers: Dict[str, Ledger]) -> ForkReport:
    """Find the first height at which any two peers' chains diverge.

    Peers may be at different heights (that is lag, not a fork); a
    *fork* is two blocks with the same number but different header
    digests.
    """
    if not ledgers:
        return ForkReport(common_height=0, fork_at=None)
    common_height = min(ledger.height for ledger in ledgers.values())
    for number in range(common_height):
        digests = {
            peer: ledger.get(number).header.digest()
            for peer, ledger in ledgers.items()
        }
        if len(set(digests.values())) > 1:
            return ForkReport(
                common_height=common_height,
                fork_at=number,
                diverging_peers=digests,
            )
    return ForkReport(common_height=common_height, fork_at=None)
