"""Committing peers: validation and ledger commitment (paper §3, steps 5-6).

When a block arrives from the ordering service, the peer validates
every envelope:

1. **endorsement policy** (VSCC): enough *valid* endorsement
   signatures from the right organizations;
2. **MVCC read-set check**: every key version read at endorsement time
   must still be current -- considering both committed state and
   writes applied by earlier valid transactions of the same block.

Invalid transactions are still appended to the ledger (marked invalid,
useful to expose malicious clients) but their writes are discarded.
Valid writes commit at version ``(block, tx_index)``.

Once a block is committed, the peer sends each client that submitted a
transaction in it one :class:`~repro.fabric.api.FilteredBlock` (HLF's
filtered block event): that client's ``(tx_id, envelope_id, code)``
entries, in block order -- one message per client per block, not one
per transaction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.crypto.keys import KeyRegistry
from repro.fabric.api import BlockDelivery, BlockRequest, BlockResponse, FilteredBlock
from repro.fabric.block import Block
from repro.fabric.blockpolicy import BlockValidityPolicy, SignatureCountPolicy
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope, Transaction, Version
from repro.fabric.ledger import Ledger
from repro.fabric.policy import EndorsementPolicy
from repro.fabric.statedb import VersionedKVStore
from repro.sim.core import Simulator
from repro.sim.network import Network


class ValidationCode(enum.Enum):
    VALID = "VALID"
    ENDORSEMENT_POLICY_FAILURE = "ENDORSEMENT_POLICY_FAILURE"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    BAD_SIGNATURE = "BAD_SIGNATURE"
    DUPLICATE_TXID = "DUPLICATE_TXID"


def _valid_endorsement_orgs(
    tx: Transaction, registry: Optional[KeyRegistry]
) -> Set[str]:
    """Organizations whose endorsement signatures verify."""
    orgs: Set[str] = set()
    payload = tx.response_payload()
    for endorsement in tx.endorsements:
        if registry is None:
            orgs.add(endorsement.org)
            continue
        if endorsement.endorser not in registry:
            continue
        verifier = registry.verifier_of(endorsement.endorser)
        if verifier.verify(payload, endorsement.signature):
            orgs.add(registry.org_of(endorsement.endorser))
    return orgs


def validate_block(
    block: Block,
    state: VersionedKVStore,
    policy_for: Callable[[Envelope], EndorsementPolicy],
    registry: Optional[KeyRegistry] = None,
    seen_tx_ids: Optional[Set[int]] = None,
) -> List[ValidationCode]:
    """Validate every envelope of ``block`` against ``state``.

    Pure function (does not mutate ``state``); returns one code per
    envelope.  The MVCC check accounts for intra-block dependencies:
    writes of earlier *valid* transactions invalidate later readers of
    the same keys within the block.
    """
    codes: List[ValidationCode] = []
    block_writes: Dict[str, int] = {}  # key -> tx index that wrote it
    seen = seen_tx_ids if seen_tx_ids is not None else set()
    for index, envelope in enumerate(block.envelopes):
        tx = envelope.transaction
        if tx is None:
            codes.append(ValidationCode.VALID)
            continue
        if tx.tx_id in seen:
            codes.append(ValidationCode.DUPLICATE_TXID)
            continue
        seen.add(tx.tx_id)
        orgs = _valid_endorsement_orgs(tx, registry)
        if not orgs and tx.endorsements:
            codes.append(ValidationCode.BAD_SIGNATURE)
            continue
        if not policy_for(envelope).satisfied_by(orgs):
            codes.append(ValidationCode.ENDORSEMENT_POLICY_FAILURE)
            continue
        conflict = False
        for key, version in sorted(tx.read_set.reads.items()):
            if key in block_writes:
                conflict = True  # an earlier tx in this block wrote it
                break
            current = state.version_of(key)
            if current != (tuple(version) if version is not None else None):
                conflict = True
                break
        if conflict:
            codes.append(ValidationCode.MVCC_READ_CONFLICT)
            continue
        for key in tx.write_set.writes:
            block_writes[key] = index
        codes.append(ValidationCode.VALID)
    return codes


@dataclass
class CommitRecord:
    """What a peer remembers about one committed block."""

    block: Block
    codes: List[ValidationCode]

    @property
    def valid_count(self) -> int:
        return sum(1 for c in self.codes if c is ValidationCode.VALID)


class CommittingPeer:
    """A peer maintaining one channel's ledger and world state."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        config: ChannelConfig,
        registry: Optional[KeyRegistry] = None,
        orderer_names: Optional[Set[str]] = None,
        required_block_signatures: int = 0,
        policy_for: Optional[Callable[[Envelope], EndorsementPolicy]] = None,
        block_policy: Optional[BlockValidityPolicy] = None,
    ):
        self.sim = sim
        self.network = network
        self.name = name
        self.config = config
        self.registry = registry
        self.orderer_names = orderer_names or set()
        self.required_block_signatures = required_block_signatures
        #: per-backend block-validity policy; the legacy
        #: ``required_block_signatures`` knob converts to the BFT-SMaRt
        #: signature-count policy for backward compatibility
        self.block_policy = block_policy or SignatureCountPolicy(
            required_block_signatures,
            registry=registry,
            orderer_names=self.orderer_names,
        )
        self.ledger = Ledger(config.channel_id)
        self.state = VersionedKVStore()
        self._policy_for = policy_for or (lambda _env: config.endorsement_policy)
        self._seen_tx_ids: Set[int] = set()
        self.commits: List[CommitRecord] = []
        self.rejected_blocks = 0
        self.on_commit: List[Callable[[CommitRecord], None]] = []
        #: other committing peers to fetch missed blocks from (gossip)
        self.neighbors: List[object] = []
        self._future_blocks: Dict[int, Block] = {}
        self.blocks_served = 0
        self.blocks_fetched = 0

    def add_neighbor(self, peer_id: object) -> None:
        """Register a peer to gossip missed blocks with."""
        if peer_id not in self.neighbors and peer_id != self.name:
            self.neighbors.append(peer_id)

    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if isinstance(message, BlockDelivery):
            self.receive_block(message.block)
        elif isinstance(message, BlockRequest):
            self._serve_blocks(message)
        elif isinstance(message, BlockResponse):
            self._on_block_response(message)

    def receive_block(self, block: Block) -> None:
        """Validate, commit and notify (idempotent on duplicates)."""
        if block.channel_id != self.config.channel_id:
            return  # this peer is not a member of that channel
        if block.header.number < self.ledger.height:
            return  # duplicate delivery (e.g. from several frontends)
        if not self._block_signatures_ok(block):
            # verify before buffering: an unsigned future block must not
            # occupy the gap buffer or trigger gossip fetches
            self.rejected_blocks += 1
            return
        if block.header.number > self.ledger.height:
            # gap: buffer the future block and gossip for the missing
            # range, like Fabric's deliver/gossip services
            self._future_blocks.setdefault(block.header.number, block)
            self._request_missing(block.header.number - 1)
            return
        codes = validate_block(
            block, self.state, self._policy_for, self.registry, self._seen_tx_ids
        )
        for index, (envelope, code) in enumerate(zip(block.envelopes, codes)):
            if code is ValidationCode.VALID and envelope.transaction is not None:
                version: Version = (block.header.number, index)
                self.state.apply_write_set(
                    envelope.transaction.write_set.writes, version
                )
        self.ledger.append(block)
        record = CommitRecord(block=block, codes=codes)
        self.commits.append(record)
        for callback in self.on_commit:
            callback(record)
        self._notify_clients(record)
        # drain any buffered future blocks that are now in sequence
        next_block = self._future_blocks.pop(self.ledger.height, None)
        if next_block is not None:
            self.receive_block(next_block)

    # ------------------------------------------------------------------
    # gossip catch-up
    # ------------------------------------------------------------------
    def _request_missing(self, up_to: int) -> None:
        if not self.neighbors:
            self.rejected_blocks += 1
            return
        request = BlockRequest(
            channel_id=self.config.channel_id,
            from_number=self.ledger.height,
            to_number=up_to,
            reply_to=self.name,
        )
        for neighbor in self.neighbors:
            self.network.send(self.name, neighbor, request, request.wire_size())

    def _serve_blocks(self, request: BlockRequest) -> None:
        if request.channel_id != self.config.channel_id:
            return
        available = [
            self.ledger.get(number)
            for number in range(request.from_number, request.to_number + 1)
            if number < self.ledger.height
        ]
        if not available:
            return
        self.blocks_served += len(available)
        response = BlockResponse(channel_id=self.config.channel_id, blocks=available)
        self.network.send(
            self.name, request.reply_to, response, response.wire_size()
        )

    def _on_block_response(self, response: BlockResponse) -> None:
        if response.channel_id != self.config.channel_id:
            return
        for block in sorted(response.blocks, key=lambda b: b.header.number):
            if block.header.number == self.ledger.height:
                self.blocks_fetched += 1
                self.receive_block(block)

    def _block_signatures_ok(self, block: Block) -> bool:
        """Delegate block trust to the backend's validity policy."""
        return self.block_policy.check(block)

    def _notify_clients(self, record: CommitRecord) -> None:
        """One filtered block per submitting client, clients in order of
        their first transaction in the block."""
        clients: List[object] = []
        entries: Dict[object, List[Tuple[int, int, str]]] = {}
        for envelope, code in zip(record.block.envelopes, record.codes):
            if envelope.transaction is None or not envelope.submitter:
                continue
            if envelope.submitter not in entries:
                clients.append(envelope.submitter)
                entries[envelope.submitter] = []
            entries[envelope.submitter].append(
                (envelope.transaction.tx_id, envelope.envelope_id, code.value)
            )
        number, now = record.block.header.number, self.sim.now
        for client in clients:
            event = FilteredBlock(number, self.name, now, entries[client])
            self.network.send(self.name, client, event, event.wire_size())
