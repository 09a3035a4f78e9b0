"""The HLF client SDK: drives the full transaction flow (paper Fig. 2).

``submit_transaction`` performs steps 1-4 of the HLF protocol: send the
proposal to endorsing peers, verify and match their responses, check
the endorsement policy client-side, assemble the signed envelope, and
broadcast it to the ordering service.

The proposal first goes only to the smallest set of endorsers whose
organizations can satisfy the policy, the first such set in configured
order (arXiv:1801.10228 §3.2: endorsements are collected *until* they
satisfy the policy).  The client widens to every remaining endorser
when that round cannot satisfy the policy -- a failure, rw-sets that do
not match, or no answer within :data:`PROPOSAL_TIMEOUT`.  When no set
of endorsers can cover the policy, the proposal goes to all of them.
:class:`EndorsementError` comes only once every endorser asked has
answered.

Committing peers report once per block (one
:class:`~repro.fabric.api.FilteredBlock` per peer); the returned future
resolves with the :class:`~repro.fabric.api.CommitEvent` of the first
peer to report the transaction in the chain (step 6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import Identity, KeyRegistry
from repro.fabric.api import (
    CommitEvent,
    FilteredBlock,
    ProposalMessage,
    ProposalResponseMessage,
    SubmitEnvelope,
)
from repro.fabric.envelope import (
    ChaincodeProposal,
    Endorsement,
    Envelope,
    ProposalResponse,
    Transaction,
    envelope_ids,
)
from repro.fabric.policy import EndorsementPolicy, minimal_cover
from repro.sim.core import EventHandle, Future, Simulator
from repro.sim.network import Network

#: Simulated seconds the client waits for the answers of its first
#: endorsement round before it sends the proposal to the remaining
#: endorsers too.
PROPOSAL_TIMEOUT = 1.0


class EndorsementError(Exception):
    """Raised when endorsements cannot satisfy the policy."""


@dataclass
class _PendingTransaction:
    proposal: ChaincodeProposal
    policy: EndorsementPolicy
    #: every endorser the transaction may be proposed to
    endorsers: List[str]
    #: the endorsers it was proposed to so far
    asked: List[str]
    future: Future
    responses: Dict[str, ProposalResponse] = field(default_factory=dict)
    #: the proposal timeout of the first round, while one is running
    timer: Optional[EventHandle] = None
    is_query: bool = False


class FabricClient:
    """An application client identified by ``identity``."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        identity: Identity,
        registry: KeyRegistry,
        endorsers: Sequence[str],
        orderer_endpoint: object,
        default_policy: EndorsementPolicy,
        envelope_size: Optional[int] = None,
    ):
        self.sim = sim
        self.network = network
        self.identity = identity
        self.registry = registry
        self.endorsers = list(endorsers)
        self.orderer_endpoint = orderer_endpoint
        self.default_policy = default_policy
        self.envelope_size = envelope_size
        self._nonce = itertools.count()
        self._ids = envelope_ids(sim)
        #: transactions still collecting endorsements, by proposal digest
        self._pending: Dict[bytes, _PendingTransaction] = {}
        self._awaiting_commit: Dict[int, _PendingTransaction] = {}
        network.register(identity.name, self)

    # ------------------------------------------------------------------
    # the public API
    # ------------------------------------------------------------------
    def submit_transaction(
        self,
        channel_id: str,
        chaincode_id: str,
        function: str,
        args: Tuple[Any, ...] = (),
        policy: Optional[EndorsementPolicy] = None,
        endorsers: Optional[Sequence[str]] = None,
    ) -> Future:
        """Run the full endorse -> order -> commit pipeline."""
        proposal = ChaincodeProposal(
            channel_id=channel_id,
            chaincode_id=chaincode_id,
            function=function,
            args=tuple(args),
            client=self.identity.name,
            nonce=next(self._nonce),
            timestamp=self.sim.now,
        )
        policy = policy or self.default_policy
        endorsers = list(endorsers or self.endorsers)
        # the first round: a policy-minimal set, or everyone if none covers
        asked = minimal_cover(policy, endorsers, self._org_of) or endorsers
        pending = _PendingTransaction(
            proposal=proposal,
            policy=policy,
            endorsers=endorsers,
            asked=asked,
            future=self.sim.future(),
        )
        self._pending[proposal.digest()] = pending
        self._propose(pending, asked)
        if len(asked) < len(endorsers):
            pending.timer = self.sim.schedule(PROPOSAL_TIMEOUT, self._widen, pending)
        return pending.future

    def query(
        self,
        channel_id: str,
        chaincode_id: str,
        function: str,
        args: Tuple[Any, ...] = (),
        endorser: Optional[str] = None,
    ) -> Future:
        """Endorse-only read (no ordering): resolves with the result."""
        proposal = ChaincodeProposal(
            channel_id=channel_id,
            chaincode_id=chaincode_id,
            function=function,
            args=tuple(args),
            client=self.identity.name,
            nonce=next(self._nonce),
            timestamp=self.sim.now,
        )
        asked = [endorser or self.endorsers[0]]
        pending = _PendingTransaction(
            proposal=proposal,
            policy=self.default_policy,
            endorsers=asked,
            asked=asked,
            future=self.sim.future(),
            is_query=True,  # never sent for ordering
        )
        self._pending[proposal.digest()] = pending
        self._propose(pending, asked)
        return pending.future

    # ------------------------------------------------------------------
    # endorsement rounds
    # ------------------------------------------------------------------
    def _org_of(self, endorser: str) -> Optional[str]:
        if endorser not in self.registry:
            return None
        return self.registry.org_of(endorser)

    def _propose(self, pending: _PendingTransaction, endorsers: List[str]) -> None:
        message = ProposalMessage(proposal=pending.proposal, reply_to=self.identity.name)
        size = message.wire_size()
        for endorser in endorsers:
            self.network.send(self.identity.name, endorser, message, size)

    def _widen(self, pending: _PendingTransaction) -> None:
        """Propose to every endorser not asked yet: the first round
        timed out, or its answers cannot satisfy the policy."""
        self._stop_timer(pending)
        rest = [e for e in pending.endorsers if e not in pending.asked]
        pending.asked = pending.endorsers
        self._propose(pending, rest)

    @staticmethod
    def _stop_timer(pending: _PendingTransaction) -> None:
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None

    def _settle(self, pending: _PendingTransaction) -> None:
        """Endorsement is over: later responses are dropped unverified."""
        self._stop_timer(pending)
        self._pending.pop(pending.proposal.digest(), None)

    # ------------------------------------------------------------------
    # network delivery
    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if isinstance(message, ProposalResponseMessage):
            self._on_response(message.response)
        elif isinstance(message, FilteredBlock):
            self._on_filtered_block(message)

    def _on_response(self, response: ProposalResponse) -> None:
        # unknown, or no longer collecting endorsements: dropped unverified
        pending = self._pending.get(response.proposal_digest)
        if pending is None:
            return
        if not self._verify_response(response):
            return
        pending.responses[response.endorser] = response
        if pending.is_query:
            # query mode: first verified response resolves the future
            if response.success:
                pending.future.resolve(response.result)
            else:
                pending.future.fail(EndorsementError(str(response.result)))
            self._pending.pop(response.proposal_digest, None)
            return
        self._try_assemble(pending)

    def _verify_response(self, response: ProposalResponse) -> bool:
        if response.endorser not in self.registry:
            return False
        verifier = self.registry.verifier_of(response.endorser)
        return verifier.verify(response.signed_payload(), response.signature)

    def _try_assemble(self, pending: _PendingTransaction) -> None:
        """Step 3: match responses, check the policy, build the envelope."""
        successes = [
            r for _, r in sorted(pending.responses.items()) if r.success
        ]
        # group by identical (read set, write set, result)
        groups: Dict[bytes, List[ProposalResponse]] = {}
        for response in successes:
            key = response.signed_payload()
            groups.setdefault(key, []).append(response)
        for _, matching in sorted(groups.items()):
            orgs = {r.org for r in matching}
            if pending.policy.satisfied_by(orgs):
                self._assemble_and_submit(pending, matching)
                return
        if len(pending.responses) < len(pending.asked):
            return  # the round is still open
        if len(pending.asked) < len(pending.endorsers):
            self._widen(pending)
            return
        self._settle(pending)
        if successes:
            pending.future.fail(
                EndorsementError(
                    "endorsement policy unsatisfiable with matching responses"
                )
            )
        else:
            failure = pending.responses[min(pending.responses)]
            pending.future.fail(EndorsementError(str(failure.result)))

    def _assemble_and_submit(
        self, pending: _PendingTransaction, matching: List[ProposalResponse]
    ) -> None:
        self._settle(pending)
        sample = matching[0]
        transaction = Transaction(
            proposal=pending.proposal,
            read_set=sample.read_set,
            write_set=sample.write_set,
            result=sample.result,
            endorsements=[
                Endorsement(endorser=r.endorser, org=r.org, signature=r.signature)
                for r in matching
            ],
            tx_id=next(self._ids),
        )
        transaction.client_signature = self.identity.sign(transaction.digest())
        payload_size = self.envelope_size or self._estimate_size(transaction)
        envelope = Envelope(
            channel_id=pending.proposal.channel_id,
            transaction=transaction,
            payload_size=payload_size,
            submitter=self.identity.name,
            envelope_id=next(self._ids),
            create_time=self.sim.now,
        )
        envelope.signature = self.identity.sign(envelope.digest())
        self._awaiting_commit[transaction.tx_id] = pending
        submit = SubmitEnvelope(envelope)
        self.network.send(
            self.identity.name, self.orderer_endpoint, submit, submit.wire_size()
        )

    @staticmethod
    def _estimate_size(transaction: Transaction) -> int:
        """Approximate serialized envelope size (the paper reports real
        transactions gzip to about 1 KB)."""
        rwset = 48 * (len(transaction.read_set) + len(transaction.write_set))
        endorsements = 96 * len(transaction.endorsements)
        args = sum(len(repr(a)) for a in transaction.proposal.args)
        return 256 + rwset + endorsements + args

    def _on_filtered_block(self, event: FilteredBlock) -> None:
        """Resolve every transaction of ours the block reports; a later
        peer's report of the same transaction finds nothing waiting."""
        for tx_id, envelope_id, code in event.transactions:
            pending = self._awaiting_commit.pop(tx_id, None)
            if pending is not None:
                pending.future.resolve(
                    CommitEvent(
                        tx_id=tx_id,
                        envelope_id=envelope_id,
                        block_number=event.block_number,
                        validation_code=code,
                        peer=event.peer,
                        commit_time=event.commit_time,
                    )
                )
