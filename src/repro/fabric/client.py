"""The HLF client SDK: drives the full transaction flow (paper Fig. 2).

``submit_transaction`` performs steps 1-4 of the HLF protocol: send the
proposal to endorsing peers, verify and match their responses, check
the endorsement policy client-side, assemble the signed envelope, and
broadcast it to the ordering service.  The returned future resolves
with the :class:`~repro.fabric.api.CommitEvent` from the first
committing peer to report the transaction in the chain (step 6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import Identity, KeyRegistry
from repro.fabric.api import (
    CommitEvent,
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
from repro.fabric.policy import EndorsementPolicy
from repro.sim.core import Future, Simulator
from repro.sim.network import Network


class EndorsementError(Exception):
    """Raised when endorsements cannot satisfy the policy."""


@dataclass
class _PendingTransaction:
    proposal: ChaincodeProposal
    policy: EndorsementPolicy
    endorsers: List[str]
    future: Future
    responses: Dict[str, ProposalResponse] = field(default_factory=dict)
    envelope: Optional[Envelope] = None
    submitted: bool = False
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
        self._pending: Dict[bytes, _PendingTransaction] = {}
        self._awaiting_commit: Dict[int, _PendingTransaction] = {}
        self.commits_seen: List[CommitEvent] = []
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
        pending = _PendingTransaction(
            proposal=proposal,
            policy=policy or self.default_policy,
            endorsers=list(endorsers or self.endorsers),
            future=self.sim.future(),
        )
        self._pending[proposal.digest()] = pending
        message = ProposalMessage(proposal=proposal, reply_to=self.identity.name)
        for endorser in pending.endorsers:
            self.network.send(
                self.identity.name, endorser, message, message.wire_size()
            )
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
        pending = _PendingTransaction(
            proposal=proposal,
            policy=self.default_policy,
            endorsers=[endorser or self.endorsers[0]],
            future=self.sim.future(),
        )
        pending.is_query = True  # never sent for ordering
        self._pending[proposal.digest()] = pending
        message = ProposalMessage(proposal=proposal, reply_to=self.identity.name)
        self.network.send(
            self.identity.name, pending.endorsers[0], message, message.wire_size()
        )
        return pending.future

    # ------------------------------------------------------------------
    # network delivery
    # ------------------------------------------------------------------
    def deliver(self, src, message) -> None:
        if isinstance(message, ProposalResponseMessage):
            self._on_response(message.response)
        elif isinstance(message, CommitEvent):
            self._on_commit(message)

    def _on_response(self, response: ProposalResponse) -> None:
        pending = self._pending.get(response.proposal_digest)
        if pending is None:
            return
        if not self._verify_response(response):
            return
        pending.responses[response.endorser] = response
        if pending.is_query:
            # query mode: first verified response resolves the future
            if not pending.future.done:
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
        if pending.submitted or pending.is_query:
            return
        successes = [
            r for _, r in sorted(pending.responses.items()) if r.success
        ]
        if not successes:
            if len(pending.responses) == len(pending.endorsers):
                failure = pending.responses[min(pending.responses)]
                pending.future.fail(EndorsementError(str(failure.result)))
                self._pending.pop(pending.proposal.digest(), None)
            return
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
        if len(pending.responses) == len(pending.endorsers):
            pending.future.fail(
                EndorsementError(
                    "endorsement policy unsatisfiable with matching responses"
                )
            )
            self._pending.pop(pending.proposal.digest(), None)

    def _assemble_and_submit(
        self, pending: _PendingTransaction, matching: List[ProposalResponse]
    ) -> None:
        pending.submitted = True
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
        pending.envelope = envelope
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

    def _on_commit(self, event: CommitEvent) -> None:
        self.commits_seen.append(event)
        pending = self._awaiting_commit.pop(event.tx_id, None)
        if pending is None:
            return
        self._pending.pop(pending.proposal.digest(), None)
        if not pending.future.done:
            pending.future.resolve(event)
