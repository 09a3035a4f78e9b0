"""What the Fabric client sends: one endorsement round to a
policy-minimal endorser set, widened only when that round cannot satisfy
the policy, and one commit message per peer per block.

All runs use :class:`SoloPipeline` (constant latency, endorser-org1
first in the client's configured order).
"""

import pytest

from repro.fabric import And, Or, SignedBy
from repro.fabric.api import FilteredBlock, ProposalMessage
from repro.fabric.client import PROPOSAL_TIMEOUT, EndorsementError
from repro.fabric.policy import OutOf, minimal_cover
from repro.faults.invariants import check_serializability
from tests.conftest import SoloPipeline

TRANSACTIONS = 25


def _count_messages(pipeline, kind, dst=None) -> list:
    """Every ``kind`` message sent (to ``dst``, if given), as
    ``(src, dst)`` pairs, in send order."""
    sent = []

    def record(src, to, payload):
        if isinstance(payload, kind) and dst in (None, to):
            sent.append((src, to))
        return payload

    pipeline.network.add_filter(record)
    return sent


def _run(pipeline, count=TRANSACTIONS):
    futures = [pipeline.submit("kv", "put", f"k{i}", i) for i in range(count)]
    assert pipeline.drain(futures)
    assert check_serializability(pipeline.committers) == []
    return futures


def _endorsers_of(future, pipeline) -> set:
    block = pipeline.committers[0].ledger.get(future.value.block_number)
    (envelope,) = [
        e for e in block.envelopes if e.transaction.tx_id == future.value.tx_id
    ]
    return {e.endorser for e in envelope.transaction.endorsements}


class TestMinimalCover:
    ORGS = {"a1": "org1", "b1": "org2", "c1": "org3", "a2": "org1"}.get

    def test_or_picks_the_first_configured_endorser(self):
        policy = Or(SignedBy("org1"), SignedBy("org2"))
        assert minimal_cover(policy, ["b1", "a1"], self.ORGS) == ["b1"]

    def test_and_needs_one_endorser_per_org(self):
        policy = And(SignedBy("org1"), SignedBy("org2"))
        assert minimal_cover(policy, ["a1", "a2", "b1"], self.ORGS) == ["a1", "b1"]

    def test_smallest_set_first_then_configured_order(self):
        policy = OutOf(2, SignedBy("org1"), SignedBy("org2"), SignedBy("org3"))
        assert minimal_cover(policy, ["c1", "a1", "b1"], self.ORGS) == ["c1", "a1"]

    def test_uncoverable_policy_has_no_cover(self):
        assert minimal_cover(SignedBy("org9"), ["a1", "b1"], self.ORGS) is None


class TestEndorsementRounds:
    def test_or_policy_asks_one_endorser_and_peers_notify_per_block(self):
        """(a) N transactions under Or(org1, org2): N endorsements at
        endorser-org1, none at endorser-org2; the client hears from every
        peer once per block, not once per transaction."""
        pipeline = SoloPipeline()
        proposals = _count_messages(pipeline, ProposalMessage)
        events = _count_messages(pipeline, FilteredBlock, dst="client0")
        futures = _run(pipeline)
        first, second = pipeline.endorsers
        assert first.endorsements_produced == TRANSACTIONS
        assert second.endorsements_produced == 0
        assert {dst for _, dst in proposals} == {"endorser-org1"}
        assert len(proposals) == TRANSACTIONS
        blocks = pipeline.committers[0].ledger.height
        assert blocks < TRANSACTIONS
        assert len(events) == len(pipeline.committers) * blocks
        assert all(f.value.validation_code == "VALID" for f in futures)
        assert all(_endorsers_of(f, pipeline) == {"endorser-org1"} for f in futures)

    def test_and_policy_asks_both_endorsers(self):
        """(b) Under And(org1, org2) both endorsers endorse every
        transaction, in one round."""
        pipeline = SoloPipeline(policy=And(SignedBy("org1"), SignedBy("org2")))
        proposals = _count_messages(pipeline, ProposalMessage)
        futures = _run(pipeline)
        assert [e.endorsements_produced for e in pipeline.endorsers] == [TRANSACTIONS] * 2
        assert len(proposals) == 2 * TRANSACTIONS
        assert all(
            _endorsers_of(f, pipeline) == {"endorser-org1", "endorser-org2"}
            for f in futures
        )

    def test_silent_first_choice_widens_after_the_timeout(self):
        """(c) Every proposal to endorser-org1 is dropped: each
        transaction is proposed to endorser-org2 once the proposal
        timeout expires, and commits VALID."""
        pipeline = SoloPipeline()

        def drop(src, dst, payload):
            if isinstance(payload, ProposalMessage) and dst == "endorser-org1":
                return None
            return payload

        pipeline.network.add_filter(drop)
        futures = _run(pipeline)
        assert all(f.value.validation_code == "VALID" for f in futures)
        assert all(_endorsers_of(f, pipeline) == {"endorser-org2"} for f in futures)
        assert all(f.value.commit_time >= PROPOSAL_TIMEOUT for f in futures)
        assert pipeline.endorsers[1].endorsements_produced == TRANSACTIONS

    def test_failing_first_choice_widens_at_once(self):
        """(d) endorser-org1 refuses the client: the failure widens the
        round without waiting for the timeout, and endorser-org2's
        endorsement commits VALID."""
        pipeline = SoloPipeline()
        pipeline.endorsers[0].acl = set()  # nobody may invoke it
        (future,) = _run(pipeline, count=1)
        assert future.value.validation_code == "VALID"
        assert _endorsers_of(future, pipeline) == {"endorser-org2"}
        assert future.value.commit_time < PROPOSAL_TIMEOUT
        assert pipeline.endorsers[0].rejections == 1
        assert pipeline.client._pending == {}

    def test_every_endorser_failing_raises(self):
        """(e) Both endorsers refuse: EndorsementError once both have
        answered, and nothing is submitted for ordering."""
        pipeline = SoloPipeline()
        for endorser in pipeline.endorsers:
            endorser.acl = set()
        future = pipeline.submit("kv", "put", "k", 1)
        pipeline.drain([future])
        with pytest.raises(EndorsementError, match="not authorized"):
            _ = future.value
        assert [e.rejections for e in pipeline.endorsers] == [1, 1]
        assert pipeline.committers[0].ledger.height == 0
        assert pipeline.client._pending == {}

    def test_uncoverable_policy_asks_everyone_and_fails_once(self):
        """No configured set covers SignedBy(org3): the proposal goes to
        every endorser at once, and the client fails after both answered."""
        pipeline = SoloPipeline(policy=SignedBy("org3"))
        proposals = _count_messages(pipeline, ProposalMessage)
        future = pipeline.submit("kv", "put", "k", 1)
        (pending,) = pipeline.client._pending.values()
        assert pending.timer is None  # nobody left to widen to
        pipeline.drain([future])
        with pytest.raises(EndorsementError, match="unsatisfiable"):
            _ = future.value
        assert len(proposals) == 2

    def test_query_asks_one_endorser(self):
        pipeline = SoloPipeline()
        _run(pipeline, count=1)
        proposals = _count_messages(pipeline, ProposalMessage)
        query = pipeline.client.query("ch0", "kv", "get", ("k0",))
        assert pipeline.drain([query])
        assert query.value == 0
        assert proposals == [("client0", "endorser-org1")]

    def test_late_responses_are_dropped_before_verification(self, monkeypatch):
        """A response to a transaction already submitted is not verified."""
        pipeline = SoloPipeline(policy=And(SignedBy("org1"), SignedBy("org2")))
        verified = []
        verify = pipeline.client._verify_response
        monkeypatch.setattr(
            pipeline.client,
            "_verify_response",
            lambda response: verified.append(response.endorser) or verify(response),
        )
        (future,) = _run(pipeline, count=1)
        # replay both responses after submission: neither is verified again
        assert verified == ["endorser-org1", "endorser-org2"]
        block = pipeline.committers[0].ledger.get(future.value.block_number)
        proposal = block.envelopes[0].transaction.proposal
        for endorser in pipeline.endorsers:
            pipeline.client._on_response(endorser.endorse(proposal))
        assert verified == ["endorser-org1", "endorser-org2"]
