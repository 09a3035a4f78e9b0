"""Invariant-checker tests, including mutation tests proving teeth.

A checker that never fires is worthless: the mutation tests disable a
safety check inside one replica (``SkipQuorumChecks``) while a
Byzantine leader equivocates, and assert the fork invariants *do*
flag the resulting divergence.  The clean-cluster tests establish the
baseline: no faults, no violations.
"""

import pytest

from repro.faults import (
    BlockRecorder,
    EquivocatePropose,
    FaultInjector,
    SkipQuorumChecks,
    check_history_prefixes,
    check_liveness,
    check_log_agreement,
    check_serializability,
    replica_log_digests,
)
from repro.fabric.committer import ValidationCode
from tests.conftest import Cluster

pytestmark = pytest.mark.faults


class TestHistoryPrefixes:
    def test_identical_histories_pass(self):
        histories = {0: [1, 2, 3], 1: [1, 2, 3], 2: [1, 2]}
        assert check_history_prefixes(histories) == []

    def test_divergence_flagged_with_position(self):
        histories = {0: [1, 2, 3], 1: [1, 9, 3]}
        (violation,) = check_history_prefixes(histories)
        assert violation.invariant == "fork"
        assert "position 1" in violation.detail

    def test_exclude_skips_byzantine_replicas(self):
        histories = {0: [1, 2], 1: [1, 2], 3: [7, 7]}
        assert check_history_prefixes(histories, exclude=[3]) == []


class TestLogAgreement:
    def test_agreeing_logs_pass(self):
        logs = {0: {0: b"a", 1: b"b"}, 1: {0: b"a"}, 2: {1: b"b"}}
        assert check_log_agreement(logs) == []

    def test_conflicting_instance_flagged(self):
        logs = {0: {5: b"a"}, 1: {5: b"DIFFERENT"}}
        (violation,) = check_log_agreement(logs)
        assert violation.invariant == "fork"
        assert "instance 5" in violation.detail


class TestBlockRecorder:
    def make_delivery(self, source, number, data):
        from repro.fabric.api import BlockDelivery
        from repro.fabric.block import Block, BlockHeader

        header = BlockHeader(number=number, previous_hash=b"p", data_hash=data)
        block = Block(header=header, envelopes=[], channel_id="ch0")
        return BlockDelivery(block=block, source=source)

    def test_agreement_passes(self):
        recorder = BlockRecorder()
        for node in ("a", "b", "c"):
            recorder("x", "fe", self.make_delivery(node, 0, b"same"))
        assert recorder.check() == []

    def test_equivocation_flagged(self):
        recorder = BlockRecorder()
        recorder("x", "fe", self.make_delivery("a", 0, b"one"))
        recorder("x", "fe", self.make_delivery("a", 0, b"two"))
        violations = recorder.check()
        assert any(v.invariant == "block-equivocation" for v in violations)

    def test_cross_node_fork_flagged(self):
        recorder = BlockRecorder()
        recorder("x", "fe", self.make_delivery("a", 0, b"one"))
        recorder("x", "fe", self.make_delivery("b", 0, b"two"))
        violations = recorder.check()
        assert any(v.invariant == "block-fork" for v in violations)

    def test_passthrough_returns_payload(self):
        recorder = BlockRecorder()
        assert recorder("x", "y", "anything") == "anything"


class TestLiveness:
    def test_all_delivered_passes(self):
        assert check_liveness(10, 10) == []
        assert check_liveness(10, 12) == []  # duplicates are not a stall

    def test_shortfall_flagged(self):
        (violation,) = check_liveness(10, 8)
        assert violation.invariant == "liveness"
        assert "8 of 10" in violation.detail


class TestCleanCluster:
    def test_no_faults_no_violations(self):
        cluster = Cluster()
        proxy = cluster.proxy()
        futures = [proxy.invoke(i + 1) for i in range(6)]
        assert cluster.drain(futures)
        histories = {
            r.replica_id: app.history
            for r, app in zip(cluster.replicas, cluster.apps)
        }
        assert check_history_prefixes(histories) == []
        assert check_log_agreement(replica_log_digests(cluster.replicas)) == []


class TestMutationFork:
    """Disable a replica's quorum checks under an equivocating leader:
    the fork MUST be caught.  This proves the invariant checkers can
    actually see the failure they exist for."""

    def run_poisoned_cluster(self):
        cluster = Cluster(request_timeout=0.4)
        injector = FaultInjector(cluster.network, cluster.replicas)
        # leader 0 sends forged batches to replica 1, which (mutated)
        # no longer waits for quorums before deciding
        injector.start(EquivocatePropose(leader=0, victims=1))
        injector.start(SkipQuorumChecks(1))
        proxy = cluster.proxy(invoke_timeout=4.0, max_retries=10)
        futures = [proxy.invoke(i + 1) for i in range(3)]
        cluster.drain(futures, deadline=30.0)
        return cluster

    def test_fork_caught_by_history_invariant(self):
        cluster = self.run_poisoned_cluster()
        histories = {
            r.replica_id: app.history
            for r, app in zip(cluster.replicas, cluster.apps)
        }
        # the mutated replica executed the poison operation...
        assert -999 in histories[1]
        # ...and the invariant checker flags the divergence
        violations = check_history_prefixes(histories)
        assert any(v.invariant == "fork" for v in violations)

    def test_fork_caught_by_log_agreement(self):
        cluster = self.run_poisoned_cluster()
        violations = check_log_agreement(replica_log_digests(cluster.replicas))
        assert any(v.invariant == "fork" for v in violations)

    def test_excluding_the_byzantine_replica_restores_agreement(self):
        """Correct replicas never fork even while 1 is compromised."""
        cluster = self.run_poisoned_cluster()
        histories = {
            r.replica_id: app.history
            for r, app in zip(cluster.replicas, cluster.apps)
        }
        assert check_history_prefixes(histories, exclude=[1]) == []
        assert (
            check_log_agreement(replica_log_digests(cluster.replicas), exclude=[1])
            == []
        )


class _StubFrontend:
    """Minimal frontend surface for SubmissionRecorder: a ``submit``
    returning a scripted verdict per envelope id, and an ``on_block``
    hook list."""

    def __init__(self, verdicts=None):
        self.on_block = []
        self._verdicts = dict(verdicts or {})

    def submit(self, envelope):
        return self._verdicts.get(envelope.envelope_id)


def _envelope(envelope_id):
    from repro.fabric.envelope import Envelope

    return Envelope(
        channel_id="ch0",
        transaction=None,
        payload_size=64,
        submitter="client",
        envelope_id=envelope_id,
    )


def _block(*envelope_ids):
    from repro.fabric.block import Block, BlockHeader

    header = BlockHeader(number=0, previous_hash=b"p", data_hash=b"d")
    return Block(
        header=header,
        envelopes=[_envelope(envelope_id) for envelope_id in envelope_ids],
        channel_id="ch0",
    )


class TestSubmissionRecorder:
    def test_classifies_admitted_rejected_committed(self):
        from repro.faults import SubmissionRecorder
        from repro.ordering import Rejected

        frontend = _StubFrontend({2: Rejected("rate-limited", 0.1)})
        recorder = SubmissionRecorder([frontend])
        assert frontend.submit(_envelope(1)) is None
        assert frontend.submit(_envelope(2)).reason == "rate-limited"
        frontend.on_block[0](_block(1))
        assert recorder.admitted_ids() == {1}
        assert recorder.committed == {1}
        assert recorder.unresolved_ids() == set()

    def test_wrapping_preserves_verdicts(self):
        """The recorder is a tap, not a filter: callers still see the
        original verdict object."""
        from repro.faults import SubmissionRecorder
        from repro.ordering import Rejected

        verdict = Rejected("window-full", 0.5)
        frontend = _StubFrontend({7: verdict})
        SubmissionRecorder([frontend])
        assert frontend.submit(_envelope(7)) is verdict

    def test_duplicate_submissions_accumulate_verdicts(self):
        from repro.faults import SubmissionRecorder
        from repro.ordering import Rejected

        frontend = _StubFrontend()
        recorder = SubmissionRecorder([frontend])
        frontend.submit(_envelope(5))
        frontend._verdicts[5] = Rejected("rate-limited", 0.1)
        frontend.submit(_envelope(5))
        assert len(recorder.outcomes[5]) == 2
        # one admission is enough to demand a commit
        assert recorder.admitted_ids() == {5}


class TestNoSilentDrop:
    """Mutation tests: the backpressure invariant must have teeth."""

    def test_clean_run_passes(self):
        from repro.faults import SubmissionRecorder, check_no_silent_drop
        from repro.ordering import Rejected

        frontend = _StubFrontend({2: Rejected("rate-limited", 0.1)})
        recorder = SubmissionRecorder([frontend])
        frontend.submit(_envelope(1))
        frontend.submit(_envelope(2))
        frontend.on_block[0](_block(1))
        assert check_no_silent_drop(recorder) == []

    def test_admitted_but_never_committed_flagged(self):
        from repro.faults import SubmissionRecorder, check_no_silent_drop

        frontend = _StubFrontend()
        recorder = SubmissionRecorder([frontend])
        frontend.submit(_envelope(41))
        frontend.submit(_envelope(42))
        frontend.on_block[0](_block(41))
        (violation,) = check_no_silent_drop(recorder)
        assert violation.invariant == "no-silent-drop"
        assert "42" in violation.detail

    def test_rejection_without_reason_flagged(self):
        from repro.faults import SubmissionRecorder, check_no_silent_drop
        from repro.ordering import Rejected

        frontend = _StubFrontend({9: Rejected("", 0.0)})
        recorder = SubmissionRecorder([frontend])
        frontend.submit(_envelope(9))
        violations = check_no_silent_drop(recorder)
        assert any("without a reason" in v.detail for v in violations)

    def test_live_service_silent_drop_is_caught(self):
        """End to end: admit an envelope into a real frontend, then
        make the orderer lose it (drop the frontend's outbound link)
        -- the invariant must flag the admitted-but-uncommitted id."""
        from repro.faults import (
            Drop,
            FaultInjector,
            Match,
            SubmissionRecorder,
            check_no_silent_drop,
        )
        from repro.fabric.channel import ChannelConfig
        from repro.ordering import OrderingServiceConfig, build_ordering_service
        from repro.ordering.service import FRONTEND_ID_BASE

        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("ch0", max_message_count=4, batch_timeout=0.05),
            enable_batch_timeout=True,
            physical_cores=None,
        )
        service = build_ordering_service(config)
        recorder = SubmissionRecorder(service.frontends)
        injector = FaultInjector(service.network, seed=0)
        injector.start(Drop(Match(src=FRONTEND_ID_BASE)))
        assert service.frontends[0].submit(_envelope(1)) is None
        service.sim.run(until=5.0)
        (violation,) = check_no_silent_drop(recorder)
        assert violation.invariant == "no-silent-drop"


class TestSerializability:
    """The Fabric path's checker: clean on the seeded hot-key run of
    ``test_fabric_hash_budget.py``, and it fires once the committer's
    MVCC check is switched off."""

    @staticmethod
    def _hot_key_run():
        from tests.conftest import SoloPipeline
        from tests.test_fabric_hash_budget import run_hot_keys

        pipeline = SoloPipeline(block_size=10, seed=0)
        run_hot_keys(pipeline, 120)
        return pipeline

    @staticmethod
    def _codes(peer):
        return [code for record in peer.commits for code in record.codes]

    def test_clean_run_passes(self):
        pipeline = self._hot_key_run()
        assert ValidationCode.MVCC_READ_CONFLICT in self._codes(pipeline.committers[0])
        assert check_serializability(pipeline.committers) == []

    def test_fires_without_the_mvcc_check(self, monkeypatch):
        from repro.fabric import committer

        validate_block = committer.validate_block

        def without_mvcc(*args, **kwargs):
            return [
                ValidationCode.VALID
                if code is ValidationCode.MVCC_READ_CONFLICT
                else code
                for code in validate_block(*args, **kwargs)
            ]

        monkeypatch.setattr(committer, "validate_block", without_mvcc)
        pipeline = self._hot_key_run()
        assert ValidationCode.MVCC_READ_CONFLICT not in self._codes(pipeline.committers[0])
        violations = check_serializability(pipeline.committers)
        assert violations
        assert all(v.invariant == "serializability" for v in violations)
        assert "is VALID but read" in violations[0].detail

    def test_flags_a_conflict_that_read_the_latest_version(self):
        pipeline = self._hot_key_run()
        peer = pipeline.committers[0]
        peer.commits[0].codes[0] = ValidationCode.MVCC_READ_CONFLICT
        violations = check_serializability([peer])
        # the put read nothing; later readers of its key now read a
        # version the replay no longer holds
        assert "block 0 transaction 0 is an MVCC_READ_CONFLICT" in violations[0].detail
        assert all("is VALID but read 'k0'" in v.detail for v in violations[1:])

    def test_flags_peers_with_different_state_at_one_height(self):
        pipeline = self._hot_key_run()
        first, second = pipeline.committers
        second.state.apply_write("k0", 99, (999, 0))
        (violation,) = check_serializability([first, second])
        assert "different world state" in violation.detail
