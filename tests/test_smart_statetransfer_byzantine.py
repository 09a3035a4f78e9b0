"""State transfer against dishonest or stale peers."""


from repro.crypto.hashing import sha256
from repro.smart.durability import state_digest
from repro.smart.messages import StateReply
from tests.conftest import Cluster


class TestStateTransferRobustness:
    def advance(self, cluster, proxy, count):
        for _ in range(count):
            assert cluster.drain([proxy.invoke(1)], deadline=10.0)

    def test_single_lying_reply_cannot_install(self, cluster):
        """One fabricated state reply never reaches the f+1 threshold."""
        replica = cluster.replicas[3]
        replica.state_transfer.in_progress = True
        fake_state = {"total": 666, "history": [666]}
        lie = StateReply(
            sender=2,
            checkpoint_cid=5,
            state=fake_state,
            state_hash=state_digest(fake_state),
            log=[],
            last_cid=5,
        )
        replica.state_transfer.on_state_reply(2, lie)
        assert replica.last_executed == -1
        assert cluster.apps[3].total == 0

    def test_matching_lies_from_f_plus_1_needed(self, cluster):
        """Only f+1 = 2 *matching* replies install state; a single
        Byzantine peer cannot reach that alone, two colluding ones
        exceed f and are outside the fault model (and do succeed --
        demonstrating exactly why f matters)."""
        replica = cluster.replicas[3]
        replica.state_transfer.in_progress = True
        fake_state = {"total": 666, "history": [666]}
        lie = StateReply(
            sender=1,
            checkpoint_cid=5,
            state=fake_state,
            state_hash=state_digest(fake_state),
            log=[],
            last_cid=5,
        )
        replica.state_transfer.on_state_reply(1, lie)
        assert replica.last_executed == -1
        lie2 = StateReply(
            sender=2,
            checkpoint_cid=5,
            state=fake_state,
            state_hash=state_digest(fake_state),
            log=[],
            last_cid=5,
        )
        replica.state_transfer.on_state_reply(2, lie2)
        assert replica.last_executed == 5  # two faults > f: game over

    def test_mismatched_digest_rejected(self, cluster):
        """A reply whose shipped state does not match its own claimed
        digest is discarded even with agreement on the key."""
        replica = cluster.replicas[3]
        replica.state_transfer.in_progress = True
        fake_state = {"total": 666, "history": [666]}
        wrong_digest = sha256("not-the-state")
        for sender in (1, 2):
            replica.state_transfer.on_state_reply(
                sender,
                StateReply(
                    sender=sender,
                    checkpoint_cid=5,
                    state=fake_state,
                    state_hash=wrong_digest,
                    log=[],
                    last_cid=5,
                ),
            )
        assert replica.last_executed == -1

    def test_executed_table_is_covered_by_the_state_hash(self, cluster):
        """f+1 replies agree on the key, but ship an executed-request
        table other than the one their ``state_hash`` covers: none
        verifies, so nothing is installed."""
        replica = cluster.replicas[3]
        replica.state_transfer.in_progress = True
        state = {"total": 10, "history": [10]}
        executed = (((900, 5),), ())
        for sender in (1, 2):
            replica.state_transfer.on_state_reply(
                sender,
                StateReply(
                    sender=sender,
                    checkpoint_cid=5,
                    state=state,
                    state_hash=state_digest(state, executed),
                    log=[],
                    last_cid=5,
                    executed=((), ()),
                ),
            )
        assert replica.last_executed == -1
        assert (900, 0) not in replica._executed_ids

    def test_honest_majority_wins_during_recovery(self):
        """Full-system: one Byzantine peer feeds garbage state replies
        while a replica recovers; the honest majority's state is the
        one installed."""
        cluster = Cluster()
        proxy = cluster.proxy()
        self.advance(cluster, proxy, 3)
        cluster.replicas[3].crash()
        self.advance(cluster, proxy, 25)

        from repro.smart.messages import StateReply as SR

        def corrupt_state(src, dst, payload):
            if isinstance(payload, SR) and src == 2:
                fake = {"total": -1, "history": [-1]}
                return SR(
                    sender=2,
                    checkpoint_cid=payload.checkpoint_cid,
                    state=fake,
                    state_hash=state_digest(fake),
                    log=[],
                    last_cid=payload.last_cid,
                )
            return payload

        cluster.network.add_filter(corrupt_state)
        cluster.replicas[3].recover()
        cluster.run(6.0)
        assert cluster.apps[3].total == 28
        assert cluster.apps[3].history == cluster.apps[0].history


class TestCandidateSelection:
    """The install step must not depend on reply arrival order."""

    def make_reply(self, sender, state, log_op, cid=6):
        from repro.smart.messages import ClientRequest

        batch = [ClientRequest(client_id=900 + sender, sequence=0, operation=log_op)]
        return StateReply(
            sender=sender,
            checkpoint_cid=5,
            state=state,
            state_hash=state_digest(state),
            log=[(cid, batch)],
            last_cid=cid,
        )

    def test_lowest_replica_id_wins_regardless_of_arrival(self, cluster):
        """Replies agree on (checkpoint, hash, last_cid) but differ in
        their log field; the reply from the lowest replica id must be
        the one replayed, whatever order the replies arrived in."""
        replica = cluster.replicas[3]
        replica.state_transfer.in_progress = True
        state = {"total": 10, "history": [10]}
        # arrival order 1 then 2: the pre-fix code installed from the
        # *triggering* (last-arriving) reply, i.e. sender 2's log
        replica.state_transfer.on_state_reply(1, self.make_reply(1, state, log_op=7))
        replica.state_transfer.on_state_reply(2, self.make_reply(2, state, log_op=9))
        assert replica.last_executed == 6
        assert cluster.apps[3].total == 17  # checkpoint 10 + sender 1's op 7
        assert cluster.apps[3].history[-1] == 7

    def test_corrupt_lowest_reply_skipped_for_next_verified(self, cluster):
        """A lowest-id reply whose shipped state fails its own digest
        is skipped; the next verified reply (by id) installs."""
        replica = cluster.replicas[3]
        replica.state_transfer.in_progress = True
        state = {"total": 10, "history": [10]}
        bad = self.make_reply(1, state, log_op=7)
        bad = StateReply(
            sender=1,
            checkpoint_cid=bad.checkpoint_cid,
            state={"total": -1, "history": [-1]},  # does not match hash
            state_hash=bad.state_hash,
            log=bad.log,
            last_cid=bad.last_cid,
        )
        replica.state_transfer.on_state_reply(1, bad)
        replica.state_transfer.on_state_reply(2, self.make_reply(2, state, log_op=9))
        assert replica.last_executed == 6
        assert cluster.apps[3].total == 19  # sender 2's log replayed
