"""Unit tests of the SmartBFT node's resolved-once state, leader queue
and proposal window.

``smart2/node.py`` resolves what a view fixes when the view is
installed (``leader`` / ``is_leader`` are plain attributes), queues
cut batches in deques and keeps up to ``PROPOSAL_WINDOW`` proposals in
flight.  These tests hold all three to their definitions:

- the leader memo equals ``leader_for(view_number)`` after *every*
  delivered message and every other event, through three leader
  crashes (one amnesiac), the blacklists the NewViews carry, and a
  NewView whose blacklist makes the rotation skip a slot;
- a 500-batch backlog is proposed in exactly the order it was cut,
  never more than a window of it undecided;
- a pre-prepare that overtakes its predecessor is held, not dropped;
- a view change carries a certificate for every prepared round of the
  window and the new leader re-proposes them in order, stopping at the
  first gap -- and carrying only the first certificate would fork;
- re-proposed requests are not cut into a second block;
- the leader's batch timer is reset by a count cut, and a leader that
  recovers (without amnesia) with envelopes in its cutter re-arms it;
- a follower's watchdog re-forwards what a censoring leader ignores,
  then votes it out, and gives the next leader a full timeout.

The helpers that craft signed protocol messages are shared with
``tests/properties/test_props_smartbft_votes.py`` and
``tests/test_derive_once.py``.
"""

import dataclasses
from typing import List, Tuple

import pytest

from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockHeader, compute_data_hash
from repro.fabric.envelope import Envelope
from repro.smart.batching import ExecutedRequests
from repro.smart.messages import ClientRequest
from repro.smart2.messages import (
    BlockPull, BlockPush, Commit, Forward, NewView, Prepare, Preprepare, ViewChange,
)
from repro.smart2.node import PROPOSAL_WINDOW, SmartBFTNode, preprepare_payload
from tests.conftest import smartbft_ledger
from tests.test_smartbft_vote_pins import build_service

CHANNEL = "ch0"


def build(f: int = 1, delta: int = 0, block_size: int = 4, **config):
    """The pinned runs' deployment without the CPU model: signing is
    synchronous, so a test that calls handlers directly (and never runs
    the simulator) sees the whole effect of a vote when the call
    returns."""
    config.setdefault("physical_cores", None)
    config.setdefault("request_timeout", 0.5)
    return build_service(f, block_size, delta=delta, **config)


def requests(ids, client_id: int = 1000) -> List[ClientRequest]:
    return [
        ClientRequest(
            client_id=client_id,
            sequence=i,
            operation=Envelope(
                channel_id=CHANNEL, transaction=None, payload_size=100 + i, envelope_id=i
            ),
            size_bytes=100 + i,
        )
        for i in ids
    ]


def identity_of(service, pid: int):
    return service.registry.get(service.nodes[pid].peer_names[pid])


def signed_preprepare(
    service, leader: int, view_number: int, seq: int, number: int,
    previous_hash: bytes, batch: List[ClientRequest],
) -> Tuple[Preprepare, BlockHeader]:
    """What an honest ``leader`` would broadcast for ``batch``."""
    header = BlockHeader(
        number=number,
        previous_hash=previous_hash,
        data_hash=compute_data_hash([r.operation for r in batch]),
    )
    message = Preprepare(
        sender=leader, view_number=view_number, seq=seq, channel_id=CHANNEL,
        number=number, previous_hash=previous_hash, batch=batch,
    )
    message.signature = identity_of(service, leader).sign(
        preprepare_payload(view_number, seq, header.digest())
    )
    return message, header


def signed_commit(service, sender: int, view_number: int, seq: int, digest: bytes) -> Commit:
    return Commit(
        sender=sender, view_number=view_number, seq=seq, header_digest=digest,
        signature=identity_of(service, sender).sign(digest),
    )


def signed_view_change(
    service, sender: int, new_view: int, suspected: int, certificates=()
) -> ViewChange:
    vote = ViewChange(
        sender=sender, new_view=new_view, last_seq=-1, suspected=suspected,
        reason="timeout", prepared=tuple(certificates),
    )
    vote.signature = identity_of(service, sender).sign(vote.signing_payload())
    return vote


# ----------------------------------------------------------------------
# the leader memo
# ----------------------------------------------------------------------
def assert_leader_memo(node) -> None:
    assert node.leader == node.leader_for(node.view_number), (
        node.replica_id, node.view_number, node._blacklist
    )
    assert node.is_leader is (node.leader == node.replica_id and not node._changing)


def check_every_delivery(node, seen: set) -> None:
    """Wrap ``node.deliver`` (the network calls it on the instance) so
    the memo is compared with its definition after every message."""
    inner = node.deliver

    def deliver(src, message):
        inner(src, message)
        assert_leader_memo(node)
        seen.add((node.replica_id, node.view_number, node.leader, node.is_leader,
                  node._changing))

    node.deliver = deliver


class TestLeaderMemo:
    def test_memo_equals_its_definition_after_every_message(self):
        """n=4 under load; the leaders of views 0, 1 and 2 crash in
        turn (the first with amnesia) and recover: every node installs
        three NewViews and adopts their blacklists, one of them after
        rebuilding from genesis."""
        service = build(physical_cores=8)
        sim = service.sim
        for k, request in enumerate(requests(range(300))):
            sim.schedule_at(0.05 + k * 0.04, service.submit, request.operation, k % 2)
        for index, down, up, amnesia in ((0, 0.2, 3.0, True), (1, 4.0, 7.0, False),
                                         (2, 8.0, 11.0, False)):
            sim.schedule_at(down, service.crash_node, index, amnesia)
            sim.schedule_at(up, service.recover_node, index)
        seen: set = set()
        for node in service.nodes:
            check_every_delivery(node, seen)

        def every_event() -> bool:  # timers, crashes and recoveries too
            for node in service.nodes:
                assert_leader_memo(node)
            return False

        sim.run_until(every_event, 14.0)
        for node in service.nodes:
            assert node.installed_views == [(0, 0), (1, 1), (2, 2), (3, 3)]
            assert node.blacklist_events == [(0, 1, 5), (1, 2, 6), (2, 3, 7)]
        assert service.frontends[0].blocks_delivered > 60
        # each node led exactly its own view, and was seen mid-change
        for pid in range(4):
            states = {state[1:] for state in seen if state[0] == pid}
            assert {view for view, _l, leading, _c in states if leading} == {pid}
            assert {leader for _v, leader, _i, _c in states} == {0, 1, 2, 3}
            assert any(changing for _v, _l, _i, changing in states)
            assert not any(leading and changing for _v, _l, leading, changing in states)

    def test_a_new_view_whose_blacklist_skips_a_slot(self):
        """View 4 of n=4 is slot 0 again; a NewView that blacklists 0
        makes node 1 the leader, and every follower's memo says so."""
        service = build()
        proof = tuple(signed_view_change(service, sender, 4, 0) for sender in (1, 2, 3))
        announcement = NewView(sender=1, new_view=4, proof=proof, blacklist=((0, 8),))
        announcement.signature = identity_of(service, 1).sign(
            announcement.signing_payload()
        )
        seen: set = set()
        for node in service.nodes:
            check_every_delivery(node, seen)
            assert (node.leader, node.is_leader) == (0, node.replica_id == 0)
        for pid in (0, 2, 3):
            service.nodes[pid].deliver(1, announcement)
        for pid in (0, 2, 3):
            node = service.nodes[pid]
            assert node.view_number == 4 and node.view.processes[4 % 4] == 0
            assert (node.leader, node.is_leader) == (1, False)
            assert node.installed_views[-1] == (1, 4)
        # the same announcement naming the raw slot's owner is refused
        forged = NewView(sender=0, new_view=5, proof=tuple(
            signed_view_change(service, sender, 5, 1) for sender in (0, 2, 3)
        ), blacklist=((0, 8),))
        forged.signature = identity_of(service, 0).sign(forged.signing_payload())
        service.nodes[2].deliver(0, forged)
        assert service.nodes[2].view_number == 4 and service.nodes[2].leader == 1


# ----------------------------------------------------------------------
# the leader's queues
# ----------------------------------------------------------------------
def proposed(node) -> List[int]:
    """Sequence numbers of the node's accepted, undecided pre-prepares."""
    return sorted(seq for seq, round_ in node._rounds.items() if round_.preprepare)


class TestLeaderQueues:
    def test_a_500_batch_backlog_is_proposed_in_cut_order(self):
        """2 000 requests reach the leader in one instant: a window of
        proposals goes out, the other batches queue behind it, no more
        than ``PROPOSAL_WINDOW`` are ever undecided, and they are decided
        in the order they were cut, each request in its arrival order --
        including the requests that carry one envelope id twice."""
        service = build(request_timeout=30.0)
        leader = service.nodes[0]
        batch = requests(range(2000))
        # the same envelope under a second request id, as a duplicate
        # flood relays it: both wait under one envelope id, oldest first
        for k in (5, 6, 7, 8):
            batch[1000 + k] = ClientRequest(
                client_id=1001, sequence=k, operation=batch[k].operation,
                size_bytes=batch[k].size_bytes,
            )
        for request in batch:
            leader.deliver(1000, request)
        assert proposed(leader) == list(range(PROPOSAL_WINDOW))
        assert len(leader._batch_queue) == 500 - PROPOSAL_WINDOW
        assert [len(queued) for _channel, queued in leader._batch_queue] == [4] * (
            500 - PROPOSAL_WINDOW
        )
        in_flight = set()

        def watch() -> bool:
            undecided = proposed(leader)
            assert undecided == list(range(leader.next_commit_seq, leader.next_commit_seq
                                           + len(undecided)))
            in_flight.add(len(undecided))
            return False

        service.sim.run_until(watch, 20.0)
        assert max(in_flight) == PROPOSAL_WINDOW
        decided = [
            request.request_id
            for _seq, _block, decided_batch in smartbft_ledger(leader)
            for request in decided_batch
        ]
        assert decided == [request.request_id for request in batch]
        assert not leader._batch_queue and not leader._req_by_env
        assert {node.next_commit_seq for node in service.nodes} == {500}

    def test_the_queues_are_emptied_by_a_view_install_and_by_amnesia(self):
        service = build(request_timeout=30.0)
        leader = service.nodes[0]
        for request in requests(range(40)):
            leader.deliver(1000, request)
        assert len(leader._batch_queue) == 10 - PROPOSAL_WINDOW and leader._req_by_env == {}
        assert len(leader._accepted_ids) == 4 * PROPOSAL_WINDOW
        assert leader._committed_ids == ExecutedRequests()
        leader.deliver(1000, requests([40])[0])  # waits in the cutter
        assert list(leader._req_by_env) == [40]
        proof = tuple(signed_view_change(service, sender, 1, 0) for sender in (1, 2, 3))
        announcement = NewView(sender=1, new_view=1, proof=proof, blacklist=((0, 5),))
        announcement.signature = identity_of(service, 1).sign(
            announcement.signing_payload()
        )
        leader.deliver(1, announcement)
        assert leader.view_number == 1 and not leader.is_leader
        assert not leader._batch_queue and not leader._req_by_env
        assert not leader._rounds and not leader._accepted_ids
        assert leader._committed_ids == ExecutedRequests()
        leader._batch_queue.append((CHANNEL, requests([99])))  # still a deque
        assert leader._batch_queue.popleft()[0] == CHANNEL
        leader._batch_queue.append((CHANNEL, requests([99])))
        leader.crash(amnesia=True)
        leader.recover()
        assert not leader._batch_queue and leader._batch_queue.maxlen is None


# ----------------------------------------------------------------------
# the proposal window across view changes
# ----------------------------------------------------------------------
def decided_headers(node) -> List[Tuple[int, bytes, List[int]]]:
    return [
        (seq, block.header.digest(), [e.envelope_id for e in block.envelopes])
        for seq, block, _batch in smartbft_ledger(node)
    ]


def commits_reach_only(pid: int):
    """A network filter: every COMMIT not addressed to ``pid`` is lost."""

    def only(src, dst, payload):
        if isinstance(payload, Commit) and dst != pid:
            return None
        return payload

    return only


def one_certificate_per_vote(node) -> None:
    """Make ``node`` keep only the first certificate of every view-change
    vote it records -- its own included: the rule of a window of one."""
    store = node._store_view_change
    node._store_view_change = lambda vote: store(
        dataclasses.replace(vote, prepared=vote.prepared[:1])
    )


def leader_decides_two_then_crashes(strip: bool = False):
    """n=4, blocks of four.  Leader 0 proposes seq 0 and seq 1 at once;
    every COMMIT is lost except those sent to the leader, so it decides
    both while each follower prepares both and decides neither.  The
    leader crashes; requests 8..11 reach follower 2; the followers
    change the view and node 1 leads view 1."""
    service = build()
    if strip:
        for node in service.nodes:
            one_certificate_per_vote(node)
    leader = service.nodes[0]
    only_leader = commits_reach_only(0)
    service.network.add_filter(only_leader)
    for request in requests(range(8)):
        leader.deliver(1000, request)
    assert proposed(leader) == [0, 1]
    service.run(0.05)  # before the first heartbeat: no catch-up
    assert leader.next_commit_seq == 2
    for node in service.nodes[1:]:
        assert node.next_commit_seq == 0
        assert [(seq, node._rounds[seq].prepared) for seq in proposed(node)] == [
            (0, True), (1, True)
        ]
    service.crash_node(0)
    service.network.remove_filter(only_leader)
    for request in requests(range(8, 12)):
        service.nodes[2].deliver(1000, request)
    service.run(8.0)
    for node in service.nodes[1:]:
        assert node.installed_views == [(0, 0), (1, 1)]
    return service


class TestProposalWindow:
    def test_a_pre_prepare_before_its_predecessor_is_held_then_accepted(self):
        service = build()
        follower = service.nodes[2]
        sent = []
        follower._send = lambda dst, message: sent.append((dst, message))
        follower._broadcast = lambda message: sent.append(("all", message))
        first, header0 = signed_preprepare(
            service, 0, 0, 0, 0, GENESIS_PREVIOUS_HASH, requests(range(4))
        )
        second, header1 = signed_preprepare(
            service, 0, 0, 1, 1, header0.digest(), requests(range(4, 8))
        )
        follower.deliver(0, second)
        assert proposed(follower) == [] and follower._held == {1: second}
        # it also pulls, in case the predecessor was decided without it
        assert [(dst, type(m)) for dst, m in sent] == [(0, BlockPull)]
        follower.deliver(0, second)  # a copy is not held twice
        assert follower._held == {1: second}
        follower.deliver(0, first)
        assert proposed(follower) == [0, 1] and follower._held == {}
        assert [follower._rounds[seq].digest for seq in (0, 1)] == [
            header0.digest(), header1.digest()
        ]
        prepares = [m for _dst, m in sent if isinstance(m, Prepare)]
        assert [(m.seq, m.header_digest) for m in prepares] == [
            (0, header0.digest()), (1, header1.digest())
        ]

    def test_a_pre_prepare_that_does_not_chain_or_replays_is_refused(self):
        service = build()
        follower = service.nodes[2]
        first, header0 = signed_preprepare(
            service, 0, 0, 0, 0, GENESIS_PREVIOUS_HASH, requests(range(4))
        )
        follower.deliver(0, first)
        for number, previous, ids in (
            (1, GENESIS_PREVIOUS_HASH, range(4, 8)),  # chains off committed state
            (2, header0.digest(), range(4, 8)),  # skips a number
            (1, header0.digest(), range(3, 7)),  # replays a request of seq 0
        ):
            message, _header = signed_preprepare(
                service, 0, 0, 1, number, previous, requests(ids)
            )
            follower.deliver(0, message)
            assert proposed(follower) == [0] and not follower._held
        # beyond the window: nothing is accepted or held
        far, _header = signed_preprepare(
            service, 0, 0, PROPOSAL_WINDOW, PROPOSAL_WINDOW, header0.digest(),
            requests(range(8, 12)),
        )
        follower.deliver(0, far)
        assert proposed(follower) == [0] and not follower._held

    def test_a_caught_up_block_applies_the_decided_round_behind_it(self):
        """Seq 1 gathers its commit quorum while seq 0 has not; seq 0
        then arrives by catch-up.  Both apply, and no round is left."""
        service = build()
        follower = service.nodes[2]
        first, header0 = signed_preprepare(
            service, 0, 0, 0, 0, GENESIS_PREVIOUS_HASH, requests(range(4))
        )
        second, header1 = signed_preprepare(
            service, 0, 0, 1, 1, header0.digest(), requests(range(4, 8))
        )
        follower.deliver(0, first)
        follower.deliver(0, second)
        for src in (0, 1, 3):
            follower.deliver(src, signed_commit(service, src, 0, 1, header1.digest()))
        assert follower._rounds[1].committed and follower.next_commit_seq == 0
        names = follower.peer_names
        block0 = Block(
            header=header0,
            envelopes=[r.operation for r in first.batch],
            signatures={
                names[src]: signed_commit(service, src, 0, 0, header0.digest()).signature
                for src in (0, 1, 3)
            },
            channel_id=CHANNEL,
        )
        follower.deliver(0, BlockPush(sender=0, decisions=((0, block0, tuple(first.batch)),)))
        assert follower.next_commit_seq == 2 and follower._rounds == {}
        assert [digest for _seq, digest, _ids in decided_headers(follower)] == [
            header0.digest(), header1.digest()
        ]

    def test_a_new_view_re_proposes_every_prepared_round_with_its_header(self):
        service = leader_decides_two_then_crashes()
        committed = decided_headers(service.nodes[0])
        assert [ids for _seq, _digest, ids in committed] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        for node in service.nodes[1:]:
            assert decided_headers(node)[:2] == committed
            assert decided_headers(node)[2][2] == [8, 9, 10, 11]

    def test_one_certificate_per_view_change_forks_the_chain(self):
        """The same run when a view change carries only the certificate
        of ``next_commit_seq``: the new leader re-proposes seq 0 and cuts
        seq 1 afresh, so the followers decide another block at seq 1
        than the one the crashed leader decided."""
        service = leader_decides_two_then_crashes(strip=True)
        committed = decided_headers(service.nodes[0])
        for node in service.nodes[1:]:
            decided = decided_headers(node)
            assert decided[0] == committed[0]
            assert decided[1][0] == 1 and decided[1][1] != committed[1][1]
            assert decided[1][2] == [8, 9, 10, 11]

    def test_a_certificate_without_its_predecessor_stops_the_re_proposal(self):
        service = build()
        new_leader = service.nodes[1]
        first, header0 = signed_preprepare(
            service, 0, 0, 0, 0, GENESIS_PREVIOUS_HASH, requests(range(4))
        )
        second, _header1 = signed_preprepare(
            service, 0, 0, 1, 1, header0.digest(), requests(range(4, 8))
        )
        for sender in (2, 3):
            vote = signed_view_change(service, sender, 1, 0, [(second, (0, 2, 3))])
            new_leader.deliver(sender, vote)
        assert new_leader.installed_views == [(0, 0), (1, 1)] and new_leader.is_leader
        assert proposed(new_leader) == []
        # with seq 0's certificate in the quorum both are re-proposed
        service = build()
        new_leader = service.nodes[1]
        for sender, certificates in ((2, [(first, (0, 2, 3)), (second, (0, 2, 3))]),
                                     (3, [(second, (0, 2, 3))])):
            new_leader.deliver(sender, signed_view_change(service, sender, 1, 0, certificates))
        assert proposed(new_leader) == [0, 1]
        assert [new_leader._rounds[seq].preprepare.batch for seq in (0, 1)] == [
            first.batch, second.batch
        ]

    @pytest.mark.xfail(
        strict=True,
        reason="ViewChange.signing_payload does not cover `prepared`, a "
        "PreparedCert names prepare voters without their signed PREPAREs, and "
        "_repropose_from_proof does not verify the certificate's pre-prepare "
        "signature: one Byzantine voter's fabricated higher-view certificate "
        "wins value selection (docs/SMARTBFT.md, departures)",
    )
    def test_a_fabricated_higher_view_certificate_is_not_re_proposed(self):
        service = build()
        new_leader = service.nodes[1]
        honest, _header = signed_preprepare(
            service, 0, 0, 0, 0, GENESIS_PREVIOUS_HASH, requests(range(4))
        )
        fabricated = Preprepare(
            sender=3, view_number=7, seq=0, channel_id=CHANNEL, number=0,
            previous_hash=GENESIS_PREVIOUS_HASH, batch=requests(range(90, 94)),
            signature=b"\x00" * 64,
        )
        new_leader.deliver(2, signed_view_change(service, 2, 1, 0, [(honest, (0, 1, 2))]))
        new_leader.deliver(3, signed_view_change(service, 3, 1, 0, [(fabricated, (0, 1, 2))]))
        assert new_leader.installed_views[-1] == (1, 1)
        assert new_leader._rounds[0].preprepare.batch == honest.batch

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12b: _repropose_from_proof keeps the first "
        "certificate of equal view in sender order, so a second pre-prepare "
        "that view 0's leader signed wins when its voter reports first; "
        "item 12a's view bound and signature check leave this open",
    )
    def test_an_equivocated_same_view_certificate_is_not_re_proposed(self):
        """View 0's leader signs two pre-prepares for seq 0, as an
        equivocating leader could.  Voter 2 reports the second one with
        voters (0, 1, 2); voter 3 reports the honest one.  Both are at
        view 0, below the view change, and carry the leader's valid
        signature."""
        service = build()
        new_leader = service.nodes[1]
        honest, _header = signed_preprepare(
            service, 0, 0, 0, 0, GENESIS_PREVIOUS_HASH, requests(range(4))
        )
        equivocated, _header = signed_preprepare(
            service, 0, 0, 0, 0, GENESIS_PREVIOUS_HASH, requests(range(90, 94))
        )
        new_leader.deliver(2, signed_view_change(service, 2, 1, 0, [(equivocated, (0, 1, 2))]))
        new_leader.deliver(3, signed_view_change(service, 3, 1, 0, [(honest, (0, 1, 2))]))
        assert new_leader.installed_views[-1] == (1, 1)
        assert new_leader._rounds[0].preprepare.batch == honest.batch


def prepared_then_the_leader_crashes():
    """n=4: requests 0..3 reach follower 1, which forwards them; leader
    0 proposes them and every node prepares, but every COMMIT is lost.
    The leader crashes and node 1 installs view 1 as its leader."""
    service = build()
    lost = commits_reach_only(None)
    service.network.add_filter(lost)
    for request in requests(range(4)):
        service.nodes[1].deliver(1000, request)
    service.run(0.05)  # before the first heartbeat: no catch-up
    assert all(proposed(node) == [0] for node in service.nodes)
    assert {node.next_commit_seq for node in service.nodes} == {0}
    service.crash_node(0)
    service.network.remove_filter(lost)
    new_leader = service.nodes[1]
    service.sim.run_until(lambda: new_leader.view_number == 1, 8.0)
    assert new_leader.is_leader
    return service, new_leader


class TestReproposedRequests:
    def test_re_proposed_requests_are_not_cut_again(self):
        """Node 1 re-proposes the prepared batch, then re-ingests what it
        has pending -- the same four requests, which must not reach its
        cutter a second time; the view then orders new requests."""
        service, new_leader = prepared_then_the_leader_crashes()
        assert proposed(new_leader) == [0]
        assert sorted(r.request_id for r in new_leader.pending.peek_all()) == [
            r.request_id for r in requests(range(4))
        ]
        assert not new_leader._batch_queue and len(new_leader._channels[CHANNEL].cutter) == 0
        for request in requests(range(4, 8)):
            new_leader.deliver(1000, request)
        service.run(3.0)
        for node in service.nodes[1:]:
            assert [ids for _seq, _digest, ids in decided_headers(node)] == [
                [0, 1, 2, 3], [4, 5, 6, 7]
            ]
            assert node.installed_views == [(0, 0), (1, 1)]

    def test_without_marking_them_seen_the_leader_cuts_them_again(self, monkeypatch):
        """The same run with the re-proposed requests left unmarked (the
        rule of a window of one): the pending requests reach the cutter again, the
        leader proposes them a second time at seq 1, every follower
        refuses that block as a replay and the view orders nothing more."""
        reproposed = SmartBFTNode._repropose_from_proof

        def forgetful(self, msg):
            reproposed(self, msg)
            for seq in proposed(self):
                self._leader_seen.difference_update(
                    r.request_id for r in self._rounds[seq].preprepare.batch
                )

        monkeypatch.setattr(SmartBFTNode, "_repropose_from_proof", forgetful)
        service, new_leader = prepared_then_the_leader_crashes()
        batches = [
            [r.request_id for r in new_leader._rounds[seq].preprepare.batch]
            for seq in proposed(new_leader)
        ]
        assert batches == [[r.request_id for r in requests(range(4))]] * 2
        for node in service.nodes[2:]:
            assert proposed(node) == [0]  # the replay is refused
        for request in requests(range(4, 8)):
            new_leader.deliver(1000, request)
        service.run(3.0)
        for node in service.nodes[1:]:
            assert [ids for _seq, _digest, ids in decided_headers(node)] == [[0, 1, 2, 3]]


class TestFollowerWatchdog:
    def test_re_forward_censorship_vote_then_a_new_clock(self):
        """Nodes 0 and 1 censor client 1000, so the view change that
        deposes leader 0 installs another censor.  Requests 1 then 0
        reach the followers at 0.1 s and 0.3 s.  Follower 2's first tick
        past ``T`` from the older arrival re-forwards both, in request-id
        order; its first tick past ``2T`` votes "censorship"; after
        view 1 installs, no censorship vote fires before ``2T`` from the
        install, and one fires at the first tick past it."""
        T = 1.0
        service = build(request_timeout=T)
        sim, node = service.sim, service.nodes[2]
        for pid in (0, 1):
            service.nodes[pid].faults.censor_clients = {1000}
        forwards, votes, installs = [], [], []
        send, broadcast, install = node._send, node._broadcast, node._install_view

        def sent(dst, message):
            if isinstance(message, Forward):
                forwards.append((sim.now, dst, message.request.request_id))
            send(dst, message)

        def broadcast_watched(message):
            if isinstance(message, ViewChange):
                votes.append((sim.now, message.new_view, message.reason))
            broadcast(message)

        def installed(message):
            installs.append((sim.now, message.new_view))
            install(message)

        node._send, node._broadcast, node._install_view = sent, broadcast_watched, installed
        late, early = requests([1, 0])
        for at, request in ((0.1, late), (0.3, early)):
            for pid in (1, 2, 3):
                sim.schedule_at(at, service.nodes[pid].deliver, 1000, request)
        sim.run_until(lambda: len(votes) == 2, 10.0)
        tick = node.heartbeat_interval
        ids = [early.request_id, late.request_id]

        # arrival forwards, then the first tick past T re-forwards both
        assert forwards[:2] == [(0.1, 0, late.request_id), (0.3, 0, early.request_id)]
        resend_at = forwards[2][0]
        assert resend_at - 0.1 > T >= resend_at - tick - 0.1
        # every re-send, to either leader, goes in request-id order
        resends = forwards[2:]
        for at in sorted({at for at, _dst, _rid in resends}):
            assert [rid for when, _dst, rid in resends if when == at] == ids

        # the first tick past 2T votes the censor out
        (voted_at, view, reason), (second_at, second_view, second_reason) = votes
        assert (view, reason) == (1, "censorship")
        assert voted_at - 0.1 > 2 * T >= voted_at - tick - 0.1
        assert {dst for at, dst, _rid in resends if at < voted_at} == {0}

        # view 1 installs; its clocks start at the install
        (installed_at, installed_view), = installs
        assert installed_view == 1 and node.leader == 1
        assert {dst for at, dst, _rid in resends if at > voted_at} == {1}
        assert (second_view, second_reason) == (2, "censorship")
        assert second_at - installed_at > 2 * T >= second_at - tick - installed_at


class TestDurableCommit:
    @pytest.mark.parametrize("physical_cores", [None, 8])
    def test_a_commit_leaves_only_once_its_accept_record_is_durable(self, physical_cores):
        """fsync-before-send, as BFT-SMaRt's ACCEPT: with a CPU model the
        signature is a pool job, and a 10 us one finishes long before the
        500 us ACCEPT fsync -- the COMMIT still waits for the fsync."""
        service = build(physical_cores=physical_cores, durable_wal=True, sign_cost=1e-5)
        sim, node = service.sim, service.nodes[1]
        durable, sent = {}, []
        log_accept, broadcast = node.log.log_accept, node._broadcast

        def logged(seq, view_number, digest):
            delay = log_accept(seq, view_number, digest)
            durable[seq] = sim.now + delay
            return delay

        def watched(message):
            if isinstance(message, Commit):
                sent.append((message.seq, sim.now))
            broadcast(message)

        node.log.log_accept, node._broadcast = logged, watched
        for request in requests(range(8)):
            service.submit(request.operation)
        service.run(1.0)
        assert [seq for seq, _at in sent] == [0, 1]
        for seq, at in sent:
            assert at >= durable[seq]


# ----------------------------------------------------------------------
# the leader's batch timer (Fabric solo's rule, ordering/blockcutter.py)
# ----------------------------------------------------------------------
def decided_ids(node) -> List[List[int]]:
    return [ids for _seq, _digest, ids in decided_headers(node)]


class TestLeaderBatchTimer:
    def test_a_count_cut_resets_the_timer(self):
        """batch_timeout 0.25: envelope 0 reaches the leader at 0.0 and
        envelopes 1-4 at 0.2.  The count cut of 0-3 resets the timer, so
        envelope 4 waits a full timeout from 0.2, not from 0.0."""
        service = build()
        leader = service.nodes[0]
        batch = requests(range(5))
        service.sim.schedule_at(0.0, leader.deliver, 1000, batch[0])
        for request in batch[1:]:
            service.sim.schedule_at(0.2, leader.deliver, 1000, request)
        service.run(0.3)
        assert [e.envelope_id for e in leader._channels[CHANNEL].cutter._pending] == [4]
        service.run(0.2)
        assert decided_ids(leader) == [[0, 1, 2, 3], [4]]

    def test_a_recovered_leader_cuts_what_its_cutter_kept(self):
        """The leader crashes at 0.1 without amnesia, holding envelope 0
        in its cutter, and recovers at 1.0, before any follower suspects
        it (heartbeat timeout 2 s): the crash stopped the timer, the
        recovery re-arms it, and the envelope is cut a full timeout after
        the recovery."""
        service = build(request_timeout=2.0)
        leader = service.nodes[0]
        leader.deliver(1000, requests([0])[0])
        service.sim.schedule_at(0.1, service.crash_node, 0)
        service.sim.schedule_at(1.0, service.recover_node, 0)
        service.run(1.2)
        assert len(leader._channels[CHANNEL].cutter) == 1 and leader.next_commit_seq == 0
        service.run(0.3)
        for node in service.nodes:
            assert decided_ids(node) == [[0]]
            assert node.installed_views == [(0, 0)]
