"""Unit tests of the SmartBFT node's resolved-once state and leader queue.

``smart2/node.py`` resolves what a view fixes when the view is
installed (``leader`` / ``is_leader`` are plain attributes) and queues
cut batches in deques.  These tests hold both to their definitions:

- the leader memo equals ``leader_for(view_number)`` after *every*
  delivered message and every other event, through three leader
  crashes (one amnesiac), the blacklists the NewViews carry, and a
  NewView whose blacklist makes the rotation skip a slot;
- a 500-batch backlog is proposed in exactly the order it was cut.

The helpers that craft signed protocol messages are shared with
``tests/properties/test_props_smartbft_votes.py`` and
``tests/test_derive_once.py``.
"""

from typing import List, Tuple

from repro.fabric.block import BlockHeader, compute_data_hash
from repro.fabric.envelope import Envelope
from repro.smart.messages import ClientRequest
from repro.smart2.messages import Commit, NewView, Preprepare, ViewChange
from repro.smart2.node import preprepare_payload
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


def signed_view_change(service, sender: int, new_view: int, suspected: int) -> ViewChange:
    vote = ViewChange(
        sender=sender, new_view=new_view, last_seq=-1, suspected=suspected,
        reason="timeout", prepared=None,
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
class TestLeaderQueues:
    def test_a_500_batch_backlog_is_proposed_in_cut_order(self):
        """2 000 requests reach the leader in one instant: one proposal
        goes out, 499 batches queue behind it, and they are decided in
        the order they were cut, each request in its arrival order --
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
        assert leader._proposing_seq == 0
        assert len(leader._batch_queue) == 499
        assert [len(queued) for _channel, queued in leader._batch_queue] == [4] * 499
        service.run(20.0)
        decided = [
            request.request_id
            for decision in leader._decisions
            for request in decision.batch
        ]
        assert decided == [request.request_id for request in batch]
        assert not leader._batch_queue and not leader._req_by_env
        assert {node.next_commit_seq for node in service.nodes} == {500}

    def test_the_queues_are_emptied_by_a_view_install_and_by_amnesia(self):
        service = build(request_timeout=30.0)
        leader = service.nodes[0]
        for request in requests(range(40)):
            leader.deliver(1000, request)
        assert len(leader._batch_queue) == 9 and leader._req_by_env == {}
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
        leader._batch_queue.append((CHANNEL, requests([99])))  # still a deque
        assert leader._batch_queue.popleft()[0] == CHANNEL
        leader._batch_queue.append((CHANNEL, requests([99])))
        leader.crash(amnesia=True)
        leader.recover()
        assert not leader._batch_queue and leader._batch_queue.maxlen is None
