"""What a SmartBFT node keeps of a decided block, and what it shares.

Every node keeps its whole ledger: a frontend whose home node goes
quiet fails over to the next node and re-subscribes from its own
delivered count, which may lie far below that node's tip, so a node
that forgot old decisions would leave the frontend's chain with a gap.
What a node keeps per decision is only what belongs to it: the decided
pre-prepare (one message every node received, which already holds the
header, the envelope list and the batch) or the catch-up entry that
carried the decision, and its own quorum signatures as a flat
``(name, signature, ...)`` tuple in voter order.  The block a frontend
or a pulling node receives is built from those two when it is served.
"""

import gc
import tracemalloc
from dataclasses import replace

from repro.fabric.block import Block
from repro.fabric.blockpolicy import valid_signers
from repro.ordering.backends import OpenLoop, ScenarioRow, stand_up
from repro.smart2.messages import Preprepare
from repro.smart2.node import CATCHUP_BATCH

REQUEST_TIMEOUT = 0.4
#: n=4 offered 400 blocks/s: when the frontend of a crashed home node
#: fails over, the next node's tip is more than CATCHUP_BATCH past it
ROW = ScenarioRow(
    backend="smartbft",
    num_frontends=2,
    request_timeout=REQUEST_TIMEOUT,
    load=OpenLoop(1600.0, 3.0),
)
#: a shorter, fault-free run of the same deployment
QUIET = replace(ROW, seed=3, load=OpenLoop(800.0, 0.5))


def test_a_failed_over_frontend_backfills_every_block_from_the_next_node():
    up = stand_up(ROW)
    service = up.service
    frontend = service.frontends[1]
    relay = frontend.relay
    home = relay._nodes[relay._home_index]
    assert home != service.nodes[0].leader
    numbers = []
    frontend.on_block.append(lambda block: numbers.append(block.number))
    # how far below the new node's tip each re-subscription starts
    behind = []
    subscribe = relay.start

    def resubscribe():
        node = service.nodes[relay._nodes[relay._subscribed_index]]
        behind.append(len(node._sources) - relay._delivered_count)
        subscribe()

    relay.start = resubscribe
    up.sim.post_at(0.5, service.crash_node, home)
    up.sim.post_at(0.5 + 2.5 * REQUEST_TIMEOUT, service.recover_node, home)
    up.sim.run(until=ROW.load.end + 2.0)

    assert relay.failovers == len(behind) >= 1
    assert max(behind) > CATCHUP_BATCH
    decided = len(service.nodes[0]._sources)
    assert numbers == list(range(decided))
    assert all(len(node._sources) == decided for node in service.nodes)
    assert frontend.ledger_digest() == service.frontends[0].ledger_digest()
    assert service.total_delivered() == service.total_submitted()
    # the recovered node caught up by pull: it keeps each pushed entry
    # whole and serves it as it came, with no signatures of its own
    recovered = service.nodes[home]
    pushed = [
        seq for seq, source in enumerate(recovered._sources)
        if source.__class__ is not Preprepare
    ]
    assert pushed
    for seq in pushed:
        assert recovered._decision(seq) is recovered._sources[seq]
        assert recovered._signatures[seq] == ()


def test_every_node_shares_the_block_body_and_keeps_its_own_signatures():
    up = stand_up(QUIET)
    up.sim.run(until=1.0)
    nodes = up.service.nodes
    decided = len(nodes[0]._sources)
    assert decided > 50
    assert all(len(node._sources) == decided for node in nodes)
    ids = {name: pid for pid, name in nodes[0].peer_names.items()}
    for seq in range(decided):
        source = nodes[0]._sources[seq]
        assert source.__class__ is Preprepare and source.seq == seq
        assert all(node._sources[seq] is source for node in nodes)
        header, envelopes = source.header(), source.envelopes()
        assert len({id(node._signatures[seq]) for node in nodes}) == len(nodes)
        for node in nodes:
            signatures = node._signatures[seq]
            names = list(signatures[::2])
            voters = [ids[name] for name in names]
            assert voters == sorted(set(voters))
            assert node.view.has_quorum(voters)
            # what leaves the node: a fresh block of the shared header and
            # envelope list, signed by exactly this node's voters in order
            served_seq, block, batch = node._decision(seq)
            assert served_seq == seq and batch is source.batch
            assert block == Block(
                header=header,
                envelopes=envelopes,
                signatures=dict(zip(names, signatures[1::2])),
                channel_id=source.channel_id,
            )
            assert block.header is header and block.envelopes is envelopes
            assert list(block.signatures) == names
            assert valid_signers(block, node.registry, ids) == names
        # the derivation is the block's content, never a stale memo
        proposal = Preprepare(
            sender=0, view_number=0, seq=seq, channel_id=source.channel_id,
            number=source.number, previous_hash=source.previous_hash,
            batch=source.batch,
        )
        assert proposal.header() == header
        assert proposal.envelopes() == envelopes
        other = replace(proposal, batch=source.batch + source.batch[:1])
        assert other.header() != proposal.header()
        assert other.header().number == proposal.header().number


def test_a_decision_costs_a_node_under_two_hundred_bytes():
    """What one node alone keeps per decision: its signature tuple (88 B
    at n=4), two ledger slots, and -- about every other decision -- its
    own COMMIT signature (97 B) when no other node's quorum counted it;
    about 150 B.  A per-node ``Block`` with its name-keyed signature dict
    and cached size, and a wrapper per decision, cost about 440 B.
    Measured as the traced memory a follower's ledger frees when it is
    dropped, the other nodes still holding the shared pre-prepares."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        up = stand_up(QUIET)
        up.sim.run(until=1.0)
        node = up.service.nodes[1]
        decided = node.next_commit_seq
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        node._sources = []
        node._signatures = []
        gc.collect()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    assert decided > 50
    assert freed / decided < 200
