"""What a SmartBFT node keeps of a decided block, and what it shares.

Every node keeps its whole ledger (``_decisions``): a frontend whose
home node goes quiet fails over to the next node and re-subscribes from
its own delivered count, which may lie far below that node's tip, so a
node that forgot old decisions would leave the frontend's chain with a
gap.  What a node does not keep is its own copy of the block body: the
one pre-prepare every node received already holds the header, the
envelope list and the batch, and each node's decided block shares them.
Only the quorum signatures are per node.
"""

from dataclasses import replace

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
        behind.append(len(node._decisions) - relay._delivered_count)
        subscribe()

    relay.start = resubscribe
    up.sim.post_at(0.5, service.crash_node, home)
    up.sim.post_at(0.5 + 2.5 * REQUEST_TIMEOUT, service.recover_node, home)
    up.sim.run(until=ROW.load.end + 2.0)

    assert relay.failovers == len(behind) >= 1
    assert max(behind) > CATCHUP_BATCH
    decided = len(service.nodes[0]._decisions)
    assert numbers == list(range(decided))
    assert all(len(node._decisions) == decided for node in service.nodes)
    assert frontend.ledger_digest() == service.frontends[0].ledger_digest()
    assert service.total_delivered() == service.total_submitted()


def test_every_node_shares_the_block_body_and_keeps_its_own_signatures():
    up = stand_up(replace(ROW, seed=3, load=OpenLoop(800.0, 0.5)))
    up.sim.run(until=1.0)
    nodes = up.service.nodes
    ledgers = [node._decisions for node in nodes]
    assert len(ledgers[0]) > 50
    assert all(len(ledger) == len(ledgers[0]) for ledger in ledgers)
    for entries in zip(*ledgers):
        first = entries[0]
        assert all(d.seq == first.seq for d in entries)
        assert all(d.block.header is first.block.header for d in entries)
        assert all(d.block.envelopes is first.block.envelopes for d in entries)
        assert all(d.batch is first.batch for d in entries)
        assert len({id(d.block) for d in entries}) == len(nodes)
        assert len({id(d.block.signatures) for d in entries}) == len(nodes)
        # the derivation is the block's content, never a stale memo
        proposal = Preprepare(
            sender=0, view_number=0, seq=first.seq, channel_id=first.channel_id,
            number=first.block.number, previous_hash=first.block.header.previous_hash,
            batch=first.batch,
        )
        assert proposal.header() == first.block.header
        assert proposal.envelopes() == first.block.envelopes
        other = replace(proposal, batch=first.batch + first.batch[:1])
        assert other.header() != proposal.header()
        assert other.header().number == proposal.header().number
