"""Property tests for the SmartBFT backend's leader-rotation defenses.

Randomized censorship and crash schedules (seeded, deterministic)
against a four-node cluster, asserting two paper-level properties:

1. **censorship resistance** -- a client whose requests a Byzantine
   leader silently drops still gets every request committed, because
   follower censorship timers force a rotation away from the censor;
2. **blacklist soundness** -- once a leader is blacklisted by a view
   change, no view installed inside its blacklist window elects it
   again (checked on every node's ``installed_views`` trace).

Plus the standing safety invariants: no forks (all frontends deliver
identical chains) and no duplicated or lost envelopes -- also under a
load past what one proposal in flight orders, where the leader keeps
its proposal window full and, on half the seeds, crashes with prepared
rounds that the next view must re-propose in order.
"""

import random

import pytest

from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.service import OrderingServiceConfig, build_ordering_service
from repro.smart2.messages import Commit
from tests.conftest import smartbft_ledger
from tests.test_smartbft_chain_pins import build_lan_service

SEEDS = range(8)


def _build(seed):
    config = OrderingServiceConfig(
        orderer="smartbft",
        f=1,
        channel=ChannelConfig(
            channel_id="ch0", max_message_count=4, batch_timeout=0.25
        ),
        num_frontends=2,
        physical_cores=None,
        request_timeout=0.5,
        seed=seed,
    )
    return build_ordering_service(config)


def _run_scenario(seed):
    """One randomized schedule; returns the service after the run."""
    rng = random.Random(seed)
    service = _build(seed)
    censored_frontend = rng.randrange(2)
    censor = service.nodes[0].leader  # leader of view 0
    service.nodes[censor].faults.censor_clients = {1000 + censored_frontend}

    if rng.random() < 0.5:
        # additionally crash one non-leader node for part of the run
        victims = [i for i in range(len(service.nodes)) if i != censor]
        victim = rng.choice(victims)
        crash_at = rng.uniform(0.1, 1.0)
        recover_at = crash_at + rng.uniform(1.0, 3.0)
        service.sim.schedule(crash_at, service.crash_node, victim)
        service.sim.schedule(recover_at, service.recover_node, victim)

    total = 16
    for index in range(total):
        envelope = Envelope.raw("ch0", payload_size=256, submitter="client")
        envelope.envelope_id = index
        frontend_index = index % 2
        service.sim.schedule(
            0.01 + index * rng.uniform(0.002, 0.02),
            service.submit,
            envelope,
            frontend_index,
        )

    finished = service.sim.run_until(
        lambda: service.total_delivered() >= total, deadline=120.0
    )
    service.run(2.0)
    return service, censor, finished, total


@pytest.mark.parametrize("seed", SEEDS)
def test_censored_requests_eventually_commit(seed):
    service, censor, finished, total = _run_scenario(seed)
    assert finished, (
        f"seed {seed}: only {service.total_delivered()}/{total} envelopes "
        f"committed despite rotation"
    )
    # the censor was actually deposed: some correct node moved past view 0
    views = {node.view_number for node in service.nodes if not node.crashed}
    assert max(views) >= 1, f"seed {seed}: no rotation happened"
    # no block is delivered twice to any frontend
    for frontend in service.frontends:
        digests = frontend.delivered_digests.get("ch0", [])
        assert len(digests) == len(set(digests))


@pytest.mark.parametrize("seed", SEEDS)
def test_frontends_agree_on_one_chain(seed):
    service, _censor, finished, _total = _run_scenario(seed)
    assert finished
    digests = set(service.ledger_digests().values())
    assert len(digests) == 1, f"seed {seed}: frontends forked"


@pytest.mark.parametrize("seed", SEEDS)
def test_blacklisted_leader_never_reelected_within_window(seed):
    service, censor, finished, _total = _run_scenario(seed)
    assert finished
    blacklisted = False
    for node in service.nodes:
        for pid, from_view, until in node.blacklist_events:
            blacklisted = blacklisted or pid == censor
            for leader, view in node.installed_views:
                if from_view <= view < until:
                    assert leader != pid, (
                        f"seed {seed}: node {node.replica_id} installed view "
                        f"{view} led by {leader}, blacklisted until {until}"
                    )
    # the censoring leader must in fact have been blacklisted somewhere
    assert blacklisted, f"seed {seed}: censor {censor} was never blacklisted"


@pytest.mark.parametrize("seed", SEEDS)
def test_node_logs_agree(seed):
    """Correct nodes decided identical batches at every shared seq."""
    service, _censor, finished, _total = _run_scenario(seed)
    assert finished
    logs = service.replica_log_digests()
    merged = {}
    for _node_id, entries in sorted(logs.items()):
        for cid, digest in sorted(entries.items()):
            assert merged.setdefault(cid, digest) == digest, (
                f"seed {seed}: log disagreement at cid {cid}"
            )


# ----------------------------------------------------------------------
# the proposal window under load
# ----------------------------------------------------------------------
WINDOW_SEEDS = range(6)


def _run_past_window_one_capacity(seed):
    """n=4 on the LAN at 6-10 k env/s, more than one proposal in flight
    orders (about 2.7 k env/s), every envelope submitted through
    frontend 1.  On odd seeds the followers miss every COMMIT for the
    last few milliseconds before the leader crashes mid-run with its
    window full, so they change the view with prepared, undecided rounds
    to re-propose; the old leader recovers 4 s later.  Returns the
    service, the envelope ids each frontend delivered and the most
    proposals any leader had undecided at once."""
    rng = random.Random(seed)
    service = build_lan_service(1, request_timeout=1.0)
    deepest = [0]
    for node in service.nodes:
        def propose(channel_id, batch, node=node, inner=node._propose):
            deepest[0] = max(deepest[0], node._next_accept - node.next_commit_seq + 1)
            inner(channel_id, batch)

        node._propose = propose
    delivered = [[] for _ in service.frontends]
    for frontend, ids in zip(service.frontends, delivered):
        frontend.on_block.append(
            lambda block, ids=ids: ids.extend(e.envelope_id for e in block.envelopes)
        )
    total = 400
    rate = rng.uniform(6000.0, 10000.0)
    for i in range(total):
        envelope = Envelope(
            channel_id="ch0", transaction=None, payload_size=1024, envelope_id=i
        )
        service.sim.schedule_at(0.05 + i / rate, service.submit, envelope, 1)
    if seed % 2:
        crash_at = 0.05 + rng.uniform(0.2, 0.8) * total / rate

        def followers_miss_commits(src, dst, payload):
            return None if isinstance(payload, Commit) and dst != 0 else payload

        network = service.network
        service.sim.schedule_at(
            crash_at - rng.uniform(0.002, 0.01), network.add_filter, followers_miss_commits
        )
        service.sim.schedule_at(crash_at, service.crash_node, 0)
        service.sim.schedule_at(crash_at, network.remove_filter, followers_miss_commits)
        service.sim.schedule_at(crash_at + 4.0, service.recover_node, 0)
    service.sim.run_until(
        lambda: min(len(ids) for ids in delivered) >= total, 60.0
    )
    service.run(0.5)
    return service, delivered, total, deepest[0]


@pytest.mark.parametrize("seed", WINDOW_SEEDS)
def test_a_full_window_orders_every_request_once_on_one_chain(seed):
    service, delivered, total, deepest = _run_past_window_one_capacity(seed)
    assert deepest >= 2, f"seed {seed}: never more than one proposal in flight"
    for ids in delivered:
        assert sorted(ids) == list(range(total)), f"seed {seed}: lost or duplicated"
    assert len(set(service.ledger_digests().values())) == 1
    chains = {}
    for node in service.nodes:
        for seq, block, _batch in smartbft_ledger(node):
            row = (block.header.number, block.header.digest())
            assert chains.setdefault(seq, row) == row, (
                f"seed {seed}: nodes disagree at seq {seq}"
            )
    if seed % 2:
        assert all(node.view_number >= 1 for node in service.nodes[1:])
        proof = service.nodes[1]._last_new_view.proof
        certificates = max(len(v.prepared) for v in proof)
        assert certificates >= 2, f"seed {seed}: the new view re-proposed {certificates}"
