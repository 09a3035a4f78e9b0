"""Differential property test of the SmartBFT vote tallies.

``smart2/node.py`` answers "is this a quorum?" from a running weight
per digest.  The oracle here is the vote path it replaced, kept
verbatim in spirit: plain voter sets, and ``View.has_quorum(voters)``
-- a rebuilt ``set`` and a re-summed weight -- asked after every vote.
Random vote sequences drive one follower through its real handlers
(the simulator never runs, signing is synchronous): PREPAREs and
COMMITs for two consecutive sequence numbers of the proposal window,
from members and from a non-member, for the leader's header and for a
competing digest, duplicated, equivocated, forged, before and after the
pre-prepare and after the block was decided; the second pre-prepare
may arrive before the first (it is held) and the second block may
gather its commit quorum first (it waits).  After every single vote

- every running weight passes ``is_quorum_weight`` exactly when the
  oracle's ``has_quorum`` over the recorded voters does,
- the recorded voters, ``prepared``, ``prepared_voters``,
  ``committed`` and the decisions -- in sequence order, with the
  signers each put into its block -- equal the oracle's,

over a uniform n=4, a uniform n=7 and two WHEAT-weighted memberships.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.fabric.block import GENESIS_PREVIOUS_HASH
from repro.smart2.messages import Commit, Prepare
from tests.test_smartbft_node import build, requests, signed_commit, signed_preprepare

#: (f, delta): n = 3f+1+delta, the first 2f members hold Vmax = 1 + delta/f
MEMBERSHIPS = {"uniform-n4": (1, 0), "uniform-n7": (2, 0), "wheat-n5": (1, 1),
               "wheat-n8": (2, 1)}
SUBJECT = 2  # a follower of view 0
OUTSIDER = 99
SEQS = (0, 1)


@dataclass
class OracleRound:
    header_known: bool = False
    prepares: Dict[bytes, Set[int]] = field(default_factory=dict)
    commits: Dict[bytes, Set[int]] = field(default_factory=dict)
    prepared: bool = False
    prepared_voters: Tuple[int, ...] = ()
    committed: bool = False


class Oracle:
    """The textbook path: record the voter, then recount the quorum."""

    def __init__(self, view, digests: Dict[int, bytes]):
        self.view = view
        self.digests = digests  # seq -> the honest leader's header digest
        self.next_commit_seq = 0
        self.rounds: Dict[int, OracleRound] = {}
        self.held: Set[int] = set()  # pre-prepares waiting for their predecessor
        self.decided: List[Tuple[int, Tuple[int, ...]]] = []  # (seq, signers)

    def _round(self, seq: int) -> OracleRound:
        return self.rounds.setdefault(seq, OracleRound())

    def _accepted(self, seq: int) -> bool:
        return seq in self.rounds and self.rounds[seq].header_known

    def preprepare(self, seq: int) -> None:
        if seq < self.next_commit_seq or self._accepted(seq):
            return
        if seq > self.next_commit_seq and not self._accepted(seq - 1):
            self.held.add(seq)
            return
        self._round(seq).header_known = True
        self.prepare(SUBJECT, seq, self.digests[seq])
        if seq + 1 in self.held:
            self.held.discard(seq + 1)
            self.preprepare(seq + 1)

    def prepare(self, src: int, seq: int, digest: bytes) -> None:
        if seq < self.next_commit_seq:
            return
        round_ = self._round(seq)
        round_.prepares.setdefault(digest, set()).add(src)
        accepted = self.digests[seq]
        if round_.prepared or not round_.header_known:
            return
        voters = round_.prepares.get(accepted, set())
        if not self.view.has_quorum(voters):
            return
        round_.prepared = True
        round_.prepared_voters = tuple(sorted(voters))
        self.commit(SUBJECT, seq, accepted)  # signs on the spot

    def commit(self, src: int, seq: int, digest: bytes) -> None:
        if seq < self.next_commit_seq:
            return
        round_ = self._round(seq)
        round_.commits.setdefault(digest, set()).add(src)
        if not round_.header_known:
            return
        voters = round_.commits.get(self.digests[seq], set())
        if round_.committed or not self.view.has_quorum(voters):
            return
        round_.committed = True
        # decisions apply in sequence order; signers are read at apply time
        while True:
            seq = self.next_commit_seq
            waiting = self.rounds.get(seq)
            if waiting is None or not waiting.committed:
                break
            del self.rounds[seq]
            self.decided.append((seq, tuple(sorted(waiting.commits[self.digests[seq]]))))
            self.next_commit_seq = seq + 1


def agree(node, oracle: Oracle) -> None:
    view = node.view
    assert node.next_commit_seq == oracle.next_commit_seq
    assert [
        (d.seq, tuple(sorted(d.block.signatures))) for d in node._decisions
    ] == [
        (seq, tuple(sorted(node.peer_names[pid] for pid in signers)))
        for seq, signers in oracle.decided
    ]
    assert sorted(node._rounds) == sorted(oracle.rounds)
    for seq, expected in oracle.rounds.items():
        round_ = node._rounds[seq]
        assert (round_.digest is not None) == expected.header_known
        assert round_.prepares == expected.prepares
        assert {d: set(votes) for d, votes in round_.commits.items()} == expected.commits
        assert round_.prepared == expected.prepared
        assert round_.prepared_voters == expected.prepared_voters
        # a committed round waits only for an undecided predecessor
        assert round_.committed == expected.committed
        assert not round_.committed or seq > node.next_commit_seq
        for tally, voters in (
            (round_.prepare_weight, round_.prepares),
            (round_.commit_weight, round_.commits),
        ):
            assert sorted(tally) == sorted(voters)
            for digest, recorded in voters.items():
                assert view.is_quorum_weight(tally[digest]) == view.has_quorum(recorded)


def vote_events(members: Tuple[int, ...]):
    """A shuffled honest run -- every member's PREPARE and COMMIT for
    both blocks, each pre-prepare twice (the second pre-prepare sent
    before the first is held) -- with up to 30 arbitrary votes shuffled
    in: repeats,
    votes for the competing digest (a member that votes both ways
    counts under both), a non-member, forged signatures."""
    honest = [("preprepare", seq) for seq in SEQS for _ in range(2)] + [
        (kind, seq, member, False)
        for kind in ("prepare", "commit")
        for seq in SEQS
        for member in members
    ]
    senders = st.sampled_from(members + (OUTSIDER,))
    seq = st.sampled_from(SEQS)
    noise = st.lists(
        st.one_of(
            st.tuples(st.just("preprepare"), seq),
            st.tuples(st.just("prepare"), seq, senders, st.booleans()),
            st.tuples(st.just("commit"), seq, senders, st.booleans()),
            st.tuples(st.just("forged-commit"), seq, senders, st.booleans()),
        ),
        max_size=30,
    )
    return noise.flatmap(lambda extra: st.permutations(honest + extra))


@pytest.mark.parametrize("membership", sorted(MEMBERSHIPS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_running_weights_answer_as_has_quorum_does(membership, data):
    f, delta = MEMBERSHIPS[membership]
    service = build(f=f, delta=delta)
    node = service.nodes[SUBJECT]
    view = node.view
    assert len(set(view.weights.values())) == (2 if delta else 1)

    # the honest leader's two consecutive blocks, and a rival digest each
    proposals, digests, previous = {}, {}, GENESIS_PREVIOUS_HASH
    for seq in SEQS:
        message, header = signed_preprepare(
            service, 0, 0, seq, seq, previous, requests(range(4 * seq, 4 * seq + 4))
        )
        proposals[seq], digests[seq] = message, header.digest()
        previous = header.digest()
    rival = {seq: bytes([seq + 1]) * 32 for seq in SEQS}

    oracle = Oracle(view, digests)
    held = waited = False
    for step in data.draw(vote_events(view.processes)):
        kind, seq = step[0], step[1]
        if kind == "preprepare":
            node.deliver(0, proposals[seq])
            oracle.preprepare(seq)
        else:
            _kind, _seq, src, competing = step
            digest = rival[seq] if competing else digests[seq]
            if kind == "prepare":
                node.deliver(src, Prepare(src, 0, seq, digest))
                oracle.prepare(src, seq, digest)
            elif src == OUTSIDER:
                # no enrolled key: whatever it signs with is refused
                node.deliver(src, Commit(src, 0, seq, digest, b"\x01" * 64))
            elif kind == "commit":
                node.deliver(src, signed_commit(service, src, 0, seq, digest))
                oracle.commit(src, seq, digest)
            else:  # a member's vote whose signature is over something else
                forged = signed_commit(service, src, 0, seq, rival[1 - seq])
                node.deliver(src, Commit(src, 0, seq, digest, forged.signature))
        agree(node, oracle)
        held = held or bool(oracle.held)
        waited = waited or any(r.committed for r in oracle.rounds.values())
    event(f"blocks decided: {len(oracle.decided)}")
    event(f"a pre-prepare held: {held}; a decision waited: {waited}")


def test_the_strategy_reaches_decisions_and_equivocation():
    """The property above is vacuous if no example ever prepares,
    decides or equivocates: replay one hand-written sequence that does
    all three, through the same harness."""
    service = build()
    node = service.nodes[SUBJECT]
    message, header = signed_preprepare(
        service, 0, 0, 0, 0, GENESIS_PREVIOUS_HASH, requests(range(4))
    )
    digest, rival = header.digest(), b"\x07" * 32
    oracle = Oracle(node.view, {0: digest})
    steps: List[Tuple[str, int, Optional[bytes]]] = [
        ("prepare", 1, digest), ("prepare", 1, rival),  # 1 equivocates
        ("prepare", 1, digest),  # and repeats itself
        ("prepare", OUTSIDER, digest),  # weighs nothing
        ("commit", 3, digest),  # a commit before the pre-prepare
        ("preprepare", 0, None),  # own vote: {1, 2, 99} is not a quorum
        ("prepare", 0, digest),  # {0, 1, 2}: prepared, own commit follows
        ("commit", 1, rival), ("commit", 1, digest),  # decided: {1, 2, 3}
        ("prepare", 3, digest), ("commit", 0, digest),  # below next_commit_seq
    ]
    flips = []
    for kind, src, voted in steps:
        if kind == "preprepare":
            node.deliver(0, message)
            oracle.preprepare(0)
        elif kind == "prepare":
            node.deliver(src, Prepare(src, 0, 0, voted))
            oracle.prepare(src, 0, voted)
        else:
            node.deliver(src, signed_commit(service, src, 0, 0, voted))
            oracle.commit(src, 0, voted)
        agree(node, oracle)
        round_ = node._rounds.get(0)
        flips.append((round_ is not None and round_.prepared, node.next_commit_seq))
    assert flips == [(False, 0)] * 6 + [(True, 0)] * 2 + [(False, 1)] * 3
    assert oracle.decided == [(0, (1, 2, 3))]
    assert node._rounds == {}


def test_the_window_holds_a_pre_prepare_and_a_decision():
    """Two blocks in the window, everything out of order: the second
    pre-prepare is held until the first arrives, and the second block,
    decided first, waits for the first -- through the same harness."""
    service = build()
    node = service.nodes[SUBJECT]
    first, header0 = signed_preprepare(
        service, 0, 0, 0, 0, GENESIS_PREVIOUS_HASH, requests(range(4))
    )
    second, header1 = signed_preprepare(
        service, 0, 0, 1, 1, header0.digest(), requests(range(4, 8))
    )
    digests = {0: header0.digest(), 1: header1.digest()}
    oracle = Oracle(node.view, digests)
    steps = [("preprepare", 1, None), ("preprepare", 0, None)]  # 1 held, then both
    steps += [("prepare", src, seq) for seq in (1, 0) for src in (0, 1)]
    steps += [("commit", src, 1) for src in (0, 1)]  # block 1 decided first: waits
    steps += [("commit", src, 0) for src in (0, 1)]  # block 0 decided: both apply
    trace = []
    for kind, src, seq in steps:
        if kind == "preprepare":
            node.deliver(0, first if src == 0 else second)
            oracle.preprepare(src)
        elif kind == "prepare":
            node.deliver(src, Prepare(src, 0, seq, digests[seq]))
            oracle.prepare(src, seq, digests[seq])
        else:
            node.deliver(src, signed_commit(service, src, 0, seq, digests[seq]))
            oracle.commit(src, seq, digests[seq])
        agree(node, oracle)
        trace.append((
            tuple(sorted(seq for seq, r in node._rounds.items() if r.digest is not None)),
            tuple(sorted(node._held)),
            tuple(sorted(seq for seq, r in node._rounds.items() if r.committed)),
            node.next_commit_seq,
        ))
    assert trace[0] == ((), (1,), (), 0)
    assert trace[1] == ((0, 1), (), (), 0)
    assert trace[7] == ((0, 1), (), (1,), 0)
    assert trace[-1] == ((), (), (), 2)
    assert oracle.decided == [(0, (0, 1, 2)), (1, (0, 1, 2))]
