"""Cross-commit pin of *which votes count* in the SmartBFT backend.

Recorded once from the textbook vote path (``View.has_quorum`` over a
rebuilt voter set on every PREPARE and COMMIT) into
``tests/data/golden/smartbft_votes_seed0.json`` and never regenerated:
a change to ``smart2/node.py`` that claims the same checks in the same
order must reproduce, byte for byte,

- per node, for every decided block: its sequence number, header
  digest, the PREPARE voters the node's prepared certificate named
  (``null`` for a block adopted through catch-up, which runs no round)
  and the sorted COMMIT signers in the block's metadata;
- per node ``installed_views`` and ``blacklist_events``;
- the run's event count, message count, wire bytes and frontend-0
  ledger digest.

Two runs: n=10 under the CPU model (the shape of the benchmark's
``smartbft_n10_sat``), and n=4 whose view-0 leader crashes with amnesia
under load, is voted out and blacklisted, rejoins through catch-up and
votes on a second wave of blocks.
``test_seam_pins.py`` pins the event *stream*; this pins the quorum
*contents* the stream cannot see -- a tally that counted a different
voter set with the same cardinality would pass there and fail here.

``python -m tests.test_smartbft_vote_pins`` prints the recording.
"""

import json
import pathlib

import pytest

from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering import OrderingServiceConfig, build_ordering_service

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden" / "smartbft_votes_seed0.json"


def build_service(f: int, block_size: int, **config):
    return build_ordering_service(
        OrderingServiceConfig(
            orderer="smartbft",
            f=f,
            channel=ChannelConfig("ch0", max_message_count=block_size, batch_timeout=0.25),
            num_frontends=2,
            seed=0,
            **config,
        )
    )


def _submit(service, ids: range, start: float, spacing: float) -> None:
    for k, i in enumerate(ids):
        envelope = Envelope(
            channel_id="ch0", transaction=None, payload_size=200 + i, envelope_id=i
        )
        service.sim.schedule_at(start + k * spacing, service.submit, envelope, i % 2)


def _run_recording(service, duration: float) -> dict:
    """Run ``duration`` simulated seconds, looking at every node's open
    rounds between events: a prepared round names its voters until the
    decision deletes it (signing is a CPU job, so prepared and decided
    are never the same event)."""
    prepared = {node.replica_id: {} for node in service.nodes}

    def watch() -> bool:
        for node in service.nodes:
            seen = prepared[node.replica_id]
            for seq, round_ in node._rounds.items():
                if round_.prepared:
                    seen[(seq, round_.header.digest())] = list(round_.prepared_voters)
        return False

    service.sim.run_until(watch, service.sim.now + duration)
    nodes = {}
    for node in service.nodes:
        seen = prepared[node.replica_id]
        nodes[str(node.replica_id)] = {
            "decisions": [
                [
                    d.seq,
                    d.block.header.digest().hex(),
                    seen.get((d.seq, d.block.header.digest())),
                    sorted(d.block.signatures),
                ]
                for d in node._decisions
            ],
            "installed_views": [list(entry) for entry in node.installed_views],
            "blacklist_events": [list(entry) for entry in node.blacklist_events],
        }
    return {
        "nodes": nodes,
        "events": service.sim.processed_events,
        "messages": service.network.stats.messages_sent,
        "bytes": service.network.stats.bytes_sent,
        "ledger_digest": service.frontends[0].ledger_digest().hex(),
        "delivered": [frontend.blocks_delivered for frontend in service.frontends],
    }


def record_n10() -> dict:
    service = build_service(3, 10, request_timeout=30.0)
    _submit(service, range(120), 0.05, 0.0005)
    return _run_recording(service, 3.0)


def record_n4_leader_crash() -> dict:
    service = build_service(1, 4, request_timeout=0.5)
    _submit(service, range(64), 0.05, 0.01)
    service.sim.schedule_at(0.2, service.crash_node, 0, True)
    service.sim.schedule_at(3.0, service.recover_node, 0)
    _submit(service, range(64, 96), 4.0, 0.01)  # the rejoined node votes again
    return _run_recording(service, 8.0)


RECORDERS = {"n10": record_n10, "n4_leader_crash": record_n4_leader_crash}


def encode(recording: dict) -> str:
    return json.dumps(recording, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("run", sorted(RECORDERS))
def test_votes_counted_are_pinned(run):
    golden = json.loads(GOLDEN.read_text())
    assert encode(RECORDERS[run]()) == encode(golden[run])


def test_the_pinned_runs_exercise_what_they_claim():
    golden = json.loads(GOLDEN.read_text())
    n10, crash = golden["n10"], golden["n4_leader_crash"]
    assert n10["delivered"] == [12, 12]
    for node in n10["nodes"].values():
        assert len(node["decisions"]) == 12
        assert node["installed_views"] == [[0, 0]]
        for _seq, _digest, voters, signers in node["decisions"]:
            assert len(voters) >= 7 and len(signers) >= 7  # 2f+1 of n=10
    # not every node saw the same quorum: the pin has something to hold
    assert len({
        json.dumps([d[2:] for d in node["decisions"]]) for node in n10["nodes"].values()
    }) > 1
    assert crash["delivered"] == [26, 26]
    for node in crash["nodes"].values():
        assert node["installed_views"] == [[0, 0], [1, 1]]
        assert node["blacklist_events"] == [[0, 1, 5]]  # adopted from the NewView
    # three blocks before the crash; the amnesiac ex-leader then rebuilt
    # 14 from signed decisions alone and voted on the nine after it rejoined
    rejoined = [entry[2] is not None for entry in crash["nodes"]["0"]["decisions"]]
    assert rejoined == [True] * 3 + [False] * 14 + [True] * 9
    assert any(
        "orderer0" in entry[3]
        for node in crash["nodes"].values()
        for entry in node["decisions"][17:]
    )

if __name__ == "__main__":
    print(
        encode({name: recorder() for name, recorder in sorted(RECORDERS.items())}),
        end="",
    )
