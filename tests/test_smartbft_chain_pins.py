"""Cross-commit pin of *what* the SmartBFT backend decides past capacity.

Recorded once into ``tests/data/golden/smartbft_chain_seed0.json`` and
never regenerated.  Two seeded LAN runs offer more envelopes than one
proposal in flight can order (about 2.7 k env/s at n=4 and 2.4 k env/s
at n=10 under this CPU and network model), so the leader's cut batches
queue behind consensus.  How many proposals are in flight changes
*when* a block is decided, never *what* it holds: the leader's cutter
alone decides the batches, in the order envelopes reach it.  Every
envelope takes one route there -- frontend 1, its home node 1, a
forward to the leader, all FIFO links -- so that order is the
submission order whatever the queues on the way do.  (Two routes
would race: a forward and a direct submission a few hundred
microseconds apart swap places when a NIC queue changes.)  So the pin
holds

- the decided chain, one row per block: ``[seq, number, header digest,
  envelope ids]``;
- per node, how many blocks it decided and the SHA-256 of its own rows
  (every node must reproduce the chain, not merely agree with a peer);
- every frontend's ledger digest and delivered-block count.

``python -m tests.test_smartbft_chain_pins`` prints the recording.
"""

import hashlib
import json
import pathlib

import pytest

from repro.bench.topology import lan_latency_model
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering import OrderingServiceConfig, build_ordering_service

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden" / "smartbft_chain_seed0.json"
BLOCK_SIZE = 10
ENVELOPES = 1200


def build_lan_service(f: int, request_timeout: float = 30.0):
    """The LAN deployment of the perf benchmark's ``smartbft_n10_sat``
    (1 Gbps links, 8 cores, 16 signing workers), at any ``f``."""
    return build_ordering_service(
        OrderingServiceConfig(
            orderer="smartbft",
            f=f,
            channel=ChannelConfig("ch0", max_message_count=BLOCK_SIZE, batch_timeout=10.0),
            num_frontends=2,
            latency=lan_latency_model(),
            bandwidth_bps=1e9,
            smart_cpu_fraction=0.6,
            request_timeout=request_timeout,
            seed=0,
        )
    )


def encode_rows(rows) -> bytes:
    return json.dumps(rows, separators=(",", ":")).encode()


def record(f: int, rate: float) -> dict:
    service = build_lan_service(f)
    for i in range(ENVELOPES):
        envelope = Envelope(
            channel_id="ch0", transaction=None, payload_size=1024, envelope_id=i
        )
        service.sim.schedule_at(0.05 + i / rate, service.submit, envelope, 1)
    blocks = ENVELOPES // BLOCK_SIZE
    service.sim.run_until(
        lambda: min(fe.blocks_delivered for fe in service.frontends) >= blocks, 30.0
    )
    chains = {}
    for node in service.nodes:
        chains[str(node.replica_id)] = [
            [
                d.seq,
                d.block.header.number,
                d.block.header.digest().hex(),
                [e.envelope_id for e in d.block.envelopes],
            ]
            for d in node._decisions
        ]
    return {
        "chain": chains["0"],
        "nodes": {
            pid: {
                "decisions": len(rows),
                "sha256": hashlib.sha256(encode_rows(rows)).hexdigest(),
            }
            for pid, rows in chains.items()
        },
        "ledger_digests": [fe.ledger_digest().hex() for fe in service.frontends],
        "delivered": [fe.blocks_delivered for fe in service.frontends],
    }


RECORDERS = {
    "n4": lambda: record(1, 6000.0),
    "n10": lambda: record(3, 3000.0),
}


def encode(recording: dict) -> str:
    return json.dumps(recording, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("run", sorted(RECORDERS))
def test_decided_chain_is_pinned(run):
    golden = json.loads(GOLDEN.read_text())
    assert encode(RECORDERS[run]()) == encode(golden[run])


def test_the_pinned_runs_are_whole_and_agree():
    golden = json.loads(GOLDEN.read_text())
    blocks = ENVELOPES // BLOCK_SIZE
    for run, n in (("n4", 4), ("n10", 10)):
        recording = golden[run]
        chain = recording["chain"]
        assert [row[0] for row in chain] == list(range(blocks))
        assert [row[1] for row in chain] == list(range(blocks))
        assert [e for row in chain for e in row[3]] == list(range(ENVELOPES))
        digest = hashlib.sha256(encode_rows(chain)).hexdigest()
        assert len(recording["nodes"]) == n
        assert all(
            node == {"decisions": blocks, "sha256": digest}
            for node in recording["nodes"].values()
        )
        assert recording["delivered"] == [blocks, blocks]
        assert len(set(recording["ledger_digests"])) == 1


if __name__ == "__main__":
    print(
        encode({name: recorder() for name, recorder in sorted(RECORDERS.items())}),
        end="",
    )
