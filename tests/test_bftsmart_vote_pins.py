"""Cross-commit pin of *which votes count* in the BFT-SMaRt replica.

Recorded once into ``tests/data/golden/bftsmart_votes_seed0.json`` and
never regenerated: a change to ``smart/replica.py``, ``smart/consensus.py``
or ``smart/quorums.py`` that claims the same checks in the same order
must reproduce, byte for byte, per replica and per consensus instance
(in the order the replica created them):

- every ``(cid, regency)`` WRITE and ACCEPT voter set, by hash;
- the replicas each of those vote sets caught equivocating;
- the instance's ``write_certificate`` (regency, hash, writers);
- its decision (regency, hash);

plus the run's event count, message count, wire bytes, regencies and
frontend-0 ledger digest.  Hashes are cut to their first 16 hex digits.

Two seeded LAN runs:

- ``n4_equivocation``: the regency-0 leader votes both ways.  For every
  WRITE it sends, one half of its peers counts the honest hash first and
  the other half a forged one, and then each half receives the other
  hash too, so every peer books it as an equivocator.  From 0.15 s it
  also withholds consensus votes in regency 0: no PROPOSE or WRITE to
  replica 3 and no ACCEPT to anyone.  Only replica 1 (of the correct
  ones) then holds a WRITE quorum for the open instance, nobody decides
  it, the request timeout installs regency 1, and replica 1, its
  leader, has the instance decided again, so one cid carries the votes
  of two regencies.
- ``n10``: 480 envelopes at 30 k env/s against batches of 16, past
  what one batch per consensus instance can order: from the fourth
  proposal on, every batch but the last is full.

``test_seam_pins.py`` pins the event *stream*; this pins the quorum
*contents* the stream cannot see.

The file is a row of the pin ledger, ``tests/golden.py``.
"""

import pytest

from repro.bench.topology import lan_latency_model
from repro.crypto.hashing import sha256
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering import OrderingServiceConfig, build_ordering_service
from repro.smart.messages import Write

#: the n10 run's batch size and load
N10_BATCH = 16
N10_ENVELOPES = 480
N10_RATE = 30000.0
#: when the n4 leader starts withholding regency-0 consensus votes
WITHHOLD_AT = 0.15


def build_service(f: int, max_batch: int, request_timeout: float):
    return build_ordering_service(
        OrderingServiceConfig(
            f=f,
            channel=ChannelConfig("ch0", max_message_count=10, batch_timeout=10.0),
            num_frontends=2,
            latency=lan_latency_model(),
            max_batch=max_batch,
            request_timeout=request_timeout,
            seed=0,
        )
    )


def _submit(service, ids: range, start: float, rate: float) -> None:
    for k, i in enumerate(ids):
        envelope = Envelope(
            channel_id="ch0", transaction=None, payload_size=200 + i % 7, envelope_id=i
        )
        service.sim.schedule_at(start + k / rate, service.submit, envelope, i % 2)


def _short(value_hash) -> str:
    return value_hash.hex()[:16]


def _votes(vote_sets) -> list:
    """``[[regency, {hash: voters}, equivocators], ...]`` by regency."""
    return [
        [
            regency,
            {_short(h): sorted(voters) for h, voters in votes._votes.items()},
            sorted(votes.equivocators),
        ]
        for regency, votes in sorted(vote_sets.items())
    ]


def _instance_row(inst) -> list:
    certificate = inst.write_certificate
    return [
        inst.cid,
        _votes(inst._writes),
        _votes(inst._accepts),
        None
        if certificate is None
        else [certificate.regency, _short(certificate.value_hash), list(certificate.writers)],
        [inst.decided_regency, _short(inst.decided_hash)] if inst.decided else None,
    ]


def _run_recording(service, duration: float) -> dict:
    """Run ``duration`` simulated seconds, keeping every consensus
    instance each replica creates: a replica drops executed instances
    from ``instances``, so they are collected between events and read
    once the run is over."""
    seen = {replica.replica_id: {} for replica in service.replicas}

    def watch() -> bool:
        for replica in service.replicas:
            kept = seen[replica.replica_id]
            for inst in replica.instances.values():
                kept.setdefault(id(inst), inst)
        return False

    service.sim.run_until(watch, service.sim.now + duration)
    return {
        "replicas": {
            str(pid): [_instance_row(inst) for inst in kept.values()]
            for pid, kept in seen.items()
        },
        "regencies": [replica.regency for replica in service.replicas],
        "events": service.sim.processed_events,
        "messages": service.network.stats.messages_sent,
        "bytes": service.network.stats.bytes_sent,
        "ledger_digest": service.frontends[0].ledger_digest().hex(),
        "delivered": [frontend.blocks_delivered for frontend in service.frontends],
    }


def _equivocate(service, byzantine: int) -> None:
    """Every WRITE ``byzantine`` broadcasts goes out twice, honest and
    forged, in opposite orders to the two halves of its peers."""
    replica = service.replicas[byzantine]
    network = service.network
    honest_broadcast = replica._broadcast
    peers = replica.other_replicas()
    first_half = set(peers[: len(peers) // 2])

    def broadcast(message, size: int) -> None:
        if not isinstance(message, Write):
            honest_broadcast(message, size)
            return
        forged = Write(
            message.sender,
            message.cid,
            message.regency,
            sha256("forged-write", message.cid, message.regency),
        )
        for dst in peers:
            first, second = (message, forged) if dst in first_half else (forged, message)
            network.send(byzantine, dst, first, size)
            network.send(byzantine, dst, second, size)

    replica._broadcast = broadcast


def _withhold_regency0_votes(service, byzantine: int, starved: int) -> None:
    """From ``WITHHOLD_AT``: no regency-0 PROPOSE or WRITE from
    ``byzantine`` reaches ``starved``, and none of its regency-0
    ACCEPTs reaches anyone."""
    sim = service.sim

    def withhold(src, dst, payload):
        if src != byzantine or sim.now < WITHHOLD_AT:
            return payload
        kind = getattr(payload, "kind", None)
        if getattr(payload, "regency", None) != 0:
            return payload
        if kind == "Accept" or (kind in ("Propose", "Write") and dst == starved):
            return None
        return payload

    service.network.add_filter(withhold)


def build_n4_equivocation():
    service = build_service(1, max_batch=8, request_timeout=0.3)
    _equivocate(service, 0)
    _withhold_regency0_votes(service, 0, starved=3)
    _submit(service, range(96), 0.02, 400.0)
    return service


def build_n10():
    service = build_service(3, max_batch=N10_BATCH, request_timeout=30.0)
    _submit(service, range(N10_ENVELOPES), 0.02, N10_RATE)
    return service


#: the two seeded runs: how to build each, and how long it runs
RUNS = {"n4_equivocation": (build_n4_equivocation, 2.5), "n10": (build_n10, 1.0)}


def record(run: str) -> dict:
    build, duration = RUNS[run]
    return _run_recording(build(), duration)


@pytest.mark.parametrize("run", sorted(RUNS))
def test_votes_counted_are_pinned(golden, run):
    golden.check("bftsmart_votes_seed0", run)


def test_the_pinned_runs_exercise_what_they_claim(golden):
    pinned = golden.stored("bftsmart_votes_seed0")
    n4, n10 = pinned["n4_equivocation"], pinned["n10"]
    assert n4["regencies"] == [1, 1, 1, 1]
    for pid, rows in n4["replicas"].items():
        # one instance with the votes of both regencies, decided in the second
        (both,) = [row for row in rows if [v[0] for v in row[1]] == [0, 1]]
        assert both[4][0] == 1 and both[3][0] == 1
        if pid != "0":
            assert any(v[2] == [0] for row in rows for v in row[1])
    # the halves counted different first votes from the equivocator
    assert any(len(v[1]) == 2 for row in n4["replicas"]["3"] for v in row[1])
    assert not any(len(v[1]) == 2 for row in n4["replicas"]["1"] for v in row[1])
    assert n10["delivered"] == [N10_ENVELOPES // 10] * 2
    for rows in n10["replicas"].values():
        decided = [row for row in rows if row[4] is not None]
        assert len(decided) < 2 * N10_ENVELOPES // N10_BATCH  # batches fill
        assert all(len(row[1][0][1][row[4][1]]) >= 7 for row in decided)
