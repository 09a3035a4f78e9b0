"""Cross-commit pin of *what each BFT-SMaRt replica executes*.

Recorded once into ``tests/data/golden/bftsmart_executed_seed0.json``
and never regenerated: per replica, every call the replica makes into
its application's ``execute_batch``, in order, as ``[cid, [operation
digest, ...]]``.  An envelope's digest is ``Envelope.digest()``; a
``TimeToCut`` marker's is the canonical hash of its fields.  Digests are
cut to their first 16 hex digits.

The two runs are the seeded ones of ``test_bftsmart_vote_pins.py``
(``n4_equivocation`` and ``n10``).  That file pins which votes count;
this one pins what the votes decided was executed, so a change to how a
vote binds a batch (``smart/consensus.py::batch_hash``) must reproduce
it byte for byte.

``python -m tests.test_bftsmart_executed_pins`` prints the recording.
"""

import json
import pathlib

import pytest

from repro.crypto.hashing import sha256
from repro.fabric.envelope import Envelope
from repro.ordering.node import TimeToCut
from tests.test_bftsmart_vote_pins import RUNS, encode

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden" / "bftsmart_executed_seed0.json"


def operation_digest(operation) -> str:
    if isinstance(operation, Envelope):
        digest = operation.digest()
    elif isinstance(operation, TimeToCut):
        digest = sha256("ttc", operation.channel_id, operation.target_height)
    else:
        raise TypeError(f"unexpected operation {operation!r}")
    return digest.hex()[:16]


def _record_executions(app, executed: list) -> None:
    execute = app.execute_batch

    def recording(cid, requests, regency, tentative=False):
        executed.append(
            [cid, [operation_digest(request.operation) for request in requests]]
        )
        return execute(cid, requests, regency, tentative)

    app.execute_batch = recording


def record(run: str) -> dict:
    build, duration = RUNS[run]
    service = build()
    executed = {}
    for replica in service.replicas:
        _record_executions(replica.app, executed.setdefault(str(replica.replica_id), []))
    service.sim.run(until=service.sim.now + duration)
    return executed


@pytest.mark.parametrize("run", sorted(RUNS))
def test_executed_operations_are_pinned(run):
    golden = json.loads(GOLDEN.read_text())
    assert encode(record(run)) == encode(golden[run])


def test_the_pinned_runs_execute_what_they_claim():
    golden = json.loads(GOLDEN.read_text())
    for executed in golden.values():
        # every replica executed the same sequence
        sequences = list(executed.values())
        assert sequences[0] and all(sequence == sequences[0] for sequence in sequences)
        cids = [cid for cid, _ in sequences[0]]
        assert cids == list(range(len(cids)))
    assert sum(len(ops) for _, ops in golden["n10"]["0"]) >= 480


if __name__ == "__main__":
    print(encode({run: record(run) for run in sorted(RUNS)}), end="")
