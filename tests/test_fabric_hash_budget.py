"""Deterministic cost and byte-level pins of the Fabric path.

Two regressions a clock cannot catch per commit: the number of
canonical hashes a transaction costs on its way from proposal to
commit (an exact count), and the bytes the path produces (the DetSan
goldens and ``seam_pins.json`` only cover raw envelopes).  Both run
the same seeded hot-key workload through :class:`FabricNetwork` on the
solo orderer; the bytes are also pinned over the BFT-SMaRt service,
with and without its durable WAL.
"""

import random
from dataclasses import replace

import pytest

from repro.faults.invariants import check_serializability
from tests.conftest import BFT_FABRIC, SOLO_FABRIC, FabricNetwork, count_hashes_by_tag

HOT_KEYS = 16


def run_hot_keys(pipeline: FabricNetwork, transactions: int, seed: int = 0):
    """One transaction per simulated millisecond: create ``HOT_KEYS``
    keys, then increment seeded-random ones -- several in flight per
    block, so some read versions are stale by validation (MVCC)."""
    keys = random.Random(seed)
    futures = []

    def submit(index: int) -> None:
        if index < HOT_KEYS:
            call = ("put", f"k{index}", 0)
        else:
            call = ("increment", f"k{keys.randrange(HOT_KEYS)}")
        futures.append(pipeline.submit("kv", *call))

    for index in range(transactions):
        pipeline.sim.schedule_at(index * 0.001, submit, index)
    pipeline.sim.run(until=transactions * 0.001)
    assert pipeline.drain(futures)


def fabric_path_fingerprint(pipeline: FabricNetwork) -> dict:
    first, second = pipeline.committers
    assert first.ledger.last_hash == second.ledger.last_hash
    assert first.state.snapshot() == second.state.snapshot()
    return {
        "last_hash": first.ledger.last_hash.hex(),
        "codes": [[code.value for code in record.codes] for record in first.commits],
        "state": {
            key: [value, list(version)]
            for key, (value, version) in sorted(first.state.snapshot().items())
        },
    }


#: row, transactions, and where the pin ledger (``tests/golden.py``)
#: keeps the path's fingerprint: a golden, then its entry if it has any
FABRIC_PATHS = {
    "solo": (SOLO_FABRIC, 200, ("fabric_path_seed0",)),
    "bftsmart": (BFT_FABRIC, 100, ("fabric_path_bftsmart_seed0", "durable_wal=False")),
    "bftsmart-durable_wal": (
        replace(BFT_FABRIC, durable_wal=True),
        100,
        ("fabric_path_bftsmart_seed0", "durable_wal=True"),
    ),
}


def record(path: str) -> dict:
    """The fingerprint of one Fabric path's hot-key run."""
    row, transactions, _pinned_at = FABRIC_PATHS[path]
    pipeline = FabricNetwork(row)
    run_hot_keys(pipeline, transactions)
    assert check_serializability(pipeline.committers) == []
    return fabric_path_fingerprint(pipeline)


@pytest.mark.parametrize("path", FABRIC_PATHS)
def test_fabric_path_bytes_match_golden(golden, path):
    """The solo golden was recorded at the parent of the single-pass
    encoder / digest caches, the BFT-SMaRt one on the hand-built
    pipeline the stand-up replaced, each in a process whose id counter
    stood at zero; ids feed the digests and come from the pipeline's
    own simulator."""
    _row, transactions, pinned_at = FABRIC_PATHS[path]
    fingerprint = golden.check(*pinned_at)
    codes = [code for block in fingerprint["codes"] for code in block]
    assert len(codes) == transactions and "MVCC_READ_CONFLICT" in codes


def test_hash_budget_per_transaction(monkeypatch):
    """36 canonical hashes per transaction before the leaf caches; the
    table below is what is left, and it is exact -- one more hash per
    transaction anywhere on the path fails here, without a clock."""
    calls = count_hashes_by_tag(monkeypatch)
    transactions = 120
    pipeline = FabricNetwork()
    run_hot_keys(pipeline, transactions)
    assert check_serializability(pipeline.committers) == []
    assert len(pipeline.transactions(0)) == len(pipeline.transactions(1)) == transactions

    per_transaction = {
        tag: calls[tag] / transactions
        for tag in ("proposal", "readset", "writeset", "response", "transaction", "envelope")
    }
    assert per_transaction == {
        "proposal": 1,  # one frozen object shared by client, endorsers, peers
        # one set object per endorser asked, each encoded once: under the
        # Or policy the client asks one endorser
        "readset": 1,
        "writeset": 1,
        # flat composites, shared by content: sign + verify + group + 2
        # validate look up one payload, the client signature and the
        # envelope digest one transaction hash
        "response": 1,
        "transaction": 1,
        "envelope": 1,
    }
    # the six above, plus a block-data and a block-header hash per block
    # of ten
    assert sum(calls.values()) <= 6 * transactions + 2 * (transactions // 10)
