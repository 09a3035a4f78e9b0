#!/usr/bin/env python
"""Operator tooling: persist, reload and audit blockchain ledgers.

Runs real transactions through the full pipeline, saves a peer's chain
to disk, reloads it, and audits it block by block (hash links, data
hashes, ordering-node signatures).  Then demonstrates fork detection
by tampering with a copy -- the audit pinpoints the exact block.

Run:  python examples/ledger_audit.py
"""

import json
import os
import tempfile

from repro.fabric import KVChaincode, SignedBy
from repro.fabric.audit import audit_ledger, compare_ledgers
from repro.fabric.persistence import load_ledger, save_ledger
from repro.ordering.backends import ScenarioRow, SpacedLoad, stand_up


def build_committed_chain():
    """5 real transactions over BFT-SMaRt: one org1 peer, blocks of two."""
    up = stand_up(
        ScenarioRow(
            block_size=2,
            batch_timeout=0.3,
            endorsement_policy=SignedBy("org1"),
            load=SpacedLoad(count=0),
        )
    )
    committer = up.add_peer("peer0", "org1", {"kv": KVChaincode()})
    client = up.client("alice")
    futures = [
        client.submit_transaction("ch0", "kv", "put", (f"key{i}", {"n": i}))
        for i in range(5)
    ]
    up.sim.drain(futures, 30.0)
    return committer, up.registry, up.orderer_names


def main() -> None:
    committer, registry, orderer_names = build_committed_chain()

    workdir = tempfile.mkdtemp(prefix="repro-ledger-")
    path = os.path.join(workdir, "peer0-chain.json")
    save_ledger(committer.ledger, path)
    size = os.path.getsize(path)
    print(f"1. saved {committer.ledger.height} blocks "
          f"({committer.ledger.total_transactions()} transactions) "
          f"to {path} ({size} bytes)")

    reloaded = load_ledger(path)
    report = audit_ledger(reloaded, registry, orderer_names=orderer_names)
    print(f"2. reloaded and audited: ok={report.ok}, every block carries "
          f">= {report.min_signatures} valid ordering-node signatures")
    for record in report.records:
        print(f"     block {record.number}: chain={record.chain_ok} "
              f"data={record.data_ok} sigs={record.valid_signatures}")

    # tamper with a copy and watch the audit catch it
    with open(path) as fh:
        payload = json.load(fh)
    payload["blocks"][1]["signatures"]["orderer0"] = "00" * 64
    tampered_path = os.path.join(workdir, "tampered.json")
    with open(tampered_path, "w") as fh:
        json.dump(payload, fh)
    tampered = load_ledger(tampered_path)
    bad_report = audit_ledger(tampered, registry, orderer_names=orderer_names)
    problems = bad_report.problems()
    print(f"3. forged a signature on block 1 of a copy: audit ok={bad_report.ok}, "
          f"flagged block(s) {[p.number for p in problems]}")

    # fork detection across peers
    fork = compare_ledgers({"peer0": committer.ledger, "reloaded": reloaded})
    print(f"4. cross-peer comparison: forked={fork.forked} "
          f"(common height {fork.common_height})")
    assert report.ok and not bad_report.ok and not fork.forked
    print("\nall checks behaved as expected.")


if __name__ == "__main__":
    main()
