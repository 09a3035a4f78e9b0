"""Tests for ledger persistence (save/load with digests intact)."""

import pytest

from repro.fabric import KVChaincode, SignedBy
from repro.fabric.audit import audit_ledger
from repro.fabric.persistence import (
    block_from_dict,
    block_to_dict,
    load_ledger,
    save_ledger,
)
from repro.ordering.backends import ScenarioRow, SpacedLoad, stand_up


def committed_pipeline():
    """Run five real transactions through the full stack over BFT-SMaRt
    (one org1 peer, blocks of two) and return the committing peer, the
    registry and the ordering service."""
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
    assert up.sim.drain(futures, 30.0)
    return committer, up.registry, up.service


class TestPersistence:
    def test_roundtrip_preserves_chain(self, tmp_path):
        committer, registry, _service = committed_pipeline()
        path = str(tmp_path / "chain.json")
        save_ledger(committer.ledger, path)
        reloaded = load_ledger(path)
        assert reloaded.height == committer.ledger.height
        assert reloaded.verify_chain()
        assert reloaded.last_hash == committer.ledger.last_hash

    def test_reloaded_envelopes_keep_ids_and_digests(self, tmp_path, monkeypatch):
        """Loading constructs every envelope and transaction *with* its
        saved id -- hashed fields are never written after construction
        -- and draws no id: not from the stream of the run that wrote
        the ledger, not from the hand-built default."""
        import itertools

        import repro.fabric.envelope as envelope_module

        handmade = itertools.count()
        monkeypatch.setattr(envelope_module, "_handmade_ids", handmade)
        committer, _registry, service = committed_pipeline()
        path = str(tmp_path / "chain.json")
        save_ledger(committer.ledger, path)
        reloaded = load_ledger(path)
        # five transactions in five envelopes: the run minted ten ids
        assert next(envelope_module.envelope_ids(service.sim)) == 10
        assert next(handmade) == 0
        saved = [e for block in committer.ledger for e in block.envelopes]
        loaded = [e for block in reloaded for e in block.envelopes]
        assert [e.envelope_id for e in loaded] == [e.envelope_id for e in saved]
        assert [e.digest() for e in loaded] == [e.digest() for e in saved]
        assert [e.transaction.tx_id for e in loaded] == [
            e.transaction.tx_id for e in saved
        ]

    def test_saving_copies_the_sealed_write_set(self, tmp_path):
        """The ledger's write sets are sealed (read-only views): the
        serializer copies them rather than handing them to ``json``."""
        committer, _registry, _service = committed_pipeline()
        block = committer.ledger.get(0)
        written = block_to_dict(block)["envelopes"][0]["transaction"]["writes"]
        live = block.envelopes[0].transaction.write_set.writes
        assert type(written) is dict and written == live and written is not live

    def test_reloaded_chain_passes_full_audit(self, tmp_path):
        committer, registry, service = committed_pipeline()
        path = str(tmp_path / "chain.json")
        save_ledger(committer.ledger, path)
        reloaded = load_ledger(path)
        report = audit_ledger(
            reloaded, registry, orderer_names={n.name for n in service.nodes}
        )
        assert report.ok
        assert report.min_signatures >= 2  # f+1 orderer signatures survive

    def test_endorsement_signatures_survive_reload(self, tmp_path):
        committer, registry, _service = committed_pipeline()
        path = str(tmp_path / "chain.json")
        save_ledger(committer.ledger, path)
        reloaded = load_ledger(path)
        checked = 0
        for block in reloaded:
            for envelope in block.envelopes:
                tx = envelope.transaction
                if tx is None:
                    continue
                payload = tx.response_payload()
                for endorsement in tx.endorsements:
                    verifier = registry.verifier_of(endorsement.endorser)
                    assert verifier.verify(payload, endorsement.signature)
                    checked += 1
        assert checked >= 5

    def test_tampered_file_rejected_on_load(self, tmp_path):
        import json

        committer, _registry, _service = committed_pipeline()
        path = str(tmp_path / "chain.json")
        save_ledger(committer.ledger, path)
        with open(path) as fh:
            payload = json.load(fh)
        # change a committed value inside a transaction
        for block in payload["blocks"]:
            for envelope in block["envelopes"]:
                if envelope["transaction"] is not None:
                    envelope["transaction"]["writes"] = {"key0": {"n": 666}}
                    break
        with open(path, "w") as fh:
            json.dump(payload, fh)
        from repro.fabric.ledger import LedgerError

        with pytest.raises(LedgerError):
            load_ledger(path)

    def test_wrong_format_version_rejected(self, tmp_path):
        import json

        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"format": 999, "channel_id": "x", "blocks": []}, fh)
        with pytest.raises(ValueError):
            load_ledger(path)

    def test_block_dict_roundtrip(self, tmp_path):
        committer, _registry, _service = committed_pipeline()
        block = committer.ledger.get(0)
        clone = block_from_dict(block_to_dict(block))
        assert clone.header.digest() == block.header.digest()
        assert clone.verify_data()
        assert [e.digest() for e in clone.envelopes] == [
            e.digest() for e in block.envelopes
        ]
