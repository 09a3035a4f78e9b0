"""End-to-end integration: the full HLF pipeline over the BFT service.

Clients endorse at endorsing peers, submit envelopes through frontends,
the BFT-SMaRt cluster orders them into signed blocks, committing peers
validate (policy + MVCC) and commit, and clients receive events --
paper Figure 2, all six steps.
"""

from dataclasses import replace

import pytest

from repro.fabric import And, SignedBy
from repro.fabric.client import EndorsementError
from repro.fabric.envelope import Envelope
from repro.faults.invariants import check_serializability
from repro.ordering.backends import BACKENDS
from tests.conftest import BFT_FABRIC, SOLO_FABRIC, FabricNetwork
from tests.test_fabric_hash_budget import run_hot_keys


@pytest.fixture
def pipeline():
    """The pipeline; every test using it ends serializable."""
    pipeline = FabricNetwork(BFT_FABRIC)
    yield pipeline
    assert check_serializability(pipeline.committers) == []


class TestFullFlow:
    def test_transaction_commits_end_to_end(self, pipeline):
        client = pipeline.up.client("alice")
        future = client.submit_transaction("ch0", "kv", "put", ("k", "v"))
        assert pipeline.drain([future])
        event = future.value
        assert event.validation_code == "VALID"
        for committer in pipeline.committers:
            assert committer.state.get_value("k") == "v"
            assert committer.ledger.verify_chain()

    def test_asset_lifecycle(self, pipeline):
        client = pipeline.up.client("alice")
        created = client.submit_transaction(
            "ch0", "asset-transfer", "create", ("car1", "alice", 900)
        )
        assert pipeline.drain([created])
        transferred = client.submit_transaction(
            "ch0", "asset-transfer", "transfer", ("car1", "alice", "bob")
        )
        assert pipeline.drain([transferred])
        assert transferred.value.validation_code == "VALID"
        query = client.query("ch0", "asset-transfer", "read", ("car1",))
        assert pipeline.drain([query])
        assert query.value["owner"] == "bob"

    def test_both_peers_converge(self, pipeline):
        client = pipeline.up.client("alice")
        futures = [
            client.submit_transaction("ch0", "kv", "put", (f"k{i}", i))
            for i in range(6)
        ]
        assert pipeline.drain(futures)
        a, b = pipeline.committers
        assert a.ledger.height == b.ledger.height
        assert a.ledger.last_hash == b.ledger.last_hash
        assert a.state.snapshot() == b.state.snapshot()

    def test_mvcc_conflict_marks_transaction_invalid(self, pipeline):
        """Two clients race a read-modify-write on the same key; the
        loser lands in the chain marked INVALID and its write is
        discarded (paper §3 step 5-6)."""
        alice = pipeline.up.client("alice")
        bob = pipeline.up.client("bob")
        setup = alice.submit_transaction("ch0", "kv", "put", ("counter", 0))
        assert pipeline.drain([setup])
        # both increment concurrently from the same snapshot
        futures = [
            alice.submit_transaction("ch0", "kv", "increment", ("counter",)),
            bob.submit_transaction("ch0", "kv", "increment", ("counter",)),
        ]
        assert pipeline.drain(futures)
        codes = sorted(f.value.validation_code for f in futures)
        assert codes == ["MVCC_READ_CONFLICT", "VALID"]
        assert pipeline.committers[0].state.get_value("counter") == 1

    def test_invalid_transactions_stay_on_ledger(self, pipeline):
        """Invalid transactions are recorded (identifying misbehaving
        clients) but not executed."""
        alice = pipeline.up.client("alice")
        bob = pipeline.up.client("bob")
        setup = alice.submit_transaction("ch0", "kv", "put", ("x", 0))
        assert pipeline.drain([setup])
        futures = [
            alice.submit_transaction("ch0", "kv", "increment", ("x",)),
            bob.submit_transaction("ch0", "kv", "increment", ("x",)),
        ]
        assert pipeline.drain(futures)
        total_txs = pipeline.committers[0].ledger.total_transactions()
        assert total_txs == 3  # all three are in the chain

    def test_endorsement_failure_reported_to_client(self, pipeline):
        client = pipeline.up.client("alice")
        future = client.submit_transaction(
            "ch0", "asset-transfer", "read", ("ghost",)
        )
        pipeline.drain([future], deadline=10.0)
        with pytest.raises(EndorsementError):
            _ = future.value

    def test_smallbank_transfers_conserve_money(self, pipeline):
        client = pipeline.up.client("bank")
        opens = [
            client.submit_transaction("ch0", "smallbank", "open", (f"acct{i}", 100))
            for i in range(4)
        ]
        assert pipeline.drain(opens)
        transfers = []
        for i in range(6):
            transfers.append(
                client.submit_transaction(
                    "ch0", "smallbank", "transfer",
                    (f"acct{i % 4}", f"acct{(i + 1) % 4}", 10),
                )
            )
            assert pipeline.drain([transfers[-1]])
        state = pipeline.committers[0].state
        total = sum(state.get_value(f"acct/acct{i}") for i in range(4))
        assert total == 400

    def test_durable_wal_logs_fabric_transactions(self):
        """Every replica's consensus WAL logs the decided Fabric
        envelope, and recovering the WAL returns it with its digest."""
        pipeline = FabricNetwork(replace(BFT_FABRIC, durable_wal=True))
        client = pipeline.up.client("alice")
        future = client.submit_transaction("ch0", "kv", "put", ("k", "v"))
        assert pipeline.drain([future])
        assert future.value.validation_code == "VALID"
        (block,) = list(pipeline.committers[0].ledger)
        (ordered,) = block.envelopes
        assert ordered.transaction is not None
        for replica in pipeline.service.replicas:
            recovered = [
                request.operation
                for _cid, batch in replica.log.recover().entries
                for request in batch
                if isinstance(request.operation, Envelope)
            ]
            assert [envelope.digest() for envelope in recovered] == [ordered.digest()]
            assert recovered[0].transaction.digest() == ordered.transaction.digest()

    def test_ordering_node_crash_mid_pipeline(self, pipeline):
        client = pipeline.up.client("alice")
        first = client.submit_transaction("ch0", "kv", "put", ("a", 1))
        assert pipeline.drain([first])
        pipeline.service.crash_node(3)  # non-leader ordering node
        second = client.submit_transaction("ch0", "kv", "put", ("b", 2))
        assert pipeline.drain([second], deadline=30.0)
        assert second.value.validation_code == "VALID"

    def test_stricter_policy_requires_both_orgs(self):
        pipeline = FabricNetwork(
            replace(BFT_FABRIC, endorsement_policy=And(SignedBy("org1"), SignedBy("org2")))
        )
        client = pipeline.up.client("alice")
        future = client.submit_transaction("ch0", "kv", "put", ("k", "v"))
        assert pipeline.drain([future])
        assert future.value.validation_code == "VALID"
        # the transaction carries endorsements from both orgs
        tx = pipeline.committers[0].ledger.get(
            future.value.block_number
        ).envelopes[0].transaction
        assert {e.org for e in tx.endorsements} == {"org1", "org2"}


@pytest.mark.parametrize("backend", BACKENDS)
def test_hot_keys_serializable_on_every_orderer(backend):
    """The seeded hot-key workload through each of the four orderers:
    every transaction gets a validation code, both peers hold the same
    chain and state, and what committed is serializable."""
    pipeline = FabricNetwork(replace(SOLO_FABRIC, backend=backend))
    run_hot_keys(pipeline, 100)
    assert check_serializability(pipeline.committers) == []
    first, second = pipeline.committers
    assert first.ledger.last_hash == second.ledger.last_hash
    assert first.state.snapshot() == second.state.snapshot()
    codes = [code.value for record in first.commits for code in record.codes]
    assert len(codes) == 100 and "MVCC_READ_CONFLICT" in codes
