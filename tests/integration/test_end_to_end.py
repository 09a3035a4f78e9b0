"""End-to-end integration: the full HLF pipeline over the BFT service.

Clients endorse at endorsing peers, submit envelopes through frontends,
the BFT-SMaRt cluster orders them into signed blocks, committing peers
validate (policy + MVCC) and commit, and clients receive events --
paper Figure 2, all six steps.
"""

import pytest

from repro.fabric import (
    AssetTransferChaincode,
    ChannelConfig,
    CommittingPeer,
    EndorsingPeer,
    FabricClient,
    KVChaincode,
    Or,
    SignedBy,
    SmallBankChaincode,
)
from repro.fabric.client import EndorsementError
from repro.fabric.envelope import Envelope
from repro.faults.invariants import check_serializability
from repro.ordering import OrderingServiceConfig, build_ordering_service


class Pipeline:
    """A complete two-org HLF network over a 4-node BFT service."""

    def __init__(self, max_count=2, policy=None, durable_wal=False):
        self.policy = policy or Or(SignedBy("org1"), SignedBy("org2"))
        channel = ChannelConfig(
            "ch0",
            max_message_count=max_count,
            batch_timeout=0.4,
            endorsement_policy=self.policy,
        )
        config = OrderingServiceConfig(
            f=1,
            channel=channel,
            num_frontends=1,
            physical_cores=None,
            enable_batch_timeout=True,
            durable_wal=durable_wal,
        )
        self.service = build_ordering_service(config)
        self.sim = self.service.sim
        self.network = self.service.network
        self.registry = self.service.registry
        orderer_names = {node.name for node in self.service.nodes}

        self.committers = []
        for i in range(2):
            name = f"peer{i}"
            self.registry.enroll(name, org=f"org{i + 1}")
            committer = CommittingPeer(
                self.sim,
                self.network,
                name,
                channel,
                registry=self.registry,
                orderer_names=orderer_names,
                required_block_signatures=2,  # f+1
            )
            self.network.register(name, committer)
            self.service.frontends[0].attach_peer(name)
            self.committers.append(committer)

        self.endorsers = []
        chaincodes = {
            "kv": KVChaincode(),
            "asset-transfer": AssetTransferChaincode(),
            "smallbank": SmallBankChaincode(),
        }
        for i in range(2):
            name = f"endorser{i}"
            identity = self.registry.enroll(name, org=f"org{i + 1}")
            committer = self.committers[i]
            endorser = EndorsingPeer(
                self.network,
                name,
                identity,
                state_provider=lambda _ch, c=committer: c.state,
                chaincodes=dict(chaincodes),
            )
            self.network.register(name, endorser)
            self.endorsers.append(endorser)

    def client(self, name, org="clients"):
        identity = self.registry.enroll(name, org=org)
        return FabricClient(
            self.sim,
            self.network,
            identity,
            self.registry,
            endorsers=["endorser0", "endorser1"],
            orderer_endpoint=self.service.frontends[0].name,
            default_policy=self.policy,
        )

    def drain(self, futures, deadline=30.0):
        return self.sim.drain(futures, self.sim.now + deadline)


@pytest.fixture
def pipeline():
    """The pipeline; every test using it ends serializable."""
    pipeline = Pipeline()
    yield pipeline
    assert check_serializability(pipeline.committers) == []


class TestFullFlow:
    def test_transaction_commits_end_to_end(self, pipeline):
        client = pipeline.client("alice")
        future = client.submit_transaction("ch0", "kv", "put", ("k", "v"))
        assert pipeline.drain([future])
        event = future.value
        assert event.validation_code == "VALID"
        for committer in pipeline.committers:
            assert committer.state.get_value("k") == "v"
            assert committer.ledger.verify_chain()

    def test_asset_lifecycle(self, pipeline):
        client = pipeline.client("alice")
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
        client = pipeline.client("alice")
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
        alice = pipeline.client("alice")
        bob = pipeline.client("bob")
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
        alice = pipeline.client("alice")
        bob = pipeline.client("bob")
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
        client = pipeline.client("alice")
        future = client.submit_transaction(
            "ch0", "asset-transfer", "read", ("ghost",)
        )
        pipeline.drain([future], deadline=10.0)
        with pytest.raises(EndorsementError):
            _ = future.value

    def test_smallbank_transfers_conserve_money(self, pipeline):
        client = pipeline.client("bank")
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
        pipeline = Pipeline(durable_wal=True)
        client = pipeline.client("alice")
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
        client = pipeline.client("alice")
        first = client.submit_transaction("ch0", "kv", "put", ("a", 1))
        assert pipeline.drain([first])
        pipeline.service.crash_node(3)  # non-leader ordering node
        second = client.submit_transaction("ch0", "kv", "put", ("b", 2))
        assert pipeline.drain([second], deadline=30.0)
        assert second.value.validation_code == "VALID"

    def test_stricter_policy_requires_both_orgs(self):
        from repro.fabric import And

        pipeline = Pipeline(policy=And(SignedBy("org1"), SignedBy("org2")))
        client = pipeline.client("alice")
        future = client.submit_transaction("ch0", "kv", "put", ("k", "v"))
        assert pipeline.drain([future])
        assert future.value.validation_code == "VALID"
        # the transaction carries endorsements from both orgs
        tx = pipeline.committers[0].ledger.get(
            future.value.block_number
        ).envelopes[0].transaction
        assert {e.org for e in tx.endorsements} == {"org1", "org2"}
