"""Edge cases of the Fabric client SDK and CPU-model timing."""

from dataclasses import replace

import pytest

from repro.sim import CPU, Simulator


class TestClientEdgeCases:
    def _pipeline(self, **fields):
        from tests.conftest import BFT_FABRIC, FabricNetwork

        return FabricNetwork(replace(BFT_FABRIC, **fields))

    def test_mismatched_endorsements_fail_policy(self):
        """If the two endorsers return *different* rw-sets (state
        divergence or a lying endorser), no matching group satisfies
        an AND policy and the client reports failure."""
        from repro.fabric import And, SignedBy
        from repro.fabric.client import EndorsementError

        pipeline = self._pipeline(
            endorsement_policy=And(SignedBy("org1"), SignedBy("org2"))
        )
        # desynchronize endorser1's world state: both endorsements
        # succeed but with different read-sets/results, so no matching
        # group can satisfy AND(org1, org2)
        pipeline.committers[1].state.apply_write("k", 100, (9, 9))
        client = pipeline.up.client("alice")
        future = client.submit_transaction("ch0", "kv", "increment", ("k",))
        pipeline.drain([future], deadline=15.0)
        assert future.done
        with pytest.raises(EndorsementError):
            _ = future.value

    def test_unverifiable_endorser_response_ignored(self):
        """Responses with bad signatures never count toward assembly:
        the first choice's forged answer leaves its round unanswered,
        and the proposal timeout widens it to endorser1."""
        pipeline = self._pipeline()
        from repro.fabric.api import ProposalResponseMessage

        def forge(src, dst, payload):
            if isinstance(payload, ProposalResponseMessage) and src == "endorser0":
                payload.response.signature = b"\x00" * 64
            return payload

        pipeline.network.add_filter(forge)
        client = pipeline.up.client("alice")
        # Or-policy: endorser1 alone still satisfies it
        future = client.submit_transaction("ch0", "kv", "put", ("k", "v"))
        assert pipeline.drain([future])
        assert future.value.validation_code == "VALID"
        tx = (
            pipeline.committers[0]
            .ledger.get(future.value.block_number)
            .envelopes[0]
            .transaction
        )
        assert {e.endorser for e in tx.endorsements} == {"endorser1"}

    def test_envelope_size_override(self):
        pipeline = self._pipeline()
        from repro.fabric import FabricClient, SignedBy

        identity = pipeline.registry.enroll("sizer", org="clients")
        client = FabricClient(
            pipeline.sim,
            pipeline.network,
            identity,
            pipeline.registry,
            endorsers=["endorser0"],
            orderer_endpoint=pipeline.up.ingress,
            default_policy=SignedBy("org1"),
            envelope_size=4096,
        )
        future = client.submit_transaction("ch0", "kv", "put", ("k", "v"))
        assert pipeline.drain([future])
        block = pipeline.committers[0].ledger.get(future.value.block_number)
        sizes = {e.payload_size for e in block.envelopes}
        assert 4096 in sizes

    def test_estimated_size_scales_with_content(self):
        from repro.fabric.client import FabricClient
        from repro.fabric.envelope import (
            ChaincodeProposal,
            ReadSet,
            Transaction,
            WriteSet,
        )

        def tx_with(keys):
            return Transaction(
                proposal=ChaincodeProposal(
                    channel_id="ch0", chaincode_id="cc", function="f",
                    args=("arg",), client="c", nonce=0,
                ),
                read_set=ReadSet({f"k{i}": (0, 0) for i in range(keys)}),
                write_set=WriteSet({f"k{i}": i for i in range(keys)}),
                result="ok",
                endorsements=[],
            )

        small = FabricClient._estimate_size(tx_with(1))
        large = FabricClient._estimate_size(tx_with(20))
        assert large > small
        # the paper: real transactions gzip to ~1 KB
        assert 300 < small < 2000


class TestCpuStaggeredArrivals:
    def test_rates_rebalance_when_tasks_join(self):
        """A task running alone at speed 1.0 slows to the fair share
        when the machine saturates, and the completion times reflect
        the exact integral of the rate."""
        sim = Simulator()
        cpu = CPU(sim, physical_cores=1, hardware_threads=2, ht_yield=1.3)
        first = cpu.submit(1.0)
        # second task joins at t=0.5; both then run at 0.65 core-speed
        done_times = {}
        sim.schedule(0.5, lambda: cpu.submit(1.0).add_callback(
            lambda _f: done_times.__setitem__("second", sim.now)))
        first.add_callback(lambda _f: done_times.__setitem__("first", sim.now))
        sim.run()
        # first: 0.5 work done by t=0.5, remaining 0.5 at 0.65 speed
        assert done_times["first"] == pytest.approx(0.5 + 0.5 / 0.65, rel=1e-6)
        # second: runs 0.65 until first finishes, then 1.0
        elapsed_shared = done_times["first"] - 0.5
        remaining = 1.0 - 0.65 * elapsed_shared
        assert done_times["second"] == pytest.approx(
            done_times["first"] + remaining, rel=1e-6
        )

    def test_background_load_change_mid_task(self):
        sim = Simulator()
        cpu = CPU(sim, physical_cores=4)
        future = cpu.submit(1.0)
        sim.schedule(0.5, cpu.set_background_load, 0.5)
        sim.run()
        # 0.5 work at speed 1.0, then 0.5 at speed 0.5
        assert sim.now == pytest.approx(0.5 + 1.0, rel=1e-6)
        assert future.done
