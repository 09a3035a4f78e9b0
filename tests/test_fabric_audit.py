"""Tests for ledger auditing and multi-channel ordering."""

import pytest

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.audit import audit_ledger, compare_ledgers
from repro.fabric.block import GENESIS_PREVIOUS_HASH, make_block
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.fabric.ledger import Ledger
from repro.ordering import OrderingServiceConfig, build_ordering_service


def signed_chain(registry, signers, blocks=3, channel="ch0"):
    ledger = Ledger(channel)
    for i in range(blocks):
        block = make_block(i, ledger.last_hash, [Envelope.raw(channel, 10)], channel)
        payload = block.header.signing_payload()
        for name in signers:
            block.signatures[name] = registry.get(name).sign(payload)
        ledger.append(block)
    return ledger


@pytest.fixture
def registry():
    reg = KeyRegistry(scheme=SimulatedECDSA())
    for i in range(4):
        reg.enroll(f"orderer{i}", org="orderers")
    return reg


class TestAuditLedger:
    def test_clean_chain_passes(self, registry):
        ledger = signed_chain(registry, ["orderer0", "orderer1"])
        report = audit_ledger(ledger, registry)
        assert report.ok
        assert report.min_signatures == 2
        assert report.problems() == []

    def test_forged_signature_flagged(self, registry):
        ledger = signed_chain(registry, ["orderer0"])
        ledger.get(1).signatures["orderer1"] = b"\x00" * 64
        report = audit_ledger(ledger, registry)
        assert not report.ok
        assert report.records[1].invalid_signatures == 1
        assert report.problems()[0].number == 1

    def test_tampered_data_flagged(self, registry):
        ledger = signed_chain(registry, ["orderer0"])
        ledger.get(2).envelopes.append(Envelope.raw("ch0", 99))
        report = audit_ledger(ledger, registry)
        assert not report.records[2].data_ok

    def test_unknown_signers_counted_not_failed(self, registry):
        ledger = signed_chain(registry, ["orderer0"])
        ledger.get(0).signatures["stranger"] = b"\x01" * 64
        report = audit_ledger(ledger, registry, orderer_names={"orderer0"})
        assert report.ok
        assert report.records[0].unknown_signers == 1

    def test_without_registry_counts_raw_signatures(self, registry):
        ledger = signed_chain(registry, ["orderer0", "orderer1", "orderer2"])
        report = audit_ledger(ledger)
        assert report.min_signatures == 3


class TestCompareLedgers:
    def test_identical_chains_no_fork(self, registry):
        a = signed_chain(registry, ["orderer0"], blocks=4)
        b = signed_chain(registry, ["orderer0"], blocks=4)
        # rebuild b as a true copy of a (same envelopes)
        b = a
        report = compare_ledgers({"peerA": a, "peerB": b})
        assert not report.forked
        assert report.common_height == 4

    def test_lag_is_not_a_fork(self, registry):
        full = signed_chain(registry, ["orderer0"], blocks=4)
        behind = Ledger("ch0")
        for i in range(2):
            behind.append(full.get(i))
        report = compare_ledgers({"fast": full, "slow": behind})
        assert not report.forked
        assert report.common_height == 2

    def test_fork_detected_at_first_divergence(self, registry):
        a = Ledger("ch0")
        b = Ledger("ch0")
        shared = make_block(0, GENESIS_PREVIOUS_HASH, [Envelope.raw("ch0", 1)], "ch0")
        a.append(shared)
        b.append(shared)
        a.append(make_block(1, a.last_hash, [Envelope.raw("ch0", 2)], "ch0"))
        b.append(make_block(1, b.last_hash, [Envelope.raw("ch0", 3)], "ch0"))
        report = compare_ledgers({"peerA": a, "peerB": b})
        assert report.forked
        assert report.fork_at == 1
        assert len(set(report.diverging_peers.values())) == 2

    def test_empty_input(self):
        assert not compare_ledgers({}).forked


class TestMultiChannel:
    def _service(self):
        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("alpha", max_message_count=5),
            extra_channels=[
                ChannelConfig("beta", max_message_count=3),
            ],
            physical_cores=None,
        )
        return build_ordering_service(config)

    def test_channels_get_independent_chains(self):
        service = self._service()
        blocks = {"alpha": [], "beta": []}
        service.frontends[0].on_block.append(
            lambda b: blocks[b.channel_id].append(b)
        )
        for _ in range(10):
            service.submit(Envelope.raw("alpha", 64))
        for _ in range(6):
            service.submit(Envelope.raw("beta", 64))
        service.run(3.0)
        assert len(blocks["alpha"]) == 2
        assert len(blocks["beta"]) == 2
        assert [b.number for b in blocks["alpha"]] == [0, 1]
        assert [b.number for b in blocks["beta"]] == [0, 1]
        # separate hash chains
        assert blocks["alpha"][0].header.digest() != blocks["beta"][0].header.digest()
        assert blocks["alpha"][1].header.previous_hash == blocks["alpha"][0].header.digest()
        assert blocks["beta"][1].header.previous_hash == blocks["beta"][0].header.digest()

    def test_channel_isolation_under_interleaving(self):
        service = self._service()
        alpha_envs = [Envelope.raw("alpha", 32) for _ in range(10)]
        beta_envs = [Envelope.raw("beta", 32) for _ in range(9)]
        delivered = {"alpha": [], "beta": []}
        service.frontends[0].on_block.append(
            lambda b: delivered[b.channel_id].extend(
                e.envelope_id for e in b.envelopes
            )
        )
        # interleave submissions
        for i in range(10):
            service.submit(alpha_envs[i])
            if i < 9:
                service.submit(beta_envs[i])
        service.run(3.0)
        assert delivered["alpha"] == [e.envelope_id for e in alpha_envs]
        assert delivered["beta"] == [e.envelope_id for e in beta_envs]

    def test_unknown_channel_envelope_ignored(self):
        service = self._service()
        service.submit(Envelope.raw("ghost-channel", 64))
        for _ in range(5):
            service.submit(Envelope.raw("alpha", 64))
        service.run(3.0)
        assert service.frontends[0].blocks_delivered == 1

    def test_duplicate_channel_rejected(self):
        config = OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("same", max_message_count=5),
            extra_channels=[ChannelConfig("same", max_message_count=3)],
            physical_cores=None,
        )
        with pytest.raises(ValueError):
            build_ordering_service(config)

    def test_no_fork_across_peers_of_bft_service(self):
        """The audit tool confirms what the BFT service guarantees."""
        from repro.fabric.committer import CommittingPeer

        service = self._service()
        channel = service.config.channel
        peers = {}
        for name in ("peerA", "peerB"):
            service.registry.enroll(name, org="orgX")
            peer = CommittingPeer(
                service.sim, service.network, name, channel, registry=service.registry
            )
            service.network.register(name, peer)
            service.frontends[0].attach_peer(name)
            peers[name] = peer
        for _ in range(15):
            service.submit(Envelope.raw("alpha", 64))
        service.run(3.0)
        report = compare_ledgers({n: p.ledger for n, p in peers.items()})
        assert not report.forked
        assert report.common_height == 3
