"""Unit tests for synchronization-phase internals (Mod-SMaRt rules)."""

import pytest

from repro.crypto.hashing import sha256
from repro.smart.consensus import batch_hash
from repro.smart.messages import (
    ClientRequest,
    StopData,
    Sync,
    WriteCertificate,
)


def request(seq, op=1, client=500):
    return ClientRequest(client_id=client, sequence=seq, operation=op)


def certificate(cid, regency, batch, writers=(0, 1, 2)):
    return WriteCertificate(
        cid=cid,
        regency=regency,
        value_hash=batch_hash(cid, batch),
        writers=tuple(writers),
        batch=batch,
    )


class TestValueSelection:
    """The new leader must re-propose any write-certified value."""

    def make_reports(self, cluster, entries):
        reports = {}
        for sender, last_executed, cert, pending in entries:
            reports[sender] = StopData(
                sender=sender,
                regency=1,
                last_executed_cid=last_executed,
                write_certificate=cert,
                pending=pending,
            )
        return reports

    def test_certified_value_chosen(self, cluster):
        synchronizer = cluster.replicas[1].synchronizer
        batch = [request(0)]
        cert = certificate(0, 0, batch)
        reports = self.make_reports(
            cluster,
            [
                (1, -1, None, []),
                (2, -1, cert, []),
                (3, -1, None, [request(1, op=9)]),
            ],
        )
        selected = synchronizer._select_value(0, reports)
        assert batch_hash(0, selected) == cert.value_hash

    def test_highest_regency_certificate_wins(self, cluster):
        synchronizer = cluster.replicas[1].synchronizer
        old_batch = [request(0, op=1)]
        new_batch = [request(0, op=2)]
        reports = self.make_reports(
            cluster,
            [
                (1, -1, certificate(0, 0, old_batch), []),
                (2, -1, certificate(0, 3, new_batch), []),
                (3, -1, None, []),
            ],
        )
        selected = synchronizer._select_value(0, reports)
        assert batch_hash(0, selected) == batch_hash(0, new_batch)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12: a WriteCertificate is writer ids plus a batch, "
        "and _select_value takes the highest regency from any single STOPDATA: "
        "one Byzantine report's forged certificate wins (docs/SMARTBFT.md, departures)",
    )
    def test_a_forged_higher_regency_certificate_is_not_selected(self, cluster):
        """Reports 1 and 2 carry the honest batch, certified at regency 0;
        report 3 carries writers (0, 1, 2) at regency 5 over a batch no
        client submitted.  Every certificate passes the validity check."""
        synchronizer = cluster.replicas[1].synchronizer
        honest = [request(0, op=7)]
        forged = [request(0, op=666, client=999)]
        reports = self.make_reports(
            cluster,
            [
                (1, -1, certificate(0, 0, honest), []),
                (2, -1, certificate(0, 0, honest), []),
                (3, -1, certificate(0, 5, forged, writers=(0, 1, 2)), []),
            ],
        )
        assert all(
            synchronizer._certificate_valid(report.write_certificate)
            for report in reports.values()
        )
        assert synchronizer._select_value(0, reports) == honest

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 12b: at equal regency _select_value keeps the first "
        "certificate in sender order, so a forged one reported first wins; "
        "item 12a's regency bound leaves this open, and BFT-SMaRt has no "
        "signature to check",
    )
    def test_a_forged_same_regency_certificate_is_not_selected(self, cluster):
        """Report 1 carries writers (0, 1, 2) at regency 0 over a batch no
        client submitted; reports 2 and 3 carry the honest batch at
        regency 0.  Every certificate is below the reports' regency 1 and
        passes the validity check."""
        synchronizer = cluster.replicas[1].synchronizer
        honest = [request(0, op=7)]
        forged = [request(0, op=666, client=999)]
        reports = self.make_reports(
            cluster,
            [
                (1, -1, certificate(0, 0, forged, writers=(0, 1, 2)), []),
                (2, -1, certificate(0, 0, honest), []),
                (3, -1, certificate(0, 0, honest), []),
            ],
        )
        assert all(
            synchronizer._certificate_valid(report.write_certificate)
            and report.write_certificate.regency < report.regency
            for report in reports.values()
        )
        assert synchronizer._select_value(0, reports) == honest

    def test_certificates_for_other_instances_ignored(self, cluster):
        synchronizer = cluster.replicas[1].synchronizer
        stale = certificate(7, 0, [request(0, op=1)])
        pending = [request(1, op=5)]
        reports = self.make_reports(
            cluster,
            [(1, -1, stale, pending), (2, -1, None, []), (3, -1, None, [])],
        )
        selected = synchronizer._select_value(0, reports)
        assert [r.operation for r in selected] == [5]

    def test_without_certificate_pending_union_proposed(self, cluster):
        synchronizer = cluster.replicas[1].synchronizer
        a, b = request(0, op=1, client=501), request(0, op=2, client=502)
        reports = self.make_reports(
            cluster,
            [(1, -1, None, [a]), (2, -1, None, [b, a]), (3, -1, None, [])],
        )
        selected = synchronizer._select_value(0, reports)
        assert {r.request_id for r in selected} == {a.request_id, b.request_id}
        assert len(selected) == 2  # deduplicated

    def test_already_executed_requests_filtered(self, cluster):
        replica = cluster.replicas[1]
        done = request(0, op=1, client=501)
        replica._executed_ids.add(done.request_id)
        reports = self.make_reports(cluster, [(1, 0, None, [done])])
        selected = replica.synchronizer._select_value(1, reports)
        assert selected == []


class TestCertificateValidation:
    def test_quorumless_certificate_rejected(self, cluster):
        synchronizer = cluster.replicas[0].synchronizer
        batch = [request(0)]
        weak = certificate(0, 0, batch, writers=(0, 1))  # only 2 of 4
        assert not synchronizer._certificate_valid(weak)

    def test_hash_mismatch_rejected(self, cluster):
        synchronizer = cluster.replicas[0].synchronizer
        # a made-up hash, and the honest hash over a swapped operation
        for value_hash, batch in (
            (sha256("lies"), [request(0)]),
            (batch_hash(0, [request(0)]), [request(0, op=-1)]),
        ):
            cert = WriteCertificate(
                cid=0,
                regency=0,
                value_hash=value_hash,
                writers=(0, 1, 2),
                batch=batch,
            )
            assert not synchronizer._certificate_valid(cert)

    def test_none_certificate_valid(self, cluster):
        assert cluster.replicas[0].synchronizer._certificate_valid(None)


class TestSyncAcceptance:
    def test_sync_from_wrong_leader_ignored(self, cluster):
        replica = cluster.replicas[2]
        batch = [request(0)]
        bogus = Sync(
            sender=3,  # regency 1's leader is replica 1
            regency=1,
            cid=0,
            batch=batch,
            value_hash=batch_hash(0, batch),
            proofs=[StopData(i, 1, -1, None) for i in range(3)],
        )
        replica.deliver(3, bogus)
        assert replica.regency == 0

    def test_sync_with_too_few_proofs_ignored(self, cluster):
        replica = cluster.replicas[2]
        batch = [request(0)]
        thin = Sync(
            sender=1,
            regency=1,
            cid=0,
            batch=batch,
            value_hash=batch_hash(0, batch),
            proofs=[StopData(1, 1, -1, None)],  # need n-f = 3
        )
        replica.deliver(1, thin)
        assert replica.regency == 0

    def test_sync_ignoring_certificate_rejected(self, cluster):
        """A Byzantine new leader proposing its own value despite a
        certified one in its proofs must be refused."""
        replica = cluster.replicas[2]
        certified_batch = [request(0, op=7)]
        cert = certificate(0, 0, certified_batch)
        own_batch = [request(0, op=666, client=999)]
        evil = Sync(
            sender=1,
            regency=1,
            cid=0,
            batch=own_batch,
            value_hash=batch_hash(0, own_batch),
            proofs=[
                StopData(1, 1, -1, None),
                StopData(2, 1, -1, cert),
                StopData(3, 1, -1, None),
            ],
        )
        replica.deliver(1, evil)
        assert replica.regency == 0  # refused outright

    def test_honest_sync_adopted(self, cluster):
        replica = cluster.replicas[2]
        batch = [request(0, op=7)]
        sync = Sync(
            sender=1,
            regency=1,
            cid=0,
            batch=batch,
            value_hash=batch_hash(0, batch),
            proofs=[StopData(i, 1, -1, None) for i in (1, 2, 3)],
        )
        replica.deliver(1, sync)
        assert replica.regency == 1
        inst = replica.instances[0]
        assert inst.proposed_hash[1] == batch_hash(0, batch)
        assert 1 in inst.write_sent


class TestEmptySyncRound:
    """Satellite: a value selection with no STOPDATA reports must fail
    loudly, not with max()'s bare ValueError."""

    def test_send_sync_with_no_reports_raises_named_error(self, cluster):
        from repro.smart.synchronization import EmptySyncRound

        synchronizer = cluster.replicas[1].synchronizer
        with pytest.raises(EmptySyncRound, match="no STOPDATA reports"):
            synchronizer._send_sync(1, {})

    def test_empty_sync_round_is_a_runtime_error(self):
        from repro.smart.synchronization import EmptySyncRound

        assert issubclass(EmptySyncRound, RuntimeError)

    def test_normal_path_unaffected(self, cluster):
        """A singleton report set (the n-f threshold at n=4, f=1 is 3,
        but the guard only rejects *empty*) still produces a SYNC."""
        synchronizer = cluster.replicas[1].synchronizer
        reports = {
            1: StopData(
                sender=1,
                regency=1,
                last_executed_cid=-1,
                write_certificate=None,
                pending=[request(0)],
            )
        }
        synchronizer._send_sync(1, reports)
        assert 1 in synchronizer._sync_sent
