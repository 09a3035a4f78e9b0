"""Tests for the message log: the hub's ``network``-track instants."""


from repro.obs import Observability
from repro.obs.observability import _describe
from tests.conftest import Cluster


class TestMessageTracer:
    """An ``Observability(messages=True)`` hub logs every send the
    network accepts, from the network's one observer hook."""

    def run_traced(self):
        cluster = Cluster()
        hub = Observability(clock=lambda: cluster.sim.now, messages=True)
        cluster.network.obs = hub
        proxy = cluster.proxy()
        future = proxy.invoke(1)
        assert cluster.drain([future])
        cluster.run(0.5)
        return cluster, hub.tracer.instants

    def test_captures_all_kinds_by_default(self):
        _cluster, log = self.run_traced()
        kinds = {marker.name for marker in log}
        assert {"ClientRequest", "Propose", "Write", "Accept", "Reply"} <= kinds
        assert {marker.track for marker in log} == {"network"}

    def test_events_time_ordered(self):
        _cluster, log = self.run_traced()
        times = [marker.time for marker in log]
        assert times == sorted(times)

    def test_detail_extraction(self):
        _cluster, log = self.run_traced()
        proposes = [marker for marker in log if marker.name == "Propose"]
        assert len(proposes) == 3
        assert proposes[0].args["detail"] == "cid=0"
        assert proposes[0].args["src"] == 0

    def test_describe_probes_known_attributes(self):
        class WithCid:
            cid = 7

        assert _describe(WithCid()) == "cid=7"

    def test_describe_falls_back_to_type_name(self):
        class Opaque:
            pass

        assert _describe(Opaque()) == "Opaque"
        assert _describe("payload") == "str"

    def test_detach_stops_capture(self):
        cluster = Cluster()
        hub = Observability(clock=lambda: cluster.sim.now, messages=True)
        cluster.network.obs = hub
        cluster.network.obs = None
        proxy = cluster.proxy()
        future = proxy.invoke(1)
        assert cluster.drain([future])
        assert hub.tracer.instants == []
        assert not cluster.network._intercepting
