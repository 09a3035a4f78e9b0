"""Cross-commit pin of what the network computes per message copy.

Recorded once into ``tests/data/golden/network_links_seed0.json`` and
never regenerated: a change to ``sim/network.py`` that claims the same
arithmetic must reproduce, byte for byte, for a seeded run on a jittered
``ConstantLatency`` LAN and one on the jittered AWS ``MatrixLatency`` of
``bench/topology.py``:

- every delivery in order -- ``time.hex()``, source, receiving endpoint
  and payload;
- ``bytes_by_link`` (links that carried only zero-byte messages
  included), each NIC's ``bytes_sent`` / ``busy_seconds`` /
  ``_next_free``, the message counters and the network RNG's next draw.

Each run sends broadcasts and plain sends of mixed sizes from a seeded
plan, loops back, crashes and recovers a node, unregisters one id while
copies to it are in flight and registers it again (at another site on
the WAN) while they still are, lets the new incarnation send behind the
old one's FIFO floor, runs a stretch under interceptors (a filter that
delays, duplicates and reorders, a drop rate, a blocked link, an
observability hub), changes a NIC's bandwidth mid-run, and drives a
second, zero-overhead network on the same simulator with zero-byte
messages.  The file also pins ``delay()`` for every site pair of the AWS
matrix under a seeded rng.

``python -m tests.test_network_link_pins`` prints the recording.
"""

import json
import pathlib
import random

import pytest

from repro.bench.topology import AWS_REGIONS, aws_latency_model
from repro.sim import ConstantLatency, Network, RandomStreams, Simulator
from repro.sim.network import Intercept

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden" / "network_links_seed0.json"

#: node ids mix strings and ints, as deployments do
NODES = ("a", "b", "c", "d", "e", 7)
WAN_SITES = {
    "a": "oregon", "b": "virginia", "c": "sydney", "d": "oregon", "e": "ireland",
    7: "saopaulo",
}
SIZES = (0, 1, 64, 1500, 40_000, 400_000)


class Recorder:
    def __init__(self, sim, log, label):
        self.sim, self.log, self.label = sim, log, label

    def deliver(self, src, payload):
        self.log.append([self.sim.now.hex(), src, self.label, payload])


class CountingHub:
    def __init__(self):
        self.messages = 0

    def on_message(self, src, dst, payload, wire_bytes):
        self.messages += 1


def interceptor(src, dst, payload):
    """Deterministic by payload: drop, delay, duplicate, reorder, swap."""
    kind = payload % 7
    if kind == 0:
        return None
    if kind == 1:
        return Intercept(payload, extra_delay=0.002)
    if kind == 2:
        return Intercept(payload + 100_000, copies=3, copy_spacing=0.0005)
    if kind == 3:
        return Intercept(payload, extra_delay=0.004, bypass_fifo=True)
    if kind == 4:
        return Intercept(payload, drop=True)
    return payload


def _plan(rng: random.Random, count: int, horizon: float):
    ops = []
    for token in range(count):
        at = rng.uniform(0.0, horizon)
        src = rng.choice(NODES)
        size = rng.choice(SIZES)
        if rng.random() < 0.5:
            # a destination list may name the sender (loopback) and an
            # id that was never registered
            dsts = [n for n in NODES + ("ghost",) if rng.random() < 0.6]
            ops.append((at, "broadcast", src, dsts, token, size))
        else:
            ops.append((at, "send", src, rng.choice(NODES + ("ghost",)), token, size))
    return sorted(ops, key=lambda op: (op[0], op[4]))


def _snapshot(net: Network, ids) -> dict:
    nics = {}
    for node in sorted(ids, key=str):
        nic = net.nic_of(node)
        nics[str(node)] = [nic.bytes_sent, nic.busy_seconds.hex(), nic._next_free.hex()]
    stats = net.stats
    return {
        "bytes_by_link": sorted(
            ([src, dst, count] for (src, dst), count in stats.bytes_by_link.items()),
            key=lambda row: (str(row[0]), str(row[1])),
        ),
        "nics": nics,
        "counters": [
            stats.messages_sent, stats.messages_delivered, stats.messages_dropped,
            stats.bytes_sent,
        ],
        "next_draw": net._rng.random().hex(),
    }


def record_run(latency, sites) -> dict:
    sim = Simulator()
    log, zero_log = [], []
    net = Network(sim, latency, default_bandwidth_bps=1e9, streams=RandomStreams(0))
    for node in NODES:
        net.register(node, Recorder(sim, log, str(node)), site=sites[node],
                     bandwidth_bps=2e8 if node == "d" else None)

    def act(kind, src, dst, token, size):
        if kind == "broadcast":
            net.broadcast(src, dst, token, size_bytes=size)
        else:
            net.send(src, dst, token, size_bytes=size)

    for at, kind, src, dst, token, size in _plan(random.Random(0), 600, 0.6):
        sim.schedule_at(at, act, kind, src, dst, token, size)

    # crash and recover with copies in flight
    sim.schedule_at(0.1, net.crash, "c")
    sim.schedule_at(0.13, net.recover, "c")

    # unregister "e" with copies to it in flight; a new incarnation
    # (elsewhere on the WAN) registers before they land and sends right
    # away, behind the FIFO floor the old incarnation's queue left
    def unregister_e():
        net.broadcast("e", ["a", "b"], 900_001, size_bytes=400_000)
        net.broadcast("a", ["e", "b", "e"], 900_002, size_bytes=1500)
        net.unregister("e")
        net.send("a", "e", 900_003, size_bytes=64)  # dropped: nobody is "e"
        net.send("e", "a", 900_004, size_bytes=64)  # dropped: no sender "e"

    def reregister_e():
        net.register("e", Recorder(sim, log, "e#2"), site=sites["e#2"])
        net.send("e", "a", 900_005, size_bytes=0)
        net.broadcast("e", ["b", "e", "a"], 900_006, size_bytes=64)

    sim.schedule_at(0.2, unregister_e)
    sim.schedule_at(0.20001, reregister_e)

    # interceptors for a stretch
    hub = CountingHub()

    def faults_on():
        net.add_filter(interceptor)
        net.set_drop_rate("a", "b", 0.3)
        net.block("b", "c", bidirectional=False)
        net.obs = hub

    def faults_off():
        net.remove_filter(interceptor)
        net.heal()
        net.obs = None

    sim.schedule_at(0.3, faults_on)
    sim.schedule_at(0.36, faults_off)

    def slow_nic():
        net.nic_of("a").bandwidth_bps = 1e8

    sim.schedule_at(0.45, slow_nic)

    # a zero-overhead network on the same simulator, zero-byte messages only
    zero = Network(sim, latency, overhead_bytes=0, streams=RandomStreams(1))
    for node in ("p", "q", "r"):
        zero.register(node, Recorder(sim, zero_log, node), site=sites["a"])
    for index in range(40):
        at = 0.01 * index
        if index % 3:
            sim.schedule_at(at, zero.broadcast, "p", ["q", "r", "p"], index)
        else:
            sim.schedule_at(at, zero.send, "q", "r", index)

    sim.run()
    return {
        "deliveries": log,
        "network": _snapshot(net, NODES),
        "hub_messages": hub.messages,
        "zero_deliveries": zero_log,
        "zero_network": _snapshot(zero, ("p", "q", "r")),
        "events": sim.processed_events,
    }


def record_lan() -> dict:
    sites = dict.fromkeys(NODES + ("e#2",), "lan")
    return record_run(ConstantLatency(0.0001, jitter_fraction=0.9), sites)


def record_wan() -> dict:
    sites = dict(WAN_SITES, **{"e#2": "canada"})
    return record_run(aws_latency_model(jitter_fraction=0.3), sites)


def record_wan_delays() -> list:
    model = aws_latency_model(jitter_fraction=0.3)
    rng = random.Random(0)
    return [[a, b, model.delay(a, b, rng).hex()] for a in AWS_REGIONS for b in AWS_REGIONS]


RECORDERS = {"lan": record_lan, "wan": record_wan, "wan_delays": record_wan_delays}


def encode(recording) -> str:
    return json.dumps(recording, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("run", sorted(RECORDERS))
def test_network_arithmetic_is_pinned(run):
    golden = json.loads(GOLDEN.read_text())
    assert encode(RECORDERS[run]()) == encode(golden[run])


def test_the_pinned_runs_exercise_what_they_claim():
    golden = json.loads(GOLDEN.read_text())
    for name in ("lan", "wan"):
        run = golden[name]
        deliveries = run["deliveries"]
        links = {(src, dst): count for src, dst, count in run["network"]["bytes_by_link"]}
        # loopback, on both networks
        assert any(src == dst for src, dst in links)
        assert any(src == dst for _t, src, dst, _p in run["zero_deliveries"])
        # zero-byte links are links
        zero_links = run["zero_network"]["bytes_by_link"]
        assert zero_links and {count for _s, _d, count in zero_links} == {0}
        # a copy sent to the first "e" landed at the second
        assert [src for _t, src, dst, p in deliveries if p == 900_002 and dst == "e#2"] == [
            "a", "a"
        ]
        # the new incarnation sent, behind the old one's queue to "a"
        assert any(p == 900_005 for _t, _s, _d, p in deliveries)
        assert not any(p in (900_003, 900_004) for _t, _s, _d, p in deliveries)
        # the interceptors ran: duplicated payloads arrived, the hub counted
        assert sum(p >= 100_000 and p < 900_000 for _t, _s, _d, p in deliveries) >= 6
        assert run["hub_messages"] > 0
        sent, delivered, dropped, _bytes = run["network"]["counters"]
        assert delivered > 0 and dropped > 0 and sent > 0


if __name__ == "__main__":
    print(
        encode({name: recorder() for name, recorder in sorted(RECORDERS.items())}),
        end="",
    )
