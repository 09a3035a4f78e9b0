"""The TimeToCut timer: one live timer per channel, cancelled wherever a
later event supersedes it (docs/KERNEL.md, "An event only where
simulated time passes")."""

import pytest

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import SimulatedECDSA
from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.ordering.backends import ScenarioRow, SpacedLoad, run_backend_workload
from repro.ordering.blockcutter import TimeToCut, TimeToCutMachine
from repro.ordering.node import BFTOrderingNode
from repro.sim import ConstantLatency, Network, Simulator
from repro.smart.messages import ClientRequest

#: count cuts supersede armed timers, the tail is cut by timeout
OUTLAST = ScenarioRow(block_size=4, seed=6, load=SpacedLoad(50, spacing=0.006))

#: a height fills by count just after its TTC was submitted, so the TTC
#: is ordered stale with envelopes left over (tests/test_orderer_conformance.py)
STRADDLE = ScenarioRow(
    block_size=3,
    preferred_max_bytes=2_000_000,
    batch_timeout=0.024,
    seed=5,
    load=SpacedLoad(11, payload_size=500_000, spacing=0.001),
)


@pytest.mark.parametrize("row", [OUTLAST, STRADDLE], ids=["outlast", "straddle"])
@pytest.mark.parametrize("backend", ["bftsmart", "kafka"])
def test_every_timer_that_fires_submits_for_an_uncut_height(monkeypatch, backend, row):
    """No timer fires as a no-op: each one finds envelopes pending at the
    height it was armed for and submits its TTC, or re-arms for the
    current height."""
    fires = []
    when_due = TimeToCutMachine._when_due

    def spy(machine, channel_id, *args):
        submitted = []
        submit = machine.submit

        def recorded(ttc):
            state = machine.channels[ttc.channel_id]
            submitted.append(ttc.target_height == state.chain.number and len(state.cutter) > 0)
            submit(ttc)

        machine.submit = recorded
        try:
            when_due(machine, channel_id, *args)
        finally:
            machine.submit = submit
        state = machine.channels[channel_id]
        timer = getattr(state, "ttc_timer", None)
        rearmed = timer is not None and timer.args[-1] == state.chain.number
        fires.append(submitted == [True] or rearmed)

    monkeypatch.setattr(TimeToCutMachine, "_when_due", spy)
    run = run_backend_workload(backend, row)
    assert run.finished
    assert fires, "the row never let a timer fire"
    assert fires.count(False) == 0, f"{fires.count(False)} of {len(fires)} fires were no-ops"


def ordering_node(sim, submitted):
    network = Network(sim, ConstantLatency(0.0005))
    identity = KeyRegistry(scheme=SimulatedECDSA()).enroll("orderer0", org="ord")
    channels = {"ch0": ChannelConfig("ch0", max_message_count=10, batch_timeout=1.0)}
    return BFTOrderingNode(
        sim, network, "orderer0", identity, channels=channels,
        ttc_submitter=lambda ttc: submitted.append((sim.now, ttc)),
    )


def order_one(node, sequence, tentative=False):
    request = ClientRequest(client_id=7, sequence=sequence, operation=Envelope.raw("ch0", 100))
    node.execute_batch(sequence, [request], 0, tentative=tentative)


class TestReplacedChannelState:
    """A channel state that ``reset`` or ``set_state`` replaces takes
    its timer with it: the timer it armed never fires into the new one."""

    def test_amnesiac_reset(self):
        sim, submitted = Simulator(), []
        node = ordering_node(sim, submitted)
        order_one(node, 0)  # arms for t = 1.0
        sim.run(until=0.5)
        node.reset()
        order_one(node, 1)  # the fresh channel arms for t = 1.5
        sim.run(until=2.0)
        assert submitted == [(1.5, TimeToCut("ch0", 0))]

    def test_tentative_execution_rolled_back(self):
        sim, submitted = Simulator(), []
        node = ordering_node(sim, submitted)
        token = node.snapshot()
        order_one(node, 0, tentative=True)  # arms for t = 1.0
        sim.run(until=0.5)
        node.rollback(token)
        order_one(node, 1)  # the restored channel arms for t = 1.5
        sim.run(until=2.0)
        assert submitted == [(1.5, TimeToCut("ch0", 0))]

    def test_restored_pending_envelopes_are_cut_by_timeout(self):
        """A fresh node that takes another node's snapshot by
        ``set_state`` submits the TTC for the restored envelope within
        ``batch_timeout``."""
        source = ordering_node(Simulator(), [])
        order_one(source, 0)
        sim, submitted = Simulator(), []
        node = ordering_node(sim, submitted)
        node.set_state(source.snapshot())
        sim.run(until=5.0)
        assert [ttc for at, ttc in submitted if at <= 1.0] == [TimeToCut("ch0", 0)]
