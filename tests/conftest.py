"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import collections
import itertools
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

import pytest
from hypothesis import settings
from hypothesis.database import DirectoryBasedExampleDatabase

import repro.crypto.hashing as hashing
import repro.fabric.block as block_module
import repro.fabric.envelope as envelope_module
import repro.smart.messages as messages_module
import repro.smart2.node as smart2_node
from repro.fabric import (
    AssetTransferChaincode,
    KVChaincode,
    Or,
    SignedBy,
    SmallBankChaincode,
)
from repro.ordering.backends import ScenarioRow, SpacedLoad, stand_up
from repro.sim import ConstantLatency, Network, Simulator
from repro.smart import (
    ReplicaConfig,
    ServiceProxy,
    ServiceReplica,
    StateMachine,
    View,
    wheat_view,
)


# A gate either has no randomness or names its seed (docs/ANALYSIS.md).
# "tier1" -- the default, what `make test` / `make ci` / ci.yml select --
# derives every example from the test itself and replays nothing from a
# local database, so a checkout is green or red by its content alone.
# "nightly" (nightly.yml: --hypothesis-profile=nightly) draws fresh
# examples every run, tries harder where a test sets no budget of its
# own, and keeps what it finds in a database the job uploads; a failure
# found there comes back as an @example(...) on the test.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "nightly",
    derandomize=False,
    max_examples=1000,
    database=DirectoryBasedExampleDatabase(".hypothesis/examples"),
    print_blob=True,
)
settings.load_profile("tier1")


def count_hashes_by_tag(monkeypatch) -> collections.Counter:
    """Count every canonical ``sha256`` call by its leading tag, in
    every module that imported the function, until the test ends.

    The tables that share a hash by its content are per process, so
    they are emptied first: the count is the count of a fresh process,
    whichever tests ran before."""
    for table in (
        block_module._data_hash,
        block_module._header_digest,
        envelope_module._response_hash,
        envelope_module._transaction_hash,
        smart2_node.preprepare_payload,
    ):
        table.cache_clear()
    calls: collections.Counter = collections.Counter()
    real = hashing.sha256

    def counting(*values):
        calls[values[0]] += 1
        return real(*values)

    for module in list(sys.modules.values()):
        if getattr(module, "sha256", None) is real:
            monkeypatch.setattr(module, "sha256", counting)
    return calls


@pytest.fixture
def no_handmade_ids(monkeypatch):
    """Fail the test if anything in it drew an envelope id, transaction
    id or request uid from the defaults kept for objects built by hand:
    what runs on a simulator takes its identities from that simulator
    (docs/KERNEL.md, "Identities come from the run")."""
    ids, uids = itertools.count(), itertools.count()
    monkeypatch.setattr(envelope_module, "_handmade_ids", ids)
    monkeypatch.setattr(messages_module, "_handmade_uids", uids)
    yield
    assert next(ids) == 0, "a run drew an envelope/tx id from module state"
    assert next(uids) == 0, "a run drew a request uid from module state"


class CounterApp(StateMachine):
    """A tiny deterministic state machine used across replica tests.

    State is a running total plus the full operation history, so any
    divergence between replicas is visible.
    """

    def __init__(self):
        self.total = 0
        self.history: List[int] = []

    def execute_batch(self, cid, requests, regency, tentative=False):
        results = []
        for request in requests:
            self.total += request.operation
            self.history.append(request.operation)
            results.append(self.total)
        return results

    def get_state(self):
        return {"total": self.total, "history": list(self.history)}

    def set_state(self, state):
        if state is None:
            self.total = 0
            self.history = []
        else:
            self.total = state["total"]
            self.history = list(state["history"])


def prefix_consistent(apps) -> bool:
    """Every replica's history is a prefix of the longest one -- what
    holds at every instant of a run (equal histories only hold once the
    messages in flight have been delivered)."""
    histories = [app.history for app in apps]
    longest = max(histories, key=len)
    return all(longest[: len(h)] == h for h in histories)


def smartbft_ledger(node) -> list:
    """A SmartBFT node's decisions as it serves them: ``(seq, block,
    batch)`` per decided sequence number, the shape a ``BlockPush``
    carries."""
    return [node._decision(seq) for seq in range(node.next_commit_seq)]


class Cluster:
    """A wired BFT-SMaRt cluster over a fresh simulator."""

    def __init__(
        self,
        n: int = 4,
        f: int = 1,
        delta: int = 0,
        tentative: bool = False,
        latency: float = 0.0005,
        request_timeout: float = 0.5,
        checkpoint_period: int = 1000,
        vmax_holders: Optional[Tuple[int, ...]] = None,
    ):
        self.sim = Simulator()
        self.network = Network(self.sim, ConstantLatency(latency))
        if delta > 0:
            self.view = wheat_view(
                0, tuple(range(n)), f=f, delta=delta, vmax_holders=vmax_holders
            )
        else:
            self.view = View(0, tuple(range(n)), f)
        self.config = ReplicaConfig(
            tentative_execution=tentative,
            request_timeout=request_timeout,
            checkpoint_period=checkpoint_period,
        )
        self.apps = [CounterApp() for _ in range(n)]
        self.replicas = []
        for i in range(n):
            replica = ServiceReplica(
                self.sim, self.network, i, self.view, self.apps[i], config=self.config
            )
            self.network.register(i, replica)
            self.replicas.append(replica)
        self._next_client = 1000

    def proxy(self, accept_tentative: bool = False, **kwargs) -> ServiceProxy:
        client_id = self._next_client
        self._next_client += 1
        return ServiceProxy(
            self.sim,
            self.network,
            client_id,
            self.view,
            accept_tentative=accept_tentative,
            **kwargs,
        )

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def drain(self, futures, deadline: float = 10.0) -> bool:
        return self.sim.drain(futures, self.sim.now + deadline)

    def histories_agree(self) -> bool:
        reference = None
        for replica, app in zip(self.replicas, self.apps):
            if replica.crashed:
                continue
            if reference is None:
                reference = app.history
            elif app.history != reference:
                return False
        return True

    def prefix_consistent(self) -> bool:
        return prefix_consistent(self.apps)


@pytest.fixture
def cluster():
    return Cluster()


@pytest.fixture
def golden():
    """The pin ledger (``tests/golden.py``): imported when a test first
    asks for it, since it imports the test modules whose recorders it
    holds."""
    from tests import golden as ledger

    return ledger


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def network(sim):
    return Network(sim, ConstantLatency(0.0005))


#: the Fabric path at its smallest: the solo orderer on a 0.5 ms LAN,
#: blocks of ten, either organisation endorsing.  Nothing but the Fabric
#: path hashes here, so per-transaction hash counts and ledger bytes can
#: be pinned exactly.
SOLO_FABRIC = ScenarioRow(
    backend="solo",
    block_size=10,
    batch_timeout=0.2,
    latency=ConstantLatency(0.0005),
    endorsement_policy=Or(SignedBy("org1"), SignedBy("org2")),
    load=SpacedLoad(count=0),
)
#: the same path over the paper's service: 4 BFT-SMaRt nodes, blocks of two
BFT_FABRIC = replace(
    SOLO_FABRIC, backend="bftsmart", block_size=2, batch_timeout=0.4, latency=None
)


class FabricNetwork:
    """``row``'s orderer with two organisations (an endorsing and a
    committing peer each, all three sample chaincodes installed) and
    one client, ``client0``."""

    def __init__(self, row: ScenarioRow = SOLO_FABRIC):
        chaincodes = {
            "kv": KVChaincode(),
            "asset-transfer": AssetTransferChaincode(),
            "smallbank": SmallBankChaincode(),
        }
        self.up = up = stand_up(row)
        for index, org in enumerate(("org1", "org2")):
            up.add_peer(f"peer{index}", org, chaincodes)
        self.sim, self.network, self.registry = up.sim, up.network, up.registry
        self.service, self.committers, self.endorsers = up.service, up.committers, up.endorsers
        self.client = up.client("client0")

    def submit(self, chaincode_id: str, function: str, *args):
        return self.client.submit_transaction(self.up.row.channel, chaincode_id, function, args)

    def drain(self, futures, deadline: float = 30.0) -> bool:
        """Run until every future resolved, then until the slower peer
        has committed too (a future resolves on the *first* event)."""
        done = self.sim.drain(futures, self.sim.now + deadline)
        self.sim.run(until=self.sim.now + 0.5)
        return done

    def transactions(self, committer_index: int = 0):
        """Every transaction in one peer's ledger, in chain order."""
        return [
            envelope.transaction
            for block in self.committers[committer_index].ledger
            for envelope in block.envelopes
            if envelope.transaction is not None
        ]
