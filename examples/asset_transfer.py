#!/usr/bin/env python
"""The full Hyperledger Fabric pipeline over the BFT ordering service.

Reproduces Figure 2 of the paper end to end: two organizations run
endorsing and committing peers; clients endorse asset-transfer
transactions, submit them through a frontend to the 4-node BFT-SMaRt
ordering cluster, and wait for validated commitment.  The example also
provokes an MVCC conflict so you can see an invalid transaction being
recorded (but not executed) on the ledger.

Run:  python examples/asset_transfer.py
"""

from repro.fabric import AssetTransferChaincode, KVChaincode, Or, SignedBy
from repro.ordering.backends import ScenarioRow, SpacedLoad, stand_up

#: 4 BFT-SMaRt nodes ordering one channel; either organization's
#: endorsement suffices
TRADE = ScenarioRow(
    backend="bftsmart",
    channel="trade-channel",
    block_size=3,
    batch_timeout=0.3,
    endorsement_policy=Or(SignedBy("org1"), SignedBy("org2")),
    load=SpacedLoad(count=0),
)


def build_network():
    """One endorsing + committing peer per organization."""
    up = stand_up(TRADE)
    chaincodes = {"asset-transfer": AssetTransferChaincode(), "kv": KVChaincode()}
    for org in ("org1", "org2"):
        up.add_peer(f"peer-{org}", org, chaincodes)
    return up


def main() -> None:
    up = build_network()
    sim, committers = up.sim, up.committers
    alice, bob = up.client("alice"), up.client("bob")

    print("1. alice creates two assets ...")
    futures = [
        alice.submit_transaction(
            "trade-channel", "asset-transfer", "create", ("car-7", "alice", 30_000)
        ),
        alice.submit_transaction(
            "trade-channel", "asset-transfer", "create", ("boat-2", "alice", 90_000)
        ),
    ]
    sim.drain(futures, deadline=30.0)
    for future in futures:
        event = future.value
        print(f"   committed in block {event.block_number}: {event.validation_code}")

    print("2. alice sells car-7 to bob ...")
    transfer = alice.submit_transaction(
        "trade-channel", "asset-transfer", "transfer", ("car-7", "alice", "bob")
    )
    sim.drain([transfer], deadline=30.0)
    print(f"   {transfer.value.validation_code} in block {transfer.value.block_number}")

    query = alice.query("trade-channel", "asset-transfer", "read", ("car-7",))
    sim.drain([query], deadline=10.0)
    print(f"   car-7 is now owned by {query.value['owner']!r}")

    print("3. alice and bob race an increment (MVCC conflict) ...")
    setup = alice.submit_transaction("trade-channel", "kv", "put", ("odometer", 0))
    sim.drain([setup], deadline=30.0)
    race = [
        alice.submit_transaction("trade-channel", "kv", "increment", ("odometer",)),
        bob.submit_transaction("trade-channel", "kv", "increment", ("odometer",)),
    ]
    sim.drain(race, deadline=30.0)
    for name, future in zip(("alice", "bob"), race):
        print(f"   {name}: {future.value.validation_code}")
    print(f"   odometer = {committers[0].state.get_value('odometer')} "
          "(the conflicting write was discarded, not applied twice)")

    for committer in committers:
        assert committer.ledger.verify_chain()
    heights = {c.ledger.height for c in committers}
    print(f"\nboth peers hold identical chains of height {heights.pop()}; "
          "every hash link verifies.")


if __name__ == "__main__":
    main()
