#!/usr/bin/env python
"""Quickstart: stand up a BFT ordering service and order transactions.

Builds the paper's smallest deployment -- four ordering nodes
(tolerating one Byzantine fault) and one frontend -- submits a few
envelopes, and shows the signed blocks coming out the other side.

Run:  python examples/quickstart.py
"""

from repro import OrderingServiceConfig, build_ordering_service
from repro.fabric import ChannelConfig
from repro.fabric.envelope import Envelope


def main() -> None:
    # a channel cutting blocks of 10 envelopes (the paper's small size)
    channel = ChannelConfig("demo-channel", max_message_count=10, batch_timeout=0.5)
    config = OrderingServiceConfig(
        f=1,                      # tolerate one Byzantine ordering node
        channel=channel,
        num_frontends=1,
        enable_batch_timeout=True,
    )
    service = build_ordering_service(config)
    frontend = service.frontends[0]

    blocks = []
    frontend.on_block.append(blocks.append)

    print(f"ordering cluster: {service.view.n} nodes, f={service.view.f}")
    print("submitting 25 envelopes of 1 KB ...")
    for _ in range(25):
        service.submit(Envelope.raw("demo-channel", payload_size=1024))

    service.run(duration=5.0)  # simulated seconds

    print(f"\nfrontend delivered {len(blocks)} blocks "
          f"(each backed by 2f+1 = {frontend.acceptance.copies_needed} matching copies):")
    for block in blocks:
        print(
            f"  block #{block.number}: {len(block.envelopes):>2} envelopes, "
            f"{len(block.signatures)} ordering-node signatures, "
            f"prev={block.header.previous_hash.hex()[:16]}..."
        )

    # verify every signature against the membership registry
    for block in blocks:
        payload = block.header.signing_payload()
        for signer, signature in block.signatures.items():
            assert service.registry.verifier_of(signer).verify(payload, signature)
    print("\nall block signatures verify; the chain links check out.")

    latency = service.stats.latency(f"{frontend.name}.latency")
    print(f"ordering latency: median {latency.median * 1000:.1f} ms, "
          f"p90 {latency.p90 * 1000:.1f} ms over {latency.count} envelopes")


if __name__ == "__main__":
    main()
