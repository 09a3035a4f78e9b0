"""Cross-commit pins for the ordering-service seam.

Recorded once (``tests/data/golden/seam_pins.json``; ``python -m
tests.test_seam_pins`` prints the recording) and never regenerated by
a refactor: a change to the frontend, the deployment
builder or the explorer's samplers that claims to be neutral must
reproduce every value here byte for byte.

(a) For each explorer profile, seeds 0-24: the sampled schedule, the
    fault-trace and ledger digests and the delivery totals, folded
    into one sha256.  Pins the samplers' rng draw order as well as the
    event stream of the deployment each profile stands up.
(b) For {bftsmart, smartbft} x {no admission, admission}: event count,
    message count, wire bytes and frontend-0 ledger digest of a short
    seeded run.  No other test pins the smartbft event stream across
    commits.
"""

import hashlib
import json
import pathlib

import pytest

from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.faults.explorer import ExplorerConfig, run_seed, sample_schedule
from repro.ordering import (
    AdmissionConfig,
    OrderingServiceConfig,
    build_ordering_service,
)

PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "golden" / "seam_pins.json").read_text()
)


def explorer_digest(profile: str) -> str:
    cfg = ExplorerConfig(profile=profile)
    lines = []
    for seed in range(25):
        result = run_seed(seed, cfg)
        sched = ",".join(
            f"{e.at}/{e.duration}/{type(e.action).__name__}"
            for e in sample_schedule(seed, cfg)
        )
        lines.append(
            f"{seed}:{sched}:{result.trace_digest}:{result.ledger_digest}:"
            f"{result.submitted}:{result.delivered}:{len(result.violations)}"
        )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def backend_run(orderer: str, admission: bool) -> list:
    """48 pinned-id envelopes over two frontends, CPU model on; with
    admission the 100 env/s tenant bucket refuses more than half."""
    service = build_ordering_service(
        OrderingServiceConfig(
            orderer=orderer,
            f=1,
            channel=ChannelConfig("ch0", max_message_count=4, batch_timeout=0.25),
            num_frontends=2,
            request_timeout=0.5,
            enable_batch_timeout=True,
            seed=7,
            admission=(
                AdmissionConfig(tenant_rate=100.0, tenant_burst=5.0, max_in_flight=6)
                if admission
                else None
            ),
        )
    )
    for i in range(48):
        envelope = Envelope(
            channel_id="ch0", transaction=None, payload_size=200 + i, envelope_id=i
        )
        service.sim.schedule_at(0.05 + i * 0.004, service.submit, envelope, i % 2)
    service.run(4.0)
    return [
        service.sim.processed_events,
        service.network.stats.messages_sent,
        service.network.stats.bytes_sent,
        service.frontends[0].ledger_digest().hex(),
    ]


@pytest.mark.faults
@pytest.mark.parametrize("profile", sorted(PINS["explorer"]))
def test_explorer_profile_seeds_are_pinned(profile):
    assert explorer_digest(profile) == PINS["explorer"][profile]


@pytest.mark.parametrize("key", sorted(PINS["backend_runs"]))
def test_backend_event_stream_is_pinned(key):
    orderer, mode = key.split("/")
    assert backend_run(orderer, mode == "admission") == PINS["backend_runs"][key]


if __name__ == "__main__":
    recording = {
        "backend_runs": {
            key: backend_run(key.split("/")[0], key.endswith("/admission"))
            for key in PINS["backend_runs"]
        },
        "explorer": {profile: explorer_digest(profile) for profile in PINS["explorer"]},
    }
    print(json.dumps(recording, sort_keys=True, indent=1))
