"""Cross-commit pins for the ordering-service seam.

Recorded once (``tests/data/golden/seam_pins.json``, a row of the pin
ledger ``tests/golden.py``) and never regenerated by a refactor: a
change to the frontend, the deployment builder or the explorer's
samplers that claims to be neutral must reproduce every value here byte
for byte.

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

import pytest

from repro.fabric.channel import ChannelConfig
from repro.fabric.envelope import Envelope
from repro.faults.explorer import PROFILES, ExplorerConfig, run_seed, sample_schedule
from repro.ordering import (
    AdmissionConfig,
    OrderingServiceConfig,
    build_ordering_service,
)

#: {bftsmart, smartbft} x {no admission, admission}
BACKEND_RUNS = ("bftsmart/admission", "bftsmart/plain", "smartbft/admission", "smartbft/plain")


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


RECORDERS = {
    "backend_runs": lambda: {
        key: backend_run(key.split("/")[0], key.endswith("/admission"))
        for key in BACKEND_RUNS
    },
    "explorer": lambda: {profile: explorer_digest(profile) for profile in PROFILES},
}


@pytest.mark.faults
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_explorer_profile_seeds_are_pinned(golden, profile):
    pinned = golden.stored("seam_pins")["explorer"][profile]
    assert golden.record("seam_pins", "explorer")[profile] == pinned


@pytest.mark.parametrize("key", BACKEND_RUNS)
def test_backend_event_stream_is_pinned(golden, key):
    pinned = golden.stored("seam_pins")["backend_runs"][key]
    assert golden.record("seam_pins", "backend_runs")[key] == pinned
