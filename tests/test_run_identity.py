"""Identity belongs to the run.

Every ``envelope_id``, ``tx_id`` and ``ClientRequest.uid`` a run mints
comes from a stream of its own simulator (``Simulator.id_stream``), so
what a seeded run produces -- ids, digests, ledgers, traces -- does not
depend on what the process hosted before it or hosts beside it.  The
module-level defaults that remain serve objects built by hand (tests,
examples) and no run path touches them; the registered smoke benchmarks
are held to that in ``tests/test_bench_harness.py`` through the same
``no_handmade_ids`` fixture.
"""

from dataclasses import replace

import pytest

from repro.analysis.sanitizer import DEFAULT_SCENARIOS, capture_record
from repro.fabric.channel import ChannelConfig
from repro.faults.explorer import PROFILES, ExplorerConfig, run_seed
from repro.obs.report import SMOKE, run_scenario
from repro.ordering import OrderingServiceConfig, build_ordering_service
from repro.ordering.backends import BACKENDS, OpenLoop, run_backend_workload
from repro.sim.randomness import RandomStreams
from repro.workload import DuplicateFlood, RawProfile, TenantSpec, WorkloadEngine


def engine_on_fresh_service(seed: int):
    """A two-tenant engine (one replaying identities) on its own
    deployment, with every submitted envelope id recorded."""
    service = build_ordering_service(
        OrderingServiceConfig(
            f=1,
            channel=ChannelConfig("ch0", max_message_count=4, batch_timeout=0.25),
            num_frontends=2,
            physical_cores=None,
            enable_batch_timeout=True,
            seed=seed,
        )
    )
    engine = WorkloadEngine(
        service.sim,
        service.frontends,
        [
            TenantSpec(name="honest", session_rate=90.0, profile=RawProfile(channel="ch0")),
            TenantSpec(
                name="mallory",
                session_rate=60.0,
                profile=DuplicateFlood(channel="ch0", unique_every=3),
            ),
        ],
        streams=RandomStreams(seed),
        duration=0.4,
    )
    seen = []
    for frontend in service.frontends:
        frontend.on_block.append(
            lambda block: seen.extend(e.envelope_id for e in block.envelopes)
        )
    engine.start()
    return service, seen


@pytest.mark.usefixtures("no_handmade_ids")
def test_no_run_path_draws_from_module_state():
    run_scenario(replace(SMOKE, load=OpenLoop(rate=200.0, duration=0.2)), trace=True)
    for profile in PROFILES:
        assert run_seed(1, ExplorerConfig(profile=profile)).ok
    for backend in BACKENDS:
        assert run_backend_workload(backend).finished
    service, seen = engine_on_fresh_service(seed=3)
    service.run(1.5)
    assert len(seen) > 40


@pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS)
def test_a_row_is_the_same_run_whatever_ran_before(scenario):
    """Row, unrelated runs, row again: every view of the two runs of
    the row -- semantics, event stream, span tree, metrics -- is equal,
    on both BFT backends, clean and through a crash."""
    shape = dict(seed=2, duration=0.25, rate=200.0)
    first = capture_record(scenario, **shape)
    run_backend_workload("kafka")
    capture_record("smoke" if scenario != "smoke" else "smartbft", seed=9, duration=0.1)
    second = capture_record(scenario, **shape)
    assert first["digests"] == second["digests"]
    assert first["semantics"]["delivered"] == first["semantics"]["submitted"] > 0


def test_interleaved_engines_get_the_ids_they_would_get_alone():
    alone = {}
    for seed in (3, 4):
        service, seen = engine_on_fresh_service(seed)
        service.run(1.5)
        alone[seed] = (seen, service.ledger_digests())
    assert alone[3][0] != alone[4][0]

    runs = {seed: engine_on_fresh_service(seed) for seed in (3, 4)}
    for step in range(1, 16):
        for service, _seen in runs.values():
            service.sim.run(until=step * 0.1)
    for seed, (service, seen) in runs.items():
        assert (seen, service.ledger_digests()) == alone[seed]
    # one stream per run, shared by its tenants; a replay draws nothing
    seen = alone[3][0]
    assert sorted(set(seen)) == list(range(len(set(seen))))
    assert len(set(seen)) < len(seen)
