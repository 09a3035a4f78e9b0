"""The ``python -m repro.obs report`` scenario and renderer.

Runs a seeded 4-node LAN deployment with the observability hub
attached and prints the paper-style resource-attribution report:

- **latency by protocol phase** -- the telescoping milestone breakdown,
  cross-checked against the bench harness's own end-to-end latency
  recorder (the sums must agree to within 1%: they are computed from
  the same timestamps through two independent paths);
- **CPU time by activity** -- per ordering node, core-seconds demanded
  by each labelled activity (signing dominates, Figure 6);
- **bytes by link** -- the NIC-level traffic matrix (dissemination
  dominates, Figure 7);
- counters and span-orphan summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.topology import lan_latency_model
from repro.sim.core import Simulator
from repro.sim.trace import MessageTracer
from repro.smart.view import bft_group_size, max_faults
from repro.fabric.channel import ChannelConfig
from repro.obs.observability import PHASES, Observability
from repro.ordering.service import (
    FRONTEND_ID_BASE,
    OrderingService,
    OrderingServiceConfig,
    build_ordering_service,
)
from repro.workload import OpenLoopGenerator

#: Maximum relative disagreement between the phase sum and the bench
#: harness's end-to-end mean before the report (and CI) fails.
CROSS_CHECK_TOLERANCE = 0.01


@dataclass
class ScenarioResult:
    """A finished observability scenario, ready to render."""

    service: OrderingService
    obs: Observability
    submitted: int
    #: message-level trace, captured only when ``run_scenario`` is
    #: called with ``trace=True`` (the DetSan double-run needs it)
    trace: Optional[MessageTracer] = None


def run_scenario(
    seed: int = 0,
    orderers: int = 4,
    duration: float = 2.0,
    rate: float = 500.0,
    envelope_size: int = 1024,
    block_size: int = 10,
    trace: bool = False,
    sim: Optional[Simulator] = None,
    arm: Optional[Callable[[OrderingService], None]] = None,
    **config: Any,
) -> ScenarioResult:
    """Drive a seeded ``orderers``-node LAN deployment at a moderate
    load with the hub attached, then close tracing.

    This is the one stand-up of the smoke deployment.  The sanitizer
    rows (:mod:`repro.analysis.sanitizer`) vary it through what is left:
    ``config`` replaces fields of the :class:`OrderingServiceConfig`
    below, ``arm`` is called on the built service before it runs (to
    schedule a crash), ``sim`` is the simulator to build on.
    """
    f = max_faults(orderers)
    fields: Dict[str, Any] = dict(
        f=f,
        delta=orderers - bft_group_size(f),
        channel=ChannelConfig(
            "channel0", max_message_count=block_size, batch_timeout=10.0
        ),
        num_frontends=1,
        latency=lan_latency_model(),
        physical_cores=8,
        hardware_threads=16,
        signing_workers=16,
        smart_cpu_fraction=0.6,
        request_timeout=30.0,  # a clean run must not trigger regency changes
        seed=seed,
    )
    fields.update(config)
    obs = Observability()
    service = build_ordering_service(
        OrderingServiceConfig(**fields), sim=sim, observability=obs
    )
    tracer = MessageTracer(service.network) if trace else None
    generator = OpenLoopGenerator(
        sim=service.sim,
        frontends=service.frontends,
        channel_id="channel0",
        envelope_size=envelope_size,
        rate_per_second=rate,
        duration=duration,
    )
    generator.start()
    if arm is not None:
        arm(service)
    # run past the submission window so in-flight envelopes drain
    service.run(duration + 1.0)
    obs.close()
    return ScenarioResult(
        service=service,
        obs=obs,
        submitted=generator.submitted,
        trace=tracer,
    )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_ms(value: float) -> str:
    return f"{value * 1e3:9.3f} ms"


def harness_end_to_end_mean(service: OrderingService) -> Optional[float]:
    """The existing bench-harness latency instrument (frontend 0)."""
    recorder = service.stats.latency(f"{FRONTEND_ID_BASE}.latency")
    if recorder.count == 0:
        return None
    return recorder.mean


def cross_check(result: ScenarioResult) -> Tuple[bool, str]:
    """Compare the phase sum against the harness's end-to-end mean."""
    breakdown = result.obs.phase_breakdown()
    harness = harness_end_to_end_mean(result.service)
    if harness is None or breakdown.complete == 0:
        return False, "cross-check: no delivered envelopes to compare"
    phase_sum = breakdown.phase_sum
    deviation = abs(phase_sum - harness) / harness if harness > 0 else 0.0
    ok = deviation <= CROSS_CHECK_TOLERANCE
    verdict = "OK" if ok else "FAIL"
    line = (
        f"cross-check [{verdict}]: phase sum {phase_sum * 1e3:.3f} ms vs "
        f"bench-harness end-to-end {harness * 1e3:.3f} ms "
        f"(deviation {deviation:.3%}, tolerance {CROSS_CHECK_TOLERANCE:.0%})"
    )
    return ok, line


def _phase_section(result: ScenarioResult) -> List[str]:
    breakdown = result.obs.phase_breakdown()
    lines = ["latency by protocol phase (mean over complete envelope chains)"]
    total = breakdown.end_to_end_mean
    longest = max(len(label) for label, _, _ in PHASES)
    for label, _, _ in PHASES:
        mean = breakdown.mean(label)
        share = mean / total if total > 0 else 0.0
        bar = "#" * max(0, round(share * 30))
        lines.append(f"  {label:<{longest}}  {_fmt_ms(mean)}  {share:6.1%}  {bar}")
    lines.append(f"  {'end-to-end':<{longest}}  {_fmt_ms(total)}  100.0%")
    lines.append(
        f"  envelopes: {breakdown.complete} complete chains, "
        f"{breakdown.incomplete} incomplete (in flight at shutdown)"
    )
    _, check_line = cross_check(result)
    lines.append("  " + check_line)
    return lines


def _cpu_section(result: ScenarioResult) -> List[str]:
    service = result.service
    elapsed = service.sim.now
    lines = ["CPU time by activity (core-seconds demanded per node)"]
    any_cpu = False
    for i, cpu in enumerate(service.cpus):
        if cpu is None:
            continue
        any_cpu = True
        activities = ", ".join(
            f"{name}={seconds:.3f}"
            for name, seconds in sorted(cpu.activity_core_seconds.items())
        ) or "none labelled"
        lines.append(
            f"  node {i}: busy {cpu.busy_core_seconds:.3f} core-s "
            f"({cpu.utilization(elapsed):.1%} of {cpu.physical_cores} cores)"
            f"  [{activities}]"
        )
    if not any_cpu:
        lines.append("  (CPU model disabled in this deployment)")
    return lines


def _network_section(result: ScenarioResult, top: int = 10) -> List[str]:
    stats = result.service.network.stats
    lines = [
        f"bytes by link (top {top} of {len(stats.bytes_by_link)}; "
        f"total {stats.bytes_sent:,} bytes in "
        f"{stats.messages_sent:,} messages)"
    ]
    ranked = sorted(
        stats.bytes_by_link.items(), key=lambda kv: (-kv[1], str(kv[0]))
    )
    for (src, dst), total in ranked[:top]:
        lines.append(f"  {src!s:>6} -> {dst!s:<6}  {total:>12,} bytes")
    return lines


def _counter_section(result: ScenarioResult) -> List[str]:
    registry = result.obs.registry
    lines = ["counters"]
    for name in registry.names():
        instrument = registry.get(name)
        if instrument is not None and instrument.kind == "counter":
            lines.append(f"  {name:<52} {instrument.value:>12,.0f}")
    orphans = result.obs.tracer.orphans()
    lines.append(
        f"spans: {len(result.obs.tracer.spans)} recorded, "
        f"{len(orphans)} orphaned"
    )
    return lines


def render_report(result: ScenarioResult, cid: Optional[int] = None) -> str:
    from repro.obs.export import render_critical_path

    service = result.service
    config = service.config
    sections = [
        "repro.obs report -- resource attribution",
        f"scenario: {config.n} ordering nodes (f={config.f}), "
        f"{config.num_frontends} frontend(s), LAN, seed {config.seed}; "
        f"{result.submitted} envelopes submitted, "
        f"{service.total_delivered()} delivered",
        "",
    ]
    sections.extend(_phase_section(result))
    sections.append("")
    decided = result.obs.decided_cids()
    if decided:
        chosen = cid if cid is not None else decided[len(decided) // 2]
        sections.append(render_critical_path(result.obs, chosen))
        sections.append("")
    sections.extend(_cpu_section(result))
    sections.append("")
    sections.extend(_network_section(result))
    sections.append("")
    sections.extend(_counter_section(result))
    return "\n".join(sections)
