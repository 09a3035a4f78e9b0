"""RaceSan: the schedule-race sanitizer.

DetSan perturbs *hash seeds*; RaceSan perturbs the *schedule*.  The
kernel orders same-timestamp events by a global sequence number, which
makes every run deterministic -- but also means a protocol whose
outcome silently depends on that arbitrary tie order looks healthy
until an unrelated change (a new message, a reordered send) shifts the
sequence numbers.  That is a hidden event-order race: the
simulated-concurrency analogue of a data race that happens to win
every time.

RaceSan re-runs a scenario under K *tie-break permutations*
(``Simulator(tie_seed=k)`` shuffles same-timestamp pops per seed, see
``sim/core.py``) in subprocesses with a pinned ``PYTHONHASHSEED`` so
the schedule is the only variable, then compares **semantic digests**:
per-frontend ledger chain digests, per-replica decided-batch logs, and
the delivered/submitted totals.  Timing may wobble by an ulp (the FIFO
clamp becomes strict under permutation to preserve the per-connection
contract), but what the protocol *decided* must be byte-identical.
Any divergence is:

- ``RACESAN001`` semantic digests diverge across tie-break
  permutations (protocol outcome depends on same-timestamp delivery
  order).

On divergence the trace-diff machinery from DetSan pinpoints the first
divergent event (timestamps are quantized first so the ulp wobble does
not drown the diff).

Scenarios:

- ``smoke``: the default 4-node LAN scenario (same shape as DetSan's).
- ``recovery``: the same deployment with a durable WAL; one replica
  crashes with amnesia mid-run and rejoins via replay + state
  transfer, exercising the recovery protocol under permuted schedules.
- ``toy_race``: a deliberately order-dependent scenario (same-time
  events append to a shared list) used by the tests to prove the
  sanitizer actually detects races; not part of the default set.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .detsan import DetSanFinding, _diff_events

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC_ROOT = REPO_ROOT / "src"

RECORD_SCHEMA = "repro-racesan-record/1"
REPORT_SCHEMA = "repro-racesan-report/1"

DEFAULT_SEED = 0
DEFAULT_DURATION = 0.5
DEFAULT_RATE = 300.0
DEFAULT_PERMUTATIONS = 4

DEFAULT_SCENARIOS = ("smoke", "recovery")
ALL_SCENARIOS = ("smoke", "recovery", "toy_race")

#: decimal places kept when aligning event times across runs -- the
#: strict-FIFO clamp perturbs arrivals by ~1 ulp under permutation,
#: which must not register as a divergence in the pinpointing diff
TIME_QUANTUM_DIGITS = 9


@dataclass(frozen=True)
class RaceSanFinding:
    """One semantic divergence under a tie-break permutation."""

    rule: str
    message: str

    def render(self) -> str:
        return f"{self.rule} {self.message}"

    def to_json_dict(self) -> Dict[str, str]:
        return {"rule": self.rule, "message": self.message}


def _digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _service_semantics(service, submitted: int) -> Dict[str, Any]:
    """The order-insensitive protocol outcome of an ordering-service run."""
    ledgers = {
        str(name): digest.hex()
        for name, digest in service.ledger_digests().items()
    }
    replica_logs = {
        str(replica_id): {str(cid): h.hex() for cid, h in entries.items()}
        for replica_id, entries in service.replica_log_digests().items()
    }
    return {
        "ledgers": ledgers,
        "replica_logs": replica_logs,
        "delivered": service.total_delivered(),
        "submitted": submitted,
    }


def _run_smoke(
    seed: int, duration: float, rate: float
) -> Tuple[Dict[str, Any], List[List[Any]]]:
    from repro.obs.report import run_scenario

    result = run_scenario(
        seed=seed, duration=duration, rate=rate, trace=True
    )
    assert result.trace is not None
    events = [
        [event.time, event.kind, str(event.src), str(event.dst), event.detail]
        for event in result.trace.events
    ]
    return _service_semantics(result.service, result.submitted), events


def _run_recovery(
    seed: int, duration: float, rate: float
) -> Tuple[Dict[str, Any], List[List[Any]]]:
    """Smoke deployment + durable WAL + mid-run amnesia crash/rejoin."""
    from repro.bench.topology import lan_latency_model
    from repro.fabric.channel import ChannelConfig
    from repro.obs.observability import Observability
    from repro.ordering.service import (
        OrderingServiceConfig,
        build_ordering_service,
    )
    from repro.sim.trace import MessageTracer
    from repro.smart.view import bft_group_size, max_faults
    from repro.workload import OpenLoopGenerator

    orderers = 4
    f = max_faults(orderers)
    config = OrderingServiceConfig(
        f=f,
        delta=orderers - bft_group_size(f),
        channel=ChannelConfig(
            "channel0", max_message_count=10, batch_timeout=10.0
        ),
        num_frontends=1,
        latency=lan_latency_model(),
        physical_cores=8,
        hardware_threads=16,
        signing_workers=16,
        smart_cpu_fraction=0.6,
        request_timeout=30.0,
        durable_wal=True,
        seed=seed,
    )
    obs = Observability()
    service = build_ordering_service(config, observability=obs)
    tracer = MessageTracer(service.network)
    generator = OpenLoopGenerator(
        sim=service.sim,
        frontends=service.frontends,
        channel_id="channel0",
        envelope_size=1024,
        rate_per_second=rate,
        duration=duration,
    )
    generator.start()
    # crash a non-leader replica with amnesia mid-run; it replays its
    # WAL and state-transfers back before the drain window closes
    crash_at = duration * 0.4
    recover_at = duration * 0.7
    service.sim.post_at(crash_at, service.crash_node, 3, True)
    service.sim.post_at(recover_at, service.recover_node, 3)
    service.run(duration + 1.0)
    obs.close()
    events = [
        [event.time, event.kind, str(event.src), str(event.dst), event.detail]
        for event in tracer.events
    ]
    return _service_semantics(service, generator.submitted), events


def _run_toy_race(
    seed: int, duration: float, rate: float
) -> Tuple[Dict[str, Any], List[List[Any]]]:
    """Deliberately order-dependent: the planted race the tests use.

    Same-timestamp events append to a shared list, so the final order
    *is* the tie order -- exactly the bug class RaceSan exists to
    catch.  Kept out of :data:`DEFAULT_SCENARIOS`.
    """
    from repro.sim.core import Simulator

    sim = Simulator()
    order: List[int] = []
    for i in range(8):
        sim.schedule_at(0.25, order.append, i)
    sim.run(until=1.0)
    semantics = {"order": order, "count": len(order)}
    events = [[0.25, "append", str(i), "list", ""] for i in order]
    return semantics, events


_SCENARIO_RUNNERS = {
    "smoke": _run_smoke,
    "recovery": _run_recovery,
    "toy_race": _run_toy_race,
}


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture_record(
    scenario: str = "smoke",
    seed: int = DEFAULT_SEED,
    duration: float = DEFAULT_DURATION,
    rate: float = DEFAULT_RATE,
    tie_seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one scenario under ``tie_seed`` and serialize its semantics.

    The tie seed is installed as the kernel-wide default
    (:func:`repro.sim.core.set_default_tie_seed`) so every Simulator
    the scenario builds internally inherits the permutation.
    """
    from repro.sim.core import set_default_tie_seed

    runner = _SCENARIO_RUNNERS.get(scenario)
    if runner is None:
        raise ValueError(f"unknown scenario {scenario!r}")
    set_default_tie_seed(tie_seed)
    try:
        semantics, events = runner(seed, duration, rate)
    finally:
        set_default_tie_seed(None)
    return {
        "schema": RECORD_SCHEMA,
        "scenario": {
            "name": scenario,
            "seed": seed,
            "duration": duration,
            "rate": rate,
        },
        "tie_seed": tie_seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "semantics": semantics,
        "events": events,
        "digest": _digest(semantics),
    }


def _quantize_events(
    events: Sequence[Sequence[Any]],
) -> List[List[Any]]:
    return [
        [round(float(event[0]), TIME_QUANTUM_DIGITS), *event[1:]]
        for event in events
    ]


def compare_records(
    baseline: Dict[str, Any], permuted: Dict[str, Any]
) -> List[RaceSanFinding]:
    """Diff semantic digests; empty list means schedule-independent."""
    if baseline["digest"] == permuted["digest"]:
        return []
    base_sem, perm_sem = baseline["semantics"], permuted["semantics"]
    changed = sorted(
        key
        for key in set(base_sem) | set(perm_sem)
        if base_sem.get(key) != perm_sem.get(key)
    )
    detail = f"diverging keys: {', '.join(changed)}"
    pinpoint = _pinpoint(baseline, permuted)
    if pinpoint:
        detail += f"; {pinpoint}"
    name = baseline["scenario"]["name"]
    tie = permuted["tie_seed"]
    return [
        RaceSanFinding(
            "RACESAN001",
            f"scenario {name!r} semantics diverge under tie-break "
            f"permutation tie_seed={tie} (digest "
            f"{baseline['digest'][:12]} vs {permuted['digest'][:12]}); "
            f"{detail}",
        )
    ]


def _pinpoint(
    baseline: Dict[str, Any], permuted: Dict[str, Any]
) -> Optional[str]:
    """First divergent event via DetSan's trace diff, ulp-tolerant."""
    events_a = baseline.get("events") or []
    events_b = permuted.get("events") or []
    if not events_a or not events_b:
        return None
    quant_a = _quantize_events(events_a)
    quant_b = _quantize_events(events_b)
    if quant_a == quant_b:
        return None
    diffs: List[DetSanFinding] = _diff_events(quant_a, quant_b)
    if not diffs:
        return None
    first = diffs[0]
    # a reordered same-timestamp tie (DETSAN002) is *expected* under
    # permutation -- it only names where the schedules first part ways
    prefix = (
        "first schedule divergence"
        if first.rule == "DETSAN002"
        else "first trace divergence"
    )
    return f"{prefix}: {first.message}"


# ----------------------------------------------------------------------
# subprocess driver
# ----------------------------------------------------------------------
def _capture_subprocess(
    scenario: str,
    seed: int,
    duration: float,
    rate: float,
    tie_seed: Optional[int],
    out_path: Path,
) -> Dict[str, Any]:
    env = dict(os.environ)
    # pin the hash seed: the tie permutation must be the only variable
    # (DetSan owns the hash-seed axis)
    env["PYTHONHASHSEED"] = "1"
    src = str(SRC_ROOT)
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + os.pathsep + existing if existing else src
    cmd = [
        sys.executable,
        "-m",
        "repro.analysis",
        "racesan-capture",
        "--scenario",
        scenario,
        "--seed",
        str(seed),
        "--duration",
        str(duration),
        "--rate",
        str(rate),
        "--out",
        str(out_path),
    ]
    if tie_seed is not None:
        cmd += ["--tie-seed", str(tie_seed)]
    subprocess.run(cmd, check=True, env=env, cwd=REPO_ROOT)
    return json.loads(out_path.read_text())


def permutation_run(
    scenario: str,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = DEFAULT_SEED,
    duration: float = DEFAULT_DURATION,
    rate: float = DEFAULT_RATE,
    work_dir: Optional[Path] = None,
) -> Tuple[List[RaceSanFinding], Dict[str, Any], List[str]]:
    """Baseline + K permuted subprocess runs of one scenario.

    Returns ``(findings, baseline_record, permutation_digests)``.
    """
    import tempfile

    if work_dir is None:
        with tempfile.TemporaryDirectory(prefix="racesan-") as tmp:
            return permutation_run(
                scenario, permutations, seed, duration, rate, Path(tmp)
            )
    baseline = _capture_subprocess(
        scenario, seed, duration, rate, None, work_dir / "baseline.json"
    )
    findings: List[RaceSanFinding] = []
    digests: List[str] = []
    for k in range(1, permutations + 1):
        permuted = _capture_subprocess(
            scenario, seed, duration, rate, k, work_dir / f"perm{k}.json"
        )
        digests.append(permuted["digest"])
        findings.extend(compare_records(baseline, permuted))
    return findings, baseline, digests


def run(
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = DEFAULT_SEED,
    duration: float = DEFAULT_DURATION,
    rate: float = DEFAULT_RATE,
    json_out: Optional[str] = None,
) -> int:
    """CLI entry for ``python -m repro.analysis racesan``."""
    print(
        f"[racesan] {len(scenarios)} scenario(s) x {permutations} "
        f"tie-break permutations (seed={seed}, duration={duration}s, "
        f"rate={rate}/s, PYTHONHASHSEED pinned)"
    )
    all_findings: List[RaceSanFinding] = []
    per_scenario: List[Dict[str, Any]] = []
    for scenario in scenarios:
        try:
            findings, baseline, digests = permutation_run(
                scenario, permutations, seed, duration, rate
            )
        except subprocess.CalledProcessError as exc:
            print(f"[racesan] capture subprocess failed: {exc}")
            return 2
        status = "RACE" if findings else "ok"
        print(
            f"[racesan] {scenario}: baseline {baseline['digest'][:16]} "
            f"x{permutations} permutations -> {status}"
        )
        for finding in findings:
            print(finding.render())
        all_findings.extend(findings)
        per_scenario.append(
            {
                "scenario": scenario,
                "baseline_digest": baseline["digest"],
                "permutation_digests": digests,
                "event_count": len(baseline.get("events") or []),
                "findings": [f.to_json_dict() for f in findings],
            }
        )
    if json_out:
        doc = {
            "schema": REPORT_SCHEMA,
            "clean": not all_findings,
            "permutations": permutations,
            "seed": seed,
            "duration": duration,
            "rate": rate,
            "scenarios": per_scenario,
            "finding_count": len(all_findings),
        }
        out = Path(json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if all_findings:
        print(f"[racesan] {len(all_findings)} divergence(s)")
        return 1
    print(
        "[racesan] schedule-independent: semantic digests byte-identical "
        f"across {permutations} permutations per scenario"
    )
    return 0
