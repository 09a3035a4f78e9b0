"""DetSan and RaceSan: the runtime sanitizers, one harness.

Static rules catch the *patterns* that break determinism; the
sanitizers catch the *fact*.  Both run a row of :data:`SCENARIOS`
several times with one thing perturbed and compare what came out:

- **DetSan** perturbs the interpreter's *hash seed*.  Two runs under
  different ``PYTHONHASHSEED`` values must agree byte for byte on every
  view of the execution: the hub's message log (one ``network``-track
  instant per send), the ``obs`` span tree and the metrics snapshot.
  Within one process, iterating a set of strings is repeatable, so this
  axis -- and only this one -- needs a child interpreter per run.
- **RaceSan** perturbs the *schedule*.  The kernel orders
  same-timestamp events by a sequence number, which makes every run
  deterministic -- but a protocol whose outcome silently depends on that
  arbitrary tie order looks healthy until an unrelated change shifts the
  sequence numbers: a data race that happens to win every time.
  ``Simulator(tie_seed=k)`` shuffles same-timestamp pops per seed
  (``sim/core.py``); K permuted runs, in this process, must agree with
  the unpermuted one on the **semantic digest**: per-frontend ledger
  chain digests, per-replica decided-batch logs and the
  delivered/submitted totals.  Timing may wobble by an ulp (the FIFO
  clamp becomes strict under permutation to preserve the per-connection
  contract); what the protocol *decided* must not.

Runs of one process are comparable because every identity a run mints
comes from its own simulator (:meth:`Simulator.id_stream`).

Rules:

- ``DETSAN001`` trace event streams diverge (general nondeterminism)
- ``DETSAN002`` same-timestamp event tie ordered differently across
  runs (missing deterministic tie-break key)
- ``DETSAN003`` span trees diverge
- ``DETSAN004`` metric snapshots diverge
- ``RACESAN001`` semantic digests diverge across tie-break
  permutations (the outcome depends on same-timestamp delivery order);
  the message names the first divergent event of the two traces
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.report import SMOKE, run_scenario
from repro.ordering.backends import OpenLoop, ScenarioRow
from repro.sim.core import Simulator
from repro.sim.network import ConstantLatency

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC_ROOT = REPO_ROOT / "src"

RECORD_SCHEMA = "repro-sanitizer-record/1"
REPORT_SCHEMA = "repro-sanitizer-report/1"

DEFAULT_SEED = 0
DEFAULT_DURATION = 0.5
#: offered rates the two verbs have always defaulted to (the committed
#: goldens were captured at DetSan's)
DETSAN_RATE = 400.0
RACESAN_RATE = 300.0
DEFAULT_PERMUTATIONS = 4

#: the two interpreters of a DetSan double-run
HASH_SEEDS = ("1", "2")

#: decimal places kept when aligning event times across permuted runs
#: -- the strict-FIFO clamp perturbs arrivals by ~1 ulp, which must not
#: register as a divergence in the pinpointing diff
TIME_QUANTUM_DIGITS = 9

VIEWS = ("events", "span_tree", "metrics")


@dataclass(frozen=True)
class Finding:
    """One divergence between two runs of a scenario."""

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
#: what a row's run returns: semantics, events, span tree, metrics
Views = Tuple[Dict[str, Any], List[List[Any]], List[Any], Dict[str, Any]]


def _row_views(row: ScenarioRow, sim: Simulator) -> Views:
    """Run ``row`` through ``obs/report.run_scenario`` with the message
    log on, and read its four views."""
    result = run_scenario(row, trace=True, sim=sim)
    service = result.service
    semantics = {
        "ledgers": {
            str(name): digest.hex()
            for name, digest in service.ledger_digests().items()
        },
        "replica_logs": {
            str(replica): {str(cid): h.hex() for cid, h in entries.items()}
            for replica, entries in service.replica_log_digests().items()
        },
        "delivered": service.total_delivered(),
        "submitted": result.submitted,
    }
    events = [
        [
            marker.time,
            marker.name,
            str(marker.args["src"]),
            str(marker.args["dst"]),
            marker.args["detail"],
        ]
        for marker in result.obs.tracer.instants
    ]
    return (
        semantics,
        events,
        result.obs.tracer.tree(),
        result.obs.registry.snapshot(),
    )


#: the planted race, order-dependent by construction: proves the
#: sanitizer has teeth (never a default)
TOY_RACE = "toy_race"


def _toy_race(sim: Simulator) -> Views:
    """Same-timestamp events append to a shared list, so the final order
    *is* the tie order -- the bug class RaceSan exists to catch."""
    order: List[int] = []
    for i in range(8):
        sim.schedule_at(0.25, order.append, i)
    sim.run(until=1.0)
    events = [[0.25, "append", str(i), "list", ""] for i in order]
    return {"order": order, "count": len(order)}, events, [], {}


#: a leader that stops answering must be noticed well inside the drain
#: window that follows the load (the smoke rows wait 30 s: no timeout)
_CRASH_DETECTION = 0.25

_LEADER_CRASH = replace(SMOKE, crash=0, request_timeout=_CRASH_DETECTION)

#: name -> row; a capture replaces the row's seed and its open loop's
#: rate and duration with the verb's
SCENARIOS: Dict[str, ScenarioRow] = {
    # 4-node bftsmart LAN deployment, no fault
    "smoke": SMOKE,
    # smoke + durable WAL; a follower crashes with amnesia and rejoins
    # through WAL replay and state transfer
    "recovery": replace(SMOKE, durable_wal=True, crash=3, rejoin=True),
    # smoke; the leader crashes for good, forcing a regency change
    "leader_crash": _LEADER_CRASH,
    # the smoke deployment on the smartbft backend, no fault
    "smartbft": replace(SMOKE, backend="smartbft"),
    # smartbft; the leader crashes for good, forcing a view change
    "smartbft_leader_crash": replace(
        SMOKE, backend="smartbft", crash=0, request_timeout=_CRASH_DETECTION
    ),
    # smartbft with a batch timeout shorter than a block takes to fill:
    # the leader's batch timer cuts every block
    "smartbft_timeout_cut": replace(SMOKE, backend="smartbft", batch_timeout=0.02),
    # leader_crash at n=10 with 4 KB envelopes: a regency change under a
    # backlog that outlasts the sync timeout unless SYNC stays small
    "leader_crash_n10": replace(
        _LEADER_CRASH, f=3, load=replace(_LEADER_CRASH.load, envelope_size=4096)
    ),
    # smoke on a constant-latency network: copies sent at one instant
    # arrive at one instant, so the tie permutations reorder deliveries
    "smoke_constant_latency": replace(SMOKE, latency=ConstantLatency(0.0001)),
}
#: rows the verbs run only when named (telemetry_seed0.json pins every
#: default row)
_OPT_IN = ("leader_crash_n10", "smoke_constant_latency")
DEFAULT_SCENARIOS = tuple(name for name in SCENARIOS if name not in _OPT_IN)
#: every name ``--scenario`` accepts
SCENARIO_NAMES = (*SCENARIOS, TOY_RACE)


def capture_record(
    scenario: str = "smoke",
    seed: int = DEFAULT_SEED,
    duration: float = DEFAULT_DURATION,
    rate: float = RACESAN_RATE,
    tie_seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one row once, on a fresh simulator, and serialize its views.

    Events are ``[time, kind, src, dst, detail]`` rows in emission
    order; digests are sha256 over the canonical (sorted-keys) JSON.
    """
    sim = Simulator(tie_seed=tie_seed)
    if scenario == TOY_RACE:
        views = _toy_race(sim)
    elif scenario in SCENARIOS:
        row = SCENARIOS[scenario]
        load = OpenLoop(rate, duration, row.load.envelope_size)
        views = _row_views(replace(row, seed=seed, load=load), sim)
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    semantics, events, span_tree, metrics = views
    record = {
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
        "span_tree": span_tree,
        "metrics": metrics,
    }
    record["digests"] = {
        view: _digest(record[view]) for view in ("semantics", *VIEWS)
    }
    return record


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _tie_group(
    events: Sequence[Sequence[Any]], index: int
) -> Tuple[int, List[Tuple[Any, ...]]]:
    """All events sharing a timestamp with ``events[index]``, plus the
    group's start index."""
    timestamp = events[index][0]
    start = index
    while start > 0 and events[start - 1][0] == timestamp:
        start -= 1
    end = index
    while end + 1 < len(events) and events[end + 1][0] == timestamp:
        end += 1
    return start, [tuple(event) for event in events[start : end + 1]]


def _diff_events(
    events_a: Sequence[Sequence[Any]], events_b: Sequence[Sequence[Any]]
) -> Finding:
    """Classify the first divergence of two unequal event streams."""
    limit = min(len(events_a), len(events_b))
    divergence = next(
        (i for i in range(limit) if list(events_a[i]) != list(events_b[i])), None
    )
    if divergence is None:
        return Finding(
            "DETSAN001",
            f"trace lengths diverge ({len(events_a)} vs "
            f"{len(events_b)} events); runs are nondeterministic",
        )
    start_a, group_a = _tie_group(events_a, divergence)
    _, group_b = _tie_group(events_b, divergence)
    timestamp = events_a[divergence][0]
    if Counter(group_a) == Counter(group_b):
        example = events_a[divergence]
        return Finding(
            "DETSAN002",
            f"same-timestamp tie at t={timestamp:.6f}s "
            f"(events {start_a}..{start_a + len(group_a) - 1}) is "
            "ordered differently across runs -- missing a "
            "deterministic tie-break key; first reordered event: "
            f"{example[1]} {example[2]}->{example[3]} ({example[4]})",
        )
    return Finding(
        "DETSAN001",
        f"trace event streams diverge at event {divergence} "
        f"(t={timestamp:.6f}s): "
        f"{events_a[divergence][1:4]} vs {events_b[divergence][1:4]}",
    )


def compare_views(first: Dict[str, Any], second: Dict[str, Any]) -> List[Finding]:
    """DetSan: every view of two runs must be byte-identical; an empty
    list means deterministic."""
    findings: List[Finding] = []
    digests_a, digests_b = first["digests"], second["digests"]
    if digests_a["events"] != digests_b["events"]:
        findings.append(_diff_events(first["events"], second["events"]))
    if digests_a["span_tree"] != digests_b["span_tree"]:
        findings.append(
            Finding(
                "DETSAN003",
                "span trees diverge between runs "
                f"({digests_a['span_tree'][:12]} vs "
                f"{digests_b['span_tree'][:12]})",
            )
        )
    if digests_a["metrics"] != digests_b["metrics"]:
        keys_a, keys_b = set(first["metrics"]), set(second["metrics"])
        changed = sorted(
            key
            for key in keys_a & keys_b
            if first["metrics"][key] != second["metrics"][key]
        )
        detail = ", ".join(changed[:5]) or ", ".join(sorted(keys_a ^ keys_b)[:5])
        findings.append(
            Finding(
                "DETSAN004",
                f"metric snapshots diverge between runs (first: {detail})",
            )
        )
    return findings


def compare_semantics(
    baseline: Dict[str, Any], permuted: Dict[str, Any]
) -> List[Finding]:
    """RaceSan: the semantic digest of a permuted run must equal the
    baseline's; an empty list means schedule-independent."""
    digest_a = baseline["digests"]["semantics"]
    digest_b = permuted["digests"]["semantics"]
    if digest_a == digest_b:
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
    return [
        Finding(
            "RACESAN001",
            f"scenario {baseline['scenario']['name']!r} semantics diverge "
            f"under tie-break permutation tie_seed={permuted['tie_seed']} "
            f"(digest {digest_a[:12]} vs {digest_b[:12]}); {detail}",
        )
    ]


def _pinpoint(baseline: Dict[str, Any], permuted: Dict[str, Any]) -> Optional[str]:
    """The first divergent event of two traces, ulp-tolerant."""
    quantized = [
        [
            [round(float(event[0]), TIME_QUANTUM_DIGITS), *event[1:]]
            for event in record.get("events") or []
        ]
        for record in (baseline, permuted)
    ]
    if not all(quantized) or quantized[0] == quantized[1]:
        return None
    first = _diff_events(*quantized)
    # a reordered same-timestamp tie (DETSAN002) is *expected* under
    # permutation -- it only names where the schedules first part ways
    prefix = (
        "first schedule divergence"
        if first.rule == "DETSAN002"
        else "first trace divergence"
    )
    return f"{prefix}: {first.message}"


# ----------------------------------------------------------------------
# the two perturbation axes
# ----------------------------------------------------------------------
def _capture_child(
    scenario: str, seed: int, duration: float, rate: float, hash_seed: str
) -> Dict[str, Any]:
    """:func:`capture_record` in a fresh interpreter under ``hash_seed``."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = str(SRC_ROOT)
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + os.pathsep + existing if existing else src
    with tempfile.TemporaryDirectory(prefix="sanitizer-") as tmp:
        out_path = Path(tmp) / "record.json"
        cmd = [sys.executable, "-m", "repro.analysis", "capture"]
        cmd += ["--scenario", scenario, "--seed", str(seed)]
        cmd += ["--duration", str(duration), "--rate", str(rate)]
        cmd += ["--out", str(out_path)]
        subprocess.run(cmd, check=True, env=env, cwd=REPO_ROOT)
        return json.loads(out_path.read_text())


def hash_seed_run(
    scenario: str,
    seed: int = DEFAULT_SEED,
    duration: float = DEFAULT_DURATION,
    rate: float = DETSAN_RATE,
) -> Tuple[List[Finding], List[Dict[str, Any]]]:
    """One capture per hash seed of :data:`HASH_SEEDS`, each in a child
    interpreter; returns ``(findings, records)``."""
    records = [
        _capture_child(scenario, seed, duration, rate, hash_seed)
        for hash_seed in HASH_SEEDS
    ]
    return compare_views(*records), records


def tie_seed_run(
    scenario: str,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = DEFAULT_SEED,
    duration: float = DEFAULT_DURATION,
    rate: float = RACESAN_RATE,
) -> Tuple[List[Finding], List[Dict[str, Any]]]:
    """The unpermuted run, then tie seeds 1..K, all in this process;
    returns ``(findings, records)`` with the baseline first."""
    records = [
        capture_record(scenario, seed, duration, rate, tie_seed=k or None)
        for k in range(permutations + 1)
    ]
    findings: List[Finding] = []
    for permuted in records[1:]:
        findings.extend(compare_semantics(records[0], permuted))
    return findings, records


def _run(
    name: str,
    what: str,
    digest_view: str,
    axis: Callable[[str], Tuple[List[Finding], List[Dict[str, Any]]]],
    scenarios: Sequence[str],
    json_out: Optional[str],
    settings: Dict[str, Any],
) -> int:
    """Drive one verb over ``scenarios``: print a line per row, write the
    report, return the exit status."""
    knobs = ", ".join(f"{key}={value}" for key, value in settings.items())
    print(f"[{name}] {len(scenarios)} scenario(s) x {what} ({knobs})")
    rows: List[Dict[str, Any]] = []
    total = 0
    for scenario in scenarios:
        try:
            findings, records = axis(scenario)
        except subprocess.CalledProcessError as exc:
            print(f"[{name}] capture subprocess failed: {exc}")
            return 2
        digests = [record["digests"] for record in records]
        status = "DIVERGES" if findings else "ok"
        print(
            f"[{name}] {scenario}: {len(records[0]['events'])} events, "
            f"{digest_view} digest {digests[0][digest_view][:16]} -> {status}"
        )
        for finding in findings:
            print(finding.render())
        total += len(findings)
        rows.append(
            {
                "scenario": scenario,
                "digests": digests,
                "event_count": len(records[0]["events"]),
                "findings": [finding.to_json_dict() for finding in findings],
            }
        )
    if json_out:
        doc = {
            "schema": REPORT_SCHEMA,
            "sanitizer": name,
            "clean": not total,
            "finding_count": total,
            "scenarios": rows,
            **settings,
        }
        out = Path(json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if total:
        print(f"[{name}] {total} divergence(s)")
        return 1
    print(f"[{name}] clean: {digest_view} digests identical across {what}")
    return 0


def run_detsan(
    seed: int = DEFAULT_SEED,
    duration: float = DEFAULT_DURATION,
    rate: float = DETSAN_RATE,
    json_out: Optional[str] = None,
) -> int:
    """CLI entry for ``python -m repro.analysis detsan``."""
    return _run(
        "detsan",
        f"PYTHONHASHSEED {' vs '.join(HASH_SEEDS)}",
        "events",
        lambda scenario: hash_seed_run(scenario, seed, duration, rate),
        DEFAULT_SCENARIOS,
        json_out,
        {"seed": seed, "duration": duration, "rate": rate},
    )


def run_racesan(
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = DEFAULT_SEED,
    duration: float = DEFAULT_DURATION,
    rate: float = RACESAN_RATE,
    json_out: Optional[str] = None,
) -> int:
    """CLI entry for ``python -m repro.analysis racesan``."""
    return _run(
        "racesan",
        f"{permutations} tie-break permutations",
        "semantics",
        lambda scenario: tie_seed_run(scenario, permutations, seed, duration, rate),
        scenarios,
        json_out,
        {
            "permutations": permutations,
            "seed": seed,
            "duration": duration,
            "rate": rate,
        },
    )
