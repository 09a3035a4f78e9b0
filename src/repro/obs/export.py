"""Exporters for the observability layer.

- :func:`chrome_trace` converts a :class:`~repro.obs.spans.SpanTracer`
  into the Chrome trace-event JSON object format (the ``traceEvents``
  dict flavour), loadable in ``chrome://tracing`` and
  https://ui.perfetto.dev.  Closed spans become complete (``"X"``)
  events; instants and orphaned-open spans become instant (``"i"``)
  events; every track gets a ``thread_name`` metadata (``"M"``) event.
  Timestamps are microseconds, per the spec.
- :func:`validate_chrome_trace` structurally validates such a document
  (the schema check the tests and the CI acceptance step run).
- :func:`render_critical_path` draws the ASCII per-instance breakdown
  of the milestone chain.
- :func:`phase_mean_rows` / :func:`render_phase_table` export the
  per-phase latency breakdown as table rows (canonical
  :data:`~repro.obs.observability.PHASES` order, ``end_to_end`` last)
  for any number of columns — the per-phase tables of
  ``python -m repro.bench report`` are rendered through these.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple


from repro.obs.observability import MILESTONES, PHASES, Observability
from repro.obs.spans import SpanTracer

_PID = 1


def _track_ids(tracer: SpanTracer) -> Dict[str, int]:
    return {track: tid for tid, track in enumerate(sorted(tracer.tracks()), start=1)}


def chrome_trace(
    tracer: SpanTracer, process_name: str = "repro"
) -> Dict[str, Any]:
    """Render every span and instant as a trace-event JSON document."""
    tids = _track_ids(tracer)
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for track, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": track},
            }
        )
    orphan_ids = {span.sid for span in tracer.orphans()}
    for span in tracer.spans:
        tid = tids[span.track]
        args = dict(span.args)
        if span.sid in orphan_ids:
            args["orphan"] = True
        if span.end is None:
            events.append(
                {
                    "name": f"{span.name} (unfinished)",
                    "cat": span.category or "span",
                    "ph": "i",
                    "s": "t",
                    "ts": span.start * 1e6,
                    "pid": _PID,
                    "tid": tid,
                    "args": args,
                }
            )
            continue
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": _PID,
                "tid": tid,
                "args": args,
            }
        )
    for marker in tracer.instants:
        events.append(
            {
                "name": marker.name,
                "cat": "instant",
                "ph": "i",
                "s": "t",
                "ts": marker.time * 1e6,
                "pid": _PID,
                "tid": tids[marker.track],
                "args": dict(marker.args),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class TraceSchemaError(ValueError):
    """A document does not conform to the trace-event JSON format."""


def validate_chrome_trace(document: Any) -> None:
    """Structural validation of a trace-event JSON object document.

    Raises :class:`TraceSchemaError` on the first violation.  Checks
    the subset of the format the exporters emit (and that Perfetto
    requires to load a file): the ``traceEvents`` array, per-event
    required keys, phase-specific fields, and JSON-serializability.
    """
    if not isinstance(document, dict):
        raise TraceSchemaError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise TraceSchemaError("'traceEvents' must be a list")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise TraceSchemaError(f"{where}: event must be an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise TraceSchemaError(f"{where}: missing {key!r}")
        if not isinstance(event["name"], str):
            raise TraceSchemaError(f"{where}: 'name' must be a string")
        ph = event["ph"]
        if ph not in ("X", "B", "E", "i", "I", "M", "C"):
            raise TraceSchemaError(f"{where}: unsupported phase {ph!r}")
        if ph == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise TraceSchemaError(
                        f"{where}: {key!r} must be a non-negative number"
                    )
        elif ph in ("i", "I"):
            if not isinstance(event.get("ts"), (int, float)):
                raise TraceSchemaError(f"{where}: 'ts' must be a number")
        elif ph == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                raise TraceSchemaError(f"{where}: metadata needs args.name")
        if "args" in event and not isinstance(event["args"], dict):
            raise TraceSchemaError(f"{where}: 'args' must be an object")
    try:
        json.dumps(document, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise TraceSchemaError(f"document is not JSON-serializable: {exc}")


def write_chrome_trace(document: Dict[str, Any], path: str) -> str:
    """Validate and write a trace document to ``path``."""
    validate_chrome_trace(document)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# ASCII critical path
# ----------------------------------------------------------------------
def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:8.3f} s "
    return f"{value * 1e3:8.3f} ms"


def phase_bars(
    durations: Sequence[float],
    total: float,
    fmt: Callable[[float], str],
    width: int,
) -> List[str]:
    """One ``label  time  share  ###`` line per :data:`PHASES` entry
    (``durations`` in that order), then the end-to-end ``total``."""
    longest = max(len(label) for label, _, _ in PHASES)
    lines = []
    for (label, _, _), seconds in zip(PHASES, durations):
        share = seconds / total if total > 0 else 0.0
        bar = "#" * max(0, round(share * width))
        lines.append(f"  {label:<{longest}}  {fmt(seconds)}  {share:6.1%}  {bar}")
    lines.append(f"  {'end-to-end':<{longest}}  {fmt(total)}  100.0%")
    return lines


def render_critical_path(
    obs: Observability, cid: int, width: int = 40
) -> str:
    """Bar-chart breakdown of one consensus instance's milestone chain."""
    timeline = obs.instance_timeline(cid)
    if not timeline:
        return f"cid {cid}: no envelope observed for this instance"
    times = dict(timeline)
    lines = [f"critical path, consensus instance cid={cid}"]
    if len(timeline) < len(MILESTONES):
        reached = ", ".join(name for name, _ in timeline)
        lines.append(f"  incomplete chain (reached: {reached})")
        return "\n".join(lines)
    total = times["delivered"] - times["submitted"]
    durations = [times[stop] - times[start] for _, start, stop in PHASES]
    lines += phase_bars(durations, total, _fmt_seconds, width)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Phase-breakdown table export
# ----------------------------------------------------------------------
#: Canonical row order for phase tables: the telescoping phases in
#: pipeline order, then the end-to-end total.
PHASE_TABLE_ORDER = tuple(label for label, _, _ in PHASES) + ("end_to_end",)


def _mean(samples: Sequence[Optional[float]]) -> Optional[float]:
    finite = [
        s for s in samples if isinstance(s, (int, float)) and math.isfinite(s)
    ]
    if not finite:
        return None
    return sum(finite) / len(finite)


def phase_mean_rows(
    samples_by_column: Mapping[str, Mapping[str, Sequence[float]]],
) -> List[Tuple[str, Dict[str, Optional[float]]]]:
    """Order per-phase samples into table rows.

    ``samples_by_column`` maps a column name (a run, a variant, a
    backend) to that column's ``{phase label: [samples]}`` breakdown —
    the shape the bench harness embeds in result JSON under ``phases``.
    Returns ``(phase label, {column: mean seconds})`` rows in canonical
    pipeline order (:data:`PHASE_TABLE_ORDER`), keeping only labels at
    least one column measured; unknown labels sort after the canonical
    ones, alphabetically, so nothing is silently dropped.
    """
    labels_present: set = set()
    for samples in samples_by_column.values():
        labels_present.update(samples)
    ordered = [label for label in PHASE_TABLE_ORDER if label in labels_present]
    ordered += sorted(labels_present - set(PHASE_TABLE_ORDER))
    rows: List[Tuple[str, Dict[str, Optional[float]]]] = []
    for label in ordered:
        rows.append(
            (
                label,
                {
                    column: _mean(samples.get(label, ()))
                    for column, samples in samples_by_column.items()
                },
            )
        )
    return rows


def render_phase_table(
    samples_by_column: Mapping[str, Mapping[str, Sequence[float]]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Markdown table of per-phase mean latencies, one column per run.

    Cells are milliseconds (phases are sub-second in every deployment
    we simulate); missing measurements render as ``-``.
    """
    if columns is None:
        columns = sorted(samples_by_column)
    rows = phase_mean_rows({c: samples_by_column[c] for c in columns})
    lines = [
        "| phase | " + " | ".join(columns) + " |",
        "|---" * (len(columns) + 1) + "|",
    ]
    for label, means in rows:
        cells = []
        for column in columns:
            mean = means.get(column)
            cells.append("-" if mean is None else f"{mean * 1e3:.3f}")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
