"""Cross-commit pin of every telemetry view the repository renders.

Recorded once into ``tests/data/golden/telemetry_seed0.json`` and never
regenerated: a change to how metrics or traces are collected must leave
each of them byte-identical.

- the sanitizer's digests (semantics, message events, span tree and
  metrics snapshot) of every default ``SCENARIOS`` row at seeds 0 and 7,
  at the CLI defaults;
- the sha256 of ``python -m repro.obs report``'s text at seed 0;
- the sha256 of that run's Chrome trace document.

The file is a row of the pin ledger, ``tests/golden.py``.
"""

import hashlib
import json

import pytest

from repro.analysis.sanitizer import DEFAULT_SCENARIOS, capture_record
from repro.obs.export import chrome_trace
from repro.obs.report import render_report, run_scenario

SEEDS = (0, 7)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record_sanitizer_rows() -> dict:
    return {
        f"{row}/seed{seed}": capture_record(row, seed)["digests"]
        for row in DEFAULT_SCENARIOS
        for seed in SEEDS
    }


def record_report() -> dict:
    result = run_scenario()
    return {
        "report_sha256": _sha256(render_report(result)),
        "chrome_trace_sha256": _sha256(
            json.dumps(chrome_trace(result.obs.tracer), sort_keys=True)
        ),
    }


RECORDERS = {"sanitizer": record_sanitizer_rows, "report": record_report}


@pytest.mark.parametrize("view", sorted(RECORDERS))
def test_telemetry_is_pinned(golden, view):
    golden.check("telemetry_seed0", view)
