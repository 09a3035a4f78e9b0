"""Protocol-aware static analysis and runtime determinism sanitizer.

Three rule families guard the properties every result in this repo
rests on (see docs/ANALYSIS.md for the catalog):

- **DET** -- determinism under a seed: no wall clock, no ambient
  randomness, no iteration-order leaks from sets/dicts into protocol
  ordering positions, no ordering by ``id()``/``hash()``.
- **PROTO** -- protocol invariants: quorum arithmetic only through the
  named helpers in :mod:`repro.smart.view`, no state mutation before
  verification in message handlers, no scheduling primitives outside
  the simulator kernel.
- **DETSAN / RACESAN** -- the runtime sanitizers
  (:mod:`repro.analysis.sanitizer`): seeded scenarios re-run under
  different ``PYTHONHASHSEED`` values, whose trace/span/metric views
  must match byte-for-byte, and under permuted same-timestamp
  tie-breaks, whose protocol outcome must.

Run ``python -m repro.analysis`` (or ``make analyze``) for the static
pass and ``python -m repro.analysis detsan`` / ``racesan`` (or ``make
detsan`` / ``make racesan``) for the runtime passes.
"""

from .engine import analyze_paths, analyze_source
from .rules import CATALOG, Finding, check_source
from .suppress import (
    KNOWN_RULE_IDS,
    SUPPRESS_RE,
    is_suppressed,
    parse_suppressions,
)

__all__ = [
    "CATALOG",
    "Finding",
    "KNOWN_RULE_IDS",
    "SUPPRESS_RE",
    "analyze_paths",
    "analyze_source",
    "check_source",
    "is_suppressed",
    "parse_suppressions",
]
