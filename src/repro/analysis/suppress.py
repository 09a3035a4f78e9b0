"""Inline suppressions shared by ``repro.analysis`` and ``tools/lint.py``.

One syntax for both checkers::

    open_cid = pick_from(reports)  # repro: allow[DET004] arrival order is the contract

A suppression names the rule(s) it silences (comma-separated inside the
brackets) and applies to findings reported on its own line.  Unlike a
bare ``# noqa``, a suppression must name a *known* rule: a typo'd or
stale rule id is itself reported (``SUP001``) so suppressions cannot
rot silently.  Trailing prose after the closing bracket is encouraged --
it is the justification a reviewer reads.

The known-rule universe is the union of the ``repro.analysis`` rule
catalog, the DetSan runtime rules, and the codes the ``tools/lint.py``
AST fallback implements, so either checker accepts a suppression aimed
at the other without flagging it as unknown.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Set, Tuple

#: ``# repro: allow[DET001, DET004] optional justification``
SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]")

#: Rule ids implemented by the ``tools/lint.py`` AST fallback (kept
#: here so both checkers agree on the known-rule universe).
LINT_FALLBACK_RULES = (
    "E711",
    "E712",
    "E722",
    "E999",
    "F401",
    "F541",
    "F811",
    "F841",
)

#: Static-analysis rules (:mod:`repro.analysis.rules`).
STATIC_RULES = (
    "DET001",
    "DET002",
    "DET003",
    "DET004",
    "DET005",
    "PROTO001",
    "PROTO002",
    "PROTO003",
)

#: Hash-seed sanitizer rules (:mod:`repro.analysis.sanitizer`).
DETSAN_RULES = (
    "DETSAN001",
    "DETSAN002",
    "DETSAN003",
    "DETSAN004",
)

#: Message-flow taint rules (:mod:`repro.analysis.flow`).
FLOW_RULES = (
    "FLOW001",
    "FLOW002",
    "FLOW003",
)

#: Schedule-race sanitizer rules (:mod:`repro.analysis.sanitizer`).
RACESAN_RULES = ("RACESAN001",)

#: The meta-rule for malformed/unknown suppressions.
UNKNOWN_SUPPRESSION = "SUP001"

KNOWN_RULE_IDS: Set[str] = {
    *LINT_FALLBACK_RULES,
    *STATIC_RULES,
    *DETSAN_RULES,
    *FLOW_RULES,
    *RACESAN_RULES,
    UNKNOWN_SUPPRESSION,
}


def parse_suppressions(
    source: str,
    known_rules: Iterable[str] = (),
) -> Tuple[Dict[int, Set[str]], List[Tuple[int, str]]]:
    """Extract inline ``repro: allow`` markers from ``source``.

    Returns ``(suppressions, unknown)`` where ``suppressions`` maps a
    1-based line number to the set of rule ids allowed on that line,
    and ``unknown`` lists ``(line, rule_id)`` pairs naming rules outside
    ``known_rules`` (defaults to the full :data:`KNOWN_RULE_IDS`
    universe).  Unknown rules are *not* added to the suppression set:
    a typo never silences anything.
    """
    universe = set(known_rules) or KNOWN_RULE_IDS
    suppressions: Dict[int, Set[str]] = {}
    unknown: List[Tuple[int, str]] = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in SUPPRESS_RE.finditer(line):
            names = [name.strip() for name in match.group(1).split(",")]
            for name in names:
                if not name:
                    unknown.append((lineno, "<empty>"))
                    continue
                if name not in universe:
                    unknown.append((lineno, name))
                    continue
                suppressions.setdefault(lineno, set()).add(name)
    return suppressions, unknown


def is_suppressed(
    suppressions: Dict[int, Set[str]], lineno: int, rule: str
) -> bool:
    """Is ``rule`` allowed on ``lineno`` by an inline suppression?"""
    return rule in suppressions.get(lineno, ())
