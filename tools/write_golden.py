#!/usr/bin/env python
"""Regenerate the committed golden DetSan records.

The files under ``tests/data/golden/`` pin the kernel's observable
behavior byte-for-byte: full event stream, span tree, and metrics
snapshot of two seeded smoke scenarios, plus sha256 digests over the
canonical JSON of each view.  ``tests/test_reproducibility.py``
(TestGoldenEquivalence) fails whenever a run diverges from them.

Only rerun this after an *intentional* semantic change (and say why in
the PR) -- a performance change should never need it:

    PYTHONHASHSEED=1 PYTHONPATH=src python tools/write_golden.py

``PYTHONHASHSEED`` is pinned purely so the recorded ``hash_seed``
field stays stable; the digests themselves are hash-seed independent
(DetSan double-runs under different hash seeds to prove it).  A file
whose digests still hold is left as it is, byte for byte.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "tests" / "data" / "golden"

#: name -> capture_record scenario kwargs (mirrors the committed files)
SCENARIOS = {
    "smoke_seed0": {"seed": 0, "duration": 0.5, "rate": 400.0},
    "smoke_seed7": {"seed": 7, "duration": 0.4, "rate": 250.0},
}


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.analysis.sanitizer import VIEWS, capture_record

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, scenario in sorted(SCENARIOS.items()):
        record = capture_record("smoke", **scenario)
        digests = {view: record["digests"][view] for view in VIEWS}
        path = GOLDEN_DIR / f"{name}.json"
        previous = None
        if path.exists():
            golden = json.loads(path.read_text())["digests"]
            previous = {view: golden.get(view) for view in VIEWS}
        if previous == digests:
            status = "unchanged"
        else:
            status = "UPDATED" if previous is not None else "created"
            path.write_text(json.dumps(record, sort_keys=True))
        print(f"{path.relative_to(REPO)}: {status}")
        for view, digest in sorted(digests.items()):
            print(f"  {view}: {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
