"""Every example runs to completion, and the two Fabric examples print
exactly what they printed when they were pinned; so does the code
block under "Driving it" in docs/WORKLOADS.md, so a stale import there
fails.

Each example is a separate interpreter (a fresh id stream, as a user
running it sees).  ``asset_transfer.py`` is deterministic end to end;
``ledger_audit.py`` writes its chain under a fresh temporary directory,
whose name is masked.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

ASSET_TRANSFER = """\
1. alice creates two assets ...
   committed in block 0: VALID
   committed in block 0: VALID
2. alice sells car-7 to bob ...
   VALID in block 1
   car-7 is now owned by 'bob'
3. alice and bob race an increment (MVCC conflict) ...
   alice: VALID
   bob: MVCC_READ_CONFLICT
   odometer = 1 (the conflicting write was discarded, not applied twice)

both peers hold identical chains of height 4; every hash link verifies.
"""

LEDGER_AUDIT = """\
1. saved 3 blocks (5 transactions) to <tmp>/peer0-chain.json (6276 bytes)
2. reloaded and audited: ok=True, every block carries >= 3 valid ordering-node signatures
     block 0: chain=True data=True sigs=3
     block 1: chain=True data=True sigs=3
     block 2: chain=True data=True sigs=3
3. forged a signature on block 1 of a copy: audit ok=False, flagged block(s) [1]
4. cross-peer comparison: forked=False (common height 3)

all checks behaved as expected.
"""

PINNED = {"asset_transfer.py": ASSET_TRANSFER, "ledger_audit.py": LEDGER_AUDIT}


def _run(example: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, str(example)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_example_is_covered():
    assert len(EXAMPLES) == 6
    assert set(PINNED) <= {example.name for example in EXAMPLES}


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(example):
    stdout = _run(example)
    pinned = PINNED.get(example.name)
    if pinned is None:
        assert stdout
        return
    masked = re.sub(r"\S*repro-ledger-[^/\s]+", "<tmp>", stdout)
    assert masked == pinned


def test_the_workloads_guide_drives_an_engine(tmp_path):
    guide = (ROOT / "docs" / "WORKLOADS.md").read_text()
    section = guide[guide.index("### Driving it") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    script = tmp_path / "driving_it.py"
    script.write_text(code + "assert report.committed > 0\n")
    _run(script)
