"""Every golden under ``tests/data/golden/`` reproduces, field by field.

The table, the recorders and the printer are in ``tests/golden.py``
(``make golden`` diffs every file, ``make golden UPDATE=NAME`` rewrites
one).  A recording is made once per process, so the modules that own a
recorder and check their own entries run nothing twice.
"""

import pytest

from tests.golden import GOLDEN_DIR, LEDGER, check, path_of, stored


@pytest.mark.parametrize("name", sorted(LEDGER))
def test_golden_reproduces(name):
    check(name)


@pytest.mark.parametrize("name", sorted(LEDGER))
def test_golden_file_is_written_in_its_encoding(name):
    """So a rewrite of a file that did not move changes no byte."""
    assert LEDGER[name].encode(stored(name)) == path_of(name).read_text(encoding="utf-8")


def test_every_golden_file_is_in_the_ledger():
    files = sorted(path_of(name).name for name in LEDGER)
    assert sorted(path.name for path in GOLDEN_DIR.iterdir()) == files
