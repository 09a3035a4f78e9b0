"""The pin ledger: every golden under ``tests/data/golden/`` in one
table -- its file, the recorder of each entry in it (``None``: of the
whole file), its encoding and what of it is pinned -- and the one
printer.  From the repository root::

    PYTHONPATH=src python -m tests.golden                # make golden
    PYTHONPATH=src python -m tests.golden --update NAME  # make golden UPDATE=NAME

The first prints ``old → new`` for every pinned field that moved and
exits 1 on any move; the second rewrites NAME's file if it moved (a file
that held is never rewritten).  ``test_golden.py`` compares every file,
and :func:`record` runs each recorder once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.analysis.sanitizer import VIEWS, capture_record
from repro.bench.report import render_markdown
from tests import (
    test_bench_report,
    test_bftsmart_executed_pins,
    test_bftsmart_vote_pins,
    test_fabric_hash_budget,
    test_network_link_pins,
    test_seam_pins,
    test_smart_wal,
    test_smartbft_chain_pins,
    test_smartbft_vote_pins,
    test_telemetry_pins,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"
#: moved fields printed per file before the rest are only counted
MAX_LINES = 20


def dumps(end: str = "\n", **options: Any) -> Callable[[Any], str]:
    return lambda value: json.dumps(value, **options) + end


def laid_out(inline: Callable[[Any, int], bool]) -> Callable[[Any], str]:
    """``indent=1`` in insertion order, except that a container for
    which ``inline(value, depth)`` holds is written on one line."""

    def encode(value: Any, depth: int = 0) -> str:
        if not isinstance(value, (dict, list)) or not value or inline(value, depth):
            return json.dumps(value)
        pad = " " * (depth + 1)
        if isinstance(value, dict):
            items = [f"{pad}{json.dumps(k)}: {encode(v, depth + 1)}" for k, v in value.items()]
        else:
            items = [pad + encode(v, depth + 1) for v in value]
        brackets = "{}" if isinstance(value, dict) else "[]"
        return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{' ' * depth}{brackets[1]}"

    return lambda value: encode(value) + "\n"


COMPACT = dumps(sort_keys=True, separators=(",", ":"))
INDENTED = dumps(sort_keys=True, indent=1)


@dataclass(frozen=True)
class Golden:
    """One file, ``tests/data/golden/<its name in LEDGER><suffix>``."""

    recorders: Mapping[Optional[str], Callable[[], Any]]
    encode: Callable[[Any], str]
    decode: Callable[[str], Any] = json.loads
    #: what of a whole-file recording is pinned (all of it by default)
    pinned: Callable[[Any], Any] = lambda document: document
    suffix: str = ".json"


def _each(recorder: Callable[[str], Any], runs: Mapping) -> Dict[str, Callable[[], Any]]:
    return {run: partial(recorder, run) for run in runs}


def _smoke(seed: int, duration: float, rate: float) -> Golden:
    """A DetSan record of the seeded ``smoke`` row: its event, span and
    metric views are pinned (the file's digests are digests of them)."""
    return Golden(
        {None: partial(capture_record, "smoke", seed=seed, duration=duration, rate=rate)},
        dumps(end="", sort_keys=True),
        pinned=lambda record: {view: record[view] for view in VIEWS},
    )


LEDGER: Dict[str, Golden] = {
    "bench_report": Golden(  # markdown, diffed line by line
        {None: lambda: render_markdown(test_bench_report.build_golden_report())
         .splitlines(keepends=True)},
        "".join,
        decode=lambda markdown: markdown.splitlines(keepends=True),
        suffix=".md",
    ),
    "bftsmart_executed_seed0": Golden(
        _each(test_bftsmart_executed_pins.record, test_bftsmart_vote_pins.RUNS), COMPACT
    ),
    "bftsmart_votes_seed0": Golden(
        _each(test_bftsmart_vote_pins.record, test_bftsmart_vote_pins.RUNS), COMPACT
    ),
    "fabric_path_bftsmart_seed0": Golden(
        {
            "durable_wal=False": partial(test_fabric_hash_budget.record, "bftsmart"),
            "durable_wal=True": partial(test_fabric_hash_budget.record, "bftsmart-durable_wal"),
        },
        laid_out(lambda value, _depth: isinstance(value, list)
                 and all(isinstance(item, str) for item in value)),
    ),
    "fabric_path_seed0": Golden(
        {None: partial(test_fabric_hash_budget.record, "solo")},
        laid_out(lambda _value, depth: depth >= 2),
    ),
    "network_links_seed0": Golden(test_network_link_pins.RECORDERS, COMPACT),
    "seam_pins": Golden(test_seam_pins.RECORDERS, INDENTED),
    "smartbft_chain_seed0": Golden(test_smartbft_chain_pins.RECORDERS, COMPACT),
    "smartbft_votes_seed0": Golden(test_smartbft_vote_pins.RECORDERS, COMPACT),
    "smoke_seed0": _smoke(0, 0.5, 400.0),
    "smoke_seed7": _smoke(7, 0.4, 250.0),
    "telemetry_seed0": Golden(test_telemetry_pins.RECORDERS, INDENTED),
    "wal_image_seed3": Golden({None: test_smart_wal.wal_image_fingerprint}, dumps(indent=1)),
}


def path_of(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}{LEDGER[name].suffix}"


@functools.lru_cache(maxsize=None)
def stored(name: str) -> Any:
    """The committed file of ``name``, decoded."""
    return LEDGER[name].decode(path_of(name).read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def record(name: str, entry: Optional[str] = None) -> Any:
    """``entry``'s recording, made once per process, as its file would
    hold it (encoded and decoded again: tuples are lists, keys strings)."""
    golden = LEDGER[name]
    return golden.decode(golden.encode(golden.recorders[entry]()))


def document(name: str) -> Any:
    """What ``name``'s file would hold."""
    recorders = LEDGER[name].recorders
    return record(name) if None in recorders else {e: record(name, e) for e in recorders}


#: a field one side of a comparison does not have
ABSENT = object()


def _item(container: Any, key: Any) -> Any:
    if isinstance(container, dict):
        return container.get(key, ABSENT)
    return container[key] if isinstance(container, list) and key < len(container) else ABSENT


def _step(where: str, key: Any) -> str:
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}[{json.dumps(key)}]" if where else key


def _show(value: Any) -> str:
    shown = "absent" if value is ABSENT else json.dumps(value, ensure_ascii=False)
    return shown if len(shown) <= 100 else shown[:99] + "…"


def _moves(old: Any, new: Any, where: str) -> Iterator[str]:
    """``where: old → new`` for every leaf field that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = [*old, *(key for key in new if key not in old)]
    elif isinstance(old, list) and isinstance(new, list):
        keys = range(max(len(old), len(new)))
    else:
        if old is ABSENT or new is ABSENT or json.dumps(old) != json.dumps(new):
            yield f"{where}: {_show(old)} → {_show(new)}"
        return
    for key in keys:
        yield from _moves(_item(old, key), _item(new, key), _step(where, key))


def recording(name: str, entry: Optional[str] = None) -> Any:
    """The pinned recording of ``entry`` (None: of the whole file)."""
    return LEDGER[name].pinned(document(name)) if entry is None else record(name, entry)


def moves(name: str, entry: Optional[str] = None) -> List[str]:
    """``old → new`` for every moved pinned field of ``entry`` (None: of
    the whole file, entries no recorder makes any more included)."""
    old = LEDGER[name].pinned(stored(name)) if entry is None else _item(stored(name), entry)
    return list(_moves(old, recording(name, entry), entry or ""))


def _capped(lines: List[str]) -> List[str]:
    extra = len(lines) - MAX_LINES
    return lines if extra <= 0 else lines[:MAX_LINES] + [f"… and {extra} more moved fields"]


def check(name: str, entry: Optional[str] = None) -> Any:
    """Fail with the ``old → new`` lines unless ``entry`` (None: the
    whole file) reproduces ``name``'s golden; return its recording."""
    lines = moves(name, entry)
    assert not lines, f"{path_of(name).name} moved:\n" + "\n".join(_capped(lines))
    return recording(name, entry)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__)
    parser.add_argument("--update", metavar="NAME", choices=sorted(LEDGER))
    args = parser.parse_args(argv)
    moved = False
    for name in [args.update] if args.update else sorted(LEDGER):
        shown = path_of(name).relative_to(GOLDEN_DIR.parents[2])
        lines = moves(name)
        moved = moved or bool(lines)
        if not lines:
            print(f"{shown}: unchanged")
        for line in _capped(lines):
            print(f"{shown} {line}")
        if args.update and lines:
            path_of(name).write_text(LEDGER[name].encode(document(name)), encoding="utf-8")
            print(f"{shown}: rewritten")
    return 1 if moved and not args.update else 0


if __name__ == "__main__":
    raise SystemExit(main())
