"""The library has no surface that only its own tests reach.

A public top-level name of ``src/repro`` (a function, a class or a
module-level assignment whose name does not start with ``_``) is
*reached* when some Python file under ``src/``, ``benchmarks/``,
``examples/`` or ``tools/`` refers to it: as a name, an attribute or an
imported name, or a function that a ``@....register(...)`` decorator
hands to its registry.  The name's own definition does not count, and
neither does a package ``__init__`` re-export (its ``from ... import``
and ``__all__``).  A name that nothing reaches is either deleted or
kept on :data:`KEEP` with the reason the tests still need it, so the
surface cannot regrow behind tests that exercise only themselves.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
READERS = ("src", "benchmarks", "examples", "tools")
#: what running the performance benchmark leaves behind (an ignored
#: directory that can hold a whole exported parent tree)
GENERATED = ROOT / "benchmarks" / "perf" / "out"

#: unreached names the tests still need, each with why
KEEP = {
    "ConflictStorm": "ROADMAP item 6 wires it into the MVCC rows",
    "check_serializability": "ROADMAP item 6 wires it into the MVCC rows",
    "check_history_prefixes": "ROADMAP item 17 wires it into the explorer",
    "MuteReplica": "a fault instrument the invariant tests plant",
    "SuppressSync": "a fault instrument the invariant tests plant",
    "SkipQuorumChecks": "a fault instrument the invariant tests plant",
    "Corrupt": "a fault instrument the invariant tests plant",
    "BlockLink": "a fault instrument the invariant tests plant",
    "explore": "the tier-1 explorer run drives it",
    "SmallBankChaincode": "the integration tests' conservation workload",
    "And": "the policy language's conjunction, beside Or",
    "canonical_encode": "the bytes sha256 hashes, which the hashing vectors pin",
}


def _registered(node):
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr == "register"
        for d in node.decorator_list
    )


def _defined(path):
    """Public top-level names a module binds (a registered function is
    reached through its registry)."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _registered(node):
                names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _references(tree, reexports):
    """Every identifier a module reads: loaded names, attributes and,
    outside a package ``__init__``, imported names."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and not reexports:
            refs.update(alias.name for alias in node.names)
    return refs


def _reader_references():
    refs = Counter()
    for reader in READERS:
        for path in sorted((ROOT / reader).rglob("*.py")):
            if GENERATED in path.parents:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            refs += _references(tree, reexports=path.name == "__init__.py")
    return refs


def unreached_names():
    """``module::name`` for each public top-level name nothing reaches."""
    refs = _reader_references()
    unreached = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        for name in sorted(_defined(path)):
            if not refs[name] and name not in KEEP:
                unreached.append(f"{path.relative_to(SRC)}::{name}")
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    unreached = unreached_names()
    assert not unreached, "reached only by tests:\n" + "\n".join(unreached)


def test_every_kept_name_still_exists_and_is_still_unreached():
    """A kept name that is deleted, or that the program starts to use,
    leaves the keep-list with it."""
    refs = _reader_references()
    defined = set().union(*(_defined(path) for path in SRC.rglob("*.py")))
    assert sorted(name for name in KEEP if name not in defined) == []
    assert sorted(name for name in KEEP if refs[name]) == []
