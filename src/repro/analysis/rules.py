"""Protocol-aware AST rules: the DET and PROTO families.

Every rule is a named entry in :data:`CATALOG` with an id, a scope (the
path prefixes it applies to), and a one-line contract.  The checkers
live in :class:`FileChecker`; :mod:`repro.analysis.engine` drives them
over the tree and applies the shared suppression syntax
(:mod:`repro.analysis.suppress`).

DET rules -- determinism under a seed:

- ``DET001`` wall-clock reads (``time.time``, ``datetime.now``, ...):
  all time must come from ``Simulator.now``.
- ``DET002`` ambient randomness (module-level ``random.*``,
  ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*``): all randomness
  must come from seeded ``repro.sim.randomness.RandomStreams``
  (``random.Random(seed)`` instances are fine).
- ``DET003`` iteration over a ``set`` in an ordering position: set
  iteration order depends on element hashes (and, for strings, on the
  interpreter's per-process hash seed), so any ``for``/comprehension
  over a set that is not wrapped in ``sorted(...)`` or consumed by an
  order-insensitive aggregator is flagged.
- ``DET004`` iteration over dict ``.values()``/``.items()`` in an
  ordering position: insertion order encodes *arrival* order, which is
  exactly where same-timestamp races hide.  Wrap in ``sorted(...)``,
  or keep the container an ``OrderedDict`` (the explicit marker that
  insertion order -- FIFO -- is the protocol contract).
- ``DET005`` ordering by ``id()``/``hash()``: memory addresses and
  string hashes vary across processes.

PROTO rules -- protocol invariants:

- ``PROTO001`` open-coded quorum arithmetic (``2*f+1``, ``3*f+1``,
  ``(n+f+1)//2``) outside ``smart/view.py``/``smart/quorums.py``/
  ``smart/wheat.py``: a typo in quorum math is a safety bug; use the
  named helpers on :class:`repro.smart.view.View`.
- ``PROTO002`` state mutation before verification in a message
  handler: a handler that verifies signatures/certificates must not
  mutate ``self`` state before the first verifying call.
- ``PROTO003`` scheduling primitives (``heapq``, ``threading``,
  ``sched``, ``asyncio``, ``time.sleep``) outside ``sim/core.py``:
  all concurrency must go through the deterministic simulator kernel.
  Also flags constructing (or aliasing for construction) raw
  ``EventHandle`` objects outside the kernel: only
  ``Simulator.schedule`` makes one, together with the heap entry that
  fires it, so a hand-built handle is a timer nothing will ever run.
  Importing ``EventHandle`` for type annotations stays legal.

Order-insensitive aggregators accepted by DET003/DET004: ``sum``,
``min``, ``max``, ``len``, ``any``, ``all``, ``sorted``, ``set``,
``frozenset`` -- their result does not depend on iteration order
(``min``/``max`` ties break by first occurrence, but a total order on
the key makes that moot; prefer an explicit tie-break key when keys can
collide).  Set and dict comprehensions are rebuilds into unordered /
key-addressed containers and are likewise exempt.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
#: Path prefixes (posix, repo-relative) of the protocol core where the
#: iteration-order rules apply.
PROTOCOL_PATHS = (
    "src/repro/smart/",
    "src/repro/sim/",
    "src/repro/ordering/",
    "src/repro/fabric/",
)

#: Modules allowed to open-code quorum arithmetic (they *define* it).
QUORUM_HOME = (
    "src/repro/smart/view.py",
    "src/repro/smart/quorums.py",
    "src/repro/smart/wheat.py",
)

#: The one module allowed to touch scheduling primitives.
SCHEDULER_HOME = ("src/repro/sim/core.py",)


@dataclass(frozen=True)
class Rule:
    """One catalog entry."""

    rule_id: str
    title: str
    #: apply only under these path prefixes (empty: everywhere)
    only_under: Tuple[str, ...] = ()
    #: never apply to these exact paths (the rule's "home" modules)
    exempt_paths: Tuple[str, ...] = ()

    def applies_to(self, rel_path: str) -> bool:
        if rel_path in self.exempt_paths:
            return False
        if self.only_under and not any(
            rel_path.startswith(prefix) for prefix in self.only_under
        ):
            return False
        return True


CATALOG: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule("DET001", "wall-clock read in simulated code"),
        Rule("DET002", "ambient (unseeded) randomness"),
        Rule(
            "DET003",
            "set iteration in an ordering position",
            only_under=PROTOCOL_PATHS,
        ),
        Rule(
            "DET004",
            "dict .values()/.items() iteration in an ordering position",
            only_under=PROTOCOL_PATHS,
        ),
        Rule("DET005", "ordering by id()/hash()"),
        Rule(
            "PROTO001",
            "open-coded quorum arithmetic",
            exempt_paths=QUORUM_HOME,
        ),
        Rule("PROTO002", "state mutation before verification in a handler"),
        Rule(
            "PROTO003",
            "scheduling primitive bypassing the simulator kernel",
            exempt_paths=SCHEDULER_HOME,
        ),
    )
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
WALL_CLOCK_TIME_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "localtime",
    "gmtime",
    "ctime",
}
WALL_CLOCK_DATETIME_FNS = {"now", "utcnow", "today"}

#: ``random.<name>`` calls that are still deterministic/seedable.
RANDOM_ALLOWED = {"Random"}
NONDET_UUID_FNS = {"uuid1", "uuid4"}

AGGREGATORS = {
    "sum",
    "min",
    "max",
    "len",
    "any",
    "all",
    "sorted",
    "set",
    "frozenset",
}

#: ``list``/``tuple``/``iter`` materialize iteration order: their
#: argument is an ordering position just like a ``for`` target.
MATERIALIZERS = {"list", "tuple", "iter"}

MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

VERIFY_NAME_RE = re.compile(r"verify|valid|signature|certificate|authent")
HANDLER_NAME_RE = re.compile(r"^_?(on_|receive_|handle_)")

BANNED_SCHEDULING_MODULES = {"heapq", "threading", "_thread", "sched", "asyncio"}

#: Kernel event-pool type: constructing one by hand outside sim/core.py
#: bypasses pooling (importing it for type annotations is fine).
EVENT_HANDLE_NAME = "EventHandle"


def _call_name(node: ast.Call) -> Optional[str]:
    """The called name: ``foo`` for ``foo(...)``/``x.foo(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """The leftmost name of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_f_like(node: ast.AST) -> bool:
    """Does this expression look like a fault threshold ``f``?"""
    if isinstance(node, ast.Name):
        return node.id == "f" or node.id.endswith("_f")
    if isinstance(node, ast.Attribute):
        return node.attr == "f" or node.attr.endswith("_f")
    return False


def _annotation_text(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return ""


def _inferred_kind(value: Optional[ast.AST], annotation: str) -> Optional[str]:
    """``"set"``/``"ordered"`` when the assigned value or annotation
    pins the container type; ``None`` when unknown."""
    if "OrderedDict" in annotation:
        return "ordered"
    lowered = annotation.lower()
    if lowered.startswith(("set[", "frozenset[", "typing.set[")) or lowered in (
        "set",
        "frozenset",
    ) or annotation.startswith(("Set[", "FrozenSet[", "typing.Set[")):
        return "set"
    if value is None:
        return None
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = _call_name(value)
        if isinstance(value.func, ast.Name) and name in ("set", "frozenset"):
            return "set"
        if name == "OrderedDict":
            return "ordered"
    return None


class _ContainerKinds:
    """Best-effort container typing: ``self.X`` attributes per class
    plus simple local/module names, mapped to ``"set"``/``"ordered"``."""

    def __init__(self, tree: ast.Module):
        self.attrs: Dict[str, str] = {}
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                kind = _inferred_kind(node.value, _annotation_text(node.annotation))
                self._record(node.target, kind)
            elif isinstance(node, ast.Assign):
                kind = _inferred_kind(node.value, "")
                for target in node.targets:
                    self._record(target, kind)
            elif isinstance(node, ast.arg):
                kind = _inferred_kind(None, _annotation_text(node.annotation))
                if kind is not None:
                    self.names[node.arg] = kind

    def _record(self, target: ast.AST, kind: Optional[str]) -> None:
        if kind is None:
            return
        if isinstance(target, ast.Name):
            self.names[target.id] = kind
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            self.attrs[target.attr] = kind

    def kind_of(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ) and node.value.id == "self":
            return self.attrs.get(node.attr)
        return None


# ----------------------------------------------------------------------
# the per-file checker
# ----------------------------------------------------------------------
class FileChecker:
    """Runs every applicable rule over one parsed module."""

    def __init__(self, rel_path: str, tree: ast.Module):
        self.rel_path = rel_path
        self.tree = tree
        self.findings: List[Finding] = []
        self._parents: Dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self._kinds = _ContainerKinds(tree)

    # -- plumbing ------------------------------------------------------
    def _active(self, rule_id: str) -> bool:
        return CATALOG[rule_id].applies_to(self.rel_path)

    def _report(self, rule_id: str, node: ast.AST, message: str) -> None:
        if not self._active(rule_id):
            return
        self.findings.append(
            Finding(
                rule=rule_id,
                path=self.rel_path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def check(self) -> List[Finding]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_wall_clock(node)
                self._check_randomness(node)
                self._check_id_hash_key(node)
                self._check_scheduling_call(node)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                self._check_scheduling_import(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._check_handle_alias(node)
            elif isinstance(node, ast.BinOp):
                self._check_quorum_arith(node)
            elif isinstance(node, ast.Compare):
                self._check_id_hash_compare(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_handler_mutation(node)
        self._check_iteration_sites()
        self.findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return self.findings

    # -- DET001: wall clock -------------------------------------------
    def _check_wall_clock(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        if isinstance(owner, ast.Name) and owner.id == "time":
            if func.attr in WALL_CLOCK_TIME_FNS:
                self._report(
                    "DET001",
                    node,
                    f"wall-clock read time.{func.attr}(); use Simulator.now",
                )
        if func.attr in WALL_CLOCK_DATETIME_FNS:
            base = owner
            if isinstance(base, ast.Attribute):
                base = base.value  # datetime.datetime.now()
            if isinstance(base, ast.Name) and base.id in ("datetime", "date"):
                self._report(
                    "DET001",
                    node,
                    f"wall-clock read {ast.unparse(node.func)}(); use Simulator.now",
                )

    # -- DET002: ambient randomness -----------------------------------
    def _check_randomness(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        owner = func.value
        if not isinstance(owner, ast.Name):
            return
        if owner.id == "random" and func.attr not in RANDOM_ALLOWED:
            self._report(
                "DET002",
                node,
                f"module-level random.{func.attr}(); draw from a seeded "
                "RandomStreams stream instead",
            )
        elif owner.id == "os" and func.attr == "urandom":
            self._report(
                "DET002", node, "os.urandom(); draw from seeded RandomStreams"
            )
        elif owner.id == "uuid" and func.attr in NONDET_UUID_FNS:
            self._report(
                "DET002",
                node,
                f"uuid.{func.attr}() is nondeterministic; derive ids from "
                "seeded streams or counters",
            )
        elif owner.id == "secrets":
            self._report(
                "DET002", node, f"secrets.{func.attr}() is OS entropy"
            )

    # -- DET005: ordering by id()/hash() ------------------------------
    def _check_id_hash_key(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name not in ("sorted", "min", "max"):
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            if isinstance(value, ast.Name) and value.id in ("id", "hash"):
                self._report(
                    "DET005",
                    keyword.value,
                    f"ordering by {value.id}() is process-dependent; "
                    "use a stable protocol key",
                )
            elif isinstance(value, ast.Lambda):
                for inner in ast.walk(value.body):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id in ("id", "hash")
                    ):
                        self._report(
                            "DET005",
                            inner,
                            f"ordering by {inner.func.id}() is "
                            "process-dependent; use a stable protocol key",
                        )

    def _check_id_hash_compare(self, node: ast.Compare) -> None:
        ordering_ops = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        if not any(isinstance(op, ordering_ops) for op in node.ops):
            return
        for operand in (node.left, *node.comparators):
            if (
                isinstance(operand, ast.Call)
                and isinstance(operand.func, ast.Name)
                and operand.func.id in ("id", "hash")
            ):
                self._report(
                    "DET005",
                    operand,
                    f"comparing {operand.func.id}() values orders by "
                    "process-dependent data",
                )

    # -- DET003/DET004: iteration order -------------------------------
    def _check_iteration_sites(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.For):
                self._check_iterable(node.iter, exempt=False)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                exempt = self._comp_feeds_aggregator(node)
                for generator in node.generators:
                    self._check_iterable(generator.iter, exempt=exempt)
            elif isinstance(node, (ast.SetComp, ast.DictComp)):
                # rebuild into an unordered / key-addressed container
                for generator in node.generators:
                    self._check_iterable(generator.iter, exempt=True)
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if (
                    isinstance(node.func, ast.Name)
                    and name in MATERIALIZERS
                    and node.args
                ):
                    self._check_iterable(node.args[0], exempt=False)

    def _comp_feeds_aggregator(self, comp: ast.AST) -> bool:
        """Is this comprehension the argument of an order-insensitive
        aggregator call (``sum(... for ...)``, ``max([...])``)?"""
        parent = self._parent(comp)
        if isinstance(parent, ast.Call):
            name = _call_name(parent)
            if (
                isinstance(parent.func, ast.Name)
                and name in AGGREGATORS
                and comp in parent.args
            ):
                return True
        return False

    def _check_iterable(self, iterable: ast.AST, exempt: bool) -> None:
        if isinstance(iterable, ast.Call):
            name = _call_name(iterable)
            if isinstance(iterable.func, ast.Name) and name in AGGREGATORS:
                return  # sorted(...)/set(...) wrapper: order pinned or moot
            if (
                isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in ("values", "items")
                and not iterable.args
            ):
                if exempt:
                    return
                receiver = iterable.func.value
                if self._kinds.kind_of(receiver) == "ordered":
                    return  # OrderedDict: insertion order is the contract
                self._report(
                    "DET004",
                    iterable,
                    f"iteration over {ast.unparse(iterable)} feeds an "
                    "ordering position; wrap in sorted(...) with an "
                    "explicit key (or keep the container an OrderedDict)",
                )
                return
            if isinstance(iterable.func, ast.Name) and name in (
                "set",
                "frozenset",
            ):  # pragma: no cover - AGGREGATORS already returned
                return
        if exempt:
            return
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            self._report(
                "DET003",
                iterable,
                "iterating a set literal in an ordering position; "
                "wrap in sorted(...)",
            )
            return
        if self._kinds.kind_of(iterable) == "set":
            self._report(
                "DET003",
                iterable,
                f"iterating set {ast.unparse(iterable)} in an ordering "
                "position; wrap in sorted(...)",
            )

    # -- PROTO001: quorum arithmetic ----------------------------------
    def _check_quorum_arith(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Add):
            mult, one = node.left, node.right
            if not (isinstance(one, ast.Constant) and one.value == 1):
                mult, one = node.right, node.left
            if (
                isinstance(one, ast.Constant)
                and one.value == 1
                and isinstance(mult, ast.BinOp)
                and isinstance(mult.op, ast.Mult)
            ):
                factor, f_expr = mult.left, mult.right
                if not isinstance(factor, ast.Constant):
                    factor, f_expr = mult.right, mult.left
                if (
                    isinstance(factor, ast.Constant)
                    and factor.value in (2, 3)
                    and _is_f_like(f_expr)
                ):
                    self._report(
                        "PROTO001",
                        node,
                        f"open-coded quorum size "
                        f"{factor.value}*{ast.unparse(f_expr)}+1; use the "
                        "named helpers in repro.smart.view",
                    )
            elif isinstance(one, ast.Constant) and one.value == 1 and (
                _is_f_like(mult)
            ):
                # bare f+1: the one-correct-replica threshold
                self._report(
                    "PROTO001",
                    node,
                    f"open-coded quorum size {ast.unparse(mult)}+1; use "
                    "the named helpers in repro.smart.view",
                )
        elif isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if isinstance(node.right, ast.Constant) and node.right.value == 2:
                names = {
                    sub.id if isinstance(sub, ast.Name) else sub.attr
                    for sub in ast.walk(node.left)
                    if isinstance(sub, (ast.Name, ast.Attribute))
                }
                if any(n == "f" or n.endswith("_f") for n in names) and any(
                    n == "n" for n in names
                ):
                    self._report(
                        "PROTO001",
                        node,
                        "open-coded majority quorum ((n+f+1)/2 form); use "
                        "the named helpers in repro.smart.view",
                    )

    # -- PROTO002: mutate before verify -------------------------------
    def _check_handler_mutation(self, func: ast.AST) -> None:
        if not HANDLER_NAME_RE.match(func.name):
            return
        verify_line: Optional[int] = None
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name and VERIFY_NAME_RE.search(name):
                    if verify_line is None or node.lineno < verify_line:
                        verify_line = node.lineno
        if verify_line is None:
            return  # handler verifies nothing: the rule has no anchor
        for node in ast.walk(func):
            lineno = getattr(node, "lineno", None)
            if lineno is None or lineno >= verify_line:
                continue
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ) and _root_name(target) == "self":
                        self._report(
                            "PROTO002",
                            node,
                            f"handler {func.name} mutates "
                            f"{ast.unparse(target)} before its first "
                            "verification call (line "
                            f"{verify_line}); verify first",
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if (
                    node.func.attr in MUTATOR_METHODS
                    and _root_name(node.func.value) == "self"
                ):
                    self._report(
                        "PROTO002",
                        node,
                        f"handler {func.name} calls mutator "
                        f"{ast.unparse(node.func)}() before its first "
                        f"verification call (line {verify_line}); "
                        "verify first",
                    )

    # -- PROTO003: scheduler bypass -----------------------------------
    def _check_scheduling_import(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        else:
            names = [(node.module or "").split(".")[0]]
        for name in names:
            if name in BANNED_SCHEDULING_MODULES:
                self._report(
                    "PROTO003",
                    node,
                    f"import of {name!r} bypasses the deterministic "
                    "simulator kernel (sim/core.py); schedule through "
                    "Simulator.schedule",
                )

    def _check_scheduling_call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr == "sleep"
        ):
            self._report(
                "PROTO003",
                node,
                "time.sleep() blocks real time; use Simulator.schedule",
            )
        if (isinstance(func, ast.Name) and func.id == EVENT_HANDLE_NAME) or (
            isinstance(func, ast.Attribute) and func.attr == EVENT_HANDLE_NAME
        ):
            self._report(
                "PROTO003",
                node,
                "direct EventHandle(...) construction bypasses the "
                "kernel's heap; schedule through Simulator.post/"
                "post_at/schedule",
            )

    def _check_handle_alias(self, node: ast.AST) -> None:
        """``x = EventHandle``: aliasing the class for later construction
        is the same bypass as calling it (annotations are untouched --
        ``h: Optional[EventHandle]`` never assigns the class itself)."""
        value = node.value
        if value is None:
            return
        if (isinstance(value, ast.Name) and value.id == EVENT_HANDLE_NAME) or (
            isinstance(value, ast.Attribute)
            and value.attr == EVENT_HANDLE_NAME
        ):
            self._report(
                "PROTO003",
                node,
                "aliasing EventHandle for direct construction bypasses "
                "the kernel's heap; schedule through Simulator."
                "post/post_at/schedule",
            )


def check_source(rel_path: str, source: str) -> List[Finding]:
    """Parse and check one file; syntax errors become findings."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule="E999",
                path=rel_path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    return FileChecker(rel_path, tree).check()
