"""MsgFlow: static interprocedural message-flow / taint analysis.

The paper's safety argument assumes two disciplines that local AST
rules cannot check:

1. every network-sourced message is *verified* (signature / MAC /
   sender-membership / quorum check) before it influences protocol or
   durable state, and
2. every message class that exists is actually wired: it has a handler
   reachable from some ``deliver`` endpoint, and somebody constructs it.

MsgFlow builds the send -> dispatch -> handler graph across the
protocol packages and runs a branch-insensitive, statement-ordered
taint simulation from each network ingress point:

- **FLOW001** tainted (network-sourced) data reaches a protocol/durable
  state write (vote sets, WAL, ledger, block logs, blacklists, ...)
  before any verification sink ran on the path.
- **FLOW002** dead or misrouted protocol surface: a message class with
  no reachable handler, or a handled message class that nothing ever
  constructs (no sender).
- **FLOW003** graph rot: a dispatch entry that cannot be resolved into
  the graph (a ``_DISPATCH`` kind string with no matching class, an
  ``isinstance`` dispatch on a non-message class), or a handler-named
  method on an endpoint class that is unreachable from its
  ``deliver`` -- coverage the analyzer silently lost.

Taint model (documented in ``docs/ANALYSIS.md``):

- *sources*: the message parameter of every ``deliver(self, src,
  message)`` endpoint and of every handler reached through a dispatch
  table; attribute loads off a tainted value stay tainted.
- *sinks*: assignments and mutator calls (``append``/``add``/
  ``update``/...) whose target is rooted at ``self`` and whose
  attribute chain matches the protocol-state vocabulary
  (:data:`STATE_ATTR_RE`).
- *sanitizers*: calls whose name matches :data:`VERIFY_CALL_RE`
  (``verify``/``valid``/``authent``/``quorum``/MAC...), and sender
  guards -- an ``if`` test comparing the untainted identity parameter
  (``src``) or a tainted ``.sender``-like field against known state.
  Sanitizing is statement-ordered: a sink *before* the first sanitizer
  on the path still fires (verify-before-buffer, as hardened in PR 4).
- *exemption*: a subscript store keyed by the untainted identity
  parameter (``self._voted[src] = ...``) models per-sender slots that
  the authenticated channel already scopes; it cannot be forged by the
  message body and is not a FLOW001 sink.

The graph is emitted as JSON (``--graph``) and DOT (``--dot``) for the
docs.  Findings honour the shared ``# repro: allow[FLOW001]``
suppression syntax with SUP001 rot-proofing (:mod:`.suppress`).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import REPO_ROOT, _iter_python_files, _rel
from .rules import MUTATOR_METHODS, Finding
from .suppress import (
    UNKNOWN_SUPPRESSION,
    is_suppressed,
    parse_suppressions,
)

#: Default analysis surface: the four protocol packages named by the
#: paper's architecture (consensus x2, ordering service, fabric layer),
#: plus the workload engine that drives traffic into them.
DEFAULT_FLOW_PATHS = (
    "src/repro/smart",
    "src/repro/smart2",
    "src/repro/ordering",
    "src/repro/fabric",
    "src/repro/workload",
)

#: Attribute-chain vocabulary of protocol/durable state.  Deliberately
#: protocol-critical only: vote/quorum collections, the WAL, ledgers
#: and block logs, view-change state, blacklists.  Scratch queues and
#: caches are not safety state and stay out to keep FLOW001 sharp.
STATE_ATTR_RE = re.compile(
    r"vote|wal$|^wal|_wal|ledger|blacklist|decid|prepar|commit|accept"
    r"|chain|stable|^log$|_log$|writes|view_change|regenc"
)

#: A call whose name matches is a verification sink (sanitizer).
VERIFY_CALL_RE = re.compile(
    r"verify|valid|authent|signature|certificate|check_mac|quorum"
)

#: Message fields that name the claimed sender; comparing one against
#: local state is a sender guard (sanitizer).
SENDER_FIELD_RE = re.compile(
    r"^(sender|source|src|from_id|client_id|replica_id|node_id|leader)$"
)

#: Handler naming convention (shared with PROTO002's heuristic).
HANDLER_NAME_RE = re.compile(r"^_?(on_|receive_|handle_)")

#: Names an endpoint's identity parameter may take.
IDENTITY_PARAM_RE = re.compile(r"^(src|source|sender|from_id|peer|origin)$")

#: Interprocedural walk depth cap (call chain from the ingress).
MAX_DEPTH = 6


# ----------------------------------------------------------------------
# collected model
# ----------------------------------------------------------------------
@dataclass
class MessageClass:
    """A wire message: a class with ``wire_size`` or a ``kind`` tag."""

    name: str
    module: str
    path: str
    line: int
    kind: Optional[str] = None
    #: type names referenced by field annotations (embed detection)
    field_types: Set[str] = field(default_factory=set)
    #: ``Class.method`` labels of handlers reached through dispatch
    handlers: List[str] = field(default_factory=list)
    #: ``path:line`` construction sites
    senders: List[str] = field(default_factory=list)
    #: idents of message classes this one rides inside
    embedded_in: Set[Tuple[str, str]] = field(default_factory=set)

    @property
    def ident(self) -> Tuple[str, str]:
        return (self.module, self.name)


@dataclass
class ModuleInfo:
    rel_path: str
    module: str
    tree: ast.Module
    source: str
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: local name -> dotted module it was imported from
    imports: Dict[str, str] = field(default_factory=dict)


def _module_name(rel_path: str) -> str:
    parts = Path(rel_path).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    return ".".join(parts)


def _annotation_names(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # string annotations ("Block") and forward refs
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", sub.value))
    return names


def _kind_value(node: ast.AST) -> Optional[str]:
    """Extract the string from ``kind = "X"`` / ``kind = sys.intern("X")``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Call) and node.args:
        return _kind_value(node.args[0])
    return None


def _attr_chain(node: ast.AST) -> List[str]:
    """``self.a.b`` -> ["self", "a", "b"]; [] when not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------
class FlowAnalyzer:
    """Whole-program collector + taint walker over the scanned files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # rel_path -> info
        self.by_module: Dict[str, ModuleInfo] = {}  # dotted name -> info
        self.messages: Dict[Tuple[str, str], MessageClass] = {}
        self.findings: List[Finding] = []
        #: (module, class) pairs handled by some dispatch
        self._handled: Set[Tuple[str, str]] = set()
        #: methods reachable from a deliver endpoint: (path, cls, meth)
        self._reached: Set[Tuple[str, str, str]] = set()
        #: attr name -> inferred class, per (path, class)
        self._attr_types: Dict[Tuple[str, str], Dict[str, str]] = {}
        self._memo: Dict[tuple, Tuple[bool, bool]] = {}

    # -- collection ----------------------------------------------------
    def load(self, rel_path: str, source: str) -> None:
        tree = ast.parse(source)
        module = _module_name(rel_path)
        info = ModuleInfo(rel_path, module, tree, source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                info.classes[node.name] = node
            elif isinstance(node, ast.ImportFrom):
                target = self._resolve_import(module, node)
                if target:
                    for alias in node.names:
                        info.imports[alias.asname or alias.name] = target
        self.modules[rel_path] = info
        self.by_module[module] = info

    @staticmethod
    def _resolve_import(module: str, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = module.split(".")
        if node.level > len(parts):
            return None
        base = parts[: len(parts) - node.level]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def collect(self) -> None:
        for info in self.modules.values():
            for cls in info.classes.values():
                self._collect_message_class(info, cls)
        for info in self.modules.values():
            self._collect_constructions(info)

    def _collect_message_class(
        self, info: ModuleInfo, cls: ast.ClassDef
    ) -> None:
        kind: Optional[str] = None
        has_wire_size = False
        fields: Set[str] = set()
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "wire_size":
                    has_wire_size = True
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "kind":
                        kind = _kind_value(node.value)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == "kind"
                    and node.value is not None
                ):
                    kind = _kind_value(node.value)
                else:
                    fields |= _annotation_names(node.annotation)
        if not has_wire_size and kind is None:
            return
        msg = MessageClass(
            name=cls.name,
            module=info.module,
            path=info.rel_path,
            line=cls.lineno,
            kind=kind,
            field_types=fields,
        )
        self.messages[msg.ident] = msg

    def _resolve_class(
        self, info: ModuleInfo, name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a bare class name seen in ``info`` to a message ident."""
        if (info.module, name) in self.messages:
            return (info.module, name)
        target = info.imports.get(name)
        if target and (target, name) in self.messages:
            return (target, name)
        candidates = [k for k in self.messages if k[1] == name]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _resolve_kind(
        self, info: ModuleInfo, kind: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a dispatch-table kind string to a message ident."""
        same = [
            m.ident
            for m in self.messages.values()
            if m.kind == kind and m.module == info.module
        ]
        if len(same) == 1:
            return same[0]
        tagged = [m.ident for m in self.messages.values() if m.kind == kind]
        if len(tagged) == 1:
            return tagged[0]
        return self._resolve_class(info, kind)

    def _collect_constructions(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Name
            ):
                continue
            ident = self._resolve_class(info, node.func.id)
            if ident is None:
                continue
            site = f"{info.rel_path}:{node.lineno}"
            self.messages[ident].senders.append(site)
            # a message constructed inside another message's constructor
            # rides embedded (e.g. BlockDelivery(block=Block(...)))
            for sub in ast.walk(node):
                if sub is node or not isinstance(sub, ast.Call):
                    continue
                if not isinstance(sub.func, ast.Name):
                    continue
                inner = self._resolve_class(info, sub.func.id)
                if inner is not None and inner != ident:
                    self.messages[inner].embedded_in.add(ident)

    # -- dispatch extraction -------------------------------------------
    def analyze_dispatch(self) -> None:
        for info in self.modules.values():
            for cls in info.classes.values():
                deliver = self._find_method(cls, "deliver")
                if deliver is None or not self._is_endpoint(deliver):
                    continue
                self._walk_dispatch(info, cls, deliver)

    @staticmethod
    def _find_method(
        cls: ast.ClassDef, name: str
    ) -> Optional[ast.FunctionDef]:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return node
        return None

    @staticmethod
    def _is_endpoint(deliver: ast.FunctionDef) -> bool:
        # a real endpoint body, not the Protocol stub (`...`)
        if len(deliver.args.args) < 3:
            return False
        body = deliver.body
        return not (
            len(body) == 1
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
        )

    def _walk_dispatch(
        self, info: ModuleInfo, cls: ast.ClassDef, deliver: ast.FunctionDef
    ) -> None:
        msg_param = deliver.args.args[-1].arg
        handler_label = f"{cls.name}.deliver"
        for node in ast.walk(deliver):
            if isinstance(node, ast.Call):
                name = node.func
                # isinstance(message, X) / isinstance(message, (X, Y))
                if (
                    isinstance(name, ast.Name)
                    and name.id == "isinstance"
                    and len(node.args) == 2
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == msg_param
                ):
                    for target in self._class_test_names(node.args[1]):
                        self._record_handled(
                            info, cls, target, node.lineno, handler_label
                        )
                # _DISPATCH.get(message.kind)
                elif (
                    isinstance(name, ast.Attribute)
                    and name.attr == "get"
                    and isinstance(name.value, ast.Name)
                ):
                    table = self._module_dict(info, name.value.id)
                    if table is not None:
                        self._record_dispatch_table(info, cls, table)
            elif isinstance(node, ast.Compare):
                # kind is X  (after kind = message.__class__)
                if len(node.ops) == 1 and isinstance(
                    node.ops[0], (ast.Is, ast.Eq)
                ):
                    right = node.comparators[0]
                    if isinstance(right, ast.Name) and isinstance(
                        node.left, ast.Name
                    ):
                        self._record_handled(
                            info,
                            cls,
                            right.id,
                            node.lineno,
                            handler_label,
                            soft=True,
                        )

    @staticmethod
    def _class_test_names(node: ast.AST) -> List[str]:
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Tuple):
            return [e.id for e in node.elts if isinstance(e, ast.Name)]
        return []

    def _record_handled(
        self,
        info: ModuleInfo,
        cls: ast.ClassDef,
        class_name: str,
        lineno: int,
        handler_label: str,
        soft: bool = False,
    ) -> None:
        ident = self._resolve_class(info, class_name)
        if ident is None:
            if not soft:
                self.findings.append(
                    Finding(
                        rule="FLOW003",
                        path=info.rel_path,
                        line=lineno,
                        col=0,
                        message=(
                            f"dispatch in {cls.name}.deliver tests "
                            f"{class_name!r}, which is not a known message "
                            "class -- the flow graph cannot cover it"
                        ),
                    )
                )
            return
        self._handled.add(ident)
        msg = self.messages[ident]
        label = f"{handler_label}@{info.rel_path}:{lineno}"
        if label not in msg.handlers:
            msg.handlers.append(label)

    def _module_dict(
        self, info: ModuleInfo, name: str
    ) -> Optional[ast.Dict]:
        for node in info.tree.body:
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                if any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in node.targets
                ):
                    value = node.value
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == name
                ):
                    value = node.value
            if isinstance(value, ast.Dict):
                return value
        return None

    def _record_dispatch_table(
        self, info: ModuleInfo, cls: ast.ClassDef, table: ast.Dict
    ) -> None:
        for key, value in zip(table.keys, table.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            ident = self._resolve_kind(info, key.value)
            if ident is None:
                self.findings.append(
                    Finding(
                        rule="FLOW003",
                        path=info.rel_path,
                        line=key.lineno,
                        col=0,
                        message=(
                            f"dispatch-table kind {key.value!r} matches no "
                            "known message class -- dead or misrouted entry"
                        ),
                    )
                )
                continue
            self._handled.add(ident)
            label = self._dispatch_target_label(cls, value)
            msg = self.messages[ident]
            entry = f"{label}@{info.rel_path}:{value.lineno}"
            if entry not in msg.handlers:
                msg.handlers.append(entry)

    @staticmethod
    def _dispatch_target_label(cls: ast.ClassDef, value: ast.AST) -> str:
        if isinstance(value, ast.Attribute):
            return f"{cls.name}.{value.attr}"
        if isinstance(value, ast.Lambda):
            for sub in ast.walk(value.body):
                if isinstance(sub, ast.Call) and isinstance(
                    sub.func, ast.Attribute
                ):
                    chain = _attr_chain(sub.func)
                    if chain and chain[0] == "self":
                        return f"{cls.name}.{'.'.join(chain[1:])}"
        return f"{cls.name}.deliver"

    # -- FLOW002 / FLOW003 structural checks ---------------------------
    def structural_findings(self) -> None:
        embedded_names = self._embedded_names()
        for msg in self.messages.values():
            if msg.ident not in self._handled:
                if msg.name in embedded_names or msg.embedded_in:
                    continue
                self.findings.append(
                    Finding(
                        rule="FLOW002",
                        path=msg.path,
                        line=msg.line,
                        col=0,
                        message=(
                            f"message class {msg.name!r} has no reachable "
                            "handler (no deliver endpoint dispatches it) "
                            "and is not embedded in another message"
                        ),
                    )
                )
            elif not msg.senders:
                self.findings.append(
                    Finding(
                        rule="FLOW002",
                        path=msg.path,
                        line=msg.line,
                        col=0,
                        message=(
                            f"message class {msg.name!r} is dispatched but "
                            "never constructed -- handler with no sender"
                        ),
                    )
                )
        self._dead_handler_findings()

    def _embedded_names(self) -> Set[str]:
        """Names of message classes carried inside another message."""
        message_names = {m.name for m in self.messages.values()}
        embedded: Set[str] = set()
        for msg in self.messages.values():
            embedded |= msg.field_types & message_names
        return embedded

    def _dead_handler_findings(self) -> None:
        referenced: Set[str] = set()
        for info in self.modules.values():
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
        for info in self.modules.values():
            for cls in info.classes.values():
                deliver = self._find_method(cls, "deliver")
                if deliver is None or not self._is_endpoint(deliver):
                    continue
                for node in cls.body:
                    if not isinstance(node, ast.FunctionDef):
                        continue
                    if not HANDLER_NAME_RE.match(node.name):
                        continue
                    if node.name in referenced:
                        continue
                    self.findings.append(
                        Finding(
                            rule="FLOW003",
                            path=info.rel_path,
                            line=node.lineno,
                            col=0,
                            message=(
                                f"handler {cls.name}.{node.name} is never "
                                "dispatched or called -- unreachable from "
                                "the message-flow graph"
                            ),
                        )
                    )

    # -- taint simulation (FLOW001) ------------------------------------
    def taint_findings(self) -> None:
        for info in self.modules.values():
            for cls in info.classes.values():
                deliver = self._find_method(cls, "deliver")
                if deliver is None or not self._is_endpoint(deliver):
                    continue
                self._check_entry(info, cls, deliver)
                # dispatch-table handlers are separate ingress points:
                # the deliver body reaches them through a dict lookup
                # the walker cannot follow
                for entry in self._table_entries(info, cls, deliver):
                    self._check_entry(info, cls, entry)

    def _table_entries(
        self, info: ModuleInfo, cls: ast.ClassDef, deliver: ast.FunctionDef
    ) -> List[ast.FunctionDef]:
        entries: List[ast.FunctionDef] = []
        for node in ast.walk(deliver):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name)
            ):
                table = self._module_dict(info, node.func.value.id)
                if table is None:
                    continue
                for value in table.values:
                    entries.extend(self._table_value_entries(info, cls, value))
        return entries

    def _table_value_entries(
        self, info: ModuleInfo, cls: ast.ClassDef, value: ast.AST
    ) -> List[ast.FunctionDef]:
        if isinstance(value, ast.Attribute):
            target = self._find_method(cls, value.attr)
            return [target] if target is not None else []
        if isinstance(value, ast.Lambda):
            # walk the lambda body with (self, src, m) bindings by
            # synthesizing a one-statement function
            args = [a.arg for a in value.args.args]
            fn = ast.FunctionDef(
                name="<lambda>",
                args=value.args,
                body=[ast.Expr(value=value.body)],
                decorator_list=[],
                returns=None,
            )
            ast.copy_location(fn, value)
            ast.fix_missing_locations(fn)
            return [fn] if len(args) >= 2 else []
        return []

    def _check_entry(
        self, info: ModuleInfo, cls: ast.ClassDef, fn: ast.FunctionDef
    ) -> None:
        params = [a.arg for a in fn.args.args]
        if len(params) < 2:
            return
        tainted = {params[-1]}
        identity = {
            p for p in params[1:-1] if IDENTITY_PARAM_RE.match(p)
        }
        walker = _TaintWalk(self, info, cls.name)
        walker.run(fn, tainted, identity)
        self.findings.extend(walker.findings)
        self._reached |= walker.reached

    # -- attr type inference -------------------------------------------
    def attr_types(self, info: ModuleInfo, class_name: str) -> Dict[str, str]:
        key = (info.rel_path, class_name)
        cached = self._attr_types.get(key)
        if cached is not None:
            return cached
        types: Dict[str, str] = {}
        cls = info.classes.get(class_name)
        if cls is not None:
            for node in ast.walk(cls):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                ctor = node.value.func
                if not isinstance(ctor, ast.Name):
                    continue
                for target in node.targets:
                    chain = _attr_chain(target)
                    if len(chain) == 2 and chain[0] == "self":
                        types[chain[1]] = ctor.id
        self._attr_types[key] = types
        return types

    def find_class(
        self, info: ModuleInfo, name: str
    ) -> Optional[Tuple[ModuleInfo, ast.ClassDef]]:
        """Resolve any class name (message or not) to its definition."""
        cls = info.classes.get(name)
        if cls is not None:
            return (info, cls)
        target = info.imports.get(name)
        if target is not None:
            other = self.by_module.get(target)
            if other is not None and name in other.classes:
                return (other, other.classes[name])
        candidates = [
            (m, m.classes[name])
            for m in self.modules.values()
            if name in m.classes
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None


class _TaintWalk:
    """One statement-ordered, branch-insensitive walk from an ingress."""

    def __init__(
        self, analyzer: FlowAnalyzer, info: ModuleInfo, class_name: str
    ) -> None:
        self.analyzer = analyzer
        self.findings: List[Finding] = []
        self.reached: Set[Tuple[str, str, str]] = set()
        self._seen_findings: Set[Tuple[str, str, int]] = set()
        self._info = info
        self._class = class_name
        self._sanitized = False
        self._stack: List[Tuple[str, str, str]] = []

    # frames carry (info, class_name, tainted, identity)
    def run(
        self, fn: ast.FunctionDef, tainted: Set[str], identity: Set[str]
    ) -> None:
        self._sanitized = False
        self._walk_function(self._info, self._class, fn, tainted, identity, 0)

    def _walk_function(
        self,
        info: ModuleInfo,
        class_name: str,
        fn: ast.FunctionDef,
        tainted: Set[str],
        identity: Set[str],
        depth: int,
    ) -> bool:
        """Walk ``fn``; returns whether its return value is tainted."""
        frame_key = (info.rel_path, class_name, fn.name)
        self.reached.add(frame_key)
        if frame_key in self._stack or depth > MAX_DEPTH:
            return bool(tainted)
        memo_key = (
            frame_key,
            frozenset(tainted),
            frozenset(identity),
            self._sanitized,
        )
        memo = self.analyzer._memo.get(memo_key)
        if memo is not None:
            ret_taint, sets_sanitized = memo
            if sets_sanitized:
                self._sanitized = True
            # findings inside a memoised frame were already emitted on
            # the first walk with this exact context
            return ret_taint
        self._stack.append(frame_key)
        saved = (self._info, self._class)
        self._info, self._class = info, class_name
        sanitized_before = self._sanitized
        state = _FrameState(tainted=set(tainted), identity=set(identity))
        ret_taint = self._walk_body(fn.body, state, depth)
        self._info, self._class = saved
        self._stack.pop()
        self.analyzer._memo[memo_key] = (
            ret_taint,
            self._sanitized and not sanitized_before,
        )
        return ret_taint

    def _walk_body(
        self, body: Sequence[ast.stmt], state: "_FrameState", depth: int
    ) -> bool:
        ret_taint = False
        for stmt in body:
            ret_taint |= self._walk_stmt(stmt, state, depth)
        return ret_taint

    def _walk_stmt(
        self, stmt: ast.stmt, state: "_FrameState", depth: int
    ) -> bool:
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state, depth)
            return False
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = stmt.value
            if value is None:
                return False
            value_taint = self._eval(value, state, depth)
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                self._assign(target, value, value_taint, state, stmt.lineno)
            return False
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return False
            return self._eval(stmt.value, state, depth)
        if isinstance(stmt, ast.If):
            self._check_guard(stmt.test, state)
            self._eval(stmt.test, state, depth)
            taint = self._walk_body(stmt.body, state, depth)
            taint |= self._walk_body(stmt.orelse, state, depth)
            return taint
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self._eval(stmt.iter, state, depth)
            self._assign_names_only(stmt.target, iter_taint, state)
            taint = self._walk_body(stmt.body, state, depth)
            taint |= self._walk_body(stmt.orelse, state, depth)
            return taint
        if isinstance(stmt, ast.While):
            self._check_guard(stmt.test, state)
            self._eval(stmt.test, state, depth)
            taint = self._walk_body(stmt.body, state, depth)
            taint |= self._walk_body(stmt.orelse, state, depth)
            return taint
        if isinstance(stmt, ast.Try):
            taint = self._walk_body(stmt.body, state, depth)
            for handler in stmt.handlers:
                taint |= self._walk_body(handler.body, state, depth)
            taint |= self._walk_body(stmt.orelse, state, depth)
            taint |= self._walk_body(stmt.finalbody, state, depth)
            return taint
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, state, depth)
            return self._walk_body(stmt.body, state, depth)
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, state, depth)
            return False
        if isinstance(stmt, ast.Assert):
            self._check_guard(stmt.test, state)
            self._eval(stmt.test, state, depth)
            return False
        return False

    # -- guards (sanitizers in `if` tests) -----------------------------
    def _check_guard(self, test: ast.AST, state: "_FrameState") -> None:
        for node in ast.walk(test):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op in operands:
                    if (
                        isinstance(op, ast.Name)
                        and op.id in state.identity
                    ):
                        self._sanitized = True
                        return
                    if isinstance(op, ast.Attribute) and SENDER_FIELD_RE.match(
                        op.attr
                    ):
                        chain = _attr_chain(op)
                        if chain and (
                            chain[0] in state.tainted
                            or chain[0] in state.identity
                        ):
                            self._sanitized = True
                            return

    # -- assignment / sinks --------------------------------------------
    def _assign(
        self,
        target: ast.AST,
        value: Optional[ast.AST],
        value_taint: bool,
        state: "_FrameState",
        lineno: int,
    ) -> None:
        if isinstance(target, ast.Name):
            if value_taint:
                state.tainted.add(target.id)
            else:
                state.tainted.discard(target.id)
                state.identity.discard(target.id)
            # one-hop alias: `votes = self._writes.get(r)` makes later
            # stores through `votes` protocol-state stores
            if value is not None and self._is_state_rooted(value, state):
                state.state_alias.add(target.id)
            else:
                state.state_alias.discard(target.id)
            return
        if isinstance(target, ast.Tuple):
            for elt in target.elts:
                self._assign(elt, None, value_taint, state, lineno)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            if value_taint and not self._sanitized:
                self._sink_check(target, state, lineno)

    @staticmethod
    def _is_state_rooted(node: ast.AST, state: "_FrameState") -> bool:
        """Is this expression a view into protocol state?

        Peels subscripts and ``.get()``/``.setdefault()`` accessor calls
        off an attribute chain; state-rooted means the chain starts at
        ``self`` and crosses a state-vocabulary attribute, or starts at
        a local already known to alias protocol state.
        """
        while True:
            if isinstance(node, ast.Subscript):
                node = node.value
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "setdefault")
            ):
                node = node.func.value
                continue
            break
        chain = _attr_chain(node)
        if not chain:
            return False
        if chain[0] == "self":
            return any(STATE_ATTR_RE.search(a) for a in chain[1:])
        return chain[0] in state.state_alias

    def _assign_names_only(
        self, target: ast.AST, value_taint: bool, state: "_FrameState"
    ) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                if value_taint:
                    state.tainted.add(node.id)
                else:
                    state.tainted.discard(node.id)

    def _sink_check(
        self, target: ast.AST, state: "_FrameState", lineno: int
    ) -> None:
        node: ast.AST = target
        key_exempt = False
        if isinstance(node, ast.Subscript):
            # sender-keyed slot: self._voted[src] = ... -- the key is
            # the channel-authenticated identity, not forgeable data
            if (
                isinstance(node.slice, ast.Name)
                and node.slice.id in state.identity
            ):
                key_exempt = True
            node = node.value
        chain = _attr_chain(node)
        if not chain:
            return
        if key_exempt:
            return
        if chain[0] == "self":
            if not any(STATE_ATTR_RE.search(a) for a in chain[1:]):
                return
            label = f"self.{'.'.join(chain[1:])}"
        elif chain[0] in state.state_alias:
            label = ".".join(chain)
        else:
            return
        self._emit(
            lineno,
            f"tainted message data written to protocol state "
            f"'{label}' before any verification sink",
        )

    def _emit(self, lineno: int, message: str) -> None:
        key = (self._info.rel_path, self._class, lineno)
        if key in self._seen_findings:
            return
        self._seen_findings.add(key)
        self.findings.append(
            Finding(
                rule="FLOW001",
                path=self._info.rel_path,
                line=lineno,
                col=0,
                message=f"{message} (handler entry {self._class})",
            )
        )

    # -- expressions ----------------------------------------------------
    def _eval(
        self, node: ast.AST, state: "_FrameState", depth: int
    ) -> bool:
        if isinstance(node, ast.Name):
            return node.id in state.tainted
        if isinstance(node, ast.Attribute):
            return self._eval(node.value, state, depth)
        if isinstance(node, ast.Subscript):
            return self._eval(node.value, state, depth) or self._eval(
                node.slice, state, depth
            )
        if isinstance(node, ast.Call):
            return self._eval_call(node, state, depth)
        if isinstance(node, (ast.BoolOp, ast.JoinedStr)):
            return any(self._eval(v, state, depth) for v in node.values)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left, state, depth) or self._eval(
                node.right, state, depth
            )
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, state, depth)
        if isinstance(node, ast.Compare):
            taint = self._eval(node.left, state, depth)
            for comp in node.comparators:
                taint |= self._eval(comp, state, depth)
            return taint
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self._eval(e, state, depth) for e in node.elts)
        if isinstance(node, ast.Dict):
            parts = [k for k in node.keys if k is not None] + list(
                node.values
            )
            return any(self._eval(p, state, depth) for p in parts)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, state, depth)
            return self._eval(node.body, state, depth) or self._eval(
                node.orelse, state, depth
            )
        if isinstance(node, ast.Starred):
            return self._eval(node.value, state, depth)
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, state, depth)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, state, depth)
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(node, state, depth)
        if isinstance(node, ast.Await):
            return self._eval(node.value, state, depth)
        if isinstance(node, ast.Lambda):
            return False
        return False

    def _eval_comprehension(
        self, node: ast.AST, state: "_FrameState", depth: int
    ) -> bool:
        taint = False
        for gen in node.generators:  # type: ignore[attr-defined]
            iter_taint = self._eval(gen.iter, state, depth)
            self._assign_names_only(gen.target, iter_taint, state)
            taint |= iter_taint
        if isinstance(node, ast.DictComp):
            taint |= self._eval(node.key, state, depth)
            taint |= self._eval(node.value, state, depth)
        else:
            taint |= self._eval(node.elt, state, depth)  # type: ignore
        return taint

    def _eval_call(
        self, node: ast.Call, state: "_FrameState", depth: int
    ) -> bool:
        arg_taints = [self._eval(a, state, depth) for a in node.args]
        kw_taints = [
            self._eval(k.value, state, depth) for k in node.keywords
        ]
        any_taint = any(arg_taints) or any(kw_taints)
        func = node.func
        call_name = None
        if isinstance(func, ast.Attribute):
            call_name = func.attr
        elif isinstance(func, ast.Name):
            call_name = func.id
        # sanitizer: a verification call cleanses the path from here on
        if call_name is not None and VERIFY_CALL_RE.search(call_name):
            self._sanitized = True
            return False
        # mutator-call sink: self.<state>.append(tainted)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATOR_METHODS
            and any_taint
            and not self._sanitized
        ):
            chain = _attr_chain(func.value)
            is_state = chain and (
                (
                    chain[0] == "self"
                    and any(STATE_ATTR_RE.search(a) for a in chain[1:])
                )
                or chain[0] in state.state_alias
            )
            if is_state and not self._sender_keyed_args(node, state):
                self._emit(
                    node.lineno,
                    f"tainted message data flows into mutator "
                    f"'{'.'.join(chain)}.{func.attr}(...)' "
                    "before any verification sink",
                )
        # interprocedural: self.method(...) and self.attr.method(...)
        resolved = self._resolve_callee(func)
        if resolved is not None:
            callee_info, callee_class, callee_fn = resolved
            tainted_params, identity_params = self._bind_params(
                callee_fn, node, state, depth
            )
            return self._walk_function(
                callee_info,
                callee_class,
                callee_fn,
                tainted_params,
                identity_params,
                depth + 1,
            )
        return any_taint

    @staticmethod
    def _sender_keyed_args(node: ast.Call, state: "_FrameState") -> bool:
        """``self._voted.setdefault(src, ...)``-style identity keying."""
        if not node.args:
            return False
        first = node.args[0]
        return isinstance(first, ast.Name) and first.id in state.identity

    def _resolve_callee(
        self, func: ast.AST
    ) -> Optional[Tuple[ModuleInfo, str, ast.FunctionDef]]:
        if not isinstance(func, ast.Attribute):
            return None
        chain = _attr_chain(func)
        if not chain or chain[0] != "self":
            return None
        analyzer = self.analyzer
        if len(chain) == 2:
            found = analyzer.find_class(self._info, self._class)
            if found is None:
                return None
            cls_info, cls_node = found
            target = analyzer._find_method(cls_node, chain[1])
            if target is None:
                return None
            return (cls_info, self._class, target)
        if len(chain) == 3:
            types = analyzer.attr_types(self._info, self._class)
            attr_class = types.get(chain[1])
            if attr_class is None:
                return None
            found = analyzer.find_class(self._info, attr_class)
            if found is None:
                return None
            cls_info, cls_node = found
            target = analyzer._find_method(cls_node, chain[2])
            if target is None:
                return None
            return (cls_info, attr_class, target)
        return None

    def _bind_params(
        self,
        fn: ast.FunctionDef,
        call: ast.Call,
        state: "_FrameState",
        depth: int,
    ) -> Tuple[Set[str], Set[str]]:
        params = [a.arg for a in fn.args.args]
        if params and params[0] == "self":
            params = params[1:]
        tainted: Set[str] = set()
        identity: Set[str] = set()
        for i, arg in enumerate(call.args):
            if i >= len(params):
                break
            if self._eval(arg, state, depth):
                tainted.add(params[i])
            if isinstance(arg, ast.Name) and arg.id in state.identity:
                identity.add(params[i])
        for kw in call.keywords:
            if kw.arg is None or kw.arg not in params:
                continue
            if self._eval(kw.value, state, depth):
                tainted.add(kw.arg)
            if isinstance(kw.value, ast.Name) and kw.value.id in state.identity:
                identity.add(kw.arg)
        return tainted, identity


@dataclass
class _FrameState:
    tainted: Set[str]
    identity: Set[str]
    state_alias: Set[str] = field(default_factory=set)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def analyze_flow(
    paths: Sequence[str] = DEFAULT_FLOW_PATHS,
    root: Optional[Path] = None,
) -> Tuple[List[Finding], FlowAnalyzer]:
    """Run MsgFlow over ``paths``; returns (findings, analyzer-with-graph).

    Findings are already filtered through inline suppressions, with
    SUP001 emitted for unknown rule names (shared rot-proofing).
    """
    root = (root or REPO_ROOT).resolve()
    targets = [
        (root / p) if not Path(p).is_absolute() else Path(p) for p in paths
    ]
    analyzer = FlowAnalyzer()
    sources: Dict[str, str] = {}
    for path in _iter_python_files(targets):
        source = path.read_text(encoding="utf-8")
        rel = _rel(path, root)
        sources[rel] = source
        analyzer.load(rel, source)
    analyzer.collect()
    analyzer.analyze_dispatch()
    analyzer.structural_findings()
    analyzer.taint_findings()

    findings: List[Finding] = []
    suppression_maps = {
        rel: parse_suppressions(source) for rel, source in sources.items()
    }
    for finding in analyzer.findings:
        suppressions, _ = suppression_maps.get(finding.path, ({}, []))
        if is_suppressed(suppressions, finding.line, finding.rule):
            continue
        findings.append(finding)
    for rel, (_, unknown) in sorted(suppression_maps.items()):
        for lineno, name in unknown:
            findings.append(
                Finding(
                    rule=UNKNOWN_SUPPRESSION,
                    path=rel,
                    line=lineno,
                    col=0,
                    message=f"suppression names unknown rule {name!r} "
                    "(typos never silence anything)",
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, analyzer


def graph_to_json_dict(analyzer: FlowAnalyzer) -> Dict[str, object]:
    classes = []
    for msg in sorted(
        analyzer.messages.values(), key=lambda m: (m.path, m.line)
    ):
        classes.append(
            {
                "name": msg.name,
                "module": msg.module,
                "path": msg.path,
                "line": msg.line,
                "kind": msg.kind,
                "handlers": sorted(msg.handlers),
                "senders": sorted(msg.senders),
                "embedded": sorted(
                    {name for _module, name in msg.embedded_in}
                    | (msg.field_types & {m.name for m in analyzer.messages.values()})
                ),
            }
        )
    return {
        "schema": "repro-msgflow-graph/1",
        "message_classes": classes,
        "handled_count": len(analyzer._handled),
        "reached_methods": sorted(
            f"{cls}.{meth}@{path}" for path, cls, meth in analyzer._reached
        ),
    }


def graph_to_dot(analyzer: FlowAnalyzer) -> str:
    """The send -> message -> handler graph in GraphViz DOT."""
    lines = [
        "digraph msgflow {",
        "  rankdir=LR;",
        '  node [fontname="Helvetica", fontsize=10];',
    ]
    for msg in sorted(
        analyzer.messages.values(), key=lambda m: (m.path, m.line)
    ):
        mid = f"{msg.module}.{msg.name}".replace(".", "_")
        lines.append(
            f'  {mid} [shape=box, label="{msg.name}\\n{msg.module}"];'
        )
        for handler in sorted(msg.handlers):
            label = handler.split("@", 1)[0]
            hid = ("h_" + label).replace(".", "_")
            lines.append(f'  {hid} [shape=ellipse, label="{label}"];')
            lines.append(f"  {mid} -> {hid};")
        senders = {s.rsplit(":", 1)[0] for s in msg.senders}
        for sender in sorted(senders):
            sid = ("s_" + sender).replace("/", "_").replace(".", "_").replace(
                "-", "_"
            )
            lines.append(f'  {sid} [shape=note, label="{sender}"];')
            lines.append(f"  {sid} -> {mid} [style=dashed];")
        for outer in sorted(msg.embedded_in):  # (module, name), as mid
            lines.append(
                f'  {mid} -> {".".join(outer).replace(".", "_")} '
                "[style=dotted, label=embedded];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_report(
    findings: Sequence[Finding],
    out_path: Path,
    analyzer: Optional[FlowAnalyzer] = None,
) -> None:
    doc: Dict[str, object] = {
        "schema": "repro-analysis-report/1",
        "analyzer": "msgflow",
        "clean": not findings,
        "finding_count": len(findings),
        "rules": ["FLOW001", "FLOW002", "FLOW003", UNKNOWN_SUPPRESSION],
        "findings": [finding.to_json_dict() for finding in findings],
    }
    if analyzer is not None:
        doc["message_class_count"] = len(analyzer.messages)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run(
    paths: Sequence[str] = DEFAULT_FLOW_PATHS,
    json_out: Optional[str] = None,
    graph_out: Optional[str] = None,
    dot_out: Optional[str] = None,
    root: Optional[Path] = None,
) -> int:
    """CLI entry: print findings, optionally emit report + graph."""
    try:
        findings, analyzer = analyze_flow(paths, root=root)
    except (OSError, SyntaxError) as exc:
        print(f"[flow] error: {exc}")
        return 2
    for finding in findings:
        print(finding.render())
    if json_out:
        write_report(findings, Path(json_out), analyzer)
    if graph_out:
        out = Path(graph_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(graph_to_json_dict(analyzer), indent=2, sort_keys=True)
            + "\n"
        )
    if dot_out:
        out = Path(dot_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(graph_to_dot(analyzer))
    if findings:
        print(f"[flow] {len(findings)} finding(s)")
        return 1
    print(
        f"[flow] clean ({len(analyzer.messages)} message classes, "
        f"{len(analyzer._reached)} reachable handler methods)"
    )
    return 0
