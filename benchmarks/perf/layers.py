"""Charge a cProfile run to the program's layers, from outside.

The program is one event loop, so its only boundary the benchmark can
put a span around is ``run(dt)``.  To split that span by layer, each
profiled function's self time (``tottime``) is charged to a layer by
the path of its source file; time inside C builtins (``heapq``,
``hashlib``, ``dict`` methods...) has no path, so it is charged to the
layer of each *caller*, through the per-caller edges pstats keeps.  No
private function is named, only paths, so merging or renaming code
inside a package cannot break the attribution.
"""

from __future__ import annotations

from typing import Dict, Tuple

from benchmarks.perf.workloads import LAYERS

#: path fragments under src/repro/, first match wins
_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/core.py", "sim.core"),
    ("sim/randomness.py", "sim.core"),
    ("sim/network.py", "sim.network"),
    ("sim/cpu.py", "sim.cpu"),
    ("sim/storage.py", "sim.storage"),
    ("sim/monitor.py", "sim.monitor"),
    ("sim/trace.py", "sim.monitor"),
    ("bench/workload.py", "workload"),
    ("crypto/", "crypto"),
    ("smart/", "smart"),
    ("smart2/", "smart2"),
    ("ordering/", "ordering"),
    ("fabric/", "fabric"),
    ("workload/", "workload"),
)

_MARKER = "/repro/"


def layer_of(path: str) -> str:
    """The layer a source file belongs to; ``other`` outside the program
    (standard library, the benchmark itself, the rest of ``repro``)."""
    path = path.replace("\\", "/")
    at = path.rfind(_MARKER)
    if at < 0:
        return "other"
    inside = path[at + len(_MARKER):]
    for fragment, layer in _RULES:
        if inside.startswith(fragment):
            return layer
    return "other"


def _is_builtin(func: Tuple[str, int, str]) -> bool:
    return func[0] == "~"


def attribute(stats: Dict[tuple, tuple]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``self_s`` (seconds of self time), ``self_share``
    (fraction of all self time; the shares sum to 1) and ``calls``.

    ``stats`` is ``pstats.Stats(...).stats``: function -> (primitive
    calls, calls, tottime, cumtime, {caller: (calls, primitive calls,
    tottime, cumtime)}).
    """
    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if not _is_builtin(func):
            layer = layer_of(func[0])
            seconds[layer] += tottime
            calls[layer] += ncalls
            continue
        charged = 0.0
        for caller, (edge_calls, _ecc, edge_tottime, _ect) in callers.items():
            # a builtin called by a builtin (map -> len) stays in ``other``
            layer = "other" if _is_builtin(caller) else layer_of(caller[0])
            seconds[layer] += edge_tottime
            calls[layer] += edge_calls
            charged += edge_tottime
        # what no caller edge explains (the profiler's own entry point)
        seconds["other"] += tottime - charged
    total = sum(seconds.values())
    return {
        layer: {
            "self_s": seconds[layer],
            "self_share": seconds[layer] / total if total else 0.0,
            "calls": calls[layer],
        }
        for layer in LAYERS
    }
