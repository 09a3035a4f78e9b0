#!/usr/bin/env python
"""Alternating parent/child pairs of the performance benchmark.

    python tools/perf_pairs.py --parent <rev> --workload <name> [--pairs 10]
                               [--workload <name> ...] [--controls N]
                               [--metric host_cpu_s_per_sim_s]
    python tools/perf_pairs.py --parent <rev> --controls N
    make perf-pairs PARENT=<rev> WORKLOAD=<name> [PAIRS=10] [CONTROLS=N]
                    [METRIC=<name>]
    make perf-pairs PARENT=<rev> CONTROLS=N

The rule a host-time claim has to pass (the choosing-metrics guide,
"Measuring in a small sandbox"): at least ten pairs of parent and
change, alternating which side runs first, the change winning at least
nine tenths of the pairs (ties count for neither side) and the medians
apart by more than the distance between the parent's own quartiles.
The simulated results are exact, so they are compared pair by pair: a
``sim_*`` metric that differs is listed with both values and its seed,
and voids the claim only where the child's value is the *worse* one by
the metric's ``better`` in ``BENCHMARK.json`` -- a change that declares
fewer events per envelope moves ``sim_events_per_env`` on purpose, and
"moved, never for the worse" is not "identical" (the verdict table
keeps the two apart).

The parent's committed files are exported with ``git archive`` into
the ignored ``benchmarks/perf/out/pairs/`` -- the way the benchmark is
run on a commit: a fresh directory, nothing left registered in
``.git``.  Each side then runs its *own*, unmodified
``benchmarks/perf/run.py --trace 0``, one process at a time, with the
seed equal within a pair and the order swapped every pair.

Every ``--workload`` named is a *claimed* row, judged by the rule
above on ``--metric`` (any end-to-end metric of ``BENCHMARK.json``;
default ``host_cpu_s_per_sim_s``).  A ``sim_*`` metric is exact per
seed, so a claim on one must win *every* pair, and the other ``sim_*``
metrics, which such a change moves on purpose, are judged against their
bounds instead of voiding it when they move.  Every other end-to-end
metric of a claimed row is judged as on a control row, so a claim that
costs host time beyond its bound says so.  ``--controls N`` adds every
other workload of ``BENCHMARK.json`` as a *control* row at N pairs --
the workloads the change's mechanism bypasses, where the prediction is
no change -- judged metric by metric against the contract's bounds (the
guide's section 6, step 5): *worse* when the child's median is worse
than the parent's by more than the bound (or a larger share of
operations failed), *unresolved* when it is not but either side's
interquartile spread is wider than the bound and some child run reads
no better than some parent run, *within bound* otherwise.  With no
``--workload`` the change claims nothing: ``--controls N`` then runs
every workload as a control row (the evidence of a refactor that must
move nothing), and giving neither option is an error.  The last table
printed has one verdict row per workload.  Stdlib only; it edits
nothing under ``benchmarks/perf/``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent
EXPORTS = REPO / "benchmarks" / "perf" / "out" / "pairs"
RUN = Path("benchmarks") / "perf" / "run.py"
#: the metric a claim is about unless ``--metric`` names another; the
#: other end-to-end metrics are printed beside it and judged against
#: their bounds
CLAIMED = "host_cpu_s_per_sim_s"


def export_parent(rev: str) -> Path:
    """The committed files of ``rev`` in a directory of their own."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout.strip()
    root = EXPORTS / sha[:12]
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=REPO, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(root)
    return root


def run_once(root: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One ``run.py --trace 0`` of the tree at ``root``: its last line."""
    proc = subprocess.run(
        [
            sys.executable, str(root / RUN), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_pairs(
    parent_root: Path, workload: str, pairs: int, first_seed: int, seconds: float,
    metric: str = CLAIMED,
) -> List[Dict[str, Any]]:
    results = []
    for index in range(pairs):
        seed = first_seed + index
        order = ("parent", "child") if index % 2 == 0 else ("child", "parent")
        pair: Dict[str, Any] = {"seed": seed, "order": list(order)}
        for side in order:
            root = parent_root if side == "parent" else REPO
            pair[side] = run_once(root, workload, seed, seconds)
        results.append(pair)
        print(
            f"pair {index} seed {seed} ({order[0]} first): "
            + " ".join(
                f"{side}={_value(pair[side], metric):.6g}"
                for side in ("parent", "child")
            ),
            file=sys.stderr,
        )
    return results


def _value(result: Dict[str, Any], metric: str) -> float:
    return result["metrics"][metric]["value"]


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3]; a single run is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def sim_moves(
    pairs: Sequence[Dict[str, Any]], directions: Mapping[str, str]
) -> List[Dict[str, Any]]:
    """Every ``sim_*`` value that differs within a pair, with both
    values.  ``worse`` follows ``directions[name]``; a metric the
    contract gives no direction for cannot be called "not worse"."""
    moves = []
    for pair in pairs:
        for name in sorted(pair["parent"]["metrics"]):
            if not name.startswith("sim_"):
                continue
            parent, child = _value(pair["parent"], name), _value(pair["child"], name)
            if parent == child:
                continue
            direction = directions.get(name)
            worse = (
                child > parent if direction == "lower"
                else child < parent if direction == "higher"
                else True
            )
            moves.append({"seed": pair["seed"], "metric": name, "parent": parent,
                          "child": child, "worse": worse})
    return moves


def summarize(
    pairs: Sequence[Dict[str, Any]], metric: str, better: str,
    directions: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """The section-8 arithmetic over finished pairs, for one metric;
    ``directions`` (metric name -> ``better``) judges the ``sim_*``
    values that moved."""
    sign = -1.0 if better == "lower" else 1.0
    parent = [_value(pair["parent"], metric) for pair in pairs]
    child = [_value(pair["child"], metric) for pair in pairs]
    wins = sum(1 for p, c in zip(parent, child) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, child) if c == p)
    parent_q, child_q = quartiles(parent), quartiles(child)
    parent_iqr = parent_q[2] - parent_q[0]
    child_iqr = child_q[2] - child_q[0]
    gain = sign * (child_q[1] - parent_q[1])
    moves = sim_moves(pairs, directions or {})
    failed = {
        side: sum(pair[side]["failed"] for pair in pairs) for side in ("parent", "child")
    }
    attempted = {
        side: sum(pair[side]["attempted"] for pair in pairs) for side in ("parent", "child")
    }
    return {
        "metric": metric,
        "better": better,
        "pairs": len(pairs),
        "parent": {"q1": parent_q[0], "median": parent_q[1], "q3": parent_q[2]},
        "child": {"q1": child_q[0], "median": child_q[1], "q3": child_q[2]},
        "parent_iqr": parent_iqr,
        "child_iqr": child_iqr,
        "every_child_run_better": min(sign * c for c in child) > max(sign * p for p in parent),
        "change": (child_q[1] - parent_q[1]) / parent_q[1] if parent_q[1] else 0.0,
        "wins": wins,
        "ties": ties,
        "losses": len(pairs) - wins - ties,
        "wins_nine_tenths": 10 * wins >= 9 * len(pairs),
        "medians_apart_by_more_than_parent_iqr": gain > parent_iqr,
        "sim_identical": not moves,
        "sim_never_worse": not any(move["worse"] for move in moves),
        "sim_moves": moves,
        "correct": all(pair[side]["correct"] for pair in pairs for side in ("parent", "child")),
        "failed": failed,
        "no_more_failures": (
            failed["child"] * attempted["parent"] <= failed["parent"] * attempted["child"]
        ),
    }


def claim_holds(summary: Dict[str, Any]) -> bool:
    """The section-8 rule.  A ``sim_*`` metric is exact per seed: a
    claim on it wins every pair, and the other ``sim_*`` metrics it
    moves are the verdict row's to judge against their bounds."""
    exact = summary["metric"].startswith("sim_")
    return (
        summary["pairs"] >= 10
        and summary["wins_nine_tenths"]
        and (summary["wins"] == summary["pairs"] or not exact)
        and summary["medians_apart_by_more_than_parent_iqr"]
        and (summary["sim_never_worse"] or exact)
        and summary["correct"]
        and summary["no_more_failures"]
    )


def render(summary: Dict[str, Any], others: Sequence[Dict[str, Any]]) -> str:
    lines = [
        "| metric | parent median [q1, q3] | child median [q1, q3] | change "
        "| child wins / ties / losses |",
        "|---|---|---|---|---|",
    ]
    for row in (summary, *others):
        p, c = row["parent"], row["child"]
        lines.append(
            f"| `{row['metric']}` | {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] "
            f"| {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] | {row['change']:+.1%} "
            f"| {row['wins']} / {row['ties']} / {row['losses']} |"
        )
    lines += [
        "",
        f"`{summary['metric']}` over {summary['pairs']} pairs "
        f"(better: {summary['better']}):",
        f"- child wins at least nine tenths of the pairs: {summary['wins_nine_tenths']}"
        + (
            f"; every pair (an exact sim_* metric): {summary['wins'] == summary['pairs']}"
            if summary["metric"].startswith("sim_") else ""
        ),
        f"- medians apart by more than the parent's IQR ({summary['parent_iqr']:.6g}): "
        f"{summary['medians_apart_by_more_than_parent_iqr']}",
        f"- every sim_* identical within each pair: {summary['sim_identical']}; "
        f"none worse in any pair: {summary['sim_never_worse']}"
        + "".join(
            f"\n  - seed {move['seed']}: `{move['metric']}` {move['parent']:.10g} -> "
            f"{move['child']:.10g} ({'worse' if move['worse'] else 'not worse'})"
            for move in summary["sim_moves"]
        ),
        f"- correct on every run: {summary['correct']}; failed parent/child: "
        f"{summary['failed']['parent']} / {summary['failed']['child']}",
        f"- claim holds (>= 10 pairs and all of the above): {claim_holds(summary)}",
    ]
    return "\n".join(lines)


def judge_control(row: Dict[str, Any], bound: float) -> str:
    """One metric of a control row against its bound: ``worse``,
    ``unresolved`` or ``within bound``."""
    sign = -1.0 if row["better"] == "lower" else 1.0
    if -sign * row["change"] > bound:
        return "worse"
    spread = max(
        (row[side + "_iqr"] / abs(row[side]["median"])) if row[side]["median"] else 0.0
        for side in ("parent", "child")
    )
    if spread > bound and not row["every_child_run_better"]:
        return "unresolved"
    return "within bound"


def verdict_row(
    workload: str, claimed: bool, pairs: Sequence[Dict[str, Any]],
    end_to_end: Sequence[Dict[str, Any]], metric: str = CLAIMED,
) -> Dict[str, Any]:
    """The line of the last table for one workload.  Every end-to-end
    metric but a claimed row's ``metric`` is judged against its bound,
    naming the ones that are not within it (a ``sim_*`` metric equal
    within every pair has nothing to judge).  A control row's verdict is
    the worst of those; a claimed row's is the section-8 rule on
    ``metric``, followed by the worst of those if it is not "within
    bound"."""
    better = {entry["name"]: entry["better"] for entry in end_to_end}
    summary = summarize(pairs, metric, better[metric], better)
    row = {"workload": workload, "role": "claimed" if claimed else "control",
           "summary": summary, "metrics": {}}
    for entry in end_to_end:
        name = entry["name"]
        if claimed and name == metric:
            continue
        if name.startswith("sim_") and all(
            _value(pair["parent"], name) == _value(pair["child"], name) for pair in pairs
        ):
            continue
        row["metrics"][name] = judge_control(
            summarize(pairs, name, entry["better"]), entry["bound"]
        )
    if not (summary["correct"] and summary["no_more_failures"]):
        row["metrics"]["failed"] = "worse"
    judged = "within bound"
    for verdict in ("worse", "unresolved"):
        named = [name for name, v in row["metrics"].items() if v == verdict]
        if named:
            judged = f"{verdict}: " + ", ".join(f"`{name}`" for name in named)
            break
    if not claimed:
        row["verdict"] = judged
    else:
        row["verdict"] = "claim holds" if claim_holds(summary) else "claim not met"
        if judged != "within bound":
            row["verdict"] += "; " + judged
    return row


def render_verdicts(rows: Sequence[Dict[str, Any]]) -> str:
    metric = rows[0]["summary"]["metric"] if rows else CLAIMED
    lines = [
        f"| workload | role | pairs | `{metric}` parent -> child | change "
        "| child wins / ties / losses | sim_* identical | sim_* never worse | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        summary = row["summary"]
        lines.append(
            f"| `{row['workload']}` | {row['role']} | {summary['pairs']} "
            f"| {summary['parent']['median']:.6g} -> {summary['child']['median']:.6g} "
            f"| {summary['change']:+.1%} "
            f"| {summary['wins']} / {summary['ties']} / {summary['losses']} "
            f"| {summary['sim_identical']} | {summary['sim_never_worse']} "
            f"| {row['verdict']} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    end_to_end = contract["end_to_end"]
    better = {entry["name"]: entry["better"] for entry in end_to_end}
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument(
        "--workload", action="append", default=[], choices=names,
        help="a workload the change claims a gain on (repeatable; none: no claim)",
    )
    parser.add_argument("--pairs", type=int, default=10, help="pairs per claimed workload")
    parser.add_argument(
        "--controls", type=int, default=0, metavar="N",
        help="also run every other workload at N pairs, as no-change controls",
    )
    parser.add_argument(
        "--metric", default=CLAIMED, choices=list(better),
        help="the end-to-end metric the claim is about (default %(default)s)",
    )
    parser.add_argument("--first-seed", type=int, default=0, help="pair i runs seed first+i")
    parser.add_argument("--json", help="also write every run and the summaries here")
    args = parser.parse_args(argv)
    if not args.workload and args.controls <= 0:
        parser.error("name a claimed --workload, or run --controls N with no claim")

    plan = [(name, True, args.pairs) for name in dict.fromkeys(args.workload)]
    if args.controls > 0:
        plan += [(name, False, args.controls) for name in names if name not in args.workload]
    parent_root = export_parent(args.parent)
    document = {}
    rows = []
    try:
        for workload, claimed, count in plan:
            pairs = run_pairs(
                parent_root, workload, count, args.first_seed, contract["run_seconds"],
                args.metric,
            )
            row = verdict_row(workload, claimed, pairs, end_to_end, args.metric)
            rows.append(row)
            others = [
                summarize(pairs, name, better[name])
                for name in better
                if name != args.metric
                and (args.metric.startswith("sim_") or not name.startswith("sim_"))
            ]
            document[workload] = {"pairs": pairs, "row": row, "others": others}
            if claimed:
                print(f"## {workload}: parent {args.parent} vs working tree")
                print(render(row["summary"], others))
                print(flush=True)
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
    print(f"## verdicts: parent {args.parent} vs working tree")
    print(render_verdicts(rows))
    if args.json:
        Path(args.json).write_text(json.dumps(document, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
