"""Fuzzbench-style N-way experiment reports over bench result JSON.

This module answers the evaluation question the paper (and the SmartBFT
bake-off after it) is built on: **given N variants — orderers, configs,
commits — which is best, where, and is the difference statistically
real?**  "Did *this one* run regress against *that one* baseline?" is
its two-variant case, read off the same per-unit statistics by the
regression gate at the bottom (``python -m repro.bench compare``).

Inputs are ``repro-bench-result/1`` documents.  Variants come from one
of two groupings:

- *files as variants*: N result files, one variant each (named by the
  document's ``run_name``, overridable with ``--names``) — ranking
  whole runs against each other, e.g. baseline vs candidate or one
  file per backend;
- *axis as variants* (``--by AXIS``): one result file whose benchmark
  matrices carry the axis (e.g. ``orderer``) — every matrix point
  splits into one variant per axis value, which turns the committed
  ``bakeoff_orderers`` benchmark into a four-backend ranking with no
  extra runs.

The comparable *unit* is one ``(benchmark, matrix point, metric)``
triple.  Per unit the report computes the pairwise two-sided
Mann–Whitney U matrix and Vargha–Delaney A12 effect sizes over the
per-repeat samples; units measured for **every** variant additionally
get direction-aware rank-by-median ranks (best = 1).  Mean ranks over
all complete units give the overall ranking, summarized with the
Nemenyi critical difference (:mod:`repro.bench.stats`).

Per-phase latency tables are sourced from the ``phases`` breakdowns the
obs pipeline embeds in result points (rendered through
:func:`repro.obs.export.render_phase_table`), and a regression-history
section renders sparklines of per-unit medians over the snapshots
accumulated under ``benchmarks/history/`` (see
:func:`repro.bench.harness.append_history`).

Output is deterministic markdown (byte-identical for identical inputs;
no timestamps, stable ordering, fixed float formatting) plus a
machine-readable ``repro-bench-report/1`` JSON document.
"""

from __future__ import annotations

import html as html_module
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.harness import load_result
from repro.bench.stats import (
    a12_magnitude,
    cd_groups,
    critical_difference,
    mann_whitney_u,
    mean_ranks,
    rank_by_median,
    sparkline,
)

#: Version tag of the report JSON documents.
REPORT_SCHEMA = "repro-bench-report/1"

#: Default significance level for the pairwise tests and the CD.
DEFAULT_ALPHA = 0.05

#: Detail (pairwise-matrix) sections rendered per benchmark before the
#: report truncates with an explicit "omitted" note (``full_detail``
#: lifts the cap).  The summary tables and the JSON always cover every
#: unit — the cap only bounds the markdown's matrix blocks.
MAX_DETAIL_UNITS = 20


class ReportError(ValueError):
    """The report inputs are unusable (bad grouping, no overlap)."""


# ----------------------------------------------------------------------
# Grouping: result documents -> variants -> units
# ----------------------------------------------------------------------
def _point_key(params: Mapping[str, Any]) -> Tuple:
    return tuple(sorted((k, repr(v)) for k, v in params.items()))


def _finite(values: Sequence[Any]) -> List[float]:
    return [
        float(v)
        for v in values
        if isinstance(v, (int, float)) and math.isfinite(v)
    ]


def _finite_or_none(value: Any) -> Optional[float]:
    finite = _finite([value])
    return finite[0] if finite else None


def _describe_params(params: Mapping[str, Any]) -> str:
    return ", ".join(f"{k}={v}" for k, v in params.items()) or "-"


@dataclass
class Unit:
    """One comparable (benchmark, matrix point, metric) measurement."""

    benchmark: str
    params: Dict[str, Any]
    metric: str
    direction: str
    #: variant -> finite per-repeat samples
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: variant -> median-of-repeats (None when non-finite)
    medians: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def key(self) -> Tuple:
        return (self.benchmark, _point_key(self.params), self.metric)

    def present(self) -> List[str]:
        """Variants with a finite median, sorted."""
        return sorted(v for v, m in self.medians.items() if m is not None)

    def describe_params(self) -> str:
        return _describe_params(self.params)


@dataclass
class Grouping:
    """Variants plus the units and phase breakdowns they cover."""

    variants: List[str]
    #: unit key -> Unit, insertion-ordered (document order)
    units: Dict[Tuple, Unit]
    #: (benchmark, point key) -> {"params": ..., "columns": {variant:
    #: {phase label: samples}}} for points carrying a phases breakdown
    phases: Dict[Tuple, Dict[str, Any]]
    #: benchmark names in first-seen order (stable section ordering)
    benchmark_order: List[str]
    notes: List[str] = field(default_factory=list)


def _ingest_document(
    grouping: Grouping,
    variant: str,
    document: Mapping[str, Any],
    strip_axis: Optional[str] = None,
) -> None:
    for bench in document["benchmarks"]:
        name = bench["benchmark"]
        if name not in grouping.benchmark_order:
            grouping.benchmark_order.append(name)
        skipped = 0
        for point in bench["points"]:
            params = dict(point["params"])
            if strip_axis is not None:
                if strip_axis not in params:
                    skipped += 1
                    continue
                point_variant = str(params.pop(strip_axis))
                if point_variant not in grouping.variants:
                    grouping.variants.append(point_variant)
            else:
                point_variant = variant
            pkey = _point_key(params)
            for metric, summary in point["metrics"].items():
                key = (name, pkey, metric)
                unit = grouping.units.get(key)
                if unit is None:
                    unit = Unit(
                        benchmark=name,
                        params=params,
                        metric=metric,
                        direction=summary["direction"],
                    )
                    grouping.units[key] = unit
                if point_variant in unit.samples:
                    raise ReportError(
                        f"variant {point_variant!r} measured twice at "
                        f"{name}[{unit.describe_params()}] {metric}"
                    )
                unit.samples[point_variant] = _finite(summary["values"])
                unit.medians[point_variant] = _finite_or_none(
                    summary.get("median")
                )
            if "phases" in point and point["phases"]:
                entry = grouping.phases.setdefault(
                    (name, pkey), {"params": params, "columns": {}}
                )
                entry["columns"][point_variant] = point["phases"]
        if skipped:
            grouping.notes.append(
                f"{name}: {skipped} matrix point(s) lack axis "
                f"{strip_axis!r}, excluded from the {strip_axis} grouping"
            )


def group_by_files(
    documents: Sequence[Tuple[str, Mapping[str, Any]]],
) -> Grouping:
    """One variant per result document; names must be unique."""
    if len(documents) < 2:
        raise ReportError(
            "file-grouped reports need two or more result files "
            "(use --by AXIS to split a single file along a matrix axis)"
        )
    names = [name for name, _ in documents]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ReportError(
            f"duplicate variant names {duplicates}; pass --names to "
            "disambiguate (e.g. --names baseline,candidate)"
        )
    grouping = Grouping(
        variants=list(names), units={}, phases={}, benchmark_order=[]
    )
    for name, document in documents:
        _ingest_document(grouping, name, document)
    return grouping


def group_by_axis(document: Mapping[str, Any], axis: str) -> Grouping:
    """Split one document's points into variants along a matrix axis."""
    grouping = Grouping(variants=[], units={}, phases={}, benchmark_order=[])
    _ingest_document(grouping, "", document, strip_axis=axis)
    if len(grouping.variants) < 2:
        raise ReportError(
            f"axis {axis!r} yields {len(grouping.variants)} variant(s); "
            "an N-way report needs at least two"
        )
    grouping.variants.sort()
    return grouping


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
@dataclass
class PairwiseCell:
    """One ordered variant pair's test results at one unit."""

    a: str
    b: str
    p_value: float
    #: Mann-Whitney U of ``a`` (its wins over ``b``, ties counting half)
    #: out of ``pairs = len(a) * len(b)`` -- A12 is their ratio, so one
    #: ranking yields the test and the effect size in either direction
    u_statistic: float
    pairs: int

    def effect_of(self, variant: str) -> float:
        """A12 of ``variant`` (``a`` or ``b``) over the other one."""
        wins = self.u_statistic if variant == self.a else self.pairs - self.u_statistic
        return wins / self.pairs

    @property
    def effect_a12(self) -> float:
        return self.effect_of(self.a)

    @property
    def magnitude(self) -> str:
        return a12_magnitude(self.effect_a12)


@dataclass
class UnitAnalysis:
    """Every statistic of one unit, computed on first read and memoized
    (the shape of fuzzbench's ``BenchmarkResults``): the markdown, HTML,
    JSON and step-summary renderers and the regression gate are all
    readers of these properties, so no test is run twice."""

    unit: Unit
    #: the report's variants; the unit is *complete* when it covers all
    variants: Sequence[str]

    @cached_property
    def pairwise(self) -> List[PairwiseCell]:
        """Ordered (a, b) pairs with a < b, both variants measured."""
        present = self.unit.present()
        cells: List[PairwiseCell] = []
        for i, va in enumerate(present):
            for vb in present[i + 1 :]:
                sa, sb = self.unit.samples[va], self.unit.samples[vb]
                if not sa or not sb:
                    continue
                u_statistic, p_value = mann_whitney_u(sa, sb)
                cells.append(
                    PairwiseCell(va, vb, p_value, u_statistic, len(sa) * len(sb))
                )
        return cells

    @cached_property
    def ranks(self) -> Optional[Dict[str, float]]:
        """Per-variant rank (1 = best) when the unit is complete; None
        otherwise (excluded from the overall ranking)."""
        if set(self.unit.present()) != set(self.variants):
            return None
        medians = {v: self.unit.medians[v] for v in self.variants}
        return rank_by_median(medians, self.unit.direction)

    @property
    def min_p(self) -> Optional[float]:
        return min((c.p_value for c in self.pairwise), default=None)

    def best(self) -> List[str]:
        """Variant(s) with the best median, direction-aware."""
        finite = {v: m for v, m in self.unit.medians.items() if m is not None}
        if not finite:
            return []
        pick = max if self.unit.direction == "higher" else min
        target = pick(finite.values())
        return sorted(v for v, m in finite.items() if m == target)


@dataclass
class RankingSummary:
    variants: List[str]
    total_units: int
    complete_units: int
    mean_ranks: Dict[str, float]
    critical_diff: Optional[float]
    groups: Optional[List[Tuple[str, ...]]]
    #: units where the variant ranked strictly first, for color
    wins: Dict[str, int]


@dataclass
class ExperimentReport:
    variants: List[str]
    alpha: float
    sources: List[Dict[str, str]]
    grouping_mode: str  # "files" or "axis:<name>"
    benchmark_order: List[str]
    units: List[UnitAnalysis]
    ranking: RankingSummary
    phases: Dict[Tuple, Dict[str, Any]]
    history: Optional[Dict[str, Any]]
    notes: List[str]

    def by_benchmark(self) -> List[Tuple[str, List[UnitAnalysis]]]:
        """The unit analyses per benchmark, in section order."""
        grouped: Dict[str, List[UnitAnalysis]] = {
            name: [] for name in self.benchmark_order
        }
        for analysis in self.units:
            grouped[analysis.unit.benchmark].append(analysis)
        return list(grouped.items())


def analyze(
    grouping: Grouping,
    alpha: float = DEFAULT_ALPHA,
    sources: Optional[List[Dict[str, str]]] = None,
    grouping_mode: str = "files",
    history: Optional[Dict[str, Any]] = None,
) -> ExperimentReport:
    """Run the full statistical analysis over a grouping."""
    if not grouping.units:
        raise ReportError("no comparable units found in the inputs")
    variants = list(grouping.variants)
    analyses = [UnitAnalysis(unit, variants) for unit in grouping.units.values()]
    per_unit_ranks = [a.ranks for a in analyses if a.ranks is not None]
    wins = {v: 0 for v in variants}
    for ranks in per_unit_ranks:
        leaders = [v for v, r in ranks.items() if r == 1.0]
        if len(leaders) == 1:
            wins[leaders[0]] += 1

    complete = len(per_unit_ranks)
    ranks_avg = mean_ranks(per_unit_ranks) if complete else {}
    cd = (
        critical_difference(len(variants), complete, alpha)
        if complete
        else None
    )
    groups = cd_groups(ranks_avg, cd) if cd is not None and ranks_avg else None
    ranking = RankingSummary(
        variants=variants,
        total_units=len(analyses),
        complete_units=complete,
        mean_ranks=ranks_avg,
        critical_diff=cd,
        groups=groups,
        wins=wins,
    )
    return ExperimentReport(
        variants=variants,
        alpha=alpha,
        sources=sources or [],
        grouping_mode=grouping_mode,
        benchmark_order=list(grouping.benchmark_order),
        units=analyses,
        ranking=ranking,
        phases=grouping.phases,
        history=history,
        notes=list(grouping.notes),
    )


# ----------------------------------------------------------------------
# History (sparkline) series
# ----------------------------------------------------------------------
def history_series(
    snapshots: Sequence[Tuple[str, Mapping[str, Any]]],
) -> Dict[str, Any]:
    """Per-unit median series over history snapshots, oldest first.

    ``snapshots`` are ``(name, validated document)`` pairs in
    chronological order (:func:`repro.bench.harness.load_history`
    yields them sorted by filename, which embeds the run timestamp).
    Series cover every unit present in the *newest* snapshot; snapshots
    missing a unit contribute a gap.
    """
    names = [name for name, _ in snapshots]
    # the shared ingester, one variant per snapshot; newest first so the
    # units (and their directions) follow the newest document's order
    grouping = Grouping(variants=names, units={}, phases={}, benchmark_order=[])
    for name, document in reversed(snapshots):
        _ingest_document(grouping, name, document)
    series: List[Dict[str, Any]] = []
    for unit in grouping.units.values():
        if names[-1] not in unit.medians:
            continue  # gone from the newest snapshot
        values = [unit.medians.get(name) for name in names]
        series.append(
            {
                "benchmark": unit.benchmark,
                "params": unit.params,
                "metric": unit.metric,
                "direction": unit.direction,
                "medians": values,
                "sparkline": sparkline(values),
            }
        )
    return {"snapshots": names, "series": series}


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}"


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|---" * len(header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _render_notes(report: ExperimentReport) -> List[str]:
    if not report.notes:
        return []
    return [f"> note: {note}" for note in report.notes] + [""]


def _render_ranking(report: ExperimentReport) -> List[str]:
    ranking = report.ranking
    lines = ["## Overall ranking (rank-by-median)", ""]
    lines.append(
        f"{len(ranking.variants)} variants over "
        f"{ranking.complete_units} complete units "
        f"(of {ranking.total_units} total; a unit is one benchmark × "
        f"matrix point × metric, *complete* when every variant measured "
        f"it)."
    )
    lines.append("")
    if not ranking.complete_units:
        lines.append(
            "No unit was measured for every variant — no overall ranking. "
            "Per-unit pairwise results below still cover the overlap."
        )
        return lines
    ordered = sorted(
        ranking.mean_ranks.items(), key=lambda item: (item[1], item[0])
    )
    rows = []
    for position, (variant, rank) in enumerate(ordered, start=1):
        rows.append(
            [
                str(position),
                f"`{variant}`",
                f"{rank:.3f}",
                str(ranking.wins.get(variant, 0)),
            ]
        )
    lines += _md_table(["#", "variant", "mean rank", "units won"], rows)
    lines.append("")
    if ranking.critical_diff is not None:
        lines.append(
            f"Critical difference (Nemenyi, α={report.alpha:g}): "
            f"**{ranking.critical_diff:.3f}** — variants whose mean ranks "
            f"differ by less are statistically indistinguishable."
        )
        if ranking.groups:
            parts = [
                " ~ ".join(f"`{v}`" for v in group)
                for group in ranking.groups
            ]
            lines.append("Indistinguishable groups: " + "; ".join(parts) + ".")
    else:
        lines.append(
            "Critical difference unavailable (Nemenyi critical values are "
            "tabulated for 2–10 variants at α ∈ {0.05, 0.10})."
        )
    return lines


def _render_benchmark(
    report: ExperimentReport,
    benchmark: str,
    analyses: Sequence[UnitAnalysis],
    full_detail: bool,
) -> List[str]:
    lines = [f"### {benchmark}", ""]
    header = ["params", "metric", "dir"] + [f"`{v}`" for v in report.variants]
    header += ["best", "min p"]
    rows = []
    for analysis in analyses:
        unit = analysis.unit
        best = set(analysis.best())
        cells = []
        for variant in report.variants:
            text = _fmt(unit.medians.get(variant))
            if variant in best and text != "-":
                text = f"**{text}**"
            cells.append(text)
        min_p = analysis.min_p
        rows.append(
            [unit.describe_params(), unit.metric, unit.direction[0]]
            + cells
            + [", ".join(sorted(best)) or "-",
               "-" if min_p is None else f"{min_p:.4f}"]
        )
    lines += _md_table(header, rows)
    lines.append("")

    significant = [
        a
        for a in analyses
        if a.min_p is not None and a.min_p < report.alpha and len(a.pairwise)
    ]
    if not significant:
        lines.append(
            f"No pairwise difference below α={report.alpha:g} in this "
            "benchmark."
        )
        return lines
    shown = significant if full_detail else significant[:MAX_DETAIL_UNITS]
    lines.append(
        f"Pairwise Mann–Whitney U / A12 matrices for the "
        f"{len(shown)} unit(s) with p < α:"
    )
    lines.append("")
    for analysis in shown:
        unit = analysis.unit
        present = unit.present()
        lines.append(
            f"**{unit.metric}** [{unit.describe_params()}] — cell: "
            f"p-value / A12(row over column)"
        )
        lines.append("")
        cell_map: Dict[Tuple[str, str], PairwiseCell] = {}
        for cell in analysis.pairwise:
            cell_map[(cell.a, cell.b)] = cell
        matrix_rows = []
        for va in present:
            row = [f"`{va}`"]
            for vb in present:
                if va == vb:
                    row.append("—")
                    continue
                cell = cell_map.get((va, vb)) or cell_map.get((vb, va))
                if cell is None:
                    row.append("-")
                    continue
                mark = "*" if cell.p_value < report.alpha else ""
                row.append(
                    f"{cell.p_value:.4f}{mark} / {cell.effect_of(va):.2f}"
                )
            matrix_rows.append(row)
        lines += _md_table([""] + [f"`{v}`" for v in present], matrix_rows)
        lines.append("")
    omitted = len(significant) - len(shown)
    if omitted > 0:
        lines.append(
            f"…{omitted} more significant unit(s) omitted from the "
            "markdown (all are in the JSON report; re-render with "
            "--full-detail to include them)."
        )
    return lines


def _render_phases(report: ExperimentReport) -> List[str]:
    from repro.obs.export import render_phase_table

    lines = ["## Per-phase latency breakdown", ""]
    lines.append(
        "Mean seconds spent in each pipeline phase (milliseconds in the "
        "cells), sourced from the obs milestone pipeline (`run "
        "--phases`)."
    )
    lines.append("")
    rendered = 0
    for benchmark in report.benchmark_order:
        for (bench_name, _), entry in sorted(report.phases.items()):
            if bench_name != benchmark:
                continue
            params = _describe_params(entry["params"])
            columns = {
                (variant or "run"): samples
                for variant, samples in entry["columns"].items()
            }
            lines.append(f"### {benchmark} [{params}]")
            lines.append("")
            lines.append(render_phase_table(columns))
            lines.append("")
            rendered += 1
    if not rendered:
        lines.append(
            "No phase breakdowns in the inputs (run benchmarks with "
            "`--phases` to embed them)."
        )
    return lines


def _render_history(report: ExperimentReport) -> List[str]:
    history = report.history or {}
    snapshots = history.get("snapshots", [])
    lines = ["## Regression history", ""]
    if not snapshots:
        lines.append(
            "No history snapshots (accumulate them with "
            "`python -m repro.bench history append RESULT.json`)."
        )
        return lines
    lines.append(
        f"{len(snapshots)} snapshot(s), oldest → newest: "
        f"`{snapshots[0]}` … `{snapshots[-1]}`."
    )
    lines.append("")
    rows = []
    for entry in history.get("series", []):
        params = _describe_params(entry["params"])
        medians = entry["medians"]
        finite = [m for m in medians if m is not None]
        latest = medians[-1] if medians else None
        oldest = finite[0] if finite else None
        if oldest not in (None, 0) and latest is not None:
            delta = (latest - oldest) / abs(oldest)
            delta_text = f"{delta:+.1%}"
        else:
            delta_text = "-"
        rows.append(
            [
                entry["benchmark"],
                params,
                entry["metric"],
                entry["sparkline"],
                _fmt(latest),
                delta_text,
            ]
        )
    lines += _md_table(
        ["benchmark", "params", "metric", "history", "latest", "Δ oldest→latest"],
        rows,
    )
    return lines


def render_markdown(
    report: ExperimentReport, full_detail: bool = False
) -> str:
    """Deterministic markdown for the whole report."""
    lines = ["# Benchmark experiment report", ""]
    mode = (
        "one result file split by matrix axis "
        f"`{report.grouping_mode.split(':', 1)[1]}`"
        if report.grouping_mode.startswith("axis:")
        else "one variant per result file"
    )
    lines.append(
        f"N-way statistical comparison of {len(report.variants)} variants "
        f"({mode}), α={report.alpha:g}."
    )
    lines.append("")
    if report.sources:
        lines.append("Sources:")
        for source in report.sources:
            label = f"`{source['variant']}`" if source.get("variant") else "input"
            lines.append(
                f"- {label} ← `{source['path']}` "
                f"(run `{source['run_name']}`, mode {source['mode']})"
            )
        lines.append("")
    lines += _render_notes(report)
    lines += _render_ranking(report)
    lines.append("")
    lines.append("## Per-benchmark results")
    lines.append("")
    lines.append(
        "Medians per variant (bold = best, direction-aware); `min p` is "
        "the smallest pairwise Mann–Whitney p-value at the unit."
    )
    lines.append("")
    for benchmark, analyses in report.by_benchmark():
        if analyses:
            lines += _render_benchmark(report, benchmark, analyses, full_detail)
            lines.append("")
    lines += _render_phases(report)
    lines.append("")
    lines += _render_history(report)
    lines.append("")
    return "\n".join(lines)


def render_github_summary(report: ExperimentReport) -> str:
    """The ranking section alone — what CI writes to the step summary."""
    lines = ["# Benchmark ranking", ""]
    lines += _render_notes(report)
    lines += _render_ranking(report)
    lines.append("")
    return "\n".join(lines)


_HTML_CSS = """\
body { font-family: system-ui, sans-serif; max-width: 60rem;
       margin: 2rem auto; padding: 0 1rem; color: #1b1f24; }
h1, h2, h3 { line-height: 1.25; }
h2 { border-bottom: 1px solid #d0d7de; padding-bottom: .25rem; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #d0d7de; padding: .3rem .6rem;
         text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f6f8fa; }
code { background: #f6f8fa; padding: .1rem .3rem; border-radius: 3px;
       font-size: .9em; }
blockquote { border-left: 4px solid #d0d7de; margin: 1rem 0;
             padding: .25rem 1rem; color: #57606a; }\
"""

_INLINE_CODE_RE = re.compile(r"`([^`]+)`")
_INLINE_BOLD_RE = re.compile(r"\*\*([^*]+)\*\*")


def _html_inline(text: str) -> str:
    """Escape ``text`` and expand the two inline spans markdown uses."""
    escaped = html_module.escape(text, quote=False)
    escaped = _INLINE_CODE_RE.sub(r"<code>\1</code>", escaped)
    return _INLINE_BOLD_RE.sub(r"<strong>\1</strong>", escaped)


def _html_table(rows: Sequence[str]) -> List[str]:
    def cells(row: str) -> List[str]:
        return [cell.strip() for cell in row.strip().strip("|").split("|")]

    out = ["<table>", "<thead><tr>"]
    out += [f"<th>{_html_inline(cell)}</th>" for cell in cells(rows[0])]
    out.append("</tr></thead>")
    out.append("<tbody>")
    for row in rows[2:]:  # rows[1] is the |---| separator
        out.append(
            "<tr>"
            + "".join(f"<td>{_html_inline(c)}</td>" for c in cells(row))
            + "</tr>"
        )
    out.append("</tbody>")
    out.append("</table>")
    return out


def render_html(markdown: str, title: str = "Benchmark report") -> str:
    """Self-contained HTML for the report's restricted markdown dialect.

    :func:`render_markdown` only ever emits headings, pipe tables,
    ``> note:`` quotes, ``-`` lists, and paragraphs with inline
    ``**bold**`` / backtick-code spans, so this is a straight
    line-oriented conversion — tables and text only, no plots, no
    external assets (CSS is inlined).
    """
    body: List[str] = []
    table: List[str] = []
    paragraph: List[str] = []
    items: List[str] = []
    quotes: List[str] = []

    def flush() -> None:
        if table:
            body.extend(_html_table(table))
            table.clear()
        if paragraph:
            body.append(f"<p>{_html_inline(' '.join(paragraph))}</p>")
            paragraph.clear()
        if items:
            body.append("<ul>")
            body.extend(f"<li>{_html_inline(item)}</li>" for item in items)
            body.append("</ul>")
            items.clear()
        if quotes:
            body.append("<blockquote>")
            body.append(f"<p>{_html_inline(' '.join(quotes))}</p>")
            body.append("</blockquote>")
            quotes.clear()

    for line in markdown.splitlines():
        stripped = line.strip()
        if not stripped:
            flush()
            continue
        if stripped.startswith("|"):
            if paragraph or items or quotes:
                flush()
            table.append(stripped)
            continue
        if stripped.startswith("#"):
            flush()
            level = len(stripped) - len(stripped.lstrip("#"))
            level = min(level, 6)
            text = _html_inline(stripped[level:].strip())
            body.append(f"<h{level}>{text}</h{level}>")
            continue
        if stripped.startswith("> "):
            if table or paragraph or items:
                flush()
            quotes.append(stripped[2:])
            continue
        if stripped.startswith("- "):
            if table or paragraph or quotes:
                flush()
            items.append(stripped[2:])
            continue
        if table or items or quotes:
            flush()
        paragraph.append(stripped)
    flush()

    document = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{html_module.escape(title)}</title>",
        f"<style>{_HTML_CSS}</style>",
        "</head>",
        "<body>",
        *body,
        "</body>",
        "</html>",
        "",
    ]
    return "\n".join(document)


# ----------------------------------------------------------------------
# JSON document
# ----------------------------------------------------------------------
def report_to_json_dict(report: ExperimentReport) -> Dict[str, Any]:
    ranking = report.ranking
    document: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "variants": list(report.variants),
        "alpha": report.alpha,
        "grouping": report.grouping_mode,
        "sources": list(report.sources),
        "notes": list(report.notes),
        "ranking": {
            "total_units": ranking.total_units,
            "complete_units": ranking.complete_units,
            "mean_ranks": {
                v: ranking.mean_ranks[v] for v in sorted(ranking.mean_ranks)
            },
            "wins": dict(sorted(ranking.wins.items())),
            "critical_difference": ranking.critical_diff,
            "groups": (
                [list(group) for group in ranking.groups]
                if ranking.groups is not None
                else None
            ),
        },
        "benchmarks": [],
    }
    for benchmark, analyses in report.by_benchmark():
        units_json = []
        for analysis in analyses:
            unit = analysis.unit
            units_json.append(
                {
                    "params": dict(unit.params),
                    "metric": unit.metric,
                    "direction": unit.direction,
                    "medians": {
                        v: unit.medians[v] for v in sorted(unit.medians)
                    },
                    "samples": {
                        v: list(unit.samples[v]) for v in sorted(unit.samples)
                    },
                    "best": analysis.best(),
                    "pairwise": [
                        {
                            "a": cell.a,
                            "b": cell.b,
                            "p_value": cell.p_value,
                            "a12": cell.effect_a12,
                            "magnitude": cell.magnitude,
                            "significant": cell.p_value < report.alpha,
                        }
                        for cell in analysis.pairwise
                    ],
                    "ranks": analysis.ranks,
                }
            )
        document["benchmarks"].append(
            {"benchmark": benchmark, "units": units_json}
        )
    document["phases"] = [
        {
            "benchmark": bench_name,
            "params": entry["params"],
            "columns": {
                (variant or "run"): samples
                for variant, samples in sorted(entry["columns"].items())
            },
        }
        for (bench_name, _), entry in sorted(report.phases.items())
    ]
    document["history"] = report.history
    return document


# ----------------------------------------------------------------------
# Top-level entry point used by the CLI
# ----------------------------------------------------------------------
def _source(variant: str, path: str, document: Mapping[str, Any]) -> Dict[str, str]:
    return {
        "variant": variant,
        "path": path,
        "run_name": document.get("run_name", ""),
        "mode": document.get("mode", ""),
    }


def build_report(
    paths: Sequence[str],
    by_axis: Optional[str] = None,
    names: Optional[Sequence[str]] = None,
    alpha: float = DEFAULT_ALPHA,
    history_snapshots: Optional[Sequence[Tuple[str, Mapping[str, Any]]]] = None,
) -> ExperimentReport:
    """Load result files, group, and analyze (raises ReportError /
    SchemaError / OSError on bad inputs — the CLI maps those to exit
    code 2)."""
    documents = [(path, load_result(path)) for path in paths]
    if by_axis is not None:
        if len(documents) != 1:
            raise ReportError("--by takes exactly one result file")
        if names:
            raise ReportError("--names only applies to file-grouped reports")
        path, document = documents[0]
        grouping = group_by_axis(document, by_axis)
        sources = [_source("", path, document)]
        grouping_mode = f"axis:{by_axis}"
    else:
        if names is not None:
            if len(names) != len(documents):
                raise ReportError(
                    f"--names lists {len(names)} name(s) for "
                    f"{len(documents)} file(s)"
                )
            labelled = list(names)
        else:
            labelled = [doc.get("run_name", path) for path, doc in documents]
        grouping = group_by_files(
            [(label, doc) for label, (_, doc) in zip(labelled, documents)]
        )
        sources = [
            _source(label, path, document)
            for label, (path, document) in zip(labelled, documents)
        ]
        grouping_mode = "files"
    history = (
        history_series(history_snapshots) if history_snapshots else None
    )
    return analyze(
        grouping,
        alpha=alpha,
        sources=sources,
        grouping_mode=grouping_mode,
        history=history,
    )


# ----------------------------------------------------------------------
# Regression gate: the two-variant reading (``compare`` on the CLI)
# ----------------------------------------------------------------------
#: Variant names of the gate's two-file grouping.
BASELINE, CANDIDATE = "baseline", "candidate"

#: Minimum per-side repeats before the Mann-Whitney test is consulted.
MIN_SAMPLES_FOR_TEST = 5

#: Default relative tolerance on the median delta (5%).
DEFAULT_TOLERANCE = 0.05


@dataclass
class Verdict:
    """The gate's verdict on one baseline unit."""

    unit: Unit
    status: str  # "ok" | "improved" | "regression" | "missing"
    delta_relative: Optional[float] = None
    #: set, like ``effect_a12``, only when both sides were testable
    p_value: Optional[float] = None
    #: probability that a candidate repeat exceeds a baseline repeat
    effect_a12: Optional[float] = None
    detail: str = ""
    #: on a regression between two ``--phases`` runs, phase label ->
    #: ``{"baseline": s, "candidate": s, "delta": s}`` (means over
    #: repeats): which protocol phase the regression sits in
    phase_deltas: Optional[Dict[str, Dict[str, float]]] = None

    def describe(self) -> str:
        unit = self.unit
        head = (
            f"{self.status.upper():<10} "
            f"{unit.benchmark}[{unit.describe_params()}] {unit.metric}"
        )
        if self.status == "missing":
            return f"{head}: {self.detail}"
        delta = (
            "n/a"
            if self.delta_relative is None
            else f"{self.delta_relative * 100:+.1f}%"
        )
        p = "" if self.p_value is None else f", p={self.p_value:.4f}"
        if self.effect_a12 is not None:
            p += f", A12={self.effect_a12:.2f}"
        line = (
            f"{head}: {_fmt(unit.medians[BASELINE])} -> "
            f"{_fmt(unit.medians[CANDIDATE])} "
            f"({delta}{p}, {unit.direction} is better)"
        )
        if self.phase_deltas:
            worst = sorted(
                self.phase_deltas.items(),
                key=lambda item: abs(item[1]["delta"]),
                reverse=True,
            )[:3]
            moved = "; ".join(
                f"{label} {entry['baseline'] * 1e3:.3f}ms -> "
                f"{entry['candidate'] * 1e3:.3f}ms"
                for label, entry in worst
            )
            line += f"\n             phases most moved: {moved}"
        return line


@dataclass
class GateReport:
    """All verdicts of one baseline/candidate comparison."""

    baseline_name: str
    candidate_name: str
    tolerance: float
    alpha: float
    verdicts: List[Verdict]

    @property
    def regressions(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def missing(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status == "missing"]

    def summary_counts(self) -> Dict[str, int]:
        counts = {"ok": 0, "improved": 0, "regression": 0, "missing": 0}
        for verdict in self.verdicts:
            counts[verdict.status] += 1
        return counts

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro-bench-compare/1",
            "baseline": self.baseline_name,
            "candidate": self.candidate_name,
            "tolerance": self.tolerance,
            "alpha": self.alpha,
            "counts": self.summary_counts(),
            "comparisons": [
                {
                    "benchmark": v.unit.benchmark,
                    "params": v.unit.params,
                    "metric": v.unit.metric,
                    "direction": v.unit.direction,
                    "status": v.status,
                    "baseline_median": v.unit.medians.get(BASELINE),
                    "candidate_median": v.unit.medians.get(CANDIDATE),
                    "delta_relative": v.delta_relative,
                    "p_value": v.p_value,
                    "effect_a12": v.effect_a12,
                    "detail": v.detail,
                    "phase_deltas": v.phase_deltas,
                }
                for v in self.verdicts
            ],
        }

    def render(self) -> str:
        counts = self.summary_counts()
        lines = [
            f"bench-compare: baseline={self.baseline_name} "
            f"candidate={self.candidate_name} "
            f"tolerance={self.tolerance:.1%} alpha={self.alpha}",
            f"  {counts['ok']} ok, {counts['improved']} improved, "
            f"{counts['regression']} regressions, {counts['missing']} missing",
        ]
        for verdict in self.verdicts:
            if verdict.status != "ok":
                lines.append("  " + verdict.describe())
        return "\n".join(lines)


def compare_results(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    alpha: float = DEFAULT_ALPHA,
) -> GateReport:
    """Gate two validated result documents: the two-variant report,
    read from the baseline's perspective.

    Every baseline unit gets a verdict; extra candidate coverage is
    ignored.  A unit the candidate lacks is ``missing`` (matrix subsets
    — smoke vs full — are routine, but dropped coverage stays visible).
    Otherwise it is a ``regression`` when (1) the median-of-repeats
    moves in the metric's bad direction by more than ``tolerance``
    (relative) and (2), if both sides carry >= ``MIN_SAMPLES_FOR_TEST``
    repeats, the unit's Mann–Whitney test also rejects the no-change
    null (p < ``alpha``), so repeat noise cannot trip the gate; with
    fewer repeats the median delta alone decides, which is sound
    because single-repeat runs of the deterministic simulator are
    bit-stable.  The mirror-image move is ``improved``, the rest ``ok``.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    grouping = group_by_files([(BASELINE, baseline), (CANDIDATE, candidate)])
    report = analyze(grouping, alpha=alpha)
    # what the candidate covers at all, to say *what* is missing
    covered = set()
    for analysis in report.units:
        if CANDIDATE in analysis.unit.medians:
            covered.add(analysis.unit.benchmark)
            covered.add(analysis.unit.key[:2])
    verdicts: List[Verdict] = []
    for analysis in report.units:
        unit = analysis.unit
        if BASELINE not in unit.medians:
            continue
        if CANDIDATE not in unit.medians:
            why = (
                "benchmark absent from candidate"
                if unit.benchmark not in covered
                else "matrix point absent from candidate"
                if unit.key[:2] not in covered
                else "metric absent from candidate"
            )
            verdicts.append(Verdict(unit, "missing", detail=why))
            continue
        verdict = _verdict(analysis, tolerance, alpha)
        if verdict.status == "regression":
            verdict.phase_deltas = _phase_deltas(report.phases.get(unit.key[:2]))
        verdicts.append(verdict)
    return GateReport(
        baseline_name=baseline["run_name"],
        candidate_name=candidate["run_name"],
        tolerance=tolerance,
        alpha=alpha,
        verdicts=verdicts,
    )


def _verdict(analysis: UnitAnalysis, tolerance: float, alpha: float) -> Verdict:
    unit = analysis.unit
    base_median, cand_median = unit.medians[BASELINE], unit.medians[CANDIDATE]
    if base_median is None or cand_median is None:
        return Verdict(
            unit, "missing", detail="median is null (non-finite measurement)"
        )
    if base_median == 0:
        delta = 0.0 if cand_median == 0 else math.inf
    else:
        delta = (cand_median - base_median) / abs(base_median)
    verdict = Verdict(
        unit, "ok", delta_relative=delta if math.isfinite(delta) else None
    )
    worse = delta > tolerance if unit.direction == "lower" else delta < -tolerance
    better = delta < -tolerance if unit.direction == "lower" else delta > tolerance

    repeats = min(len(unit.samples[BASELINE]), len(unit.samples[CANDIDATE]))
    if repeats >= MIN_SAMPLES_FOR_TEST:
        (cell,) = analysis.pairwise
        verdict.p_value = cell.p_value
        verdict.effect_a12 = cell.effect_of(CANDIDATE)
        if cell.p_value >= alpha:
            # the median moved, but the distributions are not
            # distinguishable: treat as noise
            if worse:
                verdict.detail = "median delta beyond tolerance but p >= alpha"
            worse = better = False

    if worse:
        verdict.status = "regression"
        verdict.detail = (
            f"median moved {delta:+.1%} in the bad direction "
            f"(tolerance {tolerance:.1%})"
        )
    elif better:
        verdict.status = "improved"
    return verdict


def _phase_deltas(
    entry: Optional[Mapping[str, Any]],
) -> Optional[Dict[str, Dict[str, float]]]:
    """Mean per-phase movement at a point whose baseline and candidate
    both carry a ``phases`` breakdown; None otherwise."""
    columns = entry["columns"] if entry else {}
    if BASELINE not in columns or CANDIDATE not in columns:
        return None
    deltas: Dict[str, Dict[str, float]] = {}
    for label, samples in columns[BASELINE].items():
        base_values = _finite(samples)
        cand_values = _finite(columns[CANDIDATE].get(label, []))
        if not base_values or not cand_values:
            continue
        base_mean = sum(base_values) / len(base_values)
        cand_mean = sum(cand_values) / len(cand_values)
        deltas[label] = {
            "baseline": base_mean,
            "candidate": cand_mean,
            "delta": cand_mean - base_mean,
        }
    return deltas or None


def gate(report: GateReport, strict_missing: bool = False) -> int:
    """Process exit code for a gate report."""
    if report.regressions:
        return 1
    if strict_missing and report.missing:
        return 1
    return 0
