"""Shared statistical kernels for benchmark comparison and reporting.

Everything :mod:`repro.bench.report` (the N-way fuzzbench-style
ranking and its two-variant reading, the regression gate) needs in one
dependency-free module:

- :func:`rankdata` / :func:`mann_whitney_u` — the rank machinery and
  the two-sided U test (normal approximation, tie + continuity
  corrections) that the regression gate has used since PR 2;
- :func:`a12` — the Vargha–Delaney A12 effect size (probability that a
  sample from *a* exceeds a sample from *b*, counting ties as half),
  with :func:`a12_magnitude` mapping |A12 − 0.5| onto the conventional
  negligible/small/medium/large bands;
- :func:`rank_by_median` — direction-aware competition-free ranking of
  N variants at one measurement unit (best = rank 1, ties averaged),
  and :func:`mean_ranks` aggregating those per-unit ranks across the
  whole suite — fuzzbench's rank-by-median aggregation;
- :func:`critical_difference` — the Nemenyi critical difference for
  mean ranks over ``units`` blocks and ``k`` variants at α ∈ {0.05,
  0.10} (Demšar 2006 table), and :func:`cd_groups` turning mean ranks
  into the maximal indistinguishable segments a CD diagram would draw;
- :func:`sparkline` — unicode block-character series for the
  regression-history section of the report.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


def rankdata(values: Sequence[float]) -> List[float]:
    """Ranks (1-based) with ties assigned their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-sided Mann-Whitney U test, normal approximation with tie
    correction and continuity correction.

    Returns ``(U, p_value)`` where ``U`` is the statistic of sample
    ``a``.  Identical samples (zero rank variance) give ``p = 1.0``.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    combined = list(a) + list(b)
    ranks = rankdata(combined)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    # tie correction to the variance
    tie_term = 0.0
    seen: Dict[float, int] = {}
    for value in combined:
        seen[value] = seen.get(value, 0) + 1
    for count in seen.values():
        tie_term += count**3 - count
    sigma_sq = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma_sq <= 0:
        return u1, 1.0
    # continuity correction toward the mean
    z = (u1 - mu - math.copysign(0.5, u1 - mu)) / math.sqrt(sigma_sq)
    if u1 == mu:
        z = 0.0
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return u1, min(1.0, p)


def a12(a: Sequence[float], b: Sequence[float]) -> float:
    """Vargha-Delaney A12 effect size of sample ``a`` over ``b``.

    The probability that a randomly drawn value of ``a`` is larger than
    a randomly drawn value of ``b``, counting ties as half a win:
    ``0.5`` means stochastically equal, ``1.0`` means every ``a`` beats
    every ``b``.  Computed from the same rank sums as the U test, so
    ``a12 == U1 / (n1 * n2)``.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    ranks = rankdata(list(a) + list(b))
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    return u1 / (n1 * n2)


#: |A12 - 0.5| thresholds of the conventional magnitude bands
#: (Vargha & Delaney 2000): beyond 0.21 large, 0.14 medium, 0.06 small.
A12_MAGNITUDES = (
    (0.21, "large"),
    (0.14, "medium"),
    (0.06, "small"),
)


def a12_magnitude(value: float) -> str:
    """Conventional label for an A12 effect size."""
    distance = abs(value - 0.5)
    for threshold, label in A12_MAGNITUDES:
        if distance >= threshold:
            return label
    return "negligible"


def rank_by_median(
    medians: Mapping[str, float], direction: str
) -> Dict[str, float]:
    """Rank variants at one measurement unit by their median.

    The best variant gets rank 1 (direction-aware: the highest median
    when ``direction`` is ``"higher"``, the lowest when ``"lower"``);
    ties share the average of the ranks they span.
    """
    if direction not in ("higher", "lower"):
        raise ValueError(f"direction must be 'higher' or 'lower', got {direction!r}")
    names = sorted(medians)
    sign = -1.0 if direction == "higher" else 1.0
    ranks = rankdata([sign * medians[name] for name in names])
    return dict(zip(names, ranks))


def mean_ranks(
    per_unit_ranks: Sequence[Mapping[str, float]],
) -> Dict[str, float]:
    """Average each variant's per-unit rank across all units.

    Every unit must rank the same variant set (a blocked design —
    incomplete units must be filtered out before aggregation).
    """
    if not per_unit_ranks:
        return {}
    variants = set(per_unit_ranks[0])
    totals = {name: 0.0 for name in variants}
    for ranks in per_unit_ranks:
        if set(ranks) != variants:
            raise ValueError(
                f"inconsistent variant sets: {sorted(variants)} vs {sorted(ranks)}"
            )
        for name, rank in ranks.items():
            totals[name] += rank
    count = len(per_unit_ranks)
    return {name: total / count for name, total in sorted(totals.items())}


#: Critical values of the studentized range statistic divided by
#: sqrt(2), for the Nemenyi post-hoc test (Demšar, "Statistical
#: comparisons of classifiers over multiple data sets", JMLR 2006,
#: Table 5), indexed by the number of compared variants k = 2..10.
_NEMENYI_Q = {
    0.05: {
        2: 1.960, 3: 2.343, 4: 2.569, 5: 2.728, 6: 2.850,
        7: 2.949, 8: 3.031, 9: 3.102, 10: 3.164,
    },
    0.10: {
        2: 1.645, 3: 2.052, 4: 2.291, 5: 2.459, 6: 2.589,
        7: 2.693, 8: 2.780, 9: 2.855, 10: 2.920,
    },
}


def critical_difference(
    k: int, units: int, alpha: float = 0.05
) -> Optional[float]:
    """Nemenyi critical difference between mean ranks.

    Two variants whose mean ranks (over ``units`` independent
    measurement units) differ by less than this are statistically
    indistinguishable at level ``alpha``.  Returns ``None`` when the
    tabulated critical values do not cover the request (k < 2, k > 10,
    no units, or an un-tabulated alpha).
    """
    table = _NEMENYI_Q.get(alpha)
    if table is None or k not in table or units <= 0:
        return None
    return table[k] * math.sqrt(k * (k + 1) / (6.0 * units))


def cd_groups(
    ranks: Mapping[str, float], cd: float
) -> List[Tuple[str, ...]]:
    """Maximal groups of variants whose mean ranks lie within ``cd``.

    The segments a critical-difference diagram would draw: variants are
    sorted by mean rank (best first) and every maximal run whose rank
    spread is <= ``cd`` becomes one group.  Groups of one (a variant
    distinguishable from all neighbours) are included, and groups fully
    contained in another are dropped.
    """
    ordered = sorted(ranks.items(), key=lambda item: (item[1], item[0]))
    groups: List[Tuple[str, ...]] = []
    for i in range(len(ordered)):
        j = i
        while j + 1 < len(ordered) and ordered[j + 1][1] - ordered[i][1] <= cd:
            j += 1
        group = tuple(name for name, _ in ordered[i : j + 1])
        if groups and set(group) <= set(groups[-1]):
            continue
        groups.append(group)
    return groups


#: Eight-level bar used by :func:`sparkline`.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[Optional[float]]) -> str:
    """Unicode block sparkline of a series; gaps render as ``·``.

    A constant (or single-point) series renders at mid height so the
    line reads as "flat", not "empty".
    """
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if not finite:
        return "·" * len(values)
    low, high = min(finite), max(finite)
    span = high - low
    chars = []
    for value in values:
        if value is None or not math.isfinite(value):
            chars.append("·")
        elif span == 0:
            chars.append(SPARK_BLOCKS[3])
        else:
            level = int((value - low) / span * (len(SPARK_BLOCKS) - 1))
            chars.append(SPARK_BLOCKS[level])
    return "".join(chars)
