"""Evaluation metrics and rank-based comparison tests.

Everything here is a pure function over plain sequences; nothing depends
on the learning code. The metrics take measured values y and a model's
outputs y_hat, of the same nonzero length, as numpy arrays, lists or
tuples. An entry that is not finite, as an overflowed prediction is, makes
`rmse` +inf and `pearson_r` raise StatsError, and gives NaN or +inf in its
entry of `relative_errors`. The Wilcoxon implementation enumerates the exact
null distribution for small tie-free samples and otherwise falls back to
the tie-corrected normal approximation with continuity correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Sequence


class StatsError(ValueError):
    """Metric undefined for the given input."""


@dataclass(frozen=True)
class BoxSummary:
    """Five-number summary plus interquartile range; two +inf quartiles give a NaN iqr."""

    min: float
    q1: float
    median: float
    q3: float
    max: float
    iqr: float

    def __post_init__(self):
        if not self.min <= self.q1 <= self.median <= self.q3 <= self.max:
            raise StatsError("box summary fields must be ordered")
        if self.q1 == self.q3 == math.inf:
            if not math.isnan(self.iqr):
                raise StatsError("iqr of two +inf quartiles must be NaN")
        elif not math.isclose(self.iqr, self.q3 - self.q1, rel_tol=0.0, abs_tol=1e-12):
            raise StatsError("iqr must equal q3 - q1")


@dataclass(frozen=True)
class RankSumResult:
    """Two-sided Wilcoxon rank-sum outcome.

    statistic is the rank-sum of the first sample; method records whether
    the p-value came from exact enumeration or the normal approximation.
    """

    statistic: float
    p_value: float
    method: str

    def __post_init__(self):
        if not 0.0 < self.p_value <= 1.0:
            raise StatsError(f"p-value must be in (0, 1], got {self.p_value!r}")
        if self.method not in ("exact", "normal-approximation"):
            raise StatsError(f"unknown method {self.method!r}")


def _floats(y: Sequence[float], y_hat: Sequence[float]) -> tuple[list, list]:
    """y and y_hat as Python floats; float ** raises OverflowError where numpy's warns."""
    y, y_hat = list(map(float, y)), list(map(float, y_hat))
    if len(y) != len(y_hat):
        raise StatsError(f"series lengths differ: {len(y)} vs {len(y_hat)}")
    if not y:
        raise StatsError("series must be non-empty")
    return y, y_hat


def pearson_r(y: Sequence[float], y_hat: Sequence[float]) -> float:
    """Correlation coefficient between measured values y and model outputs y_hat.

    R = (n·Σyy′ − Σy·Σy′) / (√(n·Σy² − (Σy)²) · √(n·Σy′² − (Σy′)²))
    """
    y, yp = _floats(y, y_hat)
    for v in y + yp:
        if not math.isfinite(v):
            raise StatsError(f"series entries must be finite, got {v!r}")
    n = len(y)
    if n < 2:
        raise StatsError("correlation needs at least 2 pairs")
    sy = sum(y)
    syp = sum(yp)
    syyp = sum(a * b for a, b in zip(y, yp))
    syy = sum(a * a for a in y)
    sypyp = sum(b * b for b in yp)
    num = n * syyp - sy * syp
    den_y = n * syy - sy * sy
    den_yp = n * sypyp - syp * syp
    if not (math.isfinite(num) and math.isfinite(den_y) and math.isfinite(den_yp)):
        raise StatsError("correlation overflows on values this large")
    if den_y <= 0 or den_yp <= 0:
        raise StatsError("correlation undefined for a constant series")
    return num / (math.sqrt(den_y) * math.sqrt(den_yp))


def rmse(y: Sequence[float], y_hat: Sequence[float]) -> float:
    """Root mean square error between measured values y and model outputs y_hat.

    +inf when an entry is not finite or a square overflows.
    """
    y, y_hat = _floats(y, y_hat)
    try:
        sq = sum((a - b) ** 2 for a, b in zip(y, y_hat))
    except OverflowError:
        return math.inf
    # A NaN or infinite entry makes sq NaN or +inf.
    return math.inf if math.isnan(sq) else math.sqrt(sq / len(y))


def relative_errors(y: Sequence[float], y_hat: Sequence[float]) -> tuple[float, ...]:
    """Element-wise |y′ − y| / |y|, NaN or +inf where an entry is not finite; no y may be 0."""
    y, y_hat = _floats(y, y_hat)
    if 0.0 in y:
        raise StatsError("relative error undefined for a zero experimental value")
    return tuple(abs(b - a) / abs(a) for a, b in zip(y, y_hat))


def _quantile(sorted_xs: Sequence[float], q: float) -> float:
    pos = (len(sorted_xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return sorted_xs[lo]
    frac = pos - lo
    a, b = sorted_xs[lo], sorted_xs[hi]
    # Rounding can carry the sum past a or b, when they are equal or near
    # the largest float; the quantile lies between them.
    return min(max(a * (1.0 - frac) + b * frac, a), b)


def box_summary(xs: Sequence[float]) -> BoxSummary:
    """Five-number summary with quartiles by linear interpolation.

    The q-th quantile sits at position (n−1)·q in the sorted data;
    fractional positions interpolate between neighbours. The values may be
    finite or +inf.
    """
    if len(xs) == 0:
        raise StatsError("box summary needs at least one value")
    data = sorted(float(v) for v in xs)
    # Two values put all three quartiles between the same neighbours, where
    # rounding can order near-equal ones wrongly; none may fall below the last.
    q1, median, q3 = accumulate((_quantile(data, q) for q in (0.25, 0.5, 0.75)), max)
    return BoxSummary(
        min=data[0],
        q1=q1,
        median=median,
        q3=q3,
        max=data[-1],
        iqr=q3 - q1,
    )


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1
    return ranks


_EXACT_LIMIT = 12  # combined size up to which the exact null is enumerated


def wilcoxon_rank_sum(
    a: Sequence[float], b: Sequence[float], method: str | None = None
) -> RankSumResult:
    """Two-sided Wilcoxon rank-sum test; ties get midranks.

    With method=None the exact distribution is enumerated when the
    combined sample is small (≤ 12) and tie-free, otherwise the normal
    approximation with tie correction and continuity correction is used.
    Pass 'exact' or 'normal-approximation' to force a route. 'exact' enumerates
    every C(n, n_a) split of the ranks, so it raises StatsError for a combined
    size above 12: 20 + 20 values would take C(40, 20) ≈ 1.4 × 10¹¹ subsets.
    """
    if not a or not b:
        raise StatsError("both samples must be non-empty")
    if method not in (None, "exact", "normal-approximation"):
        raise StatsError(f"unknown method {method!r}")
    combined = [float(v) for v in a] + [float(v) for v in b]
    n_a, n = len(a), len(combined)
    if method == "exact" and n > _EXACT_LIMIT:
        raise StatsError(f"exact method needs a combined size <= {_EXACT_LIMIT}, got {n}")
    n_b = n - n_a
    ranks = _midranks(combined)
    w = sum(ranks[:n_a])
    mu = n_a * (n + 1) / 2.0
    has_ties = len(set(combined)) < n

    if method == "exact" or (method is None and n <= _EXACT_LIMIT and not has_ties):
        threshold = abs(w - mu)
        hits = 0
        total = 0
        for picks in combinations(ranks, n_a):
            total += 1
            if abs(sum(picks) - mu) >= threshold:
                hits += 1
        return RankSumResult(statistic=w, p_value=hits / total, method="exact")

    tie_term = 0.0
    seen: dict[float, int] = {}
    for v in combined:
        seen[v] = seen.get(v, 0) + 1
    for count in seen.values():
        tie_term += count**3 - count
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return RankSumResult(statistic=w, p_value=1.0, method="normal-approximation")
    z = max(0.0, abs(w - mu) - 0.5) / math.sqrt(var)
    # erfc underflows to 0.0 for extreme separations; keep p strictly positive
    p = max(math.erfc(z / math.sqrt(2.0)), math.ulp(0.0))
    return RankSumResult(statistic=w, p_value=p, method="normal-approximation")
