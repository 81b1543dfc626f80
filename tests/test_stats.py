"""Metrics and the rank-sum test, checked against brute-force arithmetic."""

import math
import struct
from dataclasses import dataclass
from itertools import combinations
from random import Random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slumpgp.stats import (
    BoxSummary,
    RankSumResult,
    StatsError,
    box_summary,
    pearson_r,
    relative_errors,
    rmse,
    wilcoxon_rank_sum,
)

# Six later table rows: measured slump vs a model's output, frozen from a
# hand calculation over the printed values.
EXPERIMENT = (129.0, 113.0, 126.0, 142.0, 127.0, 123.0)
COMPUTED = (130.9, 111.5, 125.2, 148.6, 131.9, 128.6)
FROZEN_R = 0.9769395260274593
FROZEN_RMSE = 4.19185718586245
FROZEN_REL = (
    0.01472868217054268,
    0.01327433628318584,
    0.006349206349206327,
    0.04647887323943658,
    0.03858267716535438,
    0.0455284552845528,
)


METRICS = (pearson_r, rmse, relative_errors)


class TestPairedSeries:
    """Each metric checks its pair of series, as the `PairedSeries` wrapper did."""

    def test_length_mismatch_rejected(self):
        for metric in METRICS:
            with pytest.raises(StatsError, match="series lengths differ: 2 vs 1"):
                metric((1.0, 2.0), (1.0,))

    def test_empty_rejected(self):
        for metric in METRICS:
            with pytest.raises(StatsError, match="series must be non-empty"):
                metric((), ())

    def test_nonfinite_rejected(self):
        # Only the correlation rejects it; see the module docstring of stats.
        with pytest.raises(StatsError, match="series entries must be finite, got nan"):
            pearson_r((1.0, math.nan), (1.0, 2.0))
        assert rmse((1.0, math.nan), (1.0, 2.0)) == math.inf
        first, second = relative_errors((1.0, math.nan), (1.0, 2.0))
        assert first == 0.0 and math.isnan(second)


# The metrics before they took (y, y_hat): `PairedSeries` converted and
# checked the pair, and cli._safe_rmse mapped a non-finite prediction to
# +inf before it built one; predict wrote abs(p - y) / y as the relative
# error. Kept here as the reference the metrics must match bit for bit.


@dataclass(frozen=True)
class PairedSeries:
    experimental: tuple[float, ...]
    computational: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "experimental", tuple(float(v) for v in self.experimental))
        object.__setattr__(self, "computational", tuple(float(v) for v in self.computational))
        if len(self.experimental) != len(self.computational):
            raise StatsError(
                f"series lengths differ: {len(self.experimental)} vs {len(self.computational)}"
            )
        if not self.experimental:
            raise StatsError("series must be non-empty")
        for v in self.experimental + self.computational:
            if not math.isfinite(v):
                raise StatsError(f"series entries must be finite, got {v!r}")


def reference_pearson_r(y, y_hat) -> float:
    s = PairedSeries(tuple(y), tuple(y_hat))
    y, yp = s.experimental, s.computational
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


def reference_rmse(actual, predicted) -> float:
    if not np.isfinite(predicted).all():
        return math.inf
    s = PairedSeries(tuple(actual), tuple(predicted))
    try:
        sq = sum((a - b) ** 2 for a, b in zip(s.experimental, s.computational))
    except OverflowError:
        return math.inf
    return math.sqrt(sq / len(s.experimental))


def reference_relative_errors(targets, predictions) -> tuple[float, ...]:
    return tuple(
        abs(pred - actual) / actual
        for actual, pred in zip(np.asarray(targets).tolist(), np.asarray(predictions).tolist())
    )


def outcome(metric, y, y_hat):
    """metric's value as the bytes of its floats, or its StatsError as text."""
    try:
        value = metric(y, y_hat)
    except StatsError as exc:
        return f"StatsError: {exc}"
    return b"".join(struct.pack("<d", v) for v in np.atleast_1d(value).tolist())


# Outputs as an overflowed model gives them: finite, ±inf or NaN.
OUTPUTS = st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def paired(draw, measured, min_size=0):
    """Measured values and outputs of one length, as numpy arrays or tuples."""
    n = draw(st.integers(min_size, 8))
    y = draw(st.lists(measured, min_size=n, max_size=n))
    y_hat = draw(st.lists(OUTPUTS, min_size=n, max_size=n))
    container = draw(st.sampled_from([np.array, tuple]))
    return container(y), container(y_hat)


class TestOneOracle:
    """Every metric gives the reference's value bits, or its StatsError.

    For `rmse` the measured values are finite, as a Dataset's targets are:
    the reference rejected a non-finite one, and rmse is +inf there. For
    the relative errors they are positive, as every slump is.
    """

    @given(paired(st.floats(allow_nan=False, allow_infinity=False)))
    @example(((0.0, 1.0), (1e200, 1.0)))
    @example(((1.0, 2.0), (math.inf, math.nan)))
    def test_rmse(self, pair):
        assert outcome(rmse, *pair) == outcome(reference_rmse, *pair)

    @given(paired(OUTPUTS))
    @example((np.array([1.0, 2.0, 3.0]), np.array([1e200, -3e200, 2e200])))
    @example(((1.0, math.inf), (math.nan, 2.0)))
    def test_pearson_r(self, pair):
        assert outcome(pearson_r, *pair) == outcome(reference_pearson_r, *pair)

    @given(paired(st.floats(min_value=5e-324, allow_infinity=False), min_size=1))
    @example(((1.0, 2.0, 3.0), (math.nan, math.inf, -math.inf)))
    @example(((5e-324,), (1e308,)))
    def test_relative_errors(self, pair):
        assert outcome(relative_errors, *pair) == outcome(reference_relative_errors, *pair)


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson_r((1, 2, 3), (1, 2, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        assert pearson_r((1, 2, 3), (-1, -2, -3)) == pytest.approx(-1.0, abs=1e-12)

    def test_frozen_table_value(self):
        assert pearson_r(EXPERIMENT, COMPUTED) == pytest.approx(FROZEN_R, abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(StatsError):
            pearson_r((2, 2, 2), (1, 2, 3))
        with pytest.raises(StatsError):
            pearson_r((1, 2, 3), (5, 5, 5))

    def test_single_point_rejected(self):
        with pytest.raises(StatsError):
            pearson_r((1,), (2,))

    def test_overflowing_sums_rejected(self):
        # Each square overflows to inf, so a denominator is inf − inf = NaN.
        with pytest.raises(StatsError, match="overflows"):
            pearson_r((1, 2, 3), (1e200, -3e200, 2e200))
        with pytest.raises(StatsError, match="overflows"):
            pearson_r((1e200, -3e200, 2e200), (1, 2, 3))

    def test_affine_invariance_fuzz(self):
        rng = Random(101)
        for _ in range(100):
            n = rng.randrange(3, 12)
            y = [rng.gauss(0, 10) for _ in range(n)]
            yp = [v + rng.gauss(0, 5) for v in y]
            base = pearson_r(y, yp)
            a, b = rng.uniform(0.1, 5), rng.uniform(-20, 20)
            assert pearson_r([a * v + b for v in y], yp) == pytest.approx(base, abs=1e-10)
            assert pearson_r([-a * v + b for v in y], yp) == pytest.approx(-base, abs=1e-10)

    def test_matches_scipy_fuzz(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = Random(103)
        for _ in range(50):
            n = rng.randrange(3, 20)
            y = [rng.gauss(50, 10) for _ in range(n)]
            yp = [rng.gauss(50, 10) for _ in range(n)]
            expected = scipy_stats.pearsonr(y, yp).statistic
            assert pearson_r(y, yp) == pytest.approx(expected, abs=1e-10)

    def test_bounded(self):
        rng = Random(107)
        for _ in range(100):
            n = rng.randrange(2, 10)
            y = [rng.random() for _ in range(n)]
            yp = [rng.random() for _ in range(n)]
            if len(set(y)) == 1 or len(set(yp)) == 1:
                continue
            assert -1.0 - 1e-12 <= pearson_r(y, yp) <= 1.0 + 1e-12


class TestRmse:
    def test_zero_on_identity(self):
        assert rmse((1, 2, 3), (1, 2, 3)) == 0.0

    def test_forced_arithmetic(self):
        assert rmse((0, 0), (3, 4)) == pytest.approx(math.sqrt(12.5), abs=1e-15)

    def test_frozen_table_value(self):
        assert rmse(EXPERIMENT, COMPUTED) == pytest.approx(FROZEN_RMSE, abs=1e-12)

    def test_symmetry_and_zero_iff_equal(self):
        rng = Random(109)
        for _ in range(100):
            n = rng.randrange(1, 10)
            y = [rng.random() for _ in range(n)]
            yp = [rng.random() for _ in range(n)]
            assert rmse(y, yp) == rmse(yp, y)
            assert (rmse(y, yp) == 0.0) == (y == yp)

    def test_single_pair(self):
        assert rmse((5,), (7,)) == pytest.approx(2.0, abs=1e-15)

    def test_overflowing_square_is_inf(self):
        # float ** raises OverflowError where float * would give inf.
        assert rmse((0.0, 1.0), (1e200, 1.0)) == math.inf
        assert rmse((-1e308,), (1e308,)) == math.inf


class TestRelativeErrors:
    def test_zero_on_identity(self):
        assert relative_errors((1, 2), (1, 2)) == (0.0, 0.0)

    def test_frozen_values(self):
        got = relative_errors(EXPERIMENT, COMPUTED)
        assert got == pytest.approx(FROZEN_REL, abs=1e-12)
        assert got[0] == pytest.approx(0.01473, abs=5e-6)
        assert max(got) < 0.05

    def test_zero_experimental_rejected(self):
        with pytest.raises(StatsError):
            relative_errors((0.0, 1.0), (1.0, 1.0))


class TestBoxSummary:
    def test_odd_length_exact_positions(self):
        b = box_summary((1, 2, 3, 4, 5))
        assert (b.min, b.q1, b.median, b.q3, b.max, b.iqr) == (1, 2, 3, 4, 5, 2)

    def test_singleton(self):
        b = box_summary((7,))
        assert (b.min, b.q1, b.median, b.q3, b.max) == (7, 7, 7, 7, 7)
        assert b.iqr == 0.0

    def test_interpolated_positions(self):
        b = box_summary((1, 2, 3, 4))
        assert b.q1 == pytest.approx(1.75, abs=1e-15)
        assert b.q3 == pytest.approx(3.25, abs=1e-15)
        assert b.iqr == pytest.approx(1.5, abs=1e-15)

    def test_permutation_invariance(self):
        rng = Random(113)
        for _ in range(50):
            xs = [rng.random() for _ in range(rng.randrange(1, 15))]
            shuffled = xs[:]
            rng.shuffle(shuffled)
            assert box_summary(xs) == box_summary(shuffled)

    def test_ordering_invariant(self):
        rng = Random(127)
        for _ in range(100):
            xs = [rng.gauss(0, 1) for _ in range(rng.randrange(1, 20))]
            b = box_summary(xs)
            assert b.min <= b.q1 <= b.median <= b.q3 <= b.max
            assert b.iqr == pytest.approx(b.q3 - b.q1, abs=1e-15)

    def test_matches_numpy_linear_interpolation(self):
        rng = Random(131)
        for _ in range(60):
            xs = [rng.uniform(-50, 50) for _ in range(rng.randrange(1, 25))]
            b = box_summary(xs)
            q1, med, q3 = np.percentile(xs, [25, 50, 75])
            assert b.q1 == pytest.approx(q1, abs=1e-12)
            assert b.median == pytest.approx(med, abs=1e-12)
            assert b.q3 == pytest.approx(q3, abs=1e-12)

    @given(
        st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.inf)),
            min_size=1,
            max_size=12,
        )
    )
    # Rounding alone misordered or overshot these: equal and adjacent floats
    # near the subnormals, and neighbours near the largest float.
    @example([4.074919112474914e-308, 4.074919112474914e-308])
    @example([6.948674738744655e-309, 6.94867473874466e-309])
    @example([4.325796368888336e306, 4.325796368888337e306])
    @example([6.937056072972547e-309, 6.937056072972547e-309])
    @example([5.64321652794626e-309, 5.64321652794626e-309, 5.643216527946266e-309])
    @example([1.7976931348623157e308, 1.7976931348623157e308])
    @example([1.0, math.inf])
    def test_accepts_finite_or_inf_values(self, xs):
        b = box_summary(xs)
        assert (b.min, b.max) == (min(xs), max(xs))
        assert math.isnan(b.iqr) == (b.q1 == math.inf)

    def test_inf_quartile_pair_has_nan_iqr(self):
        b = box_summary([1.0, math.inf])
        assert (b.min, b.q1, b.median, b.q3, b.max) == (1.0, math.inf, math.inf, math.inf, math.inf)
        assert math.isnan(b.iqr)
        with pytest.raises(StatsError):
            BoxSummary(min=1.0, q1=math.inf, median=math.inf, q3=math.inf, max=math.inf, iqr=0.0)

    def test_monotone_map_compatibility(self):
        xs = (3.0, 1.0, 4.0, 1.5, 9.0)
        b = box_summary(xs)
        b2 = box_summary(tuple(2 * x + 1 for x in xs))
        assert b2.min == 2 * b.min + 1
        assert b2.median == 2 * b.median + 1
        assert b2.max == 2 * b.max + 1


def enumerate_rank_sum_p(a, b):
    """Brute-force exact two-sided p: enumerate all label assignments."""
    pooled = sorted(a) + sorted(b)
    assert len(set(pooled)) == len(pooled), "oracle assumes no ties"
    ranks = {v: i + 1 for i, v in enumerate(sorted(pooled))}
    w = sum(ranks[v] for v in a)
    mu = len(a) * (len(pooled) + 1) / 2
    hits = 0
    total = 0
    for subset in combinations(pooled, len(a)):
        total += 1
        if abs(sum(ranks[v] for v in subset) - mu) >= abs(w - mu):
            hits += 1
    return hits / total


class TestWilcoxon:
    def test_most_extreme_separation(self):
        res = wilcoxon_rank_sum((1, 2, 3), (101, 102, 103))
        assert res.method == "exact"
        assert res.statistic == 6.0  # ranks 1+2+3
        assert res.p_value == pytest.approx(0.1, abs=1e-15)

    def test_identical_samples_no_separation(self):
        res = wilcoxon_rank_sum((5.0, 6.0, 7.0), (5.0, 6.0, 7.0))
        assert res.method == "normal-approximation"  # ties force the approximation
        assert res.p_value >= 0.99

    def test_exact_matches_enumeration_oracle(self):
        rng = Random(137)
        for _ in range(40):
            a = [rng.uniform(0, 100) for _ in range(rng.randrange(2, 7))]
            b = [rng.uniform(0, 100) for _ in range(rng.randrange(2, 13 - len(a)))]
            res = wilcoxon_rank_sum(a, b)
            assert res.method == "exact"
            assert res.p_value == pytest.approx(enumerate_rank_sum_p(a, b), abs=1e-12)

    def test_exact_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = Random(139)
        for _ in range(30):
            a = [rng.uniform(0, 100) for _ in range(rng.randrange(2, 7))]
            b = [rng.uniform(0, 100) for _ in range(rng.randrange(2, 13 - len(a)))]
            expected = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert wilcoxon_rank_sum(a, b).p_value == pytest.approx(expected.pvalue, abs=1e-12)

    def test_approximation_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = Random(149)
        for _ in range(30):
            a = [rng.uniform(0, 100) for _ in range(rng.randrange(8, 20))]
            b = [rng.uniform(0, 100) for _ in range(rng.randrange(8, 20))]
            res = wilcoxon_rank_sum(a, b)
            assert res.method == "normal-approximation"
            expected = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
            assert res.p_value == pytest.approx(expected.pvalue, rel=1e-9)

    def test_exact_vs_approximation_agreement(self):
        rng = Random(151)
        for _ in range(40):
            a = [rng.uniform(0, 100) for _ in range(6)]
            b = [rng.uniform(0, 100) for _ in range(6)]
            p_exact = wilcoxon_rank_sum(a, b, method="exact").p_value
            p_norm = wilcoxon_rank_sum(a, b, method="normal-approximation").p_value
            assert abs(p_exact - p_norm) < 0.03
            # both land on the same side of 0.5 (or touch it)
            assert (p_exact - 0.5) * (p_norm - 0.5) >= 0 or min(p_exact, p_norm) > 0.4

    def test_symmetry_in_arguments(self):
        rng = Random(157)
        for _ in range(30):
            a = [rng.uniform(0, 10) for _ in range(rng.randrange(2, 9))]
            b = [rng.uniform(0, 10) for _ in range(rng.randrange(2, 9))]
            assert wilcoxon_rank_sum(a, b).p_value == pytest.approx(
                wilcoxon_rank_sum(b, a).p_value, abs=1e-12
            )

    def test_p_value_range(self):
        rng = Random(163)
        for _ in range(60):
            a = [rng.choice([1.0, 2.0, 3.0, 50.0]) for _ in range(rng.randrange(2, 10))]
            b = [rng.choice([1.0, 2.0, 3.0, 50.0]) for _ in range(rng.randrange(2, 10))]
            res = wilcoxon_rank_sum(a, b)
            assert 0.0 < res.p_value <= 1.0

    def test_ties_use_midranks(self):
        # (1, 2) vs (2, 3): the shared value 2 takes midrank 2.5
        res = wilcoxon_rank_sum((1.0, 2.0), (2.0, 3.0))
        assert res.statistic == pytest.approx(3.5)

    def test_large_separation_small_p(self):
        a = list(range(20))
        b = list(range(100, 120))
        assert wilcoxon_rank_sum(a, b).p_value < 1e-6

    def test_method_override(self):
        res = wilcoxon_rank_sum((1, 2, 3), (4, 5, 6), method="normal-approximation")
        assert res.method == "normal-approximation"
        with pytest.raises(StatsError):
            wilcoxon_rank_sum((1, 2), (3, 4), method="bogus")

    def test_forced_exact_refuses_past_its_limit(self):
        # The limit is the default route's, one past it is refused; larger
        # sizes are not run, since their enumeration would not end.
        a, b = list(range(6)), list(range(100, 107))
        with pytest.raises(StatsError, match="exact method needs a combined size <= 12, got 13"):
            wilcoxon_rank_sum(a, b, method="exact")
        assert wilcoxon_rank_sum(a, b).method == "normal-approximation"
        assert wilcoxon_rank_sum(a[:5], b, method="exact").method == "exact"


class TestResultTypes:
    def test_box_summary_validation(self):
        with pytest.raises(StatsError):
            BoxSummary(min=5, q1=1, median=2, q3=3, max=4, iqr=2)

    def test_rank_sum_result_validation(self):
        with pytest.raises(StatsError):
            RankSumResult(statistic=1.0, p_value=1.5, method="exact")
