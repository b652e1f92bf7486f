"""Interval helpers used by the Monte Carlo comparisons."""

import math

import numpy as np
import pytest
from scipy import stats

from helpers import quantile_interval_oracle, wilson_oracle
from ustatlab.confidence import (
    _Z95,
    _binom_ppf,
    mean_interval,
    quantile_interval,
    wilson_bounds,
    wilson_interval,
)


class TestWilson:
    def test_boundaries_are_exact(self):
        lo, hi = wilson_interval(0, 500)
        assert lo == 0.0
        assert hi > 0.0
        lo, hi = wilson_interval(500, 500)
        assert lo < 1.0
        assert hi == 1.0

    def test_brackets_the_proportion(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_narrows_with_more_trials(self):
        lo1, hi1 = wilson_interval(30, 100)
        lo2, hi2 = wilson_interval(3000, 10_000)
        assert hi2 - lo2 < hi1 - lo1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    @pytest.mark.parametrize("trials", [1, 7, 4000])
    def test_array_form_matches_the_scalar_formula(self, trials):
        counts = np.arange(trials + 1)
        lo, hi = wilson_bounds(counts, trials)
        expected = np.array([wilson_oracle(int(k), trials, _Z95) for k in counts])
        np.testing.assert_array_equal(np.stack([lo, hi], axis=1), expected)
        scalar = np.array([wilson_interval(int(k), trials) for k in counts])
        np.testing.assert_array_equal(scalar, expected)
        assert lo[0] == 0.0 and hi[-1] == 1.0

    def test_array_form_validates_every_count(self):
        with pytest.raises(ValueError):
            wilson_bounds(np.array([0, 3, -1]), 10)
        with pytest.raises(ValueError):
            wilson_bounds(np.array([0, 11]), 10)


def test_mean_interval_brackets_a_gaussian_mean():
    rng = np.random.default_rng(71)
    values = rng.normal(loc=2.0, size=4000)
    mean, lo, hi = mean_interval(values)
    assert lo < mean < hi
    assert lo < 2.0 < hi
    with pytest.raises(ValueError):
        mean_interval(np.array([1.0]))


def test_quantile_interval_orders_its_outputs():
    rng = np.random.default_rng(72)
    values = rng.normal(size=2000)
    est, lo, hi = quantile_interval(values, 0.9)
    assert lo <= est <= hi
    true = float(np.quantile(values, 0.9))
    assert est == pytest.approx(true)
    with pytest.raises(ValueError):
        quantile_interval(values, 1.5)


def test_quantile_interval_refuses_nan():
    """A sort puts NaN last, where it would be read as the largest value."""
    with pytest.raises(ValueError, match="must not be NaN"):
        quantile_interval(np.array([1.0, np.nan, 2.0, 3.0]), 0.5)


@pytest.mark.parametrize("values", [[], [1.0]])
def test_quantile_interval_needs_two_values(values):
    with pytest.raises(ValueError, match="need at least 2 values"):
        quantile_interval(np.array(values), 0.5)


def test_z95_is_scipys_normal_quantile():
    assert _Z95 == float(stats.norm.ppf(0.5 + 0.95 / 2.0))


# the two levels quantile_interval asks for, with the bits it computes them with
_ALPHA = 1.0 - 0.95
_TAILS = (_ALPHA / 2.0, 1.0 - _ALPHA / 2.0)
_QS = [0.5, 0.9, 0.95, 0.1, 0.99, 0.75, 0.05, 0.01, 0.999] + list(
    np.random.default_rng(73).uniform(size=20)
)


class TestBinomialQuantile:
    def test_matches_scipy_at_both_tails(self):
        ns = np.array(list(range(2, 401)) + [1200, 4000, 10**5])
        ref = stats.binom.ppf(np.reshape(_TAILS, (2, 1, 1)), ns[:, None], _QS)
        got = [[[_binom_ppf(p, int(n), q) for q in _QS] for n in ns] for p in _TAILS]
        np.testing.assert_array_equal(got, ref)

    # dyadic cases where the summed cdf hits p exactly
    @pytest.mark.parametrize(
        "p, n, q", [(0.5, 1, 0.5), (0.75, 1, 0.25), (0.25, 2, 0.5), (0.5, 37, 0.5)]
    )
    def test_a_cdf_value_equal_to_p_is_the_quantile(self, p, n, q):
        assert _binom_ppf(p, n, q) == int(stats.binom.ppf(p, n, q))

    @pytest.mark.parametrize("n, q", [(2, 0.5), (4, 0.25), (8, 0.9), (9, 0.99), (12, 0.75)])
    def test_a_cdf_ending_below_p_gives_n(self, n, q):
        assert _binom_ppf(1.0, n, q) == n == int(stats.binom.ppf(1.0, n, q))


class TestQuantileIntervalOracle:
    @pytest.mark.parametrize("n", [2, 3, 17, 400, 1200])
    @pytest.mark.parametrize("q", [1e-9, 0.001, 0.05, 0.5, 0.9, 0.999, 1.0 - 1e-9])
    def test_bit_equal_to_the_scipy_form(self, n, q):
        rng = np.random.default_rng(n)
        ties = rng.integers(0, 5, size=n).astype(np.float64)
        spread = rng.normal(size=n)
        for values in (ties, spread):
            assert quantile_interval(values, q) == quantile_interval_oracle(values, q)


class TestEstimateFromTheSortedValues:
    """The estimate is np.quantile's linear rule read off the sorted values."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_np_quantile_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        # np.quantile partitions instead of sorting, so among tied values it may
        # pick -0 where the sort picks +0; no -0 here, since the callers pass norms
        qs = [1e-9, 0.5, 0.9, 1.0 - 2.0**-53, *rng.uniform(size=30)]
        for n in [2, 3, 4, 9, 40, 1201]:
            for values in (
                rng.integers(0, 4, size=n).astype(np.float64),
                rng.integers(-3, 4, size=n) * 0.1 + 0.0,  # + 0.0 turns -0 into +0
                rng.choice([0.0, 1.0, np.inf, 1e300], size=n),
                rng.normal(size=n),
            ):
                for q in qs:
                    with np.errstate(invalid="ignore"):  # inf - inf, in both
                        want = np.float64(np.quantile(values, q))
                        got = np.float64(quantile_interval(values, q)[0])
                    assert got.tobytes() == want.tobytes()


class TestOneBinomialCdf:
    """Both order-statistic bounds read one cdf, built from one lgamma table."""

    @pytest.mark.parametrize("n, q", [(2, 0.5), (400, 0.9), (1200, 0.05)])
    def test_levels_together_equal_levels_alone(self, n, q):
        both = _binom_ppf(list(_TAILS), n, q)
        assert both.tolist() == [_binom_ppf(p, n, q) for p in _TAILS]

    def test_one_lgamma_table_per_interval(self, monkeypatch):
        calls = []
        original = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or original(x))
        quantile_interval(np.arange(1200.0), 0.9)
        assert len(calls) == 1201
