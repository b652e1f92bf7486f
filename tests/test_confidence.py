"""Interval helpers used by the Monte Carlo comparisons."""

import numpy as np
import pytest

from helpers import wilson_oracle
from ustatlab.confidence import (
    _z_score,
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
        z = _z_score(0.95)
        expected = np.array([wilson_oracle(int(k), trials, z) for k in counts])
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
