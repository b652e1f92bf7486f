"""95% confidence intervals for tail probabilities, means, and quantiles.

The level is fixed at 95%. The Wilson band (Wilson 1927) and mean interval
use `_Z95`, the 0.975 normal quantile as Cephes' `ndtri` gives it (one ulp
under the correctly rounded 1.9599639845400543), which every band so far
used; `statistics.NormalDist`, two ulps lower, would change their bits.

The quantile interval is the distribution-free one of David & Nagaraja
(*Order Statistics*, 3rd ed., 7.1): the order statistics at the 0.025 and
0.975 quantiles of Bin(n, q), each the first k whose cdf reaches the level,
the cdf being the running sum of the pmf built from log-factorials.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["wilson_bounds", "wilson_interval", "mean_interval", "quantile_interval"]

_Z95 = 1.959963984540054


def wilson_bounds(successes, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score bounds for an array of success counts out of `trials`."""
    if trials < 1:
        raise ValueError("trials must be positive")
    successes = np.asarray(successes)
    if np.any(successes < 0) or np.any(successes > trials):
        raise ValueError("successes must lie in [0, trials]")
    z = _Z95
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # at the boundary counts the score bound is exactly the boundary; computing
    # center - half there leaves ~1e-19 of rounding residue, enough to flip
    # comparisons against an exact 0
    lo = np.where(successes == 0, 0.0, np.maximum(0.0, center - half))
    hi = np.where(successes == trials, 1.0, np.minimum(1.0, center + half))
    return lo, hi


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    lo, hi = wilson_bounds(successes, trials)
    return float(lo), float(hi)


def mean_interval(values: np.ndarray) -> tuple[float, float, float]:
    """(mean, lower, upper) via the normal approximation."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least 2 values")
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size))
    return mean, mean - _Z95 * se, mean + _Z95 * se


def _binom_ppf(p, n: int, q: float):
    """The smallest k in [0, n] with P(Bin(n, q) <= k) >= p, for 0 < q < 1;
    an array of them for an array of levels p, all read off one cdf."""
    k = np.arange(n + 1)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    log_pmf = log_fact[n] - log_fact - log_fact[::-1] + k * math.log(q) + (n - k) * math.log1p(-q)
    # rounding can leave the last cdf value just under p near 1; the quantile is then n
    return np.minimum(np.searchsorted(np.cumsum(np.exp(log_pmf)), p, side="left"), n)


def quantile_interval(values: np.ndarray, q: float) -> tuple[float, float, float]:
    """(estimate, lower, upper) for the q-quantile via order statistics.

    The bounds are the order statistics whose binomial coverage reaches 95%;
    they are conservative near the sample edges. Both come from one binomial
    cdf.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    if n < 2:
        raise ValueError("need at least 2 values")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    alpha = 1.0 - 0.95
    est = float(np.quantile(values, q))
    lo, hi = values[np.minimum(_binom_ppf([alpha / 2.0, 1.0 - alpha / 2.0], n, q), n - 1)]
    return est, float(lo), float(hi)
