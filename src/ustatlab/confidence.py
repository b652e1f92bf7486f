"""Confidence intervals for tail probabilities, means, and quantiles."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import stats

__all__ = ["wilson_bounds", "wilson_interval", "mean_interval", "quantile_interval"]


@lru_cache(maxsize=16)
def _z_score(confidence: float) -> float:
    return float(stats.norm.ppf(0.5 + confidence / 2.0))


def wilson_bounds(
    successes, trials: int, confidence: float = 0.95
) -> tuple[np.ndarray, np.ndarray]:
    """Wilson score bounds for an array of success counts out of `trials`."""
    if trials < 1:
        raise ValueError("trials must be positive")
    successes = np.asarray(successes)
    if np.any(successes < 0) or np.any(successes > trials):
        raise ValueError("successes must lie in [0, trials]")
    z = _z_score(confidence)
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


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    lo, hi = wilson_bounds(successes, trials, confidence)
    return float(lo), float(hi)


def mean_interval(values: np.ndarray, confidence: float = 0.95) -> tuple[float, float, float]:
    """(mean, lower, upper) via the normal approximation."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least 2 values")
    z = _z_score(confidence)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(values.size))
    return mean, mean - z * se, mean + z * se


def quantile_interval(
    values: np.ndarray, q: float, confidence: float = 0.95
) -> tuple[float, float, float]:
    """(estimate, lower, upper) for the q-quantile via order statistics.

    The bounds are the order statistics whose binomial coverage reaches the
    requested confidence; they are conservative near the sample edges.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    if n < 2:
        raise ValueError("need at least 2 values")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    alpha = 1.0 - confidence
    est = float(np.quantile(values, q))
    k_lo = int(stats.binom.ppf(alpha / 2.0, n, q))
    k_hi = int(stats.binom.ppf(1.0 - alpha / 2.0, n, q))
    lo = values[int(np.clip(k_lo, 0, n - 1))]
    hi = values[int(np.clip(k_hi, 0, n - 1))]
    return est, float(lo), float(hi)
