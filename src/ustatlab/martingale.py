"""Empirical checks of maximal inequalities for martingale difference arrays.

Each check estimates both sides of a deviation bound on simulated paths and
flags a violation only when the 95% lower confidence bound of the left side
exceeds the 95% upper bound of the right side, so Monte Carlo noise cannot
manufacture failures. The bounds under test, for increments D_j with
partial sums S_k:

  real case:      P(max_k |S_k| > x) <= 2 exp(-x^2/y^2)
                      + P(sum_j (D_j^2 + E[D_j^2 | F_{j-1}]) > y^2/2)

  variant A2:     P(max_k ||S_k|| > x) <= 4 exp(-x^2/y^2)
                      + 2 P(sum_j (||D_j||^2 + E[||D_j||^2 | F_{j-1}]) > y^2/8)

  variant A3:     P(max_k ||S_k|| > x) <= 4 exp(-x^2/y^2)
                      + 4 * integral_1^inf u * P(sqrt(sum_j ||D_j||^2) > y u / 8) du,
                  requiring E[||D_j||^2 | F_{j-1}] = E[||D_j||^2 | F_0];

  convex tail:    X convex-dominated by Y implies
                  P(X > t) <= integral_1^inf P(Y > t v / 4) dv
                            = E[ max(0, 4 Y / t - 1) ].

Tail integrals over empirical step functions are computed exactly,
piecewise, rather than by sampled quadrature: all pieces and their Wilson
bands in one array pass, summed left to right. A3's integral depends on y
only, so a grid computes it once per distinct y.

An ensemble is its `PathSummaries`: the three per-path statistics every
check reads, max_k ||S_k||, sum_j (||D_j||^2 + E[||D_j||^2 | F_{j-1}]) and
sqrt(sum_j ||D_j||^2). `simulate_ensemble` draws paths into preallocated
(batch, steps, dim) blocks and reduces each block to those statistics where
it was drawn: signs in one vectorized Philox pass (`draw_iid_batch`),
normals from one re-keyed Philox (`substreams`) straight into block rows,
each path bit for bit as if it were drawn alone on its substream. A grid
sorts each summary whose tail it counts once and finds every cell's count
in it by binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .confidence import _tail_triples, mean_interval
from .distributions import SamplerSpec, draw_iid_batch, mix_ids_batch, substreams
from .hilbert import HilbertSpace, row_norms, squared_row_norms

__all__ = [
    "InequalityEntry",
    "InequalityCheckReport",
    "PathSummaries",
    "simulate_ensemble",
    "verify_grid",
    "verify_conv_grid",
]

GENERATORS = ("bounded-signs", "gaussian-coords", "f0-randomized-scale")


def _check_paths(kind: str, steps: int, space: HilbertSpace) -> None:
    if steps < 1:
        raise ValueError("steps must be positive")
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r}; choose from {GENERATORS}")
    if kind == "bounded-signs" and space.dim != 1:
        raise ValueError("bounded-signs paths are real-valued; use a dim-1 space")


# values per block of path increments; bounds the blocks of one simulation
# instead of stacking the whole ensemble
_BATCH_VALUES = 1 << 15


def _path_blocks(
    kind: str, steps: int, space: HilbertSpace, master_seed: int, count: int, base_stream: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Paths 0..count-1 as (B, steps, dim) increment and (B, steps) moment
    blocks, B = _BATCH_VALUES // (steps * dim), each a view of buffers the
    next block overwrites. Path r is drawn on substream (master_seed,
    mix_ids(base_stream, r)): its signs, or its scale (f0-randomized-scale
    only) and then its (steps, dim) normals, bit for bit as one path alone.
    """
    _check_paths(kind, steps, space)
    batch = max(1, min(count, _BATCH_VALUES // (steps * space.dim)))
    increments, moments = np.empty((batch, steps, space.dim)), np.empty((batch, steps))
    signs = SamplerSpec("rademacher", seed_stream=int(master_seed) % 2**64)
    base_moment = float(np.add.reduce(space.weights))
    for start in range(0, count, batch):
        ids = mix_ids_batch(base_stream, np.arange(start, min(count, start + batch)))
        inc, mom = increments[: ids.size], moments[: ids.size]
        if kind == "bounded-signs":
            inc[:, :, 0] = draw_iid_batch(signs, steps, ids)
            mom[:] = 1.0
        else:
            scales = np.ones(ids.size)
            for r, rng in enumerate(substreams(master_seed, ids)):
                if kind == "f0-randomized-scale":
                    scales[r] = rng.uniform(0.5, 1.5)
                rng.standard_normal(out=inc[r])
            inc *= scales[:, None, None]  # exact: gaussian-coords scales are 1
            mom[:] = (scales * scales * base_moment)[:, None]
        yield inc, mom


@dataclass(frozen=True, eq=False)
class PathSummaries:
    """Per-path statistics every inequality check reads, in path order."""

    max_partial_norm: np.ndarray  # (R,)
    quad_plus_cond: np.ndarray  # (R,), sum(||D||^2 + E[||D||^2 | F])
    sqrt_quad: np.ndarray  # (R,), sqrt(sum ||D||^2)
    real_valued: bool
    f0_all: bool  # every path's moments measurable at time zero

    def __len__(self) -> int:
        return self.max_partial_norm.size


def _block_summaries(space: HilbertSpace, increments: np.ndarray, moments: np.ndarray):
    """The PathSummaries columns of a (B, steps, dim) block of paths. The
    largest partial norm is the root of the largest squared one: sqrt is
    monotone and correctly rounded, so that is exact."""
    quad = (row_norms(space, increments) ** 2).sum(axis=1)
    max_norm = np.sqrt(squared_row_norms(space, np.cumsum(increments, axis=1)).max(axis=1))
    return max_norm, quad + moments.sum(axis=1), np.sqrt(quad)


def simulate_ensemble(
    kind: str, steps: int, space: HilbertSpace, master_seed: int, count: int, base_stream: int = 0
) -> PathSummaries:
    """The summaries of count independent paths, one counter-based
    substream per path, each block of paths reduced where it was drawn."""
    if count < 1:
        raise ValueError("need at least one path")
    blocks = _path_blocks(kind, steps, space, master_seed, count, base_stream)
    parts = [_block_summaries(space, inc, mom) for inc, mom in blocks]
    columns = (np.concatenate(column) for column in zip(*parts))
    # every generator's moments are known at time zero
    return PathSummaries(*columns, space.dim == 1, True)


@dataclass(frozen=True)
class InequalityEntry:
    """Both sides of one grid cell with 95% bands."""

    x: float
    y: float
    lhs: float
    lhs_lo: float
    lhs_hi: float
    rhs: float
    rhs_lo: float
    rhs_hi: float
    violated: bool


@dataclass(frozen=True)
class InequalityCheckReport:
    variant: str
    replicas: int
    entries: tuple[InequalityEntry, ...]
    violations: int


def _entries(
    x: np.ndarray, y: np.ndarray, lhs: np.ndarray, rhs: np.ndarray
) -> list[InequalityEntry]:
    """One entry per cell from the cells' (3, cells) left and right triples;
    a cell is violated when its left lower bound exceeds its right upper one."""
    violated = (lhs[1] > rhs[2]).tolist()
    rows = np.vstack([x, y, lhs, rhs]).T.tolist()
    return [InequalityEntry(*row, v) for row, v in zip(rows, violated)]


def _report(variant: str, s: PathSummaries, entries: list) -> InequalityCheckReport:
    return InequalityCheckReport(
        variant=variant,
        replicas=len(s),
        entries=tuple(entries),
        violations=sum(e.violated for e in entries),
    )


def _step_tail_integral(
    ascending: np.ndarray, scale: float, u_max: float
) -> tuple[float, float, float]:
    """Exact (integral, lower, upper) of int_1^{u_max} u * P(sample > scale*u) du,
    for scale > 0, over an ascending sample.

    The empirical tail is a step function of u with breakpoints at
    sample/scale; each constant piece integrates to p * (b^2 - a^2)/2. The
    sorted ratios inside (1, u_max) are the interior edges, and the pieces
    between equal edges (ties) are dropped. Lower/upper use Wilson bands of
    the per-piece counts. The pieces are added left to right (a cumulative
    sum, not numpy's pairwise sum), so the totals do not depend on how the
    pieces are batched.
    """
    ratios = ascending / scale
    edges = np.concatenate([[1.0], ratios[(ratios > 1.0) & (ratios < u_max)], [u_max]])
    keep = edges[1:] > edges[:-1]
    a, b = edges[:-1][keep], edges[1:][keep]
    piece = (b * b - a * a) / 2.0
    terms = np.hstack([np.zeros((3, 1)), _tail_triples(ascending, scale * a) * piece])
    total, lo_total, hi_total = np.cumsum(terms, axis=1)[:, -1]
    return total, lo_total, hi_total


def _check_variants(variants: Sequence[str], real_valued: bool, f0_all: bool = True) -> None:
    """Raise unless every variant applies to paths that are real-valued (dim 1)
    or not, with moments measurable at time zero or not. A caller checks its
    space before `simulate_ensemble`; `verify_pairs` checks the ensemble."""
    for variant in variants:
        if variant == "real" and not real_valued:
            raise ValueError("real-case check needs real-valued paths (dim-1 space)")
        if variant == "A3" and not f0_all:
            raise ValueError("variant A3 requires conditional second moments measurable at time zero")


def _a3_integral(sqrt_quad: np.ndarray, y: float) -> tuple[float, float, float]:
    """A3's tail integral with its bands, from the ascending sqrt_quad
    column; it depends on y, not on x."""
    scale = y / 8.0
    # the integrand dies at u = 8*max/y; doubling that caps the Wilson band
    u_max = max(2.0, 2.0 * float(sqrt_quad[-1]) / scale)
    return _step_tail_integral(sqrt_quad, scale, u_max)


# Right sides c_exp * exp(-x^2/y^2) + c_tail * tail per variant, the tail being
# P(sum(||D||^2 + cond) > y^2 / divisor), or A3's integral (no divisor).
_BOUNDS = {"real": (2.0, 1.0, 2.0), "A2": (4.0, 2.0, 8.0), "A3": (4.0, 4.0, None)}


def conv_pair_from_paths(s: PathSummaries) -> tuple[np.ndarray, np.ndarray]:
    """The convex-domination pair: X = sum(||D||^2 + cond), Y = 2 sum ||D||^2."""
    return s.quad_plus_cond, 2.0 * s.sqrt_quad**2


def _conv_entries(
    x_samples: np.ndarray, y_samples: np.ndarray, t_grid: Sequence[float]
) -> list[InequalityEntry]:
    """Convex-order tail transfer at every threshold t, the left tails from
    one sort. The right side integral has the closed form E[max(0, 4Y/t - 1)],
    so it is estimated as a plain mean with a normal-approximation band."""
    ts = np.array([float(t) for t in t_grid])
    if not np.all((ts > 0) & (ts < math.inf)):
        raise ValueError("t must be positive and finite")
    rhs = []
    for t in ts.tolist():
        mean, lo, hi = mean_interval(np.maximum(0.0, 4.0 * y_samples / t - 1.0))
        rhs.append((mean, max(0.0, lo), hi))
    rhs = np.array(rhs).reshape(-1, 3).T
    return _entries(ts, np.full(ts.size, math.nan), _tail_triples(np.sort(x_samples), ts), rhs)


def verify_pairs(
    s: PathSummaries, pairs: Sequence[tuple[float, float]], variant: str
) -> InequalityCheckReport:
    """Evaluate one inequality variant at explicit (x, y) pairs, x, y > 0.

    Each statistic a variant reads is sorted once, every cell's tail count
    is a `searchsorted` in it, and all cells' Wilson bands come from one
    `wilson_bounds` call. A3's tail integral is computed once per distinct
    y, every one from the same sort of sqrt_quad.
    """
    if variant not in _BOUNDS:
        raise ValueError(f"unknown variant {variant!r}; choose real, A2 or A3")
    _check_variants([variant], s.real_valued, s.f0_all)
    c_exp, c_tail, divisor = _BOUNDS[variant]
    x, y = np.array([(float(a), float(b)) for a, b in pairs]).reshape(-1, 2).T
    if not np.all((x > 0) & (y > 0) & (x < math.inf) & (y < math.inf)):
        raise ValueError("x and y must be positive and finite")
    if variant == "A3":
        ys = y.tolist()
        sqrt_quad = np.sort(s.sqrt_quad)
        integrals = {v: _a3_integral(sqrt_quad, v) for v in dict.fromkeys(ys)}
        tail = np.array([integrals[v] for v in ys]).reshape(-1, 3).T
    else:
        tail = _tail_triples(np.sort(s.quad_plus_cond), y * y / divisor)
    rhs = c_exp * np.exp(-(x * x) / (y * y)) + c_tail * tail
    return _report(variant, s, _entries(x, y, _tail_triples(np.sort(s.max_partial_norm), x), rhs))


def verify_grid(
    s: PathSummaries, xs: Sequence[float], ys: Sequence[float], variant: str
) -> InequalityCheckReport:
    """Evaluate one inequality variant over the full (x, y) grid, x outer."""
    return verify_pairs(s, [(float(x), float(y)) for x in xs for y in ys], variant)


def verify_conv_grid(s: PathSummaries, t_grid: Sequence[float]) -> InequalityCheckReport:
    """Convex-order tail lemma on its canonical pair over a t grid."""
    return _report("conv", s, _conv_entries(*conv_pair_from_paths(s), t_grid))
