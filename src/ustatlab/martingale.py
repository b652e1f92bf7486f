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
only, so a grid computes it once per distinct y. The checks read an
ensemble through its per-path summaries; a grid sorts each summary whose
tail it counts once and finds every cell's count in it by binary search.
`simulate_summaries` draws paths into preallocated (batch, steps, dim)
blocks and summarizes each block with no per-path object: signs in one
vectorized Philox pass (`draw_iid_batch`), normals from one re-keyed Philox
(`substreams`) straight into block rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .confidence import mean_interval, wilson_bounds
from .distributions import SamplerSpec, draw_iid_batch, mix_ids_batch, substreams
from .hilbert import HilbertSpace, row_norms, squared_row_norms

__all__ = [
    "MartingalePath",
    "InequalityEntry",
    "InequalityCheckReport",
    "simulate_mds",
    "simulate_ensemble",
    "simulate_summaries",
    "PathSummaries",
    "summarize",
    "check_real_inequality",
    "check_hilbert_inequality",
    "check_conv_tail_lemma",
    "conv_pair_from_paths",
    "verify_pairs",
    "verify_grid",
    "verify_conv_grid",
]

GENERATORS = ("bounded-signs", "gaussian-coords", "f0-randomized-scale")


@dataclass(frozen=True, eq=False)
class MartingalePath:
    """One simulated difference array with its conditional second moments."""

    increments: np.ndarray  # (steps, dim)
    cond_second_moments: np.ndarray  # (steps,), E[||D_j||^2 | F_{j-1}]
    f0_measurable: bool  # moments known at time zero
    space: HilbertSpace

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.ndim == 1:
            inc = inc[:, None]
        if inc.ndim != 2 or inc.shape[1] != self.space.dim:
            raise ValueError(f"increments must have shape (steps, {self.space.dim})")
        moments = np.asarray(self.cond_second_moments, dtype=np.float64)
        if moments.shape != (inc.shape[0],):
            raise ValueError("need one conditional second moment per step")
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "cond_second_moments", moments)


def simulate_mds(kind: str, steps: int, space: HilbertSpace, rng: np.random.Generator) -> MartingalePath:
    """One martingale difference path.

    bounded-signs: scalar increments +-1, conditional second moment 1.
    gaussian-coords: i.i.d. standard normal coordinates.
    f0-randomized-scale: gaussian coordinates times a scale drawn once at
        time zero (uniform on [0.5, 1.5]), so the conditional second
        moments are random but F_0-measurable.
    """
    _check_paths(kind, steps, space)
    if kind == "bounded-signs":
        inc = rng.integers(0, 2, size=steps).astype(np.float64) * 2.0 - 1.0
        return MartingalePath(inc[:, None], np.ones(steps), True, space)
    base_moment = float(np.add.reduce(space.weights))
    if kind == "gaussian-coords":
        inc = rng.standard_normal((steps, space.dim))
        return MartingalePath(inc, np.full(steps, base_moment), True, space)
    scale = float(rng.uniform(0.5, 1.5))
    inc = scale * rng.standard_normal((steps, space.dim))
    return MartingalePath(inc, np.full(steps, scale * scale * base_moment), True, space)


def _check_paths(kind: str, steps: int, space: HilbertSpace) -> None:
    if steps < 1:
        raise ValueError("steps must be positive")
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r}; choose from {GENERATORS}")
    if kind == "bounded-signs" and space.dim != 1:
        raise ValueError("bounded-signs paths are real-valued; use a dim-1 space")


# values per stacked batch of path increments; bounds the blocks of one
# simulation or summary pass instead of stacking the whole ensemble
_BATCH_VALUES = 1 << 15


def _path_blocks(
    kind: str, steps: int, space: HilbertSpace, master_seed: int, count: int, base_stream: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Paths 0..count-1 as (B, steps, dim) increment and (B, steps) moment
    blocks, B = _BATCH_VALUES // (steps * dim), each a view of buffers the
    next block overwrites. Path r is `simulate_mds` on substream
    (master_seed, mix_ids(base_stream, r)), bit for bit.
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


def simulate_ensemble(
    kind: str, steps: int, space: HilbertSpace, master_seed: int, count: int, base_stream: int = 0
) -> list[MartingalePath]:
    """count independent paths, one counter-based substream per path."""
    paths = []
    for inc, mom in _path_blocks(kind, steps, space, master_seed, count, base_stream):
        paths += [MartingalePath(i, m, True, space) for i, m in zip(inc.copy(), mom.copy())]
    return paths


@dataclass(frozen=True)
class PathSummaries:
    """Per-path statistics every inequality check reads, in path order."""

    max_partial_norm: np.ndarray  # (R,)
    quad_plus_cond: np.ndarray  # (R,), sum(||D||^2 + E[||D||^2 | F])
    sqrt_quad: np.ndarray  # (R,), sqrt(sum ||D||^2)
    real_valued: bool
    f0_all: bool


# what every check reads: the paths, or their summaries
Ensemble = Sequence[MartingalePath] | PathSummaries


def summarize(paths: Ensemble) -> PathSummaries:
    """Summarize an ensemble once, so several checks can share it; given
    summaries are returned as they are.

    Runs of paths with the same step count are stacked into batches of about
    _BATCH_VALUES increments and reduced along the step axis together; a
    batch also ends where the step count changes.
    """
    if isinstance(paths, PathSummaries):
        return paths
    if not paths:
        raise ValueError("need at least one path")
    space = paths[0].space
    if any(p.space is not space and p.space != space for p in paths):
        raise ValueError("paths live in different spaces")
    parts = []
    start = 0
    while start < len(paths):
        shape = paths[start].increments.shape
        stop = min(len(paths), start + max(1, _BATCH_VALUES // paths[start].increments.size))
        stop = next((i for i in range(start + 1, stop) if paths[i].increments.shape != shape), stop)
        increments = np.stack([p.increments for p in paths[start:stop]])
        moments = np.stack([p.cond_second_moments for p in paths[start:stop]])
        parts.append(_block_summaries(space, increments, moments))
        start = stop
    columns = (np.concatenate(column) for column in zip(*parts))
    return PathSummaries(*columns, space.dim == 1, all(p.f0_measurable for p in paths))


def _block_summaries(space: HilbertSpace, increments: np.ndarray, moments: np.ndarray):
    """The PathSummaries columns of a (B, steps, dim) block of paths. The
    largest partial norm is the root of the largest squared one: sqrt is
    monotone and correctly rounded, so that is exact."""
    quad = (row_norms(space, increments) ** 2).sum(axis=1)
    max_norm = np.sqrt(squared_row_norms(space, np.cumsum(increments, axis=1)).max(axis=1))
    return max_norm, quad + moments.sum(axis=1), np.sqrt(quad)


def simulate_summaries(
    kind: str, steps: int, space: HilbertSpace, master_seed: int, count: int, base_stream: int = 0
) -> PathSummaries:
    """`summarize(simulate_ensemble(...))`, bit for bit, each block of paths
    reduced where it was drawn."""
    if count < 1:
        raise ValueError("need at least one path")
    blocks = _path_blocks(kind, steps, space, master_seed, count, base_stream)
    parts = [_block_summaries(space, inc, mom) for inc, mom in blocks]
    columns = (np.concatenate(column) for column in zip(*parts))
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
        replicas=s.max_partial_norm.size,
        entries=tuple(entries),
        violations=sum(e.violated for e in entries),
    )


def _tail_triples(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Rows (P(value > t), Wilson lower, Wilson upper) over the thresholds,
    shape (3, T), from one sort of the values. R - searchsorted(..., "right")
    counts the values above t, as count_nonzero(values > t) does on finite
    values."""
    R = values.size
    counts = R - np.searchsorted(np.sort(values), thresholds, side="right")
    lo, hi = wilson_bounds(counts, R)
    return np.stack([counts / R, lo, hi])


def _step_tail_integral(
    samples: np.ndarray, scale: float, u_max: float
) -> tuple[float, float, float]:
    """Exact (integral, lower, upper) of int_1^{u_max} u * P(sample > scale*u) du,
    for scale > 0.

    The empirical tail is a step function of u with breakpoints at
    sample/scale; each constant piece integrates to p * (b^2 - a^2)/2. The
    sorted ratios inside (1, u_max) are the interior edges, and the pieces
    between equal edges (ties) are dropped. Lower/upper use Wilson bands of
    the per-piece counts. The pieces are added left to right (a cumulative
    sum, not numpy's pairwise sum), so the totals do not depend on how the
    pieces are batched.
    """
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    R = samples.size
    ratios = samples / scale
    edges = np.concatenate([[1.0], ratios[(ratios > 1.0) & (ratios < u_max)], [u_max]])
    keep = edges[1:] > edges[:-1]
    a, b = edges[:-1][keep], edges[1:][keep]
    counts = R - np.searchsorted(samples, scale * a, side="right")
    piece = (b * b - a * a) / 2.0
    w_lo, w_hi = wilson_bounds(counts, R)
    terms = np.hstack([np.zeros((3, 1)), np.stack([counts / R, w_lo, w_hi]) * piece])
    total, lo_total, hi_total = np.cumsum(terms, axis=1)[:, -1]
    return total, lo_total, hi_total


def _checked(paths: Ensemble, variant: str) -> PathSummaries:
    """The ensemble's summaries, once the variant is known to apply to it."""
    s = summarize(paths)
    if variant not in _BOUNDS:
        raise ValueError(f"unknown variant {variant!r}; choose real, A2, A3 or conv")
    if variant == "real" and not s.real_valued:
        raise ValueError("real-case check needs real-valued paths (dim-1 space)")
    if variant == "A3" and not s.f0_all:
        raise ValueError("variant A3 requires conditional second moments measurable at time zero")
    return s


def check_real_inequality(paths: Ensemble, x: float, y: float) -> InequalityEntry:
    """Real-valued maximal inequality at one (x, y)."""
    return verify_pairs(paths, [(x, y)], "real").entries[0]


def check_hilbert_inequality(
    paths: Ensemble, x: float, y: float, variant: str = "A2"
) -> InequalityEntry:
    """Coordinate-space maximal inequality at one (x, y), variant A2 or A3."""
    if variant not in ("A2", "A3"):
        raise ValueError(f"unknown variant {variant!r}; choose A2 or A3")
    return verify_pairs(paths, [(x, y)], variant).entries[0]


def _a3_integral(s: PathSummaries, y: float) -> tuple[float, float, float]:
    """A3's tail integral with its bands; it depends on y, not on x."""
    scale = y / 8.0
    # the integrand dies at u = 8*max/y; doubling that caps the Wilson band
    u_max = max(2.0, 2.0 * float(s.sqrt_quad.max()) / scale)
    return _step_tail_integral(s.sqrt_quad, scale, u_max)


# Right sides c_exp * exp(-x^2/y^2) + c_tail * tail per variant, the tail being
# P(sum(||D||^2 + cond) > y^2 / divisor), or A3's integral (no divisor).
_BOUNDS = {"real": (2.0, 1.0, 2.0), "A2": (4.0, 2.0, 8.0), "A3": (4.0, 4.0, None)}


def conv_pair_from_paths(paths: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """The convex-domination pair: X = sum(||D||^2 + cond), Y = 2 sum ||D||^2."""
    s = summarize(paths)
    return s.quad_plus_cond, 2.0 * s.sqrt_quad**2


def check_conv_tail_lemma(
    x_samples: np.ndarray, y_samples: np.ndarray, t: float
) -> InequalityEntry:
    """Convex-order tail transfer at one threshold t.

    The right side integral has the closed form E[max(0, 4Y/t - 1)], so it
    is estimated as a plain mean with a normal-approximation band.
    """
    x_samples, y_samples = (np.asarray(v, dtype=np.float64) for v in (x_samples, y_samples))
    return _conv_entries(x_samples, y_samples, [t])[0]


def _conv_entries(
    x_samples: np.ndarray, y_samples: np.ndarray, t_grid: Sequence[float]
) -> list[InequalityEntry]:
    """`check_conv_tail_lemma` at every t, the left tails from one sort."""
    ts = np.array([float(t) for t in t_grid])
    if np.any(ts <= 0):
        raise ValueError("t must be positive")
    rhs = []
    for t in ts.tolist():
        mean, lo, hi = mean_interval(np.maximum(0.0, 4.0 * y_samples / t - 1.0))
        rhs.append((mean, max(0.0, lo), hi))
    rhs = np.array(rhs).reshape(-1, 3).T
    return _entries(ts, np.full(ts.size, math.nan), _tail_triples(x_samples, ts), rhs)


def verify_pairs(
    paths: Ensemble, pairs: Sequence[tuple[float, float]], variant: str
) -> InequalityCheckReport:
    """Evaluate one inequality variant at explicit (x, y) pairs.

    The ensemble is summarized once (or taken as given) and shared across
    all pairs. Each statistic a variant reads is sorted once, every cell's
    tail count is a `searchsorted` in it, and all cells' Wilson bands come
    from one `wilson_bounds` call. A3's tail integral is computed once per
    distinct y, from one sort of sqrt_quad each.
    """
    s = _checked(paths, variant)
    c_exp, c_tail, divisor = _BOUNDS[variant]
    x, y = np.array([(float(a), float(b)) for a, b in pairs]).reshape(-1, 2).T
    if variant == "A3":
        ys = y.tolist()
        integrals = {v: _a3_integral(s, v) for v in dict.fromkeys(ys)}
        tail = np.array([integrals[v] for v in ys]).reshape(-1, 3).T
    else:
        tail = _tail_triples(s.quad_plus_cond, y * y / divisor)
    rhs = c_exp * np.exp(-(x * x) / (y * y)) + c_tail * tail
    return _report(variant, s, _entries(x, y, _tail_triples(s.max_partial_norm, x), rhs))


def verify_grid(
    paths: Ensemble, xs: np.ndarray, ys: np.ndarray, variant: str
) -> InequalityCheckReport:
    """Evaluate one inequality variant over the full (x, y) grid."""
    return verify_pairs(paths, [(float(x), float(y)) for x in xs for y in ys], variant)


def verify_conv_grid(paths: Ensemble, t_grid: Sequence[float]) -> InequalityCheckReport:
    """Convex-order tail lemma on its canonical pair over a t grid."""
    s = summarize(paths)
    return _report("conv", s, _conv_entries(*conv_pair_from_paths(s), t_grid))
