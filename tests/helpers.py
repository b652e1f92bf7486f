"""Shared test fixtures and the reference implementations tests compare the
library against: the per-point inner product, norm and axpy, random finite
laws, table-backed kernels, a kernel's evaluation on one argument tuple as a
codomain point, the permutation average that symmetrizes a
kernel, the enumeration oracle for exact projections, the tuple-keyed
oracles for weighted statistics, the per-tuple unranking, the running
maximum rebuilt prefix by prefix, the per-path martingale generator, the
one-at-a-time oracles for the martingale checks, the one-replica-at-a-time
oracles for the design and decoupling experiments, the step tails of a
bounded kernel and of a sample, the bisection for the domination constant,
the scipy-based quantile interval, and the exact running-maximum tail of
the product kernel on Rademacher signs."""

from __future__ import annotations

import itertools
import math

import numpy as np

from ustatlab import FiniteDistribution, HilbertSpace, KernelSpec
from ustatlab.distributions import draw_iid, exact_expectation, mix_ids, substream
from ustatlab.hilbert import HilbertPoint, SpaceMismatchError, row_norms
from ustatlab.kernels import batch_values
from ustatlab.martingale import _check_paths
from ustatlab.montecarlo import _ROLE_DATA, _ROLE_DEC, _ROLE_DESIGN, _ROLE_FIXED, StepTail
from ustatlab import ustats
from ustatlab.ustats import _sample_rows, _tuple_columns, complete, draw_design, running_max


# ---------------------------------------------------------------------------
# One point at a time: the oracles `hilbert.row_norms` is checked against.


def _require_same_space(a: HilbertPoint, b: HilbertPoint) -> HilbertSpace:
    if a.space != b.space:
        raise SpaceMismatchError("points belong to different spaces")
    return a.space


def inner(a: HilbertPoint, b: HilbertPoint) -> float:
    """Weighted inner product <a, b>.

    The reduction order is a fixed function of the dimension, so
    inner(a, b) == inner(b, a) bit-exactly.
    """
    space = _require_same_space(a, b)
    return float(np.add.reduce(space.weights * (a.coords * b.coords)))


def norm(a: HilbertPoint) -> float:
    """Induced norm sqrt(<a, a>)."""
    return float(np.sqrt(inner(a, a)))


def axpy(alpha: float, a: HilbertPoint, b: HilbertPoint) -> HilbertPoint:
    """alpha * a + b, exact coordinatewise IEEE arithmetic."""
    space = _require_same_space(a, b)
    return space.point(alpha * a.coords + b.coords)


def random_scalar_dist(rng: np.random.Generator, size: int) -> FiniteDistribution:
    """A scalar law with `size` distinct atoms and random probabilities."""
    base = rng.choice(np.arange(-10, 11), size=size, replace=False).astype(np.float64)
    atoms = np.sort(base + rng.uniform(-0.3, 0.3, size=size))
    probs = rng.dirichlet(np.ones(size))
    return FiniteDistribution(atoms=atoms, probs=probs)


def uniform_three() -> FiniteDistribution:
    """The uniform law on {-1, 0, 1}."""
    return FiniteDistribution(
        atoms=np.array([-1.0, 0.0, 1.0]),
        probs=np.array([1.0, 1.0, 1.0]) / 3.0,
    )


def table_kernel(
    arity: int,
    dist: FiniteDistribution,
    rng: np.random.Generator,
    dim: int = 1,
) -> KernelSpec:
    """A random symmetric kernel defined by a lookup table on the support.

    Arguments are matched to atoms by exact value (draws from a finite
    sampler reproduce atom floats bit-for-bit), so evaluation is exact and
    the symmetrized table is permutation-invariant to the last ulp.
    """
    atoms = np.asarray(dist.atoms, dtype=np.float64)
    if atoms.ndim != 1:
        raise ValueError("table kernels need scalar atoms")
    order = np.argsort(atoms)
    sorted_atoms = atoms[order]
    table = rng.normal(size=(dist.size,) * arity + (dim,))
    sym = np.zeros_like(table)
    for perm in itertools.permutations(range(arity)):
        sym += np.transpose(table, perm + (arity,))
    sym /= math.factorial(arity)
    sym.setflags(write=False)

    def lookup(values):
        pos = np.searchsorted(sorted_atoms, np.asarray(values, dtype=np.float64))
        return order[np.clip(pos, 0, dist.size - 1)]

    def batch(*cols):
        idx = tuple(lookup(col) for col in cols)
        vals = sym[idx]
        return vals[:, 0] if dim == 1 else vals

    return KernelSpec(
        arity=arity,
        codomain=HilbertSpace.euclidean(dim),
        eval_batch=batch,
        symmetric=True,
        sup_bound=float(np.sqrt((sym**2).sum(axis=-1)).max()),
        name=f"table{arity}",
    )


def evaluate(kernel: KernelSpec, args: tuple) -> HilbertPoint:
    """The kernel's value on one argument tuple, as a codomain point:
    `batch_values` on one-row columns, which checks the arity and the
    value's shape."""
    return kernel.codomain.point(batch_values(kernel, tuple(np.asarray(a)[None] for a in args))[0])


MAX_SYMMETRIZE_ARITY = 6  # 6! = 720 permutation evaluations per call


def symmetrize(kernel: KernelSpec) -> KernelSpec:
    """Average over all argument permutations.

    Idempotent: symmetrizing an already symmetric kernel returns it
    unchanged. Refuses arity above 6 (720 evaluations per call).
    """
    if kernel.symmetric:
        return kernel
    if kernel.arity > MAX_SYMMETRIZE_ARITY:
        raise ValueError(
            f"symmetrize supports arity <= {MAX_SYMMETRIZE_ARITY}, got {kernel.arity}"
        )
    perms = list(itertools.permutations(range(kernel.arity)))
    scale = 1.0 / math.factorial(kernel.arity)

    def sym_batch(*cols):
        acc = None
        for perm in perms:
            val = np.asarray(kernel.eval_batch(*(cols[p] for p in perm)), dtype=np.float64)
            acc = val.copy() if acc is None else acc + val
        return acc * scale

    return KernelSpec(
        arity=kernel.arity,
        codomain=kernel.codomain,
        eval_batch=sym_batch,
        symmetric=True,
        sup_bound=kernel.sup_bound,
        declared_degeneracy=kernel.declared_degeneracy,
        name=f"sym({kernel.name})",
    )


def projection_oracle(kernel: KernelSpec, dist: FiniteDistribution, k: int) -> np.ndarray:
    """h_k on every k-tuple of atoms, shape (A,) * k + (dim,), by enumeration.

    Each partial expectation is `exact_expectation` over the tail with the
    pinned atoms first, and h_k adds them up one tuple at a time: start from
    zeros, then += sign * partial, j ascending, u in combinations order.
    """
    dim = kernel.codomain.dim
    partials: dict[tuple[int, ...], np.ndarray] = {}

    def partial(fixed: tuple[int, ...]) -> np.ndarray:
        if fixed not in partials:
            pinned = tuple(dist.atom(i) for i in fixed)

            def row(*rest):
                return evaluate(kernel, (*pinned, *rest)).coords

            value = exact_expectation(row, dist, kernel.arity - len(fixed))
            partials[fixed] = np.asarray(value, dtype=np.float64).reshape(dim)
        return partials[fixed]

    out = np.empty((dist.size,) * k + (dim,))
    for idx in itertools.product(range(dist.size), repeat=k):
        acc = np.zeros(dim)
        for j in range(k + 1):
            sign = -1.0 if (k - j) % 2 else 1.0
            for u in itertools.combinations(range(k), j):
                acc += sign * partial(tuple(idx[i] for i in u))
        out[idx] = acc
    return out


# ---------------------------------------------------------------------------
def unrank_oracle(rank: int, n: int, m: int) -> tuple[int, ...]:
    """The 1-based increasing m-tuple of lexicographic rank `rank`, one slot at
    a time: each candidate value c heads a block of C(n - 1 - c, m - slot - 1)
    tuples, skipped whole until the rank falls inside one."""
    out = []
    r = rank
    prev = 0
    for slot in range(m):
        for c in range(prev, n):
            block = math.comb(n - 1 - c, m - slot - 1)
            if r < block:
                out.append(c + 1)
                prev = c + 1
                break
            r -= block
    return tuple(out)


def running_max_embedding_check(kernel: KernelSpec, sample) -> float:
    """Deviation between the incremental running max and the stacked route.

    The stacked route treats the family (U_{n'})_{n'=m..n} as one statistic
    with values in the product space under the max norm: each component is
    recomputed from scratch as a full prefix sum, with no shared partials.
    Returns the largest coordinate-space norm deviation over components
    (the max-norm distance between the two stacked values).
    """
    rows, m = _sample_rows(sample), kernel.arity
    direct = running_max(kernel, rows).prefix_values
    fresh = np.stack([complete(kernel, rows[:stop]).coords for stop in range(m, len(rows) + 1)])
    return float(row_norms(kernel.codomain, direct - fresh).max())


# Weighted statistics with weights in a dict keyed by 1-based increasing
# tuples, looked up one tuple at a time; a tuple absent from the dict weighs
# zero.


def tuple_weights(values: np.ndarray, m: int, n: int) -> dict[tuple[int, ...], np.ndarray]:
    """The nonzero rows of a dense rank-indexed weight array, keyed by tuple."""
    tuples = itertools.combinations(range(1, n + 1), m)
    return {tpl: w for tpl, w in zip(tuples, values) if np.any(w)}


def weighted_oracle(kernel: KernelSpec, weights: dict, width: int, sample) -> np.ndarray:
    """sum_i T_i h(xi_i) over the lexicographic pieces of
    `ustats._index_pieces`, each piece's (T, width) weight block filled tuple
    by tuple from the dict."""
    rows = np.asarray(sample, dtype=np.float64)
    n, m = rows.shape[0], kernel.arity
    tuples = itertools.combinations(range(1, n + 1), m)
    acc = None
    for cols, _ in ustats._index_pieces(m, n, lex=True):
        w = np.empty((cols[0].size, width))
        for t, tpl in enumerate(itertools.islice(tuples, w.shape[0])):
            w[t] = weights.get(tpl, 0.0)
        part = np.add.reduce(batch_values(kernel, tuple(rows[c] for c in cols)) * w, axis=0)
        acc = part if acc is None else acc + part
    return acc


def weight_aggregate_oracle(weights: dict, shape: tuple, m: int, n: int, k: int) -> np.ndarray:
    """a_i^{(n,k)} = sum of T_j over m-tuples j containing i, by one pass over
    the m-tuples in enumeration order, as a dense (C(n, k),) + shape array."""
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for tpl in itertools.combinations(range(1, n + 1), m):
        w = weights.get(tpl)
        if w is None:
            continue
        for sub in itertools.combinations(tpl, k):
            prev = acc.get(sub)
            acc[sub] = np.array(w, dtype=np.float64) if prev is None else prev + w
    out = np.zeros((math.comb(n, k),) + shape)
    for rank, sub in enumerate(itertools.combinations(range(1, n + 1), k)):
        if sub in acc:
            out[rank] = acc[sub]
    return out


def wilson_oracle(successes: int, trials: int, z: float) -> tuple[float, float]:
    """The Wilson score interval for one count, in scalar arithmetic."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def quantile_interval_oracle(
    values: np.ndarray, q: float, confidence: float = 0.95
) -> tuple[float, float, float]:
    """`quantile_interval` as it was computed with scipy's binomial quantile."""
    from scipy import stats

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


def step_tail_integral_oracle(
    samples: np.ndarray, scale: float, u_max: float, z: float
) -> tuple[float, float, float]:
    """int_1^{u_max} u * P(sample > scale*u) du with Wilson bands, one
    step-function piece at a time, accumulated left to right."""
    R = samples.size
    points = np.unique(np.clip(np.asarray(samples, dtype=np.float64) / scale, 1.0, u_max))
    edges = np.concatenate([[1.0], points[(points > 1.0) & (points < u_max)], [u_max]])
    sorted_samples = np.sort(samples)
    total = lo_total = hi_total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        count = R - int(np.searchsorted(sorted_samples, scale * a, side="right"))
        piece = (b * b - a * a) / 2.0
        w_lo, w_hi = wilson_oracle(count, R, z)
        total += (count / R) * piece
        lo_total += w_lo * piece
        hi_total += w_hi * piece
    return total, lo_total, hi_total


def simulate_mds(
    kind: str, steps: int, space: HilbertSpace, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One martingale difference path: its (steps, dim) increments and its
    (steps,) conditional second moments E[||D_j||^2 | F_{j-1}]; the per-path
    reference `martingale.simulate_ensemble`'s blocks reproduce bit for bit.

    bounded-signs: scalar increments +-1, conditional second moment 1.
    gaussian-coords: i.i.d. standard normal coordinates.
    f0-randomized-scale: gaussian coordinates times a scale drawn once at
        time zero (uniform on [0.5, 1.5]), so the conditional second
        moments are random but F_0-measurable.
    """
    _check_paths(kind, steps, space)
    if kind == "bounded-signs":
        inc = rng.integers(0, 2, size=steps).astype(np.float64) * 2.0 - 1.0
        return inc[:, None], np.ones(steps)
    base_moment = float(np.add.reduce(space.weights))
    if kind == "gaussian-coords":
        return rng.standard_normal((steps, space.dim)), np.full(steps, base_moment)
    scale = float(rng.uniform(0.5, 1.5))
    inc = scale * rng.standard_normal((steps, space.dim))
    return inc, np.full(steps, scale * scale * base_moment)


def summarize_oracle(paths, space: HilbertSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(max partial-sum norm, sum ||D||^2 + cond, sqrt(sum ||D||^2)) path by
    path, from (increments, conditional second moments) pairs in space."""
    max_norm = np.empty(len(paths))
    quad_plus = np.empty(len(paths))
    sqrt_quad = np.empty(len(paths))
    for i, (increments, moments) in enumerate(paths):
        norms2 = row_norms(space, increments) ** 2
        partial = np.cumsum(increments, axis=0)
        max_norm[i] = row_norms(space, partial).max()
        quad_plus[i] = norms2.sum() + moments.sum()
        sqrt_quad[i] = np.sqrt(norms2.sum())
    return max_norm, quad_plus, sqrt_quad


# ---------------------------------------------------------------------------
# The design and decoupling experiments one replica at a time: one substream,
# one sample, one Selection and one reduce per replica.


def cell_values_oracle(kernel: KernelSpec, rows: tuple[np.ndarray, ...]) -> np.ndarray:
    """Kernel values over all tuples with slot l fed from rows[l]."""
    n = rows[0].shape[0]
    cols = _tuple_columns(kernel.arity, n)
    if cols is None:
        raise ValueError("tuple enumeration too large to materialize for this experiment")
    arrays = tuple(np.asarray(r, dtype=np.float64) for r in rows)
    return batch_values(kernel, tuple(arrays[j][cols[j]] for j in range(kernel.arity)))


def design_normalizer_oracle(design, nonzero: int, n: int, m: int, d: int) -> float:
    """The deviation-bound normalization of one selection, in scalar arithmetic."""
    if design.kind == "bernoulli":
        p = design.rate
        return float(n**m) * math.sqrt(p) * math.sqrt(min(p, float(n) ** (-d)))
    if nonzero < 1:
        return math.nan
    return math.sqrt(nonzero * min(nonzero, float(n) ** (m - d)))


def norm_stat_oracle(kernel, sampler, design, n, cell_id, replicas, d):
    """The scaling experiment's quantile column, replica by replica."""
    m = kernel.arity

    def norm_stat(r: int, n=n, design=design, cell_id=cell_id) -> float:
        sample = draw_iid(sampler, n, mix_ids(_ROLE_DATA, cell_id, r))
        vals = cell_values_oracle(kernel, (sample,) * m)
        sel = draw_design(design, m, n, substream(sampler.seed_stream, mix_ids(_ROLE_DESIGN, cell_id, r)))
        if sel.empty:
            return math.nan
        collapsed = np.add.reduce(vals[sel.ranks], axis=0)
        return float(row_norms(kernel.codomain, collapsed)) / design_normalizer_oracle(
            design, sel.distinct, n, m, d
        )

    return np.array([norm_stat(r) for r in range(replicas)])


def estimator_oracle(fixed_vals, design, m, n, cell_id, draws, master_seed):
    """The scaling experiment's multiplicity-weighted estimates, draw by draw."""

    def estimator(r: int, n=n, design=design, cell_id=cell_id, fixed_vals=fixed_vals):
        sel = draw_design(
            design, m, n, substream(master_seed, mix_ids(_ROLE_FIXED, cell_id, r))
        )
        if sel.empty:
            return np.zeros(fixed_vals.shape[1])
        return np.add.reduce(fixed_vals[sel.ranks] * sel.counts[:, None], axis=0)

    return np.stack([estimator(r) for r in range(draws)])


def matching_stat_oracle(kernel, sampler, design, n, cell_id, replicas, norm_wo):
    """One pipeline of the matching-point comparison, replica by replica."""

    def fn(r: int) -> float:
        sample = draw_iid(sampler, n, mix_ids(_ROLE_DATA, cell_id, r))
        vals = cell_values_oracle(kernel, (sample,))
        sel = draw_design(design, 1, n, substream(sampler.seed_stream, mix_ids(_ROLE_DESIGN, cell_id, r)))
        if sel.empty:
            return math.nan
        collapsed = np.add.reduce(vals[sel.ranks], axis=0)
        return float(row_norms(kernel.codomain, collapsed)) / norm_wo

    return np.array([fn(r) for r in range(replicas)])


def decouple_stats_oracle(kernel, sampler, n, replicas):
    """||U|| and ||U_dec|| of the decoupling comparison, replica by replica."""
    m = kernel.arity

    def stat_complete(r: int) -> float:
        sample = draw_iid(sampler, n, mix_ids(_ROLE_DATA, r))
        return float(row_norms(kernel.codomain, complete(kernel, sample).coords))

    def stat_decoupled(r: int) -> float:
        rows = tuple(draw_iid(sampler, n, mix_ids(_ROLE_DEC, slot, r)) for slot in range(m))
        vals = cell_values_oracle(kernel, rows)
        return float(row_norms(kernel.codomain, np.add.reduce(vals, axis=0)))

    stats_u = np.array([stat_complete(r) for r in range(replicas)])
    stats_d = np.array([stat_decoupled(r) for r in range(replicas)])
    return stats_u, stats_d


def bounded_kernel_tail(bound: float) -> StepTail:
    """Indicator tail of a kernel bounded by `bound`: 1 below it, 0 at or above."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return StepTail(np.array([float(bound)]), np.array([0.0]))


def empirical_tail(samples: np.ndarray) -> StepTail:
    """Step-function tail t -> fraction of samples strictly above t."""
    values = np.sort(np.asarray(samples, dtype=np.float64))
    n = values.size
    if n < 1:
        raise ValueError("need at least one sample")
    if np.isnan(values[-1]):  # a sort puts NaN last
        raise ValueError("samples must not be NaN")
    return StepTail(values, (n - np.arange(1, n + 1)) / n)


def domination_constant_oracle(xs, targets, dec_stats):
    """The smallest k >= 1 with p <= k * tail(x / k) + 1e-15 at every (x, p),
    tail the empirical tail of dec_stats, by searching: doubling from 1 up
    to 2**41 (None if that is not enough), then 60 geometric bisections."""
    dec_tail = empirical_tail(dec_stats)

    def dominated(k: float) -> bool:
        return all(p <= k * dec_tail(x / k) + 1e-15 for x, p in zip(xs, targets))

    hi = 1.0
    while not dominated(hi):
        hi *= 2.0
        if hi > 2.0**40:
            break
    if not dominated(hi):
        return None
    if hi == 1.0:
        return 1.0
    lo = hi / 2.0
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if dominated(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _rademacher_e(m: int, k: int, sums: np.ndarray) -> np.ndarray:
    """e_m(x_1..x_k) of k Rademacher signs with partial sum S_k = sums, by
    Newton's identities: the odd power sums are S_k and the even ones k.
    Every e_j is an integer, so each division here is exact."""
    powers = [None] + [sums if i % 2 else np.full_like(sums, k) for i in range(1, m + 1)]
    e = [np.ones_like(sums)]
    for j in range(1, m + 1):
        e.append(sum((-1) ** (i - 1) * e[j - i] * powers[i] for i in range(1, j + 1)) / j)
    return e[m]


def rademacher_product_tail(n: int, m: int, x_grid) -> np.ndarray:
    """P(max_{m <= k <= n} |e_m(x_1..x_k)| / n^(m/2) > x) at each x of x_grid
    for i.i.d. Rademacher signs x_i: the exact tail of `tail_scan`'s
    statistic for the real arity-m product kernel, which is degenerate of
    order m. A forward pass over k carries the law of S_k on the paths whose
    maximum has not yet passed x, one row per x, and sums the mass that
    leaves them at each step."""
    x_grid = np.asarray(x_grid, dtype=np.float64)
    norm = float(n) ** (m / 2)
    sums = np.arange(-n, n + 1, dtype=np.float64)
    alive = np.zeros((x_grid.size, sums.size))
    alive[:, n] = 1.0
    tail = np.zeros(x_grid.size)
    for k in range(1, n + 1):
        # |S_{k-1}| < n, so neither end column holds mass that would wrap
        alive = 0.5 * (np.roll(alive, 1, axis=1) + np.roll(alive, -1, axis=1))
        if k >= m:
            out = np.abs(_rademacher_e(m, k, sums)) / norm > x_grid[:, None]
            tail += np.where(out, alive, 0.0).sum(axis=1)
            alive[out] = 0.0
    return tail
