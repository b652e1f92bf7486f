"""Monte Carlo harness: tail scans, bound envelopes, and design experiments.

Replication discipline: replica r draws every input from substreams keyed
by (master seed, role, r), so results are a pure function of the replica
index and survive any scheduling order or batch size bit for bit.
Reductions over replicas happen in replica order. Every experiment runs
on one thread over bounded batches of replicas: a batch draws its
samples with one `draw_iid_batch` per data role and evaluates all its
tuples with one gathered kernel call. Incomplete designs are drawn per
replica on its own re-keyed Philox substream (its words fix the bytes)
into a dense (replicas, C(n, m)) count matrix; with-replacement designs
map those words in one pass per batch (`ustats.design_counts_batch`).
Each replica's selected rows sum as if reduced in ascending rank order,
exactly as one selection's were; where every partial sum is an exact
integer (`_dense_sums_exact`) that is one dense product, since every order
then gives the same bytes.

The tail scan has a second route. For an arity-2 kernel on a finite law
whose atom table H has integer entries with C(N, 2) * max|H| < 2**53, and
where (N - 1) * A * dim < C(N, 2) for A atoms, replicas are drawn as atom
indices (`draw_atoms_batch`) and their prefix statistics are read from H
(`ustats._count_prefix_sums`), O(N * A * dim) per replica. Every partial
sum on that route and on the gather is then an exact integer, so the two
give the same bytes; the rule reads only H, N, A and dim.

The statistics verified here are structural readings of deviation bounds
for degenerate U-statistics: the running maximum of prefix norms scales
like N^(m - d/2) with tail exponent 2/d; incomplete designs normalize by
the selected-tuple count; complete tails are dominated by decoupled tails
up to one multiplicative constant applied both outside and inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .confidence import quantile_interval, wilson_bounds
from .distributions import (
    ENUMERATION_BUDGET,
    FiniteDistribution,
    SamplerSpec,
    draw_atoms_batch,
    draw_iid,
    draw_iid_batch,
    mix_ids,
    mix_ids_batch,
)
from .hilbert import HilbertSpace, row_norms
from .hoeffding import degeneracy_order
from .kernels import KernelSpec, _atom_table, _tail_means, _tuple_probs, check_sup_bound
from .ustats import (
    SamplingDesign,
    _count_prefix_sums,
    _stacked_values,
    _tuple_columns,
    check_design,
    design_counts_batch,
    design_mean_factor,
    inc_count,
    running_max_norms,
)

__all__ = [
    "ExperimentConfig",
    "replicate",
    "TailScanReport",
    "tail_scan",
    "fit_tail_exponent",
    "FIT_WINDOW",
    "BoundEnvelope",
    "EnvelopeValue",
    "envelope_eval",
    "bounded_kernel_tail",
    "empirical_tail",
    "hk_tail_oracle",
    "ScalingCell",
    "ScalingRow",
    "ScalingReport",
    "incomplete_scaling_experiment",
    "MatchingPointReport",
    "matching_point_compare",
    "DecoupleReport",
    "decouple_compare",
    "coordinate_kernel",
]

FIT_WINDOW = (1e-3, 0.5)
MIN_FIT_POINTS = 5
MIN_TAIL_COUNT = 10  # grid points below this count are unusable for ratios

_ROLE_DATA = 11
_ROLE_DESIGN = 12
_ROLE_DEC = 13
_ROLE_FIXED = 14
# Values per batch of replicas: the tail scan draws its replicas in batches
# of this many sample values and evaluates them in batches of this many
# gathered tuples (N=40, m=2: 819 and 42 replicas); the design and
# decoupling experiments draw and evaluate batches of this many tuples. The
# footprint then does not grow with the replica count. At 2**17 each batch's
# 1 MiB temporaries were page-faulted back in on every batch, which made the
# scan slower.
_CHUNK_VALUES = 2**15


MIN_REPLICAS = 100


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Inputs shared by the Monte Carlo experiments.

    normalization selects the tail-scan scaling: "degenerate" divides the
    running maximum by N^(m - d/2), "raw" leaves it unscaled.
    """

    kernel: KernelSpec
    sampler: SamplerSpec
    sample_size: int
    replicas: int
    master_seed: int
    x_grid: np.ndarray | None = None
    design: SamplingDesign | None = None
    normalization: str = "degenerate"

    def __post_init__(self) -> None:
        if self.sample_size < self.kernel.arity:
            raise ValueError("sample_size must be at least the kernel arity")
        if self.replicas < MIN_REPLICAS:
            raise ValueError(f"replicas must be at least {MIN_REPLICAS}")
        if self.normalization not in ("degenerate", "raw"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.x_grid is not None:
            grid = np.asarray(self.x_grid, dtype=np.float64)
            if grid.ndim != 1 or grid.size < 1 or grid[0] <= 0 or np.any(np.diff(grid) <= 0):
                raise ValueError("x_grid must be strictly increasing and positive")
            object.__setattr__(self, "x_grid", grid)


def replicate(
    config: ExperimentConfig,
    stat_fn: Callable[[int], float] | None = None,
    atom_table: np.ndarray | None = None,
) -> np.ndarray:
    """Per-replica statistic values, in replica order.

    The default statistic is the running maximum of prefix norms of the
    complete U-statistic on a fresh sample per replica, computed over
    fixed-size batches of replicas, from atom indices where `_count_table`
    allows it and from gathered pairs otherwise. A user `stat_fn` is called
    once per replica index. A caller that has built the kernel's atom table
    on the sampler's finite support (`kernels._atom_table`) passes it as
    `atom_table`.
    """
    if stat_fn is not None:
        return np.fromiter(map(stat_fn, range(config.replicas)), np.float64, config.replicas)
    kernel, n = config.kernel, config.sample_size
    bound_sampler = _reseeded(config.sampler, config.master_seed)
    streams = mix_ids_batch(_ROLE_DATA, np.arange(config.replicas))
    table = _count_table(kernel, config.sampler, n, atom_table)
    if table is None:
        draw, values = draw_iid_batch, inc_count(kernel.arity, n)
    else:
        draw, values = draw_atoms_batch, (n - 1) * table[0].size
    out = []
    for drawn in _batches(config.replicas, n):
        samples = draw(bound_sampler, n, streams[drawn])
        for b in _batches(drawn.size, values):
            if table is None:
                out.append(running_max_norms(kernel, samples[b]))
            else:
                prefixes = _count_prefix_sums(table, samples[b])
                out.append(row_norms(kernel.codomain, prefixes).max(axis=1))
    return np.concatenate(out)


def _count_table(
    kernel: KernelSpec, sampler: SamplerSpec, n: int, table: np.ndarray | None = None
) -> np.ndarray | None:
    """The (A, A, dim) atom table when the replicas can run on atom counts.

    That is an arity-2 kernel on a finite law whose table H has integer
    entries with C(n, 2) * max|H| < 2**53, so that every partial sum on the
    count path and on the gather is an exact integer and the two give the
    same bytes, and where the count path touches fewer values than the
    gather: (n - 1) * A * dim < C(n, 2). Otherwise None. `table` is the
    (A**2, dim) `_atom_table(kernel, support)`, if the caller has built it.
    """
    support = sampler.finite_support()
    if kernel.arity != 2 or support is None:
        return None
    size, pairs = support.size, inc_count(2, n)
    if (n - 1) * size * kernel.codomain.dim >= pairs or size**2 > ENUMERATION_BUDGET:
        return None
    if table is None:
        table = _atom_table(kernel, support)
    if not _exact_sums(_integer_max(table), pairs):
        return None
    return table.reshape(size, size, -1)


def _integer_max(values: np.ndarray) -> float:
    """max|value| when every value is an integer, else inf."""
    if not np.all(values == np.round(values)):
        return math.inf
    return float(np.abs(values).max(initial=0.0))


def _exact_sums(values_bound: float, weight_total) -> bool:
    """Whether every sum of integer values of magnitude at most values_bound
    (inf when they are not all integers), with integer weights of total
    magnitude at most weight_total, is exact in any order:
    weight_total * values_bound < 2**53."""
    return bool(values_bound < math.inf and weight_total * values_bound < 2.0**53)


def _batches(count: int, values: int):
    """Indices 0..count-1 in batches of _CHUNK_VALUES // values."""
    step = max(1, _CHUNK_VALUES // values)
    return (np.arange(s, min(s + step, count)) for s in range(0, count, step))


def _reseeded(sampler: SamplerSpec, master_seed: int) -> SamplerSpec:
    """Bind a sampler to the experiment's master seed."""
    return SamplerSpec(
        kind=sampler.kind,
        seed_stream=master_seed,
        dist=sampler.dist,
        grid_points=sampler.grid_points,
        space=sampler.space,
    )


def _spot_check_sup(kernel: KernelSpec, sample: np.ndarray, context: str) -> None:
    """One batch of kernel values against the declared sup bound."""
    if kernel.sup_bound is None:
        return
    rows = np.asarray(sample, dtype=np.float64)[None]
    cols = _tuple_columns(kernel.arity, min(rows.shape[1], 12))
    vals = _stacked_values(kernel, (rows,) * kernel.arity, cols)
    check_sup_bound(kernel, row_norms(kernel.codomain, vals[0]), context)


# ---------------------------------------------------------------------------
# Tail scans


@dataclass(frozen=True)
class TailScanReport:
    """Empirical tails of the normalized running maximum plus the decay fit."""

    x_grid: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    replicas: int
    sample_size: int
    degeneracy: int
    normalization: float  # N^(m - d/2), or 1.0 in raw mode
    target_exponent: float  # 2/d
    beta: float | None  # fitted decay exponent
    fit_window: tuple[float, float]
    fit_points: int
    fit_available: bool


def fit_tail_exponent(
    xs: np.ndarray,
    p_hat: np.ndarray,
    window: tuple[float, float] = FIT_WINDOW,
    min_points: int = MIN_FIT_POINTS,
) -> tuple[float | None, int]:
    """Least-squares slope of log(-log p) against log x inside the window."""
    xs = np.asarray(xs, dtype=np.float64)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    mask = (p_hat >= window[0]) & (p_hat <= window[1]) & (xs > 0)
    used = int(mask.sum())
    if used < min_points:
        return None, used
    lx = np.log(xs[mask])
    ly = np.log(-np.log(p_hat[mask]))
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, _), *_ = np.linalg.lstsq(design, ly, rcond=None)
    return float(slope), used


def tail_scan(config: ExperimentConfig, degeneracy: int | None = None) -> TailScanReport:
    """Scan the tail of max_{m <= n' <= N} ||U_{n'}|| / N^(m - d/2).

    The degeneracy order d comes from exact projections when the sampling
    law has finite support; laws without one must state d explicitly. A
    kernel that is not centered under the law is rejected: the fully
    degenerate normalization would not apply.
    """
    if config.x_grid is None:
        raise ValueError("tail_scan needs x_grid")
    kernel, n = config.kernel, config.sample_size
    support = config.sampler.finite_support()
    table = None
    if support is not None:
        table = _atom_table(kernel, support)  # read by the degeneracy check and the count route
        report = degeneracy_order(kernel, support, table=table)
        if report.mean_norm > report.tol:
            raise ValueError(
                "kernel is not centered under the sampling law; "
                "the degenerate normalization does not apply"
            )
        d = report.order
        if degeneracy is not None and degeneracy != d:
            raise ValueError(f"stated degeneracy {degeneracy} but computed order is {d}")
    else:
        d = degeneracy if degeneracy is not None else kernel.declared_degeneracy
        if d is None:
            raise ValueError("no finite support: pass the degeneracy order explicitly")
    factor = float(n) ** (kernel.arity - d / 2.0) if config.normalization == "degenerate" else 1.0

    _spot_check_sup(
        kernel, draw_iid(_reseeded(config.sampler, config.master_seed), n, mix_ids(_ROLE_DATA, 0)),
        "tail_scan",
    )
    stats = replicate(config, atom_table=table) / factor
    counts = np.count_nonzero(stats[None, :] > config.x_grid[:, None], axis=1)
    p_hat = counts / config.replicas
    lo, hi = wilson_bounds(counts, config.replicas)
    beta, used = fit_tail_exponent(config.x_grid, p_hat)
    return TailScanReport(
        x_grid=config.x_grid,
        p_hat=p_hat,
        ci_lo=lo,
        ci_hi=hi,
        replicas=config.replicas,
        sample_size=n,
        degeneracy=d,
        normalization=factor,
        target_exponent=2.0 / d,
        beta=beta,
        fit_window=FIT_WINDOW,
        fit_points=used,
        fit_available=beta is not None,
    )


# ---------------------------------------------------------------------------
# Bound envelopes


@dataclass(frozen=True)
class BoundEnvelope:
    """Two-term deviation envelope evaluated pointwise.

    envelope(x) = first_coefficient * exp(-(x / scale)^(2/arity))
        + second_coefficient * integral_1^inf u (1 + log u)^q
              * tail(tail_scale * scale * u) du,

    with q = arity (arity + 1) / 2 (the larger of the two published log
    powers; the discrepancy is flagged upstream, not resolved here).
    """

    arity: int
    scale: float  # y
    first_coefficient: float = 1.0
    second_coefficient: float = 1.0
    tail_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be positive")
        if self.scale <= 0 or self.tail_scale <= 0:
            raise ValueError("scale and tail_scale must be positive")

    @property
    def p_m(self) -> float:
        """The smaller published log power, m (m + 1) / 2 - 1."""
        return self.arity * (self.arity + 1) / 2.0 - 1.0

    @property
    def log_power(self) -> float:
        """The exponent actually integrated (the larger of the two)."""
        return self.arity * (self.arity + 1) / 2.0


@dataclass(frozen=True)
class EnvelopeValue:
    total: float
    first_term: float
    second_term: float
    diverged: bool
    u_max: float
    resolution: int


def bounded_kernel_tail(bound: float) -> Callable[[float], float]:
    """Indicator tail of a kernel bounded by `bound`: 1 below it, 0 at or above."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return lambda t: 1.0 if t < bound else 0.0


def empirical_tail(samples: np.ndarray) -> Callable[[float], float]:
    """Step-function tail t -> fraction of samples strictly above t."""
    sorted_samples = np.sort(np.asarray(samples, dtype=np.float64))
    n = sorted_samples.size
    if n < 1:
        raise ValueError("need at least one sample")
    return lambda t: float(n - np.searchsorted(sorted_samples, t, side="right")) / n


def hk_tail_oracle(kernel: KernelSpec, dist: FiniteDistribution, k: int) -> Callable[[float], float]:
    """Exact tail of H_k = E[ ||h(xi_1..xi_m)|| | xi_1..xi_k ] on finite support.

    H_k's values on the A**k atom k-tuples integrate the norms of one kernel
    table on the support (`kernels._atom_table`) over its last m - k axes,
    as `partial_expectations` integrates the values themselves.
    """
    if not 0 <= k <= kernel.arity:
        raise ValueError(f"k must lie in [0, {kernel.arity}]")
    norms = row_norms(kernel.codomain, _atom_table(kernel, dist))[:, None]
    values = _tail_means(norms, dist.probs, kernel.arity - k)[:, 0]
    order = np.argsort(values)
    vals = values[order]
    cum = np.cumsum(_tuple_probs(dist.probs, k)[order])

    def tail(t: float) -> float:
        idx = np.searchsorted(vals, t, side="right")
        return float(1.0 - (cum[idx - 1] if idx > 0 else 0.0))

    return tail


def _simpson_log(integrand: Callable[[float], float], a: float, b: float, panels: int) -> float:
    """Composite Simpson of integrand(u) du on [a, b] in log-u coordinates."""
    if b <= a:
        return 0.0
    w = np.linspace(np.log(a), np.log(b), 2 * panels + 1)
    u = np.exp(w)
    f = np.array([integrand(v) * v for v in u])  # du = u dw
    h = (w[-1] - w[0]) / (2 * panels)
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum()))


def envelope_eval(
    env: BoundEnvelope,
    x: float,
    tail_oracle: Callable[[float], float] | np.ndarray,
    resolution: int = 64,
    u_max: float | None = None,
) -> EnvelopeValue:
    """Evaluate the envelope at x with the given tail oracle.

    Array oracles become empirical step tails with a finite support, so the
    integral truncates itself. Callable oracles are integrated over
    doubling octaves until the increment is negligible; an increment
    sequence that stops shrinking marks the envelope as diverged (the tail
    is too heavy for the bound to carry information).
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if isinstance(tail_oracle, np.ndarray) or (
        not callable(tail_oracle) and hasattr(tail_oracle, "__len__")
    ):
        samples = np.asarray(tail_oracle, dtype=np.float64)
        tail = empirical_tail(samples)
        if u_max is None:
            u_max = max(2.0, 2.0 * float(samples.max()) / (env.tail_scale * env.scale))
    else:
        tail = tail_oracle

    first = env.first_coefficient * math.exp(-((x / env.scale) ** (2.0 / env.arity)))
    power = env.log_power
    arg_scale = env.tail_scale * env.scale

    def integrand(u: float) -> float:
        return u * (1.0 + math.log(u)) ** power * tail(arg_scale * u)

    diverged = False
    if u_max is not None:
        second = _simpson_log(integrand, 1.0, u_max, resolution)
        reached = u_max
    else:
        total = _simpson_log(integrand, 1.0, 2.0, resolution)
        lo, increment = 2.0, math.inf
        growth = 0
        while True:
            piece = _simpson_log(integrand, lo, 2.0 * lo, resolution)
            if piece <= 1e-12 * max(total, 1e-300):
                break
            growth = growth + 1 if piece >= increment else 0
            if growth >= 4 or lo > 2.0**60:
                diverged = True
                break
            total += piece
            increment = piece
            lo *= 2.0
        second = total
        reached = lo
    second *= env.second_coefficient
    return EnvelopeValue(
        total=first + second,
        first_term=first,
        second_term=second,
        diverged=diverged,
        u_max=float(reached),
        resolution=resolution,
    )


# ---------------------------------------------------------------------------
# Incomplete-design scaling


@dataclass(frozen=True)
class ScalingCell:
    sample_size: int
    design: SamplingDesign


@dataclass(frozen=True)
class ScalingRow:
    sample_size: int
    design_kind: str
    design_param: float  # size for replacement kinds, rate for bernoulli
    replicas: int
    used: int  # replicas entering the quantile (nonempty selections)
    empty_count: int
    quantile: float
    quantile_lo: float
    quantile_hi: float
    unbias_max_sigmas: float
    unbias_ok: bool


@dataclass(frozen=True)
class ScalingReport:
    quantile_level: float
    degeneracy: int
    rows: tuple[ScalingRow, ...]

    @property
    def spread(self) -> float:
        """max/min ratio of normalized quantiles across rows with a finite one
        (a row with fewer than two usable replicas has a NaN quantile)."""
        qs = [r.quantile for r in self.rows if math.isfinite(r.quantile)]
        if not qs or min(qs) <= 0:
            return math.inf
        return max(qs) / min(qs)


def _design_normalizer(design: SamplingDesign, nonzero, n: int, m: int, d: int):
    """The deviation-bound normalization of realized selections.

    Replacement designs normalize by the realized count of distinct selected
    tuples (only nonzero weights enter the bound), NaN where it is zero; the
    Bernoulli design has the deterministic rate-based form
    n^m sqrt(p) sqrt(min(p, n^-d)).
    """
    if design.kind == "bernoulli":
        p = design.rate
        return float(n**m) * math.sqrt(p) * math.sqrt(min(p, float(n) ** (-d)))
    nonzero = np.asarray(nonzero, dtype=np.float64)
    normalizer = np.sqrt(nonzero * np.minimum(nonzero, float(n) ** (m - d)))
    return np.where(nonzero < 1, math.nan, normalizer)


def _columns(m: int, n: int) -> tuple[np.ndarray, ...]:
    """Index columns of all C(n, m) tuples, which these experiments gather whole."""
    cols = _tuple_columns(m, n)
    if cols is None:
        raise ValueError("tuple enumeration too large to materialize for this experiment")
    return cols


def _selection_sums(vals: np.ndarray, weights: np.ndarray, values_bound: float) -> np.ndarray:
    """Each replica's sum of weights[b, t] * vals[b, t] over its tuples with
    nonzero weight, shape (B, dim); a replica with none sums to zero.

    vals is (B, T, dim), or (T, dim) shared by the batch; weights are bool
    or integer counts. Each sum has the bytes of np.add.reduce over the
    replica's own compressed rows in ascending rank order, as a lone
    selection's `vals[ranks] * counts` was reduced: the reduction is
    pairwise at dim 1, so zero padding would in general change the bits.
    Where `_dense_sums_exact` holds, every order gives those bytes, and the
    sums are one dense product. values_bound is `_dense_values_bound(vals)`.
    """
    if _dense_sums_exact(weights, values_bound):
        dense = weights.astype(np.float64)
        dense = dense @ vals if vals.ndim == 2 else np.einsum("bt,btd->bd", dense, vals)
        # zero-weight terms 0 * v are -0 for v < 0; a sum of them alone would be
        # -0 from an accumulator that starts at its first term, not at +0
        return dense + 0.0
    reps, ranks = np.nonzero(weights)
    rows = vals[reps, ranks] if vals.ndim == 3 else vals[ranks]
    rows = rows * weights[reps, ranks][:, None]
    lengths = np.count_nonzero(weights, axis=1)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.zeros((weights.shape[0], vals.shape[-1]))
    for b in np.flatnonzero(lengths):
        out[b] = np.add.reduce(rows[starts[b] : ends[b]], axis=0)
    return out


def _dense_values_bound(vals: np.ndarray) -> float:
    """The values half of `_dense_sums_exact`: max|vals| for integer values
    with no -0, else inf."""
    if np.any(np.signbit(vals) & (vals == 0)):
        return math.inf
    return _integer_max(vals)


def _dense_sums_exact(weights: np.ndarray, values_bound: float) -> bool:
    """Whether a dense weights-by-vals product gives `_selection_sums`' bytes:
    integer values with no -0 and nonnegative weights whose largest row sum
    times max|vals| is below 2**53, so that every partial sum is exact and
    no nonzero-weight term is -0. values_bound is `_dense_values_bound(vals)`,
    which a caller that sums several weight batches over the same values
    computes once."""
    if weights.min(initial=0) < 0:
        return False
    return _exact_sums(values_bound, weights.sum(axis=1).max(initial=0))


def _normalized_norms(
    kernel: KernelSpec,
    sampler: SamplerSpec,
    design: SamplingDesign,
    n: int,
    cell_id: int,
    replicas: int,
    master_seed: int,
    normalizer: Callable[[np.ndarray], np.ndarray | float],
) -> np.ndarray:
    """Per replica: the norm of its 0/1-collapsed selection sum (each selected
    tuple counted once) over normalizer(distinct selected tuples), NaN for an
    empty selection.

    Replica r reads its sample from data substream (cell_id, r) and its
    design from design substream (cell_id, r); a batch of replicas is drawn
    with one `draw_iid_batch` and evaluated with one gathered kernel call.
    """
    m = kernel.arity
    cols = _columns(m, n)
    norms = np.empty(replicas)
    distinct = np.empty(replicas, dtype=np.int64)
    for r in _batches(replicas, cols[0].size):
        samples = draw_iid_batch(sampler, n, mix_ids_batch(_ROLE_DATA, cell_id, r))
        vals = _stacked_values(kernel, (samples,) * m, cols)
        ids = mix_ids_batch(_ROLE_DESIGN, cell_id, r)
        selected = design_counts_batch(design, m, n, master_seed, ids) > 0
        sums = _selection_sums(vals, selected, _dense_values_bound(vals))
        norms[r] = row_norms(kernel.codomain, sums)
        distinct[r] = np.count_nonzero(selected, axis=1)
    return np.where(distinct > 0, norms / normalizer(distinct), math.nan)


def _design_estimates(
    fixed_vals: np.ndarray,
    design: SamplingDesign,
    m: int,
    n: int,
    cell_id: int,
    draws: int,
    master_seed: int,
) -> np.ndarray:
    """Multiplicity-weighted selection sums of the fixed sample's kernel
    values, one per design draw on fixed substream (cell_id, r), shape
    (draws, dim)."""
    out = np.empty((draws, fixed_vals.shape[1]))
    bound = _dense_values_bound(fixed_vals)
    for r in _batches(draws, fixed_vals.shape[0]):
        counts = design_counts_batch(design, m, n, master_seed, mix_ids_batch(_ROLE_FIXED, cell_id, r))
        out[r] = _selection_sums(fixed_vals, counts, bound)
    return out


def incomplete_scaling_experiment(
    kernel: KernelSpec,
    sampler: SamplerSpec,
    cells: Sequence[ScalingCell],
    replicas: int,
    master_seed: int,
    quantile: float = 0.9,
    unbiasedness_draws: int | None = None,
) -> ScalingReport:
    """Normalized quantiles and design unbiasedness across a (n, design) grid.

    Per cell, two statistics are formed. The quantile column takes the
    0/1-collapsed selection sum (the deviation bounds' weight formalism)
    normalized per replica; replicas with empty selections are excluded and
    counted. The unbiasedness column uses the multiplicity-weighted
    estimator on one fixed sample: its design mean must match
    E[#selected]/C(n,m) times the complete statistic within 4 standard
    errors, coordinatewise.

    Replicas run in batches. Every cell's design, tuple count and sup bound
    are checked before any replica is drawn.
    """
    support = sampler.finite_support()
    if support is None:
        raise ValueError("scaling experiment needs a finite sampling law")
    deg = degeneracy_order(kernel, support)
    d = deg.order
    m = kernel.arity
    draws = unbiasedness_draws if unbiasedness_draws is not None else min(replicas, 2000)
    bound_sampler = _reseeded(sampler, master_seed)
    for cell_id, cell in enumerate(cells):
        if cell.sample_size < m:
            raise ValueError("sample_size must be at least the kernel arity")
        check_design(cell.design, m, cell.sample_size)
        _columns(m, cell.sample_size)
        _spot_check_sup(
            kernel,
            draw_iid(bound_sampler, cell.sample_size, mix_ids(_ROLE_DATA, cell_id, 0)),
            "incomplete scaling",
        )

    rows = []
    for cell_id, cell in enumerate(cells):
        n, design = cell.sample_size, cell.design
        stats = _normalized_norms(
            kernel, bound_sampler, design, n, cell_id, replicas, master_seed,
            lambda distinct: _design_normalizer(design, distinct, n, m, d),
        )
        usable = stats[~np.isnan(stats)]
        empty_count = replicas - usable.size
        if usable.size >= 2:
            q, q_lo, q_hi = quantile_interval(usable, quantile)
        else:
            q = q_lo = q_hi = math.nan

        fixed_sample = draw_iid(bound_sampler, n, mix_ids(_ROLE_FIXED, cell_id))
        fixed_vals = _stacked_values(kernel, (fixed_sample[None],) * m, _columns(m, n))[0]
        target = design_mean_factor(design, m, n) * np.add.reduce(fixed_vals, axis=0)
        ests = _design_estimates(fixed_vals, design, m, n, cell_id, draws, master_seed)
        mean = ests.mean(axis=0)
        se = ests.std(axis=0, ddof=1) / math.sqrt(draws)
        dev = np.abs(mean - target)
        with np.errstate(divide="ignore", invalid="ignore"):
            sigmas = np.where(dev == 0.0, 0.0, dev / se)
        max_sigmas = float(np.max(sigmas)) if sigmas.size else 0.0

        rows.append(
            ScalingRow(
                sample_size=n,
                design_kind=design.kind,
                design_param=float(design.rate if design.kind == "bernoulli" else design.size),
                replicas=replicas,
                used=int(usable.size),
                empty_count=int(empty_count),
                quantile=float(q),
                quantile_lo=float(q_lo),
                quantile_hi=float(q_hi),
                unbias_max_sigmas=max_sigmas,
                unbias_ok=bool(max_sigmas <= 4.0),
            )
        )
    return ScalingReport(quantile_level=quantile, degeneracy=d, rows=tuple(rows))


def coordinate_kernel() -> KernelSpec:
    """Arity-1 scalar kernel h(x) = x (centered under symmetric laws)."""
    return KernelSpec(
        arity=1,
        codomain=HilbertSpace.euclidean(1),
        eval_batch=lambda x: x,
        symmetric=True,
        declared_degeneracy=1,
        name="coordinate",
    )


@dataclass(frozen=True)
class MatchingPointReport:
    """Both incomplete pipelines at the point where their normalizations meet."""

    sample_size: int
    size: int  # selection size of the replacement pipeline
    rate: float  # bernoulli rate with n^m * rate = size
    normalizer: float  # common to both pipelines, exactly
    quantile_level: float
    replacement_quantile: float
    replacement_lo: float
    replacement_hi: float
    bernoulli_quantile: float
    bernoulli_lo: float
    bernoulli_hi: float
    bernoulli_empty: int
    overlap: bool


def matching_point_compare(
    sampler: SamplerSpec,
    sample_size: int,
    size: int,
    replicas: int,
    master_seed: int,
    quantile: float = 0.9,
) -> MatchingPointReport:
    """Compare without-replacement(size) against bernoulli(size / n) at arity 1.

    At arity 1 the tuple count C(n, 1) equals n^1, so setting the bernoulli
    rate to size/n makes the two design normalizations coincide exactly
    and matches the expected selection sizes; higher arities carry a
    combinatorial m! mismatch between C(n, m) and n^m and are reported by
    the scaling experiment instead of asserted here.

    Quantile intervals come from order statistics, so a lattice-valued
    sampling law can collapse them onto single atoms and defeat the overlap
    check; prefer a continuous law here. Replicas run in batches.
    """
    kernel = coordinate_kernel()
    n = sample_size
    if not 1 <= size <= n:
        raise ValueError("size must lie in [1, n]")
    rate = size / n
    wo = SamplingDesign(kind="without-replacement", size=size)
    bern = SamplingDesign(kind="bernoulli", rate=rate)
    d = 1
    norm_wo = float(_design_normalizer(wo, size, n, 1, d))
    norm_bern = _design_normalizer(bern, size, n, 1, d)
    if not math.isclose(norm_wo, norm_bern, rel_tol=1e-12):
        raise AssertionError(f"normalizers should coincide: {norm_wo} vs {norm_bern}")
    bound_sampler = _reseeded(sampler, master_seed)

    stats_wo, stats_b = (
        _normalized_norms(
            kernel, bound_sampler, design, n, cell_id, replicas, master_seed, lambda _: norm_wo
        )
        for cell_id, design in enumerate((wo, bern))
    )
    usable_b = stats_b[~np.isnan(stats_b)]
    q_wo, lo_wo, hi_wo = quantile_interval(stats_wo, quantile)
    q_b, lo_b, hi_b = quantile_interval(usable_b, quantile)
    return MatchingPointReport(
        sample_size=n,
        size=size,
        rate=rate,
        normalizer=norm_wo,
        quantile_level=quantile,
        replacement_quantile=q_wo,
        replacement_lo=lo_wo,
        replacement_hi=hi_wo,
        bernoulli_quantile=q_b,
        bernoulli_lo=lo_b,
        bernoulli_hi=hi_b,
        bernoulli_empty=int(replicas - usable_b.size),
        overlap=bool(max(lo_wo, lo_b) <= min(hi_wo, hi_b)),
    )


# ---------------------------------------------------------------------------
# Decoupling comparison


@dataclass(frozen=True)
class DecoupleReport:
    """Complete vs. decoupled tails and the fitted domination constant."""

    x_grid: np.ndarray
    p_complete: np.ndarray
    p_decoupled: np.ndarray
    usable: np.ndarray  # both tails saw at least MIN_TAIL_COUNT hits
    replicas: int
    fitted_constant: float | None
    constant_defined: bool


def decouple_compare(config: ExperimentConfig) -> DecoupleReport:
    """Fit the smallest K >= 1 with P(||U|| > x) <= K P(K ||U_dec|| > x).

    Grid points where either empirical tail drops below MIN_TAIL_COUNT
    replicas are excluded from the fit; if nothing remains the constant is
    flagged undefined rather than extrapolated.
    """
    if config.x_grid is None:
        raise ValueError("decouple_compare needs x_grid")
    stats_u, stats_d = _decouple_stats(config)
    R = config.replicas
    counts_u = np.array([np.count_nonzero(stats_u > x) for x in config.x_grid])
    counts_d = np.array([np.count_nonzero(stats_d > x) for x in config.x_grid])
    usable = (counts_u >= MIN_TAIL_COUNT) & (counts_d >= MIN_TAIL_COUNT)
    p_u = counts_u / R
    p_d = counts_d / R

    fitted: float | None = None
    if np.any(usable):
        dec_tail = empirical_tail(stats_d)
        xs = config.x_grid[usable]
        targets = p_u[usable]

        def dominated(k: float) -> bool:
            return all(p <= k * dec_tail(x / k) + 1e-15 for x, p in zip(xs, targets))

        hi = 1.0
        while not dominated(hi):
            hi *= 2.0
            if hi > 2.0**40:
                break
        if dominated(hi):
            lo = hi / 2.0 if hi > 1.0 else 1.0
            if hi == 1.0:
                fitted = 1.0
            else:
                for _ in range(60):
                    mid = math.sqrt(lo * hi)
                    if dominated(mid):
                        hi = mid
                    else:
                        lo = mid
                fitted = hi
    return DecoupleReport(
        x_grid=config.x_grid,
        p_complete=p_u,
        p_decoupled=p_d,
        usable=usable,
        replicas=R,
        fitted_constant=fitted,
        constant_defined=fitted is not None,
    )


def _decouple_stats(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per replica: ||U|| of the complete statistic on data substream r, and
    ||U_dec|| of the decoupled one whose slot l reads substream (l, r).

    Like the tail scan's, replicas are drawn in batches of _CHUNK_VALUES // n
    (one `draw_iid_batch` per role) and evaluated in batches of
    _CHUNK_VALUES // C(n, m) (one gathered kernel call per statistic). The
    tuple sums reduce along the tuple axis with the `np.add.reduce` that
    `complete` and `decoupled` use for one sample, whichever evaluator the
    kernel was given.
    """
    kernel, n, R = config.kernel, config.sample_size, config.replicas
    m = kernel.arity
    cols = _columns(m, n)
    bound_sampler = _reseeded(config.sampler, config.master_seed)
    _spot_check_sup(kernel, draw_iid(bound_sampler, n, mix_ids(_ROLE_DATA, 0)), "decouple_compare")
    stats_u, stats_d = np.empty(R), np.empty(R)
    for drawn in _batches(R, n):
        sample = draw_iid_batch(bound_sampler, n, mix_ids_batch(_ROLE_DATA, drawn))
        copies = [
            draw_iid_batch(bound_sampler, n, mix_ids_batch(_ROLE_DEC, slot, drawn)) for slot in range(m)
        ]
        for b in _batches(drawn.size, cols[0].size):
            vals = _stacked_values(kernel, (sample[b],) * m, cols)
            stats_u[drawn[b]] = row_norms(kernel.codomain, np.add.reduce(vals, axis=1))
            dec = _stacked_values(kernel, tuple(c[b] for c in copies), cols)
            stats_d[drawn[b]] = row_norms(kernel.codomain, np.add.reduce(dec, axis=1))
    return stats_u, stats_d
