"""Monte Carlo harness: tail scans, bound envelopes, and design experiments.

Replication discipline: replica r draws every input from substreams keyed
by (the sampler's `seed_stream`, role, r), the one seed a run takes, so
results are a pure function of the replica index and survive any
scheduling order or batch size bit for bit.
Reductions over replicas happen in replica order. Every experiment runs
on one thread over bounded batches of replicas from one producer,
`_sample_batches`: it draws _CHUNK_VALUES // n replicas with one
`draw_iid_batch` per data role and hands them out _CHUNK_VALUES // C(n, m)
at a time, whose tuples go to one gathered kernel call. Incomplete
designs are drawn per replica on its own re-keyed Philox substream (its
words fix the bytes): with-replacement and bernoulli designs map those
words in one pass per batch, and a 0/1 selection reads a fixed prefix of
them (`ustats._design_batch` with `selected`).
Every selection sum goes through `ustats`: the 0/1-collapsed sums through
`_selection_sums`, the multiplicity-weighted ones through
`design_sums_batch`, and `ustats` alone decides when a sum is exact.

On a finite law the tail scan draws its replicas as atom indices
(`atom_blocks`) and reads their running maxima on the route
`ustats._atom_route` chooses, where it gives the gather's bytes; every other
law and kernel gathers every tuple. The atom-block loop and the
with-replacement design loop allocate their batch buffers (Philox lanes of
a step chunk, the step-major atom indices, Lemire values, sample values)
once per call: every batch writes into them, a partial last batch into a
prefix of them, and each replica's maximum goes straight into the output.

The statistics verified here are structural readings of deviation bounds
for degenerate U-statistics: the running maximum of prefix norms scales
like N^(m - d/2) with tail exponent 2/d; incomplete designs normalize by
the selected-tuple count; complete tails are dominated by decoupled tails
up to one multiplicative constant applied both outside and inside, read
in closed form from the sorted decoupled norms. The tail scan builds the
bound envelope at the order it computes, with the exact tail its integral
term reads, so every caller gets the bound beside p_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .confidence import _tail_counts, _tail_triples, quantile_interval
from .distributions import (
    FiniteDistribution,
    SamplerSpec,
    atom_blocks,
    draw_iid,
    draw_iid_batch,
    mix_ids,
    mix_ids_batch,
)
from .hilbert import HilbertSpace, row_norms
from .hoeffding import _projections, degeneracy_order
from .kernels import (
    KernelSpec, _atom_table, _tail_means, _tuple_probs, check_sup_bound,
)
from .ustats import (
    SamplingDesign,
    _atom_route,
    _design_batch,
    _exact_bound,
    _selection_sums,
    _stacked_values,
    _sum_tuples,
    _tuple_count,
    _tuple_columns,
    check_design,
    design_mean_factor,
    design_sums_batch,
    inc_count,
    running_max_norms,
)

__all__ = [
    "ExperimentConfig",
    "replicate",
    "TailScanReport",
    "tail_scan",
    "fit_tail_exponent",
    "BoundEnvelope",
    "EnvelopeValue",
    "envelope_eval",
    "ScalingCell",
    "ScalingReport",
    "incomplete_scaling_experiment",
    "MatchingPointReport",
    "matching_point_compare",
    "DecoupleReport",
    "decouple_compare",
]

FIT_WINDOW = (1e-3, 0.5)
MIN_FIT_POINTS = 5
MIN_TAIL_COUNT = 10  # grid points below this count are unusable for ratios

_ROLE_DATA = 11
_ROLE_DESIGN = 12
_ROLE_DEC = 13
_ROLE_FIXED = 14
# Values per batch of replicas: `_sample_batches` draws replicas in batches
# of this many sample values and hands them out in batches of this many
# gathered tuples (84 replicas at N=40, m=2). The atom routes
# draw twice as many values a batch, and at least _CHUNK_VALUES // 64
# replicas (3276 at N=40, 1024 at N=2560), so that each of their per-step
# ufunc calls spans thousands of replicas; their atom indices are one
# step-major (N, B) int64 block (21 MB at N=2560), drawn in step chunks. The
# footprint then does not grow with the replica count. Per-call numpy
# overhead (~1 us) makes 2**16 about 8% faster than 2**15 on a 2-vCPU Xeon,
# for 1 MB more peak RSS.
_CHUNK_VALUES = 2**16


MIN_REPLICAS = 100


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Inputs shared by the Monte Carlo experiments."""

    kernel: KernelSpec
    sampler: SamplerSpec
    sample_size: int
    replicas: int
    x_grid: np.ndarray | None = None

    def __post_init__(self) -> None:
        _tuple_count(self.kernel.arity, self.sample_size, cap=math.inf)  # the atom routes need no enumeration
        if self.replicas < MIN_REPLICAS:
            raise ValueError(f"replicas must be at least {MIN_REPLICAS}")
        if self.x_grid is not None:
            grid = np.asarray(self.x_grid, dtype=np.float64)
            increasing = grid.ndim == 1 and grid.size >= 1 and np.all(np.diff(grid) > 0)
            if not (increasing and 0 < grid[0] and grid[-1] < math.inf):
                raise ValueError("x_grid must be strictly increasing, positive and finite")
            object.__setattr__(self, "x_grid", grid)


def replicate(config: ExperimentConfig, atom_table: np.ndarray | None = None) -> np.ndarray:
    """Per-replica statistic values, in replica order.

    The statistic is the running maximum of prefix norms of the complete
    U-statistic on a fresh sample per replica, computed over fixed-size
    batches of replicas: from atom indices on the route `ustats._atom_route`
    chooses, else from gathered tuples. A caller that has built the kernel's
    atom table on the sampler's finite support (`kernels._atom_table`)
    passes it as `atom_table`.
    """
    kernel, n = config.kernel, config.sample_size
    out = np.empty(config.replicas)
    batch = max(1, 2 * _CHUNK_VALUES // n, _CHUNK_VALUES // 64)
    route = _atom_route(kernel, config.sampler.finite_support(), n, min(batch, config.replicas), atom_table)
    if route is None:
        _tuple_count(kernel.arity, n)  # the gather's cap, refused before any draw
        for r, (samples,) in _sample_batches(config.sampler, n, kernel.arity, config.replicas, (_ROLE_DATA,)):
            out[r] = running_max_norms(kernel, samples)
        return out
    streams = mix_ids_batch(_ROLE_DATA, np.arange(config.replicas))
    start = 0
    for drawn in atom_blocks(config.sampler, n, streams, batch):
        route(drawn.T, out[start : start + len(drawn)])  # the C-contiguous step-major batch
        start += len(drawn)
    return out


def _sample_batches(sampler: SamplerSpec, n: int, m: int, replicas: int, *roles: tuple[int, ...]):
    """Replicas 0..replicas-1 as (r, stacks), stacks[i] the size-n samples the
    replicas r draw from substreams (*roles[i], r): drawn _CHUNK_VALUES // n
    replicas at a time, one `draw_iid_batch` per role, and handed out in rows of
    _CHUNK_VALUES // C(n, m) replicas, whose tuples an arity-m kernel evaluates.
    A caller must not write into the rows."""
    per_draw, per_eval = max(1, _CHUNK_VALUES // n), max(1, _CHUNK_VALUES // inc_count(m, n))
    for start in range(0, replicas, per_draw):
        drawn = np.arange(start, min(start + per_draw, replicas))
        # Rows are views of the batch's stacks, which the rows last handed out
        # keep alive through the next batch's draws. Against fancy-indexed
        # copies of them, the decoupling path took 31% fewer minor faults and
        # 14% less time (glibc trims and regrows its heap under every batch).
        stacks = [draw_iid_batch(sampler, n, mix_ids_batch(*role, drawn)) for role in roles]
        for s in range(0, drawn.size, per_eval):
            b = slice(s, s + per_eval)
            yield drawn[b], tuple(stack[b] for stack in stacks)


def _spot_check_sup(kernel: KernelSpec, sampler: SamplerSpec, n: int, role: tuple[int, ...], context: str) -> None:
    """Kernel values on the first 12 points of replica 0's sample of `role`
    against the declared sup bound; nothing is drawn without one."""
    if kernel.sup_bound is None:
        return
    rows = draw_iid(sampler, n, mix_ids(*role, 0))[None]
    cols = _tuple_columns(kernel.arity, min(n, 12))
    vals = _stacked_values(kernel, (rows,) * kernel.arity, cols)
    check_sup_bound(kernel, row_norms(kernel.codomain, vals[0]), context)


# ---------------------------------------------------------------------------
# Tail scans


@dataclass(frozen=True, eq=False)
class TailScanReport:
    """Empirical tails of the normalized running maximum plus the decay fit."""

    x_grid: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    envelope: np.ndarray  # the bound envelope at each x, NaN without one
    degeneracy: int
    normalization: float  # N^(m - d/2)
    target_exponent: float  # 2/d
    beta: float | None  # fitted decay exponent
    fit_points: int
    fit_available: bool


def fit_tail_exponent(xs: np.ndarray, p_hat: np.ndarray) -> tuple[float | None, int]:
    """Least-squares slope of log(-log p) against log x over p in FIT_WINDOW."""
    xs = np.asarray(xs, dtype=np.float64)
    p_hat = np.asarray(p_hat, dtype=np.float64)
    mask = (p_hat >= FIT_WINDOW[0]) & (p_hat <= FIT_WINDOW[1]) & (xs > 0)
    used = int(mask.sum())
    if used < MIN_FIT_POINTS:
        return None, used
    lx = np.log(xs[mask])
    ly = np.log(-np.log(p_hat[mask]))
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, _), *_ = np.linalg.lstsq(design, ly, rcond=None)
    return float(slope), used


def tail_scan(
    config: ExperimentConfig,
    degeneracy: int | None = None,
    envelope: Callable[..., BoundEnvelope] | None = None,
) -> TailScanReport:
    """Scan the tail of max_{m <= n' <= N} ||U_{n'}|| / N^(m - d/2).

    The degeneracy order d comes from exact projections when the sampling
    law has finite support; laws without one must state d explicitly. A
    kernel that is not centered under the law is rejected: the fully
    degenerate normalization would not apply.

    `envelope(arity=d)` builds the bound envelope, for instance from a
    `functools.partial` of `BoundEnvelope`. The envelope column is its
    `envelope_eval(...).total` per x, NaN without one; an integral term reads
    the exact H_d tail, so it needs a finite law, checked before any replica.
    """
    if config.x_grid is None:
        raise ValueError("tail_scan needs x_grid")
    kernel, n = config.kernel, config.sample_size
    support = config.sampler.finite_support()
    table = None
    if support is not None:
        table = _atom_table(kernel, support)  # read by the degeneracy check, H_d tail and count route
        projections = _projections(kernel, support, kernel.arity, table)
        report = degeneracy_order(kernel, support, projections=projections)
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
    factor = float(n) ** (kernel.arity - d / 2.0)
    env = None if envelope is None else envelope(arity=d)
    integral = env is not None and env.second_coefficient != 0.0
    if integral and support is None:
        raise ValueError("envelope: the integral term needs a finite sampling law")
    tail = hk_tail_oracle(kernel, support, d, table) if integral else None

    stats = replicate(config, atom_table=table) / factor
    # after the replicas, so that a refused scan draws nothing
    _spot_check_sup(kernel, config.sampler, n, (_ROLE_DATA,), "tail_scan")
    p_hat, lo, hi = _tail_triples(np.sort(stats), config.x_grid)
    beta, used = fit_tail_exponent(config.x_grid, p_hat)
    column = [math.nan if env is None else envelope_eval(env, float(x), tail).total for x in config.x_grid]
    return TailScanReport(
        x_grid=config.x_grid,
        p_hat=p_hat,
        ci_lo=lo,
        ci_hi=hi,
        envelope=np.array(column),
        degeneracy=d,
        normalization=factor,
        target_exponent=2.0 / d,
        beta=beta,
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
    powers; the discrepancy is flagged upstream, not resolved here). Only
    the first term depends on x; the second depends on scale and the tail.
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
    def log_power(self) -> int:
        """The exponent actually integrated (the larger of the two)."""
        return self.arity * (self.arity + 1) // 2


@dataclass(frozen=True)
class EnvelopeValue:
    total: float
    first_term: float
    second_term: float


@dataclass(frozen=True, eq=False)
class StepTail:
    """Strict tail t -> P(V > t) of a finite law V.

    `values` holds the law's values in ascending order, one step each
    (repeats included), and `levels[i]` = P(V > values[i]) is the tail
    level after the step at values[i].
    """

    values: np.ndarray
    levels: np.ndarray

    def __call__(self, t: float) -> float:
        idx = np.searchsorted(self.values, t, side="right")
        return float(self.levels[idx - 1]) if idx > 0 else 1.0

    @property
    def masses(self) -> np.ndarray:
        """P(V = values[i]) per step: the drop of the level there."""
        return -np.diff(self.levels, prepend=1.0)


def hk_tail_oracle(
    kernel: KernelSpec, dist: FiniteDistribution, k: int, table: np.ndarray | None = None
) -> StepTail:
    """Exact tail of H_k = E[ ||h(xi_1..xi_m)|| | xi_1..xi_k ] on finite support.

    H_k's values on the A**k atom k-tuples integrate the norms of one kernel
    table on the support (`kernels._atom_table`) over its last m - k axes,
    as `partial_expectations` integrates the values themselves. A caller
    that already holds that table passes it as `table`.
    """
    if not 0 <= k <= kernel.arity:
        raise ValueError(f"k must lie in [0, {kernel.arity}]")
    norms = row_norms(kernel.codomain, _atom_table(kernel, dist) if table is None else table)[:, None]
    values = _tail_means(norms, dist.probs, kernel.arity - k)[:, 0]
    order = np.argsort(values)
    return StepTail(values[order], 1.0 - np.cumsum(_tuple_probs(dist.probs, k)[order]))


def _log_power_integral(u: np.ndarray, q: int) -> np.ndarray:
    """G(u) = integral_1^u s (1 + log s)^q ds = u^2 P(1 + log u) - P(1) for
    u >= 1, where P(w) = sum_j (-1)^j q!/(q-j)! w^(q-j) / 2^(j+1) is the
    polynomial with 2 P + P' = w^q. Its terms alternate, so its rounding
    error is about eps (u^2 T(1 + log u) + T(1)), T being P with positive
    coefficients. Where that exceeds 16 ulps of max(1, G), the positive
    series `_log_power_series` replaces it: never for q <= 3 (at most 12
    ulps there), and near u = 1 from q = 5, where the closed form would
    cancel to about 1e-3 at q = 21."""
    coeffs = [(-1) ** j * math.perm(q, j) / 2.0 ** (j + 1) for j in range(q + 1)]
    magnitudes = np.abs(coeffs)
    log_u = np.log(u)
    w = 1.0 + log_u
    closed = u * u * np.polyval(coeffs, w) - np.polyval(coeffs, 1.0)
    error = u * u * np.polyval(magnitudes, w) + np.polyval(magnitudes, 1.0)
    cancels = error > 16.0 * np.maximum(1.0, closed)
    if np.any(cancels):
        closed[cancels] = _log_power_series(log_u[cancels], q)
    return closed


def _log_power_series(L: np.ndarray, q: int) -> np.ndarray:
    """G = integral_0^L e^(2t) (1 + t)^q dt = sum_n a_n L^(n+1) / (n+1), with
    a_n = sum_i C(q, i) 2^(n-i) / (n-i)! the Taylor coefficients of the
    integrand. Every term is positive, so nothing cancels; the sum stops
    once n >= q and each term is below 2^-60 of the total."""
    total = np.zeros_like(L)
    power = L.copy()  # L^(n+1)
    n = 0
    while True:
        a = sum(math.comb(q, i) * 2 ** (n - i) / math.factorial(n - i) for i in range(min(n, q) + 1))
        term = a * power / (n + 1)
        total += term
        if n >= q and np.all(term <= 2.0**-60 * total):
            return total
        power *= L
        n += 1


def envelope_eval(env: BoundEnvelope, x: float, tail_oracle: StepTail | None) -> EnvelopeValue:
    """Evaluate the envelope at x, its integral term exactly.

    By Fubini the integral over the step tail of V is E[G(max(1, V / c))]
    with c = tail_scale * scale and G = `_log_power_integral`: one sum over
    the law's steps. Without a tail the envelope has no integral term, so
    its second coefficient must be zero.
    """
    first = env.first_coefficient * math.exp(-((x / env.scale) ** (2.0 / env.arity)))
    if tail_oracle is None:
        if env.second_coefficient != 0.0:
            raise ValueError("the integral term needs a tail")
        second = 0.0
    else:
        u = np.maximum(1.0, tail_oracle.values / (env.tail_scale * env.scale))
        integral = float(tail_oracle.masses @ _log_power_integral(u, env.log_power))
        second = env.second_coefficient * integral
    return EnvelopeValue(total=first + second, first_term=first, second_term=second)


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


def _normalized_norms(
    kernel: KernelSpec,
    sampler: SamplerSpec,
    design: SamplingDesign,
    n: int,
    cell_id: int,
    replicas: int,
    normalizer: Callable[[np.ndarray], np.ndarray | float],
) -> np.ndarray:
    """Per replica: the norm of its 0/1-collapsed selection sum (each selected
    tuple counted once) over normalizer(distinct selected tuples), NaN for an
    empty selection.

    Replica r reads its sample from data substream (cell_id, r) and its
    design from design substream (cell_id, r), both keyed by the sampler's
    `seed_stream`, in `_sample_batches`.
    """
    m = kernel.arity
    cols = _columns(m, n)
    norms = np.empty(replicas)
    distinct = np.empty(replicas, dtype=np.int64)
    for r, (samples,) in _sample_batches(sampler, n, m, replicas, (_ROLE_DATA, cell_id)):
        vals = _stacked_values(kernel, (samples,) * m, cols)
        ids = mix_ids_batch(_ROLE_DESIGN, cell_id, r)
        selected = _design_batch(design, m, n, sampler.seed_stream, ids, selected=True)
        sums = _selection_sums(vals, selected, _exact_bound(vals))
        norms[r] = row_norms(kernel.codomain, sums)
        distinct[r] = np.count_nonzero(selected, axis=1)
    return np.where(distinct > 0, norms / normalizer(distinct), math.nan)


def incomplete_scaling_experiment(
    kernel: KernelSpec,
    sampler: SamplerSpec,
    cells: Sequence[ScalingCell],
    replicas: int,
    quantile: float = 0.9,
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
    draws = min(replicas, 2000)
    for cell_id, cell in enumerate(cells):
        check_design(cell.design, m, cell.sample_size)
        _columns(m, cell.sample_size)
        _spot_check_sup(kernel, sampler, cell.sample_size, (_ROLE_DATA, cell_id), "incomplete scaling")

    rows = []
    for cell_id, cell in enumerate(cells):
        n, design = cell.sample_size, cell.design
        stats = _normalized_norms(
            kernel, sampler, design, n, cell_id, replicas,
            lambda distinct: _design_normalizer(design, distinct, n, m, d),
        )
        usable = stats[~np.isnan(stats)]
        empty_count = replicas - usable.size
        if usable.size >= 2:
            q, q_lo, q_hi = quantile_interval(usable, quantile)
        else:
            q = q_lo = q_hi = math.nan

        fixed_sample = draw_iid(sampler, n, mix_ids(_ROLE_FIXED, cell_id))
        fixed_vals = _stacked_values(kernel, (fixed_sample[None],) * m, _columns(m, n))[0]
        target = design_mean_factor(design, m, n) * np.add.reduce(fixed_vals, axis=0)
        ids = mix_ids_batch(_ROLE_FIXED, cell_id, np.arange(draws))
        ests = design_sums_batch(design, m, n, sampler.seed_stream, ids, fixed_vals)
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

    stats_wo, stats_b = (
        _normalized_norms(kernel, sampler, design, n, cell_id, replicas, lambda _: norm_wo)
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


@dataclass(frozen=True, eq=False)
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
    sorted_u, sorted_d = map(np.sort, _decouple_stats(config))
    R = config.replicas
    counts_u, counts_d = _tail_counts(sorted_u, config.x_grid), _tail_counts(sorted_d, config.x_grid)
    usable = (counts_u >= MIN_TAIL_COUNT) & (counts_d >= MIN_TAIL_COUNT)
    p_u = counts_u / R
    p_d = counts_d / R

    fitted = _domination_constant(config.x_grid[usable], p_u[usable], sorted_d) if usable.any() else None
    return DecoupleReport(
        x_grid=config.x_grid,
        p_complete=p_u,
        p_decoupled=p_d,
        usable=usable,
        replicas=R,
        fitted_constant=fitted,
        constant_defined=fitted is not None,
    )


def _domination_constant(xs: np.ndarray, targets: np.ndarray, dec_sorted: np.ndarray) -> float | None:
    """The smallest float k >= 1 with p <= k * P(||U_dec|| > x / k) + 1e-15 at
    every x and target p > 1e-15, P the empirical tail of the ascending norms
    dec_sorted; None when k > 2**41, as when no norm is positive. With w_1 >=
    ... >= w_J the positive norms, k > x / w_j puts j of them above x / k, so
    the infimum over real k at x is min_j max(x / w_j, (p - 1e-15) R / j). The
    float comparison is monotone in k: a few `nextafter` steps reach it."""
    R = dec_sorted.size
    w = dec_sorted[dec_sorted > 0][::-1]
    ranks = np.arange(1, w.size + 1)
    infima = [np.min(np.maximum(x / w, (p - 1e-15) * R / ranks), initial=np.inf) for x, p in zip(xs, targets)]
    k = min(2.0**41, max(1.0, *map(float, infima)))

    def dominated(k: float) -> bool:
        return bool(np.all(targets <= k * (_tail_counts(dec_sorted, xs / k) / R) + 1e-15))

    while not dominated(k):
        if k >= 2.0**41:
            return None
        k = np.nextafter(k, math.inf)
    while k > 1.0 and dominated(np.nextafter(k, 0.0)):
        k = np.nextafter(k, 0.0)
    return float(k)


def _decouple_stats(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per replica: ||U|| of the complete statistic on data substream r, and
    ||U_dec|| of the decoupled one whose slot l reads substream (l, r).

    Replicas come in the tail scan's batches (`_sample_batches`) and are
    summed by `_sum_tuples`, the gather and reduce of `complete` and
    `decoupled`; the enumeration must fit in memory, checked before any replica.
    """
    kernel, n, R = config.kernel, config.sample_size, config.replicas
    m = kernel.arity
    _columns(m, n)
    _spot_check_sup(kernel, config.sampler, n, (_ROLE_DATA,), "decouple_compare")
    stats_u, stats_d = np.empty(R), np.empty(R)
    roles = [(_ROLE_DATA,)] + [(_ROLE_DEC, slot) for slot in range(m)]
    for r, (sample, *copies) in _sample_batches(config.sampler, n, m, R, *roles):
        stats_u[r] = row_norms(kernel.codomain, _sum_tuples(kernel, (sample,) * m))
        stats_d[r] = row_norms(kernel.codomain, _sum_tuples(kernel, tuple(copies)))
    return stats_u, stats_d
