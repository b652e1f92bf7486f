"""Monte Carlo harness: tail scans, bound envelopes, and design experiments.

Replication discipline: replica r draws every input from substreams keyed
by (master seed, role, r), so results are a pure function of the replica
index and survive any thread count, scheduling order or batch size bit for
bit. Reductions over replicas happen in replica order. The tail-scan
statistic draws its replicas in batches (`draw_iid_batch`) and reduces each
batch with one batched kernel evaluation (`running_max_norms`); the other
experiments still draw and reduce one replica at a time.

The statistics verified here are structural readings of deviation bounds
for degenerate U-statistics: the running maximum of prefix norms scales
like N^(m - d/2) with tail exponent 2/d; incomplete designs normalize by
the selected-tuple count; complete tails are dominated by decoupled tails
up to one multiplicative constant applied both outside and inside.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .confidence import quantile_interval, wilson_interval
from .distributions import (
    FiniteDistribution,
    SamplerSpec,
    draw_iid,
    draw_iid_batch,
    mix_ids,
    mix_ids_batch,
    substream,
)
from .hilbert import HilbertSpace, row_norms
from .hoeffding import degeneracy_order
from .kernels import KernelSpec, batch_values, check_sup_bound, conditional_norm_expectation
from .ustats import (
    SamplingDesign,
    _tuple_columns,
    complete,
    design_mean_factor,
    draw_design,
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
_CHUNK = 256
# Values per batch of the default statistic: replicas are drawn in batches
# of this many sample values and evaluated in batches of this many gathered
# tuple values (N=40, m=2: 819 and 42 replicas). The footprint then does not
# grow with the replica count. At 2**17 each batch's 1 MiB temporaries were
# page-faulted back in on every batch, which made the scan slower.
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
    threads: int = 1

    def __post_init__(self) -> None:
        if self.sample_size < self.kernel.arity:
            raise ValueError("sample_size must be at least the kernel arity")
        if self.replicas < MIN_REPLICAS:
            raise ValueError(f"replicas must be at least {MIN_REPLICAS}")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.normalization not in ("degenerate", "raw"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.x_grid is not None:
            grid = np.asarray(self.x_grid, dtype=np.float64)
            if grid.ndim != 1 or grid.size < 1 or grid[0] <= 0 or np.any(np.diff(grid) <= 0):
                raise ValueError("x_grid must be strictly increasing and positive")
            object.__setattr__(self, "x_grid", grid)


def _map_replicas(fn: Callable[[int], float], count: int, threads: int) -> np.ndarray:
    """Evaluate a pure per-replica function, folding results in index order."""
    out = np.empty(count)
    if threads <= 1:
        for r in range(count):
            out[r] = fn(r)
        return out
    spans = [(s, min(s + _CHUNK, count)) for s in range(0, count, _CHUNK)]

    def work(span):
        s, e = span
        return s, [fn(r) for r in range(s, e)]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for s, chunk in pool.map(work, spans):
            out[s : s + len(chunk)] = chunk
    return out


def replicate(config: ExperimentConfig, stat_fn: Callable[[int], float] | None = None) -> np.ndarray:
    """Per-replica statistic values.

    The default statistic is the running maximum of prefix norms of the
    complete U-statistic on a fresh sample per replica. It runs on one
    thread over fixed-size batches of replicas, whatever `config.threads`
    says; a user `stat_fn` is mapped per replica over `config.threads`
    workers.
    """
    if stat_fn is not None:
        return _map_replicas(stat_fn, config.replicas, config.threads)
    kernel, n = config.kernel, config.sample_size
    bound_sampler = _reseeded(config.sampler, config.master_seed)
    streams = mix_ids_batch(_ROLE_DATA, np.arange(config.replicas))
    draw_step = max(1, _CHUNK_VALUES // n)
    eval_step = max(1, _CHUNK_VALUES // inc_count(kernel.arity, n))
    out = []
    for s in range(0, config.replicas, draw_step):
        samples = draw_iid_batch(bound_sampler, n, streams[s : s + draw_step])
        for t in range(0, len(samples), eval_step):
            out.append(running_max_norms(kernel, samples[t : t + eval_step]))
    return np.concatenate(out)


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
    if kernel.sup_bound is None or kernel.eval_batch is None:
        return
    cols = _tuple_columns(kernel.arity, min(sample.shape[0], 12))
    if cols is None:
        return
    rows = np.asarray(sample, dtype=np.float64)
    vals = batch_values(kernel, tuple(rows[c] for c in cols))
    check_sup_bound(kernel, row_norms(kernel.codomain, vals), context)


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
    if support is not None:
        report = degeneracy_order(kernel, support)
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
    stats = replicate(config) / factor
    p_hat = np.empty(config.x_grid.size)
    lo = np.empty_like(p_hat)
    hi = np.empty_like(p_hat)
    for i, x in enumerate(config.x_grid):
        count = int(np.count_nonzero(stats > x))
        p_hat[i] = count / config.replicas
        lo[i], hi[i] = wilson_interval(count, config.replicas)
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
    """Exact tail of H_k = E[ ||h(xi_1..xi_m)|| | xi_1..xi_k ] on finite support."""
    if not 0 <= k <= kernel.arity:
        raise ValueError(f"k must lie in [0, {kernel.arity}]")
    values = []
    probs = []
    for combo in itertools.product(range(dist.size), repeat=k):
        p = 1.0
        for i in combo:
            p *= float(dist.probs[i])
        values.append(conditional_norm_expectation(kernel, dist, tuple(dist.atom(i) for i in combo)))
        probs.append(p)
    order = np.argsort(values)
    vals = np.asarray(values)[order]
    cum = np.cumsum(np.asarray(probs)[order])

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
        """max/min ratio of normalized quantiles across rows."""
        qs = [r.quantile for r in self.rows if r.used > 0]
        if not qs or min(qs) <= 0:
            return math.inf
        return max(qs) / min(qs)


def _design_normalizer(design: SamplingDesign, nonzero: int, n: int, m: int, d: int) -> float:
    """The deviation-bound normalization for one realized selection.

    Replacement designs normalize by the realized count of distinct selected
    tuples (only nonzero weights enter the bound); the Bernoulli design has
    the deterministic rate-based form n^m sqrt(p) sqrt(min(p, n^-d)).
    """
    if design.kind == "bernoulli":
        p = design.rate
        return float(n**m) * math.sqrt(p) * math.sqrt(min(p, float(n) ** (-d)))
    if nonzero < 1:
        return math.nan
    return math.sqrt(nonzero * min(nonzero, float(n) ** (m - d)))


def incomplete_scaling_experiment(
    kernel: KernelSpec,
    sampler: SamplerSpec,
    cells: Sequence[ScalingCell],
    replicas: int,
    master_seed: int,
    quantile: float = 0.9,
    threads: int = 1,
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
    """
    support = sampler.finite_support()
    if support is None:
        raise ValueError("scaling experiment needs a finite sampling law")
    deg = degeneracy_order(kernel, support)
    d = deg.order
    m = kernel.arity
    draws = unbiasedness_draws if unbiasedness_draws is not None else min(replicas, 2000)
    bound_sampler = _reseeded(sampler, master_seed)

    rows = []
    for cell_id, cell in enumerate(cells):
        n, design = cell.sample_size, cell.design
        _spot_check_sup(
            kernel, draw_iid(bound_sampler, n, mix_ids(_ROLE_DATA, cell_id, 0)), "incomplete scaling"
        )

        def norm_stat(r: int, n=n, design=design, cell_id=cell_id) -> float:
            sample = draw_iid(bound_sampler, n, mix_ids(_ROLE_DATA, cell_id, r))
            vals = _cell_values(kernel, (sample,) * m)
            sel = draw_design(design, m, n, substream(master_seed, mix_ids(_ROLE_DESIGN, cell_id, r)))
            if sel.empty:
                return math.nan
            collapsed = np.add.reduce(vals[sel.ranks], axis=0)
            return float(row_norms(kernel.codomain, collapsed)) / _design_normalizer(
                design, sel.distinct, n, m, d
            )

        stats = _map_replicas(norm_stat, replicas, threads)
        usable = stats[~np.isnan(stats)]
        empty_count = replicas - usable.size
        if usable.size >= 2:
            q, q_lo, q_hi = quantile_interval(usable, quantile)
        else:
            q = q_lo = q_hi = math.nan

        fixed_sample = draw_iid(bound_sampler, n, mix_ids(_ROLE_FIXED, cell_id))
        fixed_vals = _cell_values(kernel, (fixed_sample,) * m)
        target = design_mean_factor(design, m, n) * np.add.reduce(fixed_vals, axis=0)

        def estimator(r: int, n=n, design=design, cell_id=cell_id, fixed_vals=fixed_vals):
            sel = draw_design(
                design, m, n, substream(master_seed, mix_ids(_ROLE_FIXED, cell_id, r))
            )
            if sel.empty:
                return np.zeros(fixed_vals.shape[1])
            return np.add.reduce(fixed_vals[sel.ranks] * sel.counts[:, None], axis=0)

        ests = np.stack([estimator(r) for r in range(draws)])
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
        eval_one=lambda x: x,
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
    threads: int = 1,
) -> MatchingPointReport:
    """Compare without-replacement(size) against bernoulli(size / n) at arity 1.

    At arity 1 the tuple count C(n, 1) equals n^1, so setting the bernoulli
    rate to size/n makes the two design normalizations coincide exactly
    and matches the expected selection sizes; higher arities carry a
    combinatorial m! mismatch between C(n, m) and n^m and are reported by
    the scaling experiment instead of asserted here.

    Quantile intervals come from order statistics, so a lattice-valued
    sampling law can collapse them onto single atoms and defeat the overlap
    check; prefer a continuous law here.
    """
    kernel = coordinate_kernel()
    n = sample_size
    if not 1 <= size <= n:
        raise ValueError("size must lie in [1, n]")
    rate = size / n
    wo = SamplingDesign(kind="without-replacement", size=size)
    bern = SamplingDesign(kind="bernoulli", rate=rate)
    d = 1
    norm_wo = _design_normalizer(wo, size, n, 1, d)
    norm_bern = _design_normalizer(bern, -1, n, 1, d)
    if not math.isclose(norm_wo, norm_bern, rel_tol=1e-12):
        raise AssertionError(f"normalizers should coincide: {norm_wo} vs {norm_bern}")
    bound_sampler = _reseeded(sampler, master_seed)

    def stat(design: SamplingDesign, cell_id: int):
        def fn(r: int) -> float:
            sample = draw_iid(bound_sampler, n, mix_ids(_ROLE_DATA, cell_id, r))
            vals = _cell_values(kernel, (sample,))
            sel = draw_design(design, 1, n, substream(master_seed, mix_ids(_ROLE_DESIGN, cell_id, r)))
            if sel.empty:
                return math.nan
            collapsed = np.add.reduce(vals[sel.ranks], axis=0)
            return float(row_norms(kernel.codomain, collapsed)) / norm_wo

        return fn

    stats_wo = _map_replicas(stat(wo, 0), replicas, threads)
    stats_b = _map_replicas(stat(bern, 1), replicas, threads)
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
    kernel, n = config.kernel, config.sample_size
    m = kernel.arity
    seed = config.master_seed
    bound_sampler = _reseeded(config.sampler, seed)

    def stat_complete(r: int) -> float:
        sample = draw_iid(bound_sampler, n, mix_ids(_ROLE_DATA, r))
        return float(row_norms(kernel.codomain, complete(kernel, sample).coords))

    def stat_decoupled(r: int) -> float:
        rows = tuple(draw_iid(bound_sampler, n, mix_ids(_ROLE_DEC, slot, r)) for slot in range(m))
        vals = _cell_values(kernel, rows)
        return float(row_norms(kernel.codomain, np.add.reduce(vals, axis=0)))

    _spot_check_sup(kernel, draw_iid(bound_sampler, n, mix_ids(_ROLE_DATA, 0)), "decouple_compare")
    stats_u = _map_replicas(stat_complete, config.replicas, config.threads)
    stats_d = _map_replicas(stat_decoupled, config.replicas, config.threads)

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


def _cell_values(kernel: KernelSpec, rows: tuple[np.ndarray, ...]) -> np.ndarray:
    """Kernel values over all tuples with slot l fed from rows[l]."""
    n = rows[0].shape[0]
    cols = _tuple_columns(kernel.arity, n)
    if cols is None:
        raise ValueError("tuple enumeration too large to materialize for this experiment")
    arrays = tuple(np.asarray(r, dtype=np.float64) for r in rows)
    return batch_values(kernel, tuple(arrays[j][cols[j]] for j in range(kernel.arity)))
