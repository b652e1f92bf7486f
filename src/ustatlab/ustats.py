"""U-statistic estimators over increasing index tuples.

Index tuples are 1-based and enumerated lexicographically, so results do
not depend on scheduling. The complete statistic sums a kernel over all
increasing m-tuples from a single sample; the decoupled variant feeds each
argument slot from its own independent copy; weighted and incomplete
variants attach per-tuple operators or subsample the tuple set.

The running maximum over prefixes max_{m <= n' <= n} ||U_{n'}|| is computed
incrementally by grouping tuples on their last index. Its correctness is
cross-checked by `running_max_embedding_check`, which rebuilds every prefix
from scratch as one stacked statistic (components U_{n'} with the max norm)
and compares the two routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .distributions import EnumerationBudgetError
from .hilbert import HilbertPoint, row_norms
from .kernels import KernelSpec, _as_row, batch_values

__all__ = [
    "ENUMERATION_CAP",
    "enumerate_inc",
    "inc_count",
    "rank_combination",
    "unrank_combination",
    "complete",
    "decoupled",
    "DecoupledSample",
    "running_max",
    "running_max_norms",
    "RunningMaxResult",
    "running_max_embedding_check",
    "WeightScheme",
    "weighted",
    "weight_aggregate",
    "weighted_decomposition_check",
    "SamplingDesign",
    "Selection",
    "draw_design",
    "design_mean_factor",
    "incomplete",
    "IncompleteResult",
]

ENUMERATION_CAP = 10**8
_MATERIALIZE_CAP = 2**21  # tuples whose index columns are kept in memory
_CHUNK = 2**16

_column_cache: dict = {}
_grouped_cache: dict = {}


def inc_count(m: int, n: int) -> int:
    """Number of increasing m-tuples from {1, ..., n}."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(n, m)


def enumerate_inc(m: int, n: int, cap: int = ENUMERATION_CAP) -> Iterator[tuple[int, ...]]:
    """Lexicographic stream of 1-based increasing m-tuples from {1, ..., n}."""
    total = inc_count(m, n)
    if total > cap:
        raise EnumerationBudgetError(f"{total} tuples exceed the cap of {cap}")
    return itertools.combinations(range(1, n + 1), m)


def rank_combination(tpl: tuple[int, ...], n: int) -> int:
    """Position of a 1-based increasing tuple in lexicographic enumeration."""
    m = len(tpl)
    rank = 0
    prev = 0  # 0-based floor for the next slot
    for slot, v in enumerate(tpl):
        c = v - 1
        if not prev <= c < n:
            raise ValueError(f"tuple {tpl} is not increasing within [1, {n}]")
        for skipped in range(prev, c):
            rank += math.comb(n - 1 - skipped, m - slot - 1)
        prev = c + 1
    return rank


def unrank_combination(rank: int, n: int, m: int) -> tuple[int, ...]:
    """Inverse of rank_combination."""
    total = inc_count(m, n)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
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


def _tuple_columns(m: int, n: int) -> tuple[np.ndarray, ...] | None:
    """0-based index columns of the full enumeration, or None when too large."""
    total = inc_count(m, n)
    if total > _MATERIALIZE_CAP:
        return None
    key = (m, n)
    cols = _column_cache.get(key)
    if cols is None:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), m)),
            dtype=np.int64,
            count=total * m,
        ).reshape(total, m)
        cols = tuple(np.ascontiguousarray(flat[:, j]) for j in range(m))
        for c in cols:
            c.setflags(write=False)
        _column_cache[key] = cols
    return cols


def _grouped_columns(m: int, n: int):
    """Index columns grouped by last index, plus reduceat group offsets.

    Group g (g = 0, ..., n-m) holds every tuple whose last index is m+g,
    ordered lexicographically within the group.
    """
    key = (m, n)
    hit = _grouped_cache.get(key)
    if hit is not None:
        return hit
    total = inc_count(m, n)
    if total > _MATERIALIZE_CAP:
        return None
    parts = []
    offsets = [0]
    for last in range(m - 1, n):  # 0-based last index
        block = math.comb(last, m - 1)
        if m == 1:
            head = np.empty((1, 0), dtype=np.int64)
            block = 1
        else:
            head = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(last), m - 1)),
                dtype=np.int64,
                count=block * (m - 1),
            ).reshape(block, m - 1)
        rows = np.concatenate([head, np.full((block, 1), last, dtype=np.int64)], axis=1)
        parts.append(rows)
        offsets.append(offsets[-1] + block)
    flat = np.concatenate(parts, axis=0)
    cols = tuple(np.ascontiguousarray(flat[:, j]) for j in range(m))
    starts = np.asarray(offsets[:-1], dtype=np.int64)
    for c in cols:
        c.setflags(write=False)
    starts.setflags(write=False)
    _grouped_cache[key] = (cols, starts)
    return cols, starts


def _sample_rows(sample) -> np.ndarray:
    rows = np.asarray(sample, dtype=np.float64)
    if rows.ndim not in (1, 2):
        raise ValueError("sample must be a 1-d or 2-d array of points")
    return rows


def _sum_tuples(kernel: KernelSpec, rows: tuple[np.ndarray, ...], n: int) -> np.ndarray:
    """Sum kernel values over all increasing tuples, slot l fed from rows[l]."""
    m = kernel.arity
    total = inc_count(m, n)
    if total > ENUMERATION_CAP:
        raise EnumerationBudgetError(f"{total} tuples exceed the cap of {ENUMERATION_CAP}")
    dim = kernel.codomain.dim
    cols = _tuple_columns(m, n)
    if kernel.eval_batch is not None and cols is not None:
        gathered = tuple(rows[j][cols[j]] for j in range(m))
        return np.add.reduce(batch_values(kernel, gathered), axis=0)
    acc = np.zeros(dim)
    if kernel.eval_batch is not None:
        # stream fixed-size chunks through the vectorized path, folding
        # partial sums in enumeration order
        it = itertools.combinations(range(n), m)
        while True:
            flat = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(it, _CHUNK)),
                dtype=np.int64,
            )
            if flat.size == 0:
                break
            idx = flat.reshape(-1, m)
            gathered = tuple(rows[j][idx[:, j]] for j in range(m))
            acc += np.add.reduce(batch_values(kernel, gathered), axis=0)
        return acc
    for combo in itertools.combinations(range(n), m):
        acc += _as_row(kernel.eval_one(*(rows[j][i] for j, i in enumerate(combo))), dim)
    return acc


def complete(kernel: KernelSpec, sample) -> HilbertPoint:
    """U_{m,n}(h): sum of kernel values over all increasing m-tuples."""
    rows = _sample_rows(sample)
    n = rows.shape[0]
    if n < kernel.arity:
        raise ValueError(f"sample of size {n} cannot feed an arity-{kernel.arity} kernel")
    value = _sum_tuples(kernel, tuple(rows for _ in range(kernel.arity)), n)
    return kernel.codomain.point(value)


@dataclass(frozen=True, eq=False)
class DecoupledSample:
    """Independent copies of the sample, one per argument slot."""

    rows: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("need at least one copy")
        arrays = tuple(_sample_rows(r) for r in self.rows)
        first = arrays[0].shape
        if any(a.shape != first for a in arrays):
            raise ValueError("all copies must share one shape")
        object.__setattr__(self, "rows", arrays)

    @property
    def size(self) -> int:
        return self.rows[0].shape[0]


def decoupled(kernel: KernelSpec, sample: DecoupledSample) -> HilbertPoint:
    """Decoupled U-statistic: slot l of each tuple reads the l-th copy.

    Feeding the same array to every slot reproduces `complete` bit for bit,
    since both run the identical gather-and-reduce.
    """
    if len(sample.rows) != kernel.arity:
        raise ValueError(
            f"kernel has arity {kernel.arity}, decoupled sample has {len(sample.rows)} copies"
        )
    n = sample.size
    if n < kernel.arity:
        raise ValueError(f"copies of size {n} cannot feed an arity-{kernel.arity} kernel")
    return kernel.codomain.point(_sum_tuples(kernel, sample.rows, n))


@dataclass(frozen=True)
class RunningMaxResult:
    """Prefix statistics U_{n'} for n' = m..n and their maximal norm."""

    prefix_values: np.ndarray  # shape (n - m + 1, dim)
    prefix_norms: np.ndarray  # shape (n - m + 1,)
    max_norm: float
    argmax_prefix: int  # the n' attaining the max


def running_max(kernel: KernelSpec, sample) -> RunningMaxResult:
    """Running maximum of prefix U-statistic norms, built incrementally.

    Tuples are grouped by their last index; each group extends the previous
    prefix sum, so the total work is one pass over inc_count(m, n) tuples.
    """
    rows = _sample_rows(sample)
    n = rows.shape[0]
    m = kernel.arity
    if n < m:
        raise ValueError(f"sample of size {n} cannot feed an arity-{m} kernel")
    total = inc_count(m, n)
    if total > ENUMERATION_CAP:
        raise EnumerationBudgetError(f"{total} tuples exceed the cap of {ENUMERATION_CAP}")
    dim = kernel.codomain.dim
    grouped = _grouped_columns(m, n) if kernel.eval_batch is not None else None
    if grouped is not None:
        prefixes = _prefix_sums(kernel, rows[None], grouped)[0]
    else:
        prefixes = np.empty((n - m + 1, dim))
        acc = np.zeros(dim)
        for last in range(m - 1, n):
            if m == 1:
                acc = acc + _as_row(kernel.eval_one(rows[last]), dim)
            else:
                for head in itertools.combinations(range(last), m - 1):
                    acc = acc + _as_row(
                        kernel.eval_one(*(rows[i] for i in head), rows[last]), dim
                    )
            prefixes[last - m + 1] = acc
    norms = row_norms(kernel.codomain, prefixes)
    arg = int(np.argmax(norms))
    return RunningMaxResult(
        prefix_values=prefixes,
        prefix_norms=norms,
        max_norm=float(norms[arg]),
        argmax_prefix=arg + m,
    )


def _prefix_sums(kernel: KernelSpec, samples: np.ndarray, grouped) -> np.ndarray:
    """Prefix statistics U_{n'}, n' = m..n, of a stack of samples.

    samples has shape (R, n) or (R, n, d_in); the result is (R, n - m + 1,
    dim). One batch of kernel values covers every tuple of every sample, and
    each sample's groups are summed and accumulated along axis 1 exactly as
    a lone sample's would be, so the result does not depend on R.
    """
    cols, starts = grouped
    gathered = tuple(np.take(samples, c, axis=1).reshape((-1,) + samples.shape[2:]) for c in cols)
    vals = batch_values(kernel, gathered).reshape(samples.shape[0], cols[0].size, -1)
    return np.cumsum(np.add.reduceat(vals, starts, axis=1), axis=1)


def running_max_norms(kernel: KernelSpec, samples) -> np.ndarray:
    """`running_max(kernel, s).max_norm` for each sample s of a stack, bit for bit."""
    samples = np.asarray(samples, dtype=np.float64)
    m, n = kernel.arity, samples.shape[1]
    grouped = _grouped_columns(m, n) if kernel.eval_batch is not None and n >= m else None
    if grouped is None:
        return np.array([running_max(kernel, s).max_norm for s in samples])
    return row_norms(kernel.codomain, _prefix_sums(kernel, samples, grouped)).max(axis=1)


def running_max_embedding_check(kernel: KernelSpec, sample) -> float:
    """Deviation between the incremental running max and the stacked route.

    The stacked route treats the family (U_{n'})_{n'=m..n} as one statistic
    with values in the product space under the max norm: each component is
    recomputed from scratch as a full prefix sum, with no shared partials.
    Returns the largest coordinate-space norm deviation over components
    (the max-norm distance between the two stacked values).
    """
    rows = _sample_rows(sample)
    n = rows.shape[0]
    m = kernel.arity
    direct = running_max(kernel, sample)
    worst = 0.0
    for stop in range(m, n + 1):
        fresh = complete(kernel, rows[:stop])
        dev = row_norms(kernel.codomain, direct.prefix_values[stop - m] - fresh.coords)
        worst = max(worst, float(dev))
    return worst


# ---------------------------------------------------------------------------
# Weighted statistics


@dataclass(frozen=True, eq=False)
class WeightScheme:
    """Per-tuple multipliers: plain scalars or diagonal coordinate scalings.

    values maps 1-based increasing tuples to a float (kind "scalar") or a
    coordinate vector acting diagonally on the codomain (kind "diagonal").
    Missing tuples weigh zero.
    """

    kind: str
    values: Mapping[tuple[int, ...], object]

    def __post_init__(self) -> None:
        if self.kind not in ("scalar", "diagonal"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        for tpl, w in self.values.items():
            arr = np.asarray(w, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"weight for {tpl} is not finite")
            if self.kind == "scalar" and arr.ndim != 0:
                raise ValueError(f"scalar weight for {tpl} has shape {arr.shape}")
            if self.kind == "diagonal" and arr.ndim != 1:
                raise ValueError(f"diagonal weight for {tpl} must be a vector")

    @classmethod
    def identity(cls) -> "WeightScheme":
        """Weight 1 for every tuple (an empty map plus a unit default)."""
        return cls(kind="scalar", values=_UnitWeights())

    def weight(self, tpl: tuple[int, ...], dim: int) -> np.ndarray:
        w = self.values.get(tpl)
        if w is None:
            return np.zeros(()) if self.kind == "scalar" else np.zeros(dim)
        return np.asarray(w, dtype=np.float64)


class _UnitWeights(dict):
    def get(self, key, default=None):
        return 1.0

    def items(self):
        return ()


def weighted(kernel: KernelSpec, scheme: WeightScheme, sample) -> HilbertPoint:
    """Sum of T_i h(xi_i) over increasing tuples, in enumeration order.

    With identity weights this reproduces `complete` bit for bit (the
    multiplier 1.0 is exact and the reduction path is shared).
    """
    rows = _sample_rows(sample)
    n = rows.shape[0]
    m = kernel.arity
    if n < m:
        raise ValueError(f"sample of size {n} cannot feed an arity-{m} kernel")
    dim = kernel.codomain.dim
    cols = _tuple_columns(m, n)
    if kernel.eval_batch is not None and cols is not None:
        total = cols[0].shape[0]
        if scheme.kind == "scalar":
            w = np.empty((total, 1))
        else:
            w = np.empty((total, dim))
        for t, tpl in enumerate(enumerate_inc(m, n)):
            w[t] = scheme.weight(tpl, dim)
        gathered = tuple(rows[cols[j]] for j in range(m))
        vals = batch_values(kernel, gathered)
        return kernel.codomain.point(np.add.reduce(vals * w, axis=0))
    acc = np.zeros(dim)
    for tpl in enumerate_inc(m, n):
        w = scheme.weight(tpl, dim)
        if not np.any(w):
            continue
        val = _as_row(kernel.eval_one(*(rows[i - 1] for i in tpl)), dim)
        acc += w * val
    return kernel.codomain.point(acc)


def weight_aggregate(
    scheme: WeightScheme, m: int, n: int, k: int
) -> dict[tuple[int, ...], np.ndarray]:
    """Aggregated weights a_i^{(n,k)} = sum of T_j over m-tuples j containing i.

    Streams over the m-tuple enumeration once. Tuples absent from the result
    aggregate to zero.
    """
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for tpl in enumerate_inc(m, n):
        w = np.asarray(scheme.values.get(tpl, 0.0), dtype=np.float64)
        if not np.any(w):
            continue
        for sub in itertools.combinations(tpl, k):
            prev = acc.get(sub)
            acc[sub] = w.copy() if prev is None else prev + w
    return acc


def weighted_decomposition_check(
    kernel: KernelSpec, dist, scheme: WeightScheme, sample
) -> float:
    """Deviation of the weighted sum from its projection expansion.

    Checks sum_i T_i h(xi_i) = (sum_j T_j) h_0
        + sum_{k=1}^{m} sum_{i in Inc^k_n} a_i^{(n,k)} h_k(xi_i),
    which collapses to the k >= d tail when the lower projections vanish.
    """
    from .hoeffding import project  # hoeffding builds on this module

    rows = _sample_rows(sample)
    n = rows.shape[0]
    m = kernel.arity
    dim = kernel.codomain.dim
    lhs = weighted(kernel, scheme, sample).coords

    total_weight = np.zeros(()) if scheme.kind == "scalar" else np.zeros(dim)
    for tpl in enumerate_inc(m, n):
        total_weight = total_weight + scheme.weight(tpl, dim)
    rhs = total_weight * project(kernel, dist, 0).eval()
    for k in range(1, m + 1):
        proj = project(kernel, dist, k)
        agg = weight_aggregate(scheme, m, n, k)
        for sub, a in agg.items():
            rhs = rhs + a * proj.eval(*(rows[i - 1] for i in sub))
    return float(row_norms(kernel.codomain, lhs - rhs))


# ---------------------------------------------------------------------------
# Incomplete designs


@dataclass(frozen=True)
class SamplingDesign:
    """How to subsample the tuple enumeration.

    kind "without-replacement" / "with-replacement" draw `size` tuples;
    kind "bernoulli" keeps each tuple independently with probability `rate`.
    """

    kind: str
    size: int | None = None
    rate: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("without-replacement", "with-replacement", "bernoulli"):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.kind == "bernoulli":
            if self.rate is None or not 0.0 < self.rate <= 1.0:
                raise ValueError("bernoulli design needs rate in (0, 1]")
            if self.size is not None:
                raise ValueError("bernoulli design takes no size")
        else:
            if self.size is None or self.size < 1:
                raise ValueError(f"{self.kind} design needs size >= 1")
            if self.rate is not None:
                raise ValueError(f"{self.kind} design takes no rate")


@dataclass(frozen=True, eq=False)
class Selection:
    """A multiset of enumerated tuples, stored as sorted ranks with counts."""

    m: int
    n: int
    ranks: np.ndarray  # distinct lexicographic ranks, ascending
    counts: np.ndarray  # multiplicities, same length

    def __post_init__(self) -> None:
        ranks = np.asarray(self.ranks, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if ranks.shape != counts.shape or ranks.ndim != 1:
            raise ValueError("ranks and counts must be 1-d arrays of equal length")
        if ranks.size and (np.any(np.diff(ranks) <= 0) or np.any(counts < 1)):
            raise ValueError("ranks must be strictly increasing with positive counts")
        ranks.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "counts", counts)

    @property
    def empty(self) -> bool:
        return self.ranks.size == 0

    @property
    def selected(self) -> int:
        """Total number of selected tuples, counting multiplicity."""
        return int(self.counts.sum())

    @property
    def distinct(self) -> int:
        return int(self.ranks.size)

    def index_tuples(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(tuple, multiplicity) pairs in enumeration order."""
        for r, c in zip(self.ranks, self.counts):
            yield unrank_combination(int(r), self.n, self.m), int(c)


def draw_design(
    design: SamplingDesign, m: int, n: int, rng: np.random.Generator
) -> Selection:
    """Draw a selection of m-tuples from {1, ..., n} under the design.

    Deterministic given the generator state; without-replacement sampling
    uses Floyd's algorithm so memory stays O(size) even for huge tuple
    counts.
    """
    total = inc_count(m, n)
    if total > ENUMERATION_CAP:
        raise EnumerationBudgetError(f"{total} tuples exceed the cap of {ENUMERATION_CAP}")
    if design.kind == "without-replacement":
        if design.size > total:
            raise ValueError(f"cannot draw {design.size} distinct tuples from {total}")
        chosen: set[int] = set()
        for j in range(total - design.size, total):
            t = int(rng.integers(0, j + 1))
            chosen.add(j if t in chosen else t)
        ranks = np.sort(np.fromiter(chosen, dtype=np.int64, count=len(chosen)))
        return Selection(m=m, n=n, ranks=ranks, counts=np.ones(ranks.size, dtype=np.int64))
    if design.kind == "with-replacement":
        draws = rng.integers(0, total, size=design.size)
        ranks, counts = np.unique(draws, return_counts=True)
        return Selection(m=m, n=n, ranks=ranks.astype(np.int64), counts=counts.astype(np.int64))
    kept = []
    for start in range(0, total, 2**20):
        stop = min(start + 2**20, total)
        mask = rng.random(stop - start) < design.rate
        kept.append(start + np.flatnonzero(mask))
    ranks = np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
    return Selection(
        m=m, n=n, ranks=ranks.astype(np.int64), counts=np.ones(ranks.size, dtype=np.int64)
    )


def design_mean_factor(design: SamplingDesign, m: int, n: int) -> float:
    """E[selection size] / inc_count: the exact design-unbiasedness factor."""
    if design.kind == "bernoulli":
        return float(design.rate)
    return design.size / inc_count(m, n)


@dataclass(frozen=True)
class IncompleteResult:
    """Value of an incomplete U-statistic plus selection bookkeeping."""

    value: HilbertPoint
    selected: int
    distinct: int
    empty: bool


def incomplete(kernel: KernelSpec, sample, selection: Selection) -> IncompleteResult:
    """Sum of kernel values over a selection, multiplicities folded in.

    An empty selection (possible under a bernoulli design) yields the zero
    vector with the empty flag set.
    """
    rows = _sample_rows(sample)
    n = rows.shape[0]
    m = kernel.arity
    if (selection.m, selection.n) != (m, n):
        raise ValueError(
            f"selection indexes Inc^{selection.m}_{selection.n}, "
            f"kernel/sample need Inc^{m}_{n}"
        )
    dim = kernel.codomain.dim
    if selection.empty:
        return IncompleteResult(kernel.codomain.zero(), 0, 0, True)
    idx = np.empty((selection.distinct, m), dtype=np.int64)
    for t, (tpl, _) in enumerate(selection.index_tuples()):
        idx[t] = [i - 1 for i in tpl]
    if kernel.eval_batch is not None:
        gathered = tuple(rows[idx[:, j]] for j in range(m))
        vals = batch_values(kernel, gathered)
        value = np.add.reduce(vals * selection.counts[:, None].astype(np.float64), axis=0)
    else:
        value = np.zeros(dim)
        for t in range(selection.distinct):
            val = _as_row(kernel.eval_one(*(rows[i] for i in idx[t])), dim)
            value += float(selection.counts[t]) * val
    return IncompleteResult(
        kernel.codomain.point(value),
        selected=selection.selected,
        distinct=selection.distinct,
        empty=False,
    )
