"""U-statistic estimators over increasing index tuples.

Index tuples are 1-based and enumerated lexicographically, so results do
not depend on scheduling. The complete statistic sums a kernel over all
increasing m-tuples from a single sample; the decoupled variant feeds each
argument slot from its own independent copy; weighted and incomplete
variants attach per-tuple operators or subsample the tuple set. One gate,
`_tuple_count`, checks every sample size and tuple count.

Sums over every tuple read `_index_pieces`, whose pieces are whole groups of
tuples sharing a first index (lexicographic order) or a last one. The
running maximum over prefixes max_{m <= n' <= n} ||U_{n'}|| is computed
incrementally from last-index groups by `_prefix_sums`, whose bytes do not
depend on the pieces.

On a finite law U_{n'} is a function of the sample's atom indices (Lee 1990,
ch. 1), and `_atom_route` chooses how the tail scan reads the running maxima
of a step-major block of them: the first of three routes that applies. The
first two give the gather's bytes wherever they apply, since every partial
sum on them and on the gather is then an exact integer (`_exact_sums`):
- the recurrence: the real product kernel of any arity m on integer atoms
  with C(n, m) * max|x|**m < 2**53 (`_product_exact`). U_{n'} is the
  elementary symmetric polynomial e_m of the first n' values, updated by
  e_j <- e_j + x * e_{j-1} (`_product_running_max`), O(n * m) per sample;
- the count route: an arity-2 kernel whose atom table H has integer entries
  with C(n, 2) * max|H| < 2**53, and where (n - 1) * A * dim < C(n, 2) for
  A atoms. Step k adds the row sum of H over the first k atoms, read at atom
  x_k (`_table_running_max`), O(n * A * dim) per sample;
- the gather of every tuple (`running_max_norms`), C(n, m) per sample.

One gather, `_stacked_values`, feeds the kernel every tuple. Two summation
rules are each written once. `_sum_tuples` adds every tuple's value in
enumeration order (`complete`, `decoupled`, `weighted`, `decouple_compare`);
`_selection_sums` adds a selection's values in ascending rank order, or as
one dense product where every partial sum is an exact integer (`_exact_bound`,
`_exact_sums`), for `incomplete`, `design_sums_batch` and the experiments.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ENUMERATION_BUDGET, EnumerationBudgetError, FiniteDistribution, _lemire_indices, substream, substreams,
)
from .hilbert import HilbertPoint, HilbertSpace, _is_integer, row_norms, squared_row_norms
from .kernels import KernelSpec, _atom_table, _is_real_product, batch_values

__all__ = [
    "inc_count",
    "complete",
    "decoupled",
    "DecoupledSample",
    "running_max",
    "RunningMaxResult",
    "WeightScheme",
    "weighted",
    "SamplingDesign",
    "Selection",
    "draw_design",
    "incomplete",
    "IncompleteResult",
]

ENUMERATION_CAP = 10**8  # below 2**32, so a design draws ranks by numpy's 32-bit Lemire
_MATERIALIZE_CAP = 2**21  # tuples whose index columns are kept in memory
_CHUNK = 2**16  # tuples, or design draws, per piece: temporaries stay near 1 MB
_COVER_MARGIN = 5  # a selection prefix leaves some tuple undrawn in at most e**-5 of streams
DESIGN_KINDS = ("without-replacement", "with-replacement", "bernoulli")


def inc_count(m: int, n: int) -> int:
    """Number of increasing m-tuples from {1, ..., n}."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(n, m)


def _tuple_count(m: int, n: int, cap: float | None = None) -> int:
    """C(n, m), once a sample of size n can feed an arity-m kernel with at
    most `cap` tuples (ENUMERATION_CAP when None)."""
    if n < m:
        raise ValueError(f"sample of size {n} cannot feed an arity-{m} kernel")
    total = inc_count(m, n)
    cap = ENUMERATION_CAP if cap is None else cap
    if total > cap:
        raise EnumerationBudgetError(f"{total} tuples exceed the cap of {cap}")
    return total


def _lex_ranks(cols, n: int):
    """Lexicographic ranks among the increasing k-tuples of range(n), k =
    len(cols), of the 0-based increasing tuples with slot l in cols[l]: int64
    arrays give one rank per row, plain ints one exact rank at any size.
    By the combinatorial number system, C(n, k) - 1 - sum_l C(n - 1 - cols[l], k - l)."""
    k = len(cols)
    rank = math.comb(n, k) - 1
    for slot, c in enumerate(cols):
        rank = rank - _binomial(n - 1 - c, k - slot)
    return rank


def _lex_unranks(ranks: np.ndarray, n: int, k: int) -> list[np.ndarray]:
    """Inverse of `_lex_ranks`: the k 0-based index columns of the increasing
    k-tuples of range(n) with lexicographic ranks `ranks`, an int64 array, or
    an object array of ints for exact columns at any size.

    The code C(n, k) - 1 - rank is sum_l C(e_l, k - l) with e_l = n - 1 -
    cols[l] strictly decreasing, so e_l is the largest e below e_{l-1} with
    C(e, k - l) at most what the earlier slots leave: one bisection per slot
    over every rank at once.
    """
    if ranks.dtype != object and math.comb(n - 1, min(k, (n - 1) // 2)) * k >= 2**63:
        ranks = ranks.astype(object)  # _binomial's partial products would overflow int64
    code = math.comb(n, k) - 1 - ranks
    top = np.full_like(code, n)  # e_{-1}
    cols = []
    for slot in range(k):
        j = k - slot
        lo, hi = np.full_like(code, j - 1), top - 1  # C(j - 1, j) = 0 fits every code
        while np.any(lo < hi):
            mid = (lo + hi + 1) // 2
            fits = _binomial(mid, j) <= code
            lo, hi = np.where(fits, mid, lo), np.where(fits, hi, mid - 1)
        code = code - _binomial(lo, j)
        cols.append(n - 1 - lo)
        top = lo
    return cols


def _binomial(d, j: int):
    """C(d, j) for d >= j - 1, elementwise on an integer array or exact on a
    plain int; each partial product C(d, i) * (d - i) is an exact multiple of i + 1."""
    term = 1
    for i in range(j):
        term = term * (d - i) // (i + 1)
    return term


def _combination_columns(m: int, n: int) -> list[np.ndarray]:
    """Columns of every m-subset of range(n), in itertools.combinations order.

    Built from the last slot leftwards: the subsets that follow a new first
    element v are the suffix of the current (sorted) rows whose first element
    exceeds v.
    """
    cols = [np.arange(n, dtype=np.int64)]
    for level in range(m - 1):
        start = np.searchsorted(cols[0], np.arange(n), side="right")
        lengths = cols[0].size - start
        rows = np.arange(lengths.sum())
        rows -= np.repeat(np.cumsum(lengths) - lengths - start, lengths)
        # the first level's one column is arange(n), whose gather is rows itself
        cols = [np.repeat(np.arange(n, dtype=np.int64), lengths)] + ([rows] if level == 0 else [c[rows] for c in cols])
    return cols


@functools.lru_cache(maxsize=4)
def _lex_columns(m: int, n: int) -> tuple[np.ndarray, ...]:
    """`_combination_columns(m, n)`, read-only."""
    cols = tuple(_combination_columns(m, n))
    for c in cols:
        c.setflags(write=False)
    return cols


def _tuple_columns(m: int, n: int) -> tuple[np.ndarray, ...] | None:
    """0-based index columns of the full enumeration, or None above
    _MATERIALIZE_CAP tuples."""
    return _lex_columns(m, n) if inc_count(m, n) <= _MATERIALIZE_CAP else None


def _index_groups(m: int, n: int, groups: range, lex: bool):
    """Index columns of the increasing m-tuples of range(n) whose first
    (`lex`) or last index lies in `groups`, and each group's reduceat offset.

    First-index group i is i followed by `_combination_columns(m - 1, n - 1 -
    i)` shifted by i + 1, which in ascending i is lexicographic order;
    last-index group L is `_combination_columns(m - 1, L)` followed by L.
    """
    spans = [n - 1 - g if lex else g for g in groups]
    rests = [_combination_columns(m - 1, s) for s in spans] if m > 1 else []
    sizes = np.array([math.comb(s, m - 1) for s in spans], dtype=np.int64)
    keys = np.repeat(np.asarray(groups, dtype=np.int64), sizes)
    rest = [np.concatenate(slot) for slot in zip(*rests)]
    cols = (keys, *(np.add(c, keys + 1, out=c) for c in rest)) if lex else (*rest, keys)
    return cols, np.cumsum(sizes) - sizes


@functools.lru_cache(maxsize=4)
def _grouped_columns(m: int, n: int):
    """`_index_groups` of every increasing m-tuple of range(n) by last index, read-only."""
    cols, starts = _index_groups(m, n, range(m - 1, n), lex=False)
    for c in (*cols, starts):
        c.setflags(write=False)
    return cols, starts


def _index_pieces(m: int, n: int, lex: bool):
    """Index columns of every increasing m-tuple of range(n) grouped on the
    first index (`lex`, lexicographic order) or the last, with the groups'
    offsets: one cached piece up to _MATERIALIZE_CAP tuples (`_lex_columns`,
    offsets None, or `_grouped_columns`), else `_index_groups` of whole
    groups, each piece closed once it holds _CHUNK tuples."""
    if inc_count(m, n) <= _MATERIALIZE_CAP:
        yield (_lex_columns(m, n), None) if lex else _grouped_columns(m, n)
        return
    groups = range(n - m + 1) if lex else range(m - 1, n)
    first, size = groups[0], 0
    for g in groups:
        size += math.comb(n - 1 - g if lex else g, m - 1)
        if size >= _CHUNK or g == groups[-1]:
            yield _index_groups(m, n, range(first, g + 1), lex)
            first, size = g + 1, 0


def _sample_rows(sample) -> np.ndarray:
    rows = np.asarray(sample, dtype=np.float64)
    if rows.ndim not in (1, 2):
        raise ValueError("sample must be a 1-d or 2-d array of points")
    return rows


def _sum_tuples(
    kernel: KernelSpec, samples: tuple[np.ndarray, ...], weights: np.ndarray | None = None
) -> np.ndarray:
    """Kernel sums over all increasing tuples, (R, dim), for a stack of R samples.

    Slot l reads samples[l], (R, n) or (R, n, d_in). Each lexicographic piece
    of `_index_pieces` goes through `_stacked_values` and one `np.add.reduce`
    along its tuples, and the piece sums are folded in enumeration order.
    With `weights`, rows of shape (C(n, m), 1 or dim), each tuple's value is
    first multiplied by the row of its rank.
    """
    m, n = kernel.arity, samples[0].shape[1]
    _tuple_count(m, n)
    acc, start = None, 0
    for cols, _ in _index_pieces(m, n, lex=True):
        vals = _stacked_values(kernel, samples, cols)
        if weights is not None:
            vals = vals * weights[start : start + cols[0].size]
            start += cols[0].size
        part = np.add.reduce(vals, axis=1)
        acc = part if acc is None else acc + part
    return acc


def complete(kernel: KernelSpec, sample) -> HilbertPoint:
    """U_{m,n}(h): sum of kernel values over all increasing m-tuples."""
    rows = _sample_rows(sample)[None]
    return kernel.codomain.point(_sum_tuples(kernel, (rows,) * kernel.arity)[0])


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
    return kernel.codomain.point(_sum_tuples(kernel, tuple(r[None] for r in sample.rows))[0])


@dataclass(frozen=True, eq=False)
class RunningMaxResult:
    """Prefix statistics U_{n'} for n' = m..n and their maximal norm."""

    prefix_values: np.ndarray  # shape (n - m + 1, dim)
    prefix_norms: np.ndarray  # shape (n - m + 1,)
    max_norm: float
    argmax_prefix: int  # the n' attaining the max


def running_max(kernel: KernelSpec, sample) -> RunningMaxResult:
    """Running maximum of prefix U-statistic norms, built incrementally.

    Tuples are grouped by their last index; each group's sum extends the
    previous prefix sum, so the total work is one pass over inc_count(m, n)
    tuples, on one code path whose bytes do not depend on _MATERIALIZE_CAP
    (`_prefix_sums`).
    """
    prefixes = _prefix_sums(kernel, _sample_rows(sample)[None])[0]
    norms = row_norms(kernel.codomain, prefixes)
    arg = int(np.argmax(norms))
    return RunningMaxResult(
        prefix_values=prefixes,
        prefix_norms=norms,
        max_norm=float(norms[arg]),
        argmax_prefix=arg + kernel.arity,
    )


def _prefix_sums(kernel: KernelSpec, samples: np.ndarray) -> np.ndarray:
    """Prefix statistics U_{n'}, n' = m..n, of a stack of samples.

    samples has shape (R, n) or (R, n, d_in); the result is (R, n - m + 1,
    dim). Each last-index piece of `_index_pieces` is one batch of kernel
    values whose groups are summed by `np.add.reduceat` and accumulated by
    `cumsum` from the previous piece's last prefix: the steps of one `cumsum`
    over all groups, so the result depends neither on R nor on the pieces.
    """
    m, n = kernel.arity, samples.shape[1]
    _tuple_count(m, n)
    out = np.empty((samples.shape[0], n - m + 1, kernel.codomain.dim))
    done = 0
    for cols, starts in _index_pieces(m, n, lex=False):
        sums = np.add.reduceat(_stacked_values(kernel, (samples,) * m, cols), starts, axis=1)
        if done:
            sums[:, 0] += out[:, done - 1]
        np.cumsum(sums, axis=1, out=out[:, done : done + starts.size])
        done += starts.size
    return out


def _stacked_values(kernel: KernelSpec, samples: tuple[np.ndarray, ...], cols) -> np.ndarray:
    """Kernel values over the tuples `cols` of each sample in a stack.

    Slot l of tuple t reads samples[l][:, cols[l][t]]; each samples[l] has
    shape (R, n) or (R, n, d_in) and the result is (R, T, dim). All R * T
    tuples go through one `batch_values` call, and every row equals what a
    lone sample's gather and evaluation would give. A scalar stack of one
    indexes its row 0; every other stack, vector samples included, is faster
    with `np.take` along axis 1.
    """
    gathered = tuple(
        s[0][c] if len(s) == 1 and s.ndim == 2 else np.take(s, c, axis=1).reshape((-1,) + s.shape[2:])
        for s, c in zip(samples, cols)
    )
    return batch_values(kernel, gathered).reshape(samples[0].shape[0], cols[0].size, -1)


def _product_exact(atoms: np.ndarray, m: int, n: int) -> bool:
    """Whether `_product_running_max` gives the gather's bytes for the real
    arity-m product kernel on samples of size n from these atoms: they are
    integers with C(n, m) * max|x|**m < 2**53 (`_exact_bound`, `_exact_sums`),
    the sign of a zero aside, as no norm sees it."""
    bound = math.prod([_exact_bound(np.abs(atoms))] * m)  # a float product overflows to inf
    # a count of 2**53 fails the rule for any nonzero bound, as any larger
    # one would, and converts to a float where C(n, m) might not
    return _exact_sums(bound, min(inc_count(m, n), 2**53))


def _product_running_max(values: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """max_{m <= k <= N} |e_m(x_1, ..., x_k)| for each column of step-major
    (N, B) sample values: `running_max_norms` of the real arity-m product
    kernel, whose U_k is the elementary symmetric polynomial e_m of the
    first k values (Macdonald 1995, ch. I), in O(N * m) per column instead
    of C(N, m) tuples. The maxima go into `out`, (B,), when it is given.

    Step k runs e_j <- e_j + x_k * e_{j-1} from j = m down to 1 and writes
    e_m over x_k in `values`, which no later step reads; one reduction then
    takes the largest square, whose root is the largest |e_m| (`sqrt` is
    monotone and correctly rounded). An order j takes part only while m - j
    steps are left to carry it into e_m, so every e_j updated at step k is
    at most C(N - m + j, j) * max|x|**j <= C(N, m) * max|x|**m. For integer
    values with C(N, m) * max|x|**m < 2**53 (`_exact_sums`) every state here
    and every partial sum of the gather is then an exact integer, and the
    two give the same bytes.
    """
    steps, cols = values.shape
    state = np.zeros((m + 2, cols))  # the product, e_1..e_{m-1}, x_k * e_{m-1} and e_m before step m
    term, lead = state[0], state[m]
    for k, x in enumerate(values):
        if k + 1 >= m:
            np.multiply(x, state[m - 1], out=lead)
        for j in range(min(k + 1, m - 1), max(1, m - steps + k + 1) - 1, -1):
            if j == 1:
                state[1] += x
            else:
                np.multiply(x, state[j - 1], out=term)
                state[j] += term
        if k + 1 >= m:
            np.add(values[k - 1] if k >= m else state[m + 1], lead, out=x)
    squares = np.multiply(values[m - 1 :], values[m - 1 :], out=values[m - 1 :])
    best = np.max(squares, axis=0, out=np.empty(cols) if out is None else out)
    return np.sqrt(best, out=best)


def _table_running_max(
    table: np.ndarray, atoms: np.ndarray, codomain: HilbertSpace, out: np.ndarray | None = None
) -> np.ndarray:
    """max_{2 <= k <= N} ||U_k|| for each column of step-major (N, B) atom
    indices: `running_max_norms` of the arity-2 kernel whose value at (atom
    a, atom b) is table[a, b], an (A, A, dim) table, in O(N * A * dim) per
    column instead of C(N, 2) pairs.

    Step k adds sum_{i<k} table[x_i, x_k] to U, read at atom x_k from the
    row sum sum_{i<k} table[x_i], (B, A * dim). Both running sums start at
    zero and add one row a step, the bytes of `cumsum` along the steps for
    any table but for the sign of a zero, which no norm sees. U stays
    replica-major, (B, dim), so that its squared norms (`squared_row_norms`)
    reduce each replica's row as a stack of prefix statistics would. The
    largest |U_k| is the root of the largest square. When every table entry
    is an integer and C(N, 2) * max|table| < 2**53, every partial sum here
    and on the gather is an exact integer, and the two give the same bytes.
    The maxima go into `out`, (B,), when it is given.
    """
    steps, cols = atoms.shape
    size, dim = table.shape[0], table.shape[2]
    rows = table.reshape(size, size * dim)
    seen, term = np.zeros((cols, size * dim)), np.empty((cols, size * dim))
    total, step, squares = np.zeros((cols, dim)), np.empty((cols, dim)), np.empty((cols, dim))
    ramp = np.arange(0, cols * size, size)
    positions = np.empty_like(ramp)
    best = np.empty(cols) if out is None else out
    best.fill(0.0)
    for k in range(1, steps):
        seen += rows.take(atoms[k - 1], axis=0, out=term, mode="clip")  # indices are in range
        np.add(ramp, atoms[k], out=positions)
        total += seen.reshape(-1, dim).take(positions, axis=0, out=step, mode="clip")
        np.maximum(best, squared_row_norms(codomain, total, out=squares), out=best)
    return np.sqrt(best, out=best)


def _atom_route(kernel: KernelSpec, support: FiniteDistribution | None, n: int, rows: int):
    """The route that reads running maxima from atom indices on samples of
    size n from `support`, or None where only the gather applies: a function
    (atoms, out) that writes into out, (B,), the running maxima of a
    step-major (n, B) block of atom indices, B <= rows, and returns it.

    The real product kernel (`kernels._is_real_product`) on scalar atoms
    where `_product_exact` holds runs on `_product_running_max`, whose (n,
    rows) value block is allocated here, once. An arity-2 kernel runs on
    `_table_running_max` where its table's partial sums are exact
    (`_exact_sums`; the sign of a zero changes no norm) and (n - 1) * A *
    dim < C(n, 2), so that it touches fewer values than the gather; it reads
    the (A**2, dim) `_atom_table(kernel, support)`.
    """
    if support is None:
        return None
    atoms = support.atoms
    if _is_real_product(kernel) and atoms.ndim == 1 and _product_exact(atoms, kernel.arity, n):
        block = np.empty(n * rows)

        def recurrence(indices: np.ndarray, out: np.ndarray) -> np.ndarray:
            values = block[: indices.size].reshape(indices.shape)
            atoms.take(indices, out=values, mode="clip")  # indices are in range
            return _product_running_max(values, kernel.arity, out)

        return recurrence
    size, pairs = support.size, inc_count(2, n)
    if kernel.arity != 2 or (n - 1) * size * kernel.codomain.dim >= pairs or size**2 > ENUMERATION_BUDGET:
        return None
    table = _atom_table(kernel, support)
    if not _exact_sums(_exact_bound(np.abs(table)), pairs):
        return None
    table = table.reshape(size, size, -1)
    return lambda indices, out: _table_running_max(table, indices, kernel.codomain, out)


def running_max_norms(kernel: KernelSpec, samples) -> np.ndarray:
    """`running_max(kernel, s).max_norm` for each sample s of a stack, bit for bit."""
    samples = np.asarray(samples, dtype=np.float64)
    return row_norms(kernel.codomain, _prefix_sums(kernel, samples)).max(axis=1)


# ---------------------------------------------------------------------------
# Weighted statistics


@dataclass(frozen=True, eq=False)
class WeightScheme:
    """Per-tuple multipliers, kept as a read-only float64 copy of `values`,
    row r weighing the r-th increasing m-tuple in lexicographic order: shape (C(n, m),)
    holds scalars (kind "scalar"), (C(n, m), dim) diagonal scalings of the
    codomain (kind "diagonal")."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim not in (1, 2) or not np.all(np.isfinite(values)):
            raise ValueError(f"weights must be a finite 1-d or 2-d array, got shape {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def kind(self) -> str:
        return "scalar" if self.values.ndim == 1 else "diagonal"

    @classmethod
    def identity(cls, m: int, n: int) -> "WeightScheme":
        """Weight 1 for every increasing m-tuple of {1, ..., n}."""
        return cls(np.ones(inc_count(m, n)))


def _weight_rows(scheme: WeightScheme, m: int, n: int) -> np.ndarray:
    """The weights as (C(n, m), 1 or dim) rows, once there is one per tuple of Inc^m_n."""
    if len(scheme.values) != inc_count(m, n):
        raise ValueError(f"{len(scheme.values)} weights for {inc_count(m, n)} tuples of Inc^{m}_{n}")
    return scheme.values.reshape(len(scheme.values), -1)


def weighted(kernel: KernelSpec, scheme: WeightScheme, sample) -> HilbertPoint:
    """Sum of T_i h(xi_i) over increasing tuples, in enumeration order.

    Runs the gather and reduce of `complete`, each piece's kernel values
    multiplied by its slice of the weights, so identity weights reproduce
    `complete` bit for bit (the multiplier 1.0 is exact).
    """
    rows = _sample_rows(sample)
    n, m = rows.shape[0], kernel.arity
    _tuple_count(m, n)
    weights, dim = _weight_rows(scheme, m, n), kernel.codomain.dim
    if scheme.kind == "diagonal" and weights.shape[1] != dim:
        raise ValueError(f"diagonal weights of width {weights.shape[1]} for a dim-{dim} codomain")
    return kernel.codomain.point(_sum_tuples(kernel, (rows[None],) * m, weights)[0])


def weight_aggregate(scheme: WeightScheme, m: int, n: int, k: int) -> np.ndarray:
    """Aggregated weights a_i^{(n,k)} = sum of T_j over m-tuples j containing i,
    dense over the lexicographic ranks i of the k-tuples and shaped like the scheme's.

    Each piece of the enumeration ranks its k-subtuples one slot subset at a
    time (`_lex_ranks`) and adds each tuple's weight to them with one
    `bincount`, in enumeration order as a per-tuple loop would.
    """
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    weights = _weight_rows(scheme, m, n)
    width = weights.shape[1]
    cells = inc_count(k, n) * width
    acc = np.zeros(cells)
    start = 0
    for cols, _ in _index_pieces(m, n, lex=True):
        subsets = itertools.combinations(range(m), k)
        ranks = np.stack([_lex_ranks([cols[s] for s in sub], n) for sub in subsets], axis=1)
        w = np.broadcast_to(weights[start : start + len(ranks), None], ranks.shape + (width,))
        cell = ranks[..., None] * width + np.arange(width)
        acc += np.bincount(cell.ravel(), weights=w.ravel(), minlength=cells)
        start += len(ranks)
    return acc.reshape((-1,) + scheme.values.shape[1:])


# ---------------------------------------------------------------------------
# Incomplete designs


@dataclass(frozen=True)
class SamplingDesign:
    """How to subsample the tuple enumeration.

    kind "without-replacement" / "with-replacement" draw `size` tuples, an
    integer; kind "bernoulli" keeps each tuple independently with
    probability `rate`. DESIGN_KINDS lists the kinds.
    """

    kind: str
    size: int | None = None
    rate: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.kind == "bernoulli":
            if self.rate is None or not 0.0 < self.rate <= 1.0:
                raise ValueError("bernoulli design needs rate in (0, 1]")
            if self.size is not None:
                raise ValueError("bernoulli design takes no size")
        else:
            if not _is_integer(self.size) or self.size < 1:
                raise ValueError(f"{self.kind} design needs an integer size >= 1, got {self.size!r}")
            if self.rate is not None:
                raise ValueError(f"{self.kind} design takes no rate")


@dataclass(frozen=True, eq=False)
class Selection:
    """A multiset of enumerated tuples, stored as sorted ranks with counts;
    a rank lies in [0, C(n, m))."""

    m: int
    n: int
    ranks: np.ndarray  # distinct lexicographic ranks, ascending
    counts: np.ndarray  # multiplicities, same length

    def __post_init__(self) -> None:
        ranks = np.asarray(self.ranks, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if ranks.shape != counts.shape or ranks.ndim != 1:
            raise ValueError("ranks and counts must be 1-d arrays of equal length")
        if ranks.size and ((ranks[1:] <= ranks[:-1]).any() or (counts < 1).any()):
            raise ValueError("ranks must be strictly increasing with positive counts")
        if ranks.size and not 0 <= ranks[0] <= ranks[-1] < inc_count(self.m, self.n):
            raise ValueError(f"ranks must lie in [0, C({self.n}, {self.m})), got {ranks[0]}..{ranks[-1]}")
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


def check_design(design: SamplingDesign, m: int, n: int) -> int:
    """The tuple count C(n, m), once the design can draw from it.

    Raises what `_tuple_count` raises, and ValueError for a
    without-replacement size above the tuple count.
    """
    total = _tuple_count(m, n)
    if design.kind == "without-replacement" and design.size > total:
        raise ValueError(f"cannot draw {design.size} distinct tuples from {total}")
    return total


def draw_design(
    design: SamplingDesign, m: int, n: int, rng: np.random.Generator
) -> Selection:
    """Draw a selection of m-tuples from {1, ..., n} under the design.

    Deterministic given the generator state; without-replacement sampling
    uses Floyd's algorithm so memory stays O(size) even for huge tuple
    counts.
    """
    total = check_design(design, m, n)
    if design.kind == "with-replacement":
        draws = np.sort(rng.integers(0, total, size=design.size))
        # the ranks and counts of np.unique(draws, return_counts=True), as runs
        first = np.flatnonzero(np.diff(draws, prepend=-1))
        counts = np.diff(first, append=draws.size)
        return Selection(m=m, n=n, ranks=draws[first], counts=counts)
    if design.kind == "without-replacement":
        chosen: set[int] = set()
        for j in range(total - design.size, total):
            t = int(rng.integers(0, j + 1))
            chosen.add(j if t in chosen else t)
        ranks = np.sort(np.fromiter(chosen, dtype=np.int64, count=len(chosen)))
    else:
        mask = np.empty(total, dtype=bool)
        for start in range(0, total, 2**20):  # uniforms drawn in chunks of 2**20
            stop = min(start + 2**20, total)
            mask[start:stop] = rng.random(stop - start) < design.rate
        ranks = np.flatnonzero(mask)
    return Selection(m=m, n=n, ranks=ranks, counts=np.ones(ranks.size, dtype=np.int64))


def design_counts(
    design: SamplingDesign, m: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The selection `draw_design` makes from the same generator, as dense
    multiplicities over all C(n, m) ranks (zero where a tuple is not drawn).
    It is the oracle of `_design_batch`, which redraws numpy's rejected
    streams with it.
    """
    sel = draw_design(design, m, n, rng)
    counts = np.zeros(inc_count(m, n), dtype=np.int64)
    counts[sel.ranks] = sel.counts
    return counts


def design_sums_batch(
    design: SamplingDesign, m: int, n: int, master_seed: int, ids, values
) -> np.ndarray:
    """`_selection_sums(values, _design_batch(design, m, n, master_seed, ids),
    _exact_bound(values))`, bit for bit, shape (len(ids), dim), for
    (C(n, m), dim) values.

    Where every with-replacement sum is exact (`_exact_sums` of the values
    and the size), so that any order gives the same bytes, each row sums
    `values` at its stream's drawn ranks straight from the Lemire values,
    with no count matrix; numpy's rejected streams are redrawn with
    `design_counts`. Other designs and values sum count rows, about _CHUNK
    values at a time.
    """
    total = check_design(design, m, n)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or len(values) != total:
        raise ValueError(f"values of shape {values.shape} for {total} tuples of Inc^{m}_{n}")
    bound = _exact_bound(values)
    if design.kind == "with-replacement" and _exact_sums(bound, design.size):
        return _design_batch(design, m, n, master_seed, ids, values=values)
    ids = np.asarray(ids)
    out = np.empty((ids.size, values.shape[1]))
    step = max(1, _CHUNK // total)
    for start in range(0, ids.size, step):
        counts = _design_batch(design, m, n, master_seed, ids[start : start + step])
        out[start : start + step] = _selection_sums(values, counts, bound)
    return out


def _design_batch(
    design: SamplingDesign, m: int, n: int, master_seed: int, ids, selected=False, values=None
):
    """`np.stack([design_counts(design, m, n, substream(master_seed, i)) for i
    in ids])`, bit for bit, shape (len(ids), C(n, m)); with `selected` those
    counts > 0, with `values` the exact with-replacement `design_sums_batch`:
    one draw loop, three reductions of its ranks.

    A with-replacement draw is `integers(0, C(n, m), size)`: each stream's
    ceil(size / 2) native Philox words are mapped with numpy's Lemire method
    (`distributions._lemire_indices`) and counted with one row-offset
    `bincount`, about _CHUNK draws at a time. A stream where numpy would
    have rejected a word is redrawn with `design_counts`. A bernoulli
    stream's C(n, m) words are numpy's uniforms (w >> 11) * 2**-53, compared
    with the rate about _CHUNK at a time. Without-replacement designs are
    drawn stream by stream.

    With `selected` a with-replacement stream draws only its first P =
    min(size, ceil(T (ln T + _COVER_MARGIN))) ranks, T = C(n, m): the rest
    cannot change a selection of every tuple, and a stream whose P draws miss
    one (probability at most T (1 - 1/T)**P <= e**-_COVER_MARGIN, union
    bound) is redrawn by `design_counts`.
    """
    total = check_design(design, m, n)
    ids = np.asarray(ids)
    if values is None:
        out = np.empty((ids.size, total), dtype=bool if selected else np.int64)
    else:
        out = np.empty((ids.size, values.shape[1]))
        columns = np.ascontiguousarray(values.T)

    def redraw(r: int, rng: np.random.Generator) -> None:
        counts = design_counts(design, m, n, rng)
        out[r] = counts if values is None else counts @ values

    streams = substreams(master_seed, ids)
    if design.kind == "without-replacement":
        for r, rng in enumerate(streams):
            redraw(r, rng)
        return out
    bernoulli = design.kind == "bernoulli"
    size = total if bernoulli else design.size  # a bernoulli stream draws a uniform per tuple
    draws = min(size, math.ceil(total * (math.log(total) + _COVER_MARGIN))) if selected else size
    step = max(1, min(_CHUNK // draws, ids.size))
    raw = np.empty((step, draws if bernoulli else -(-draws // 2)), dtype=np.uint64)  # reused by every pass
    indices = None if bernoulli else np.empty((step, draws), dtype=np.int64)
    taken = np.empty((step, draws)) if values is not None else None
    for start in range(0, ids.size, step):
        rows = min(step, ids.size - start)
        for row in raw[:rows]:
            row[:] = next(streams).bit_generator.random_raw(row.size)
        if bernoulli:  # Generator.random() is (w >> 11) * 2**-53
            np.less((raw[:rows] >> np.uint64(11)) * 2.0**-53, design.rate, out=out[start : start + rows])
            continue
        idx, rejected = _lemire_indices(raw[:rows], draws, total, indices[:rows])
        block = out[start : start + rows]
        if values is None:
            idx += np.arange(0, rows * total, total)[:, None]
            block[:] = np.bincount(idx.ravel(), minlength=rows * total).reshape(rows, total)
        else:
            for j, column in enumerate(columns):
                column.take(idx, out=taken[:rows], mode="clip")  # ranks are below C(n, m)
                np.add.reduce(taken[:rows], axis=1, out=block[:, j])
        if draws < size:
            rejected |= ~block.all(axis=1)
        for r in start + np.flatnonzero(rejected):
            redraw(r, substream(master_seed, int(ids[r])))
    return out


def _exact_bound(values: np.ndarray) -> float:
    """max|v| when every value is an integer and none is -0, else inf."""
    if np.any(np.signbit(values) & (values == 0)) or not np.all(values == np.round(values)):
        return math.inf
    return float(np.abs(values).max(initial=0.0))


def _exact_sums(bound: float, total) -> bool:
    """Whether every sum of values within `bound` (an `_exact_bound`) with
    nonnegative integer weights totalling at most `total` is an exact
    integer, whatever the order of adding: total * bound < 2**53."""
    return bool(bound < math.inf and total * bound < 2.0**53)


def _selection_sums(values: np.ndarray, weights: np.ndarray, bound: float) -> np.ndarray:
    """Each row's sum of weights[b, t] * values[b, t] over its tuples with
    nonzero weight, shape (B, dim); a row with none sums to zero.

    values is (B, T, dim), or (T, dim) shared by the rows; weights are bool
    or integer counts, and bound is `_exact_bound(values)`. Each sum has the
    bytes of np.add.reduce over the row's own compressed rows
    `values[ranks] * counts` in ascending rank order, as one selection is
    reduced: the reduction is pairwise at dim 1, so zero padding would in
    general change the bits. Where `_exact_sums` holds for the largest row
    of nonnegative weights, every order gives those bytes, and the sums are
    one dense product.
    """
    if weights.min(initial=0) >= 0 and _exact_sums(bound, weights.sum(axis=1).max(initial=0)):
        dense = weights.astype(np.float64)
        return dense @ values if values.ndim == 2 else np.einsum("bt,btd->bd", dense, values)
    reps, ranks = np.nonzero(weights)
    rows = values[reps, ranks] if values.ndim == 3 else values[ranks]
    rows = rows * weights[reps, ranks][:, None]
    lengths = np.count_nonzero(weights, axis=1)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.zeros((weights.shape[0], values.shape[-1]))
    for b in np.flatnonzero(lengths):
        out[b] = np.add.reduce(rows[starts[b] : ends[b]], axis=0)
    return out


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
    """Sum of kernel values over a selection, multiplicities folded in: the
    selected tuples' values reduced in ascending rank order by
    `_selection_sums`, with the counts as one row of weights.

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
    if selection.empty:
        return IncompleteResult(kernel.codomain.zero(), 0, 0, True)
    cols = _tuple_columns(m, n)
    idx = [c[selection.ranks] for c in cols] if cols is not None else _lex_unranks(selection.ranks, n, m)
    vals = _stacked_values(kernel, (rows[None],) * m, idx)[0]
    value = _selection_sums(vals, selection.counts[None], _exact_bound(vals))[0]
    return IncompleteResult(
        kernel.codomain.point(value),
        selected=selection.selected,
        distinct=selection.distinct,
        empty=False,
    )
