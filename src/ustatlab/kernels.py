"""Kernel definitions and the built-in kernel zoo.

A kernel of arity m maps m sample points into a codomain Hilbert space.
It has two evaluators: `eval_one` on m raw points (floats for scalar inputs,
coordinate rows for vector inputs) and `eval_batch` on m stacked argument
columns. A kernel states one of them and `KernelSpec` derives the other
once, so every estimator evaluates through `batch_values` alone and the
built-ins state only their vectorized form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    ENUMERATION_BUDGET, EnumerationBudgetError, FiniteDistribution,
)
from .hilbert import HilbertPoint, HilbertSpace, row_norms

__all__ = [
    "KernelSpec",
    "SupBoundWarning",
    "evaluate",
    "batch_values",
    "centered",
    "gini",
    "spatial_sign",
    "product",
    "empirical_indicator",
    "empirical_indicator_from",
]

class SupBoundWarning(UserWarning):
    """An observed kernel value exceeded the declared sup bound."""


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Declared shape and evaluators of a kernel.

    arity: number of sample arguments.
    codomain: space the values live in.
    eval_one: callable on arity raw points, returns a scalar (codomain
        dim 1) or a coordinate row.
    eval_batch: vectorized form on arity argument columns of T rows each;
        returns (T, dim), or (T,) when the codomain is the scalar line, as a
        new array, a view of the columns or a read-only array, so a caller
        may write into a writeable result that shares no memory with them.
    Give one evaluator (or both); a spec with neither raises ValueError.
    The missing one is built once here: a loop-only kernel gets the loop
    of eval_one over the rows as its eval_batch, and a batch-only kernel
    gets eval_batch on one-row columns as its eval_one, which then returns
    the (dim,) value row.
    symmetric: whether eval is invariant under argument permutations.
    sup_bound: optional a.s. bound on the value norm, spot-checked during
        Monte Carlo runs.
    declared_degeneracy: optional degeneracy order hint, cross-checked by
        callers that compute the true order.
    """

    arity: int
    codomain: HilbertSpace
    eval_one: Callable[..., object] | None = None
    eval_batch: Callable[..., np.ndarray] | None = None
    symmetric: bool = False
    sup_bound: float | None = None
    declared_degeneracy: int | None = None
    name: str = "kernel"

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        if self.sup_bound is not None and self.sup_bound < 0:
            raise ValueError("sup_bound must be nonnegative")
        if self.eval_one is None and self.eval_batch is None:
            raise ValueError("a kernel needs eval_one or eval_batch")
        if self.eval_batch is None:
            object.__setattr__(self, "eval_batch", self._row_loop)
        elif self.eval_one is None:
            object.__setattr__(self, "eval_one", self._one_row)

    def _row_loop(self, *cols) -> np.ndarray:
        """eval_one on each row of the argument columns, stacked (T, dim)."""
        dim = self.codomain.dim
        out = np.empty((cols[0].shape[0], dim))
        for t in range(out.shape[0]):
            out[t] = _as_row(self.eval_one(*(c[t] for c in cols)), dim)
        return out

    def _one_row(self, *args) -> np.ndarray:
        """eval_batch on one-row argument columns: the (dim,) value row."""
        return batch_values(self, tuple(np.asarray(a)[None] for a in args))[0]


def _as_row(value, dim: int) -> np.ndarray:
    out = np.asarray(value, dtype=np.float64)
    if out.ndim == 0:
        out = out.reshape(1)
    if out.shape != (dim,):
        raise ValueError(f"kernel value has shape {out.shape}, codomain dim is {dim}")
    return out


def evaluate(kernel: KernelSpec, args: tuple) -> HilbertPoint:
    """Evaluate on one argument tuple, wrapped as a codomain point."""
    if len(args) != kernel.arity:
        raise ValueError(f"kernel has arity {kernel.arity}, got {len(args)} arguments")
    return kernel.codomain.point(_as_row(kernel.eval_one(*args), kernel.codomain.dim))


def batch_values(kernel: KernelSpec, cols: tuple[np.ndarray, ...]) -> np.ndarray:
    """Values over stacked argument columns, shape cols[0].shape[:1] + (dim,).

    Each column holds one argument position: shape (T,) for scalar inputs or
    (T, d_in) for vector inputs. This is the one evaluation path of every
    estimator; it calls `eval_batch`, which `KernelSpec` provides for every
    kernel, loop-only ones included.
    """
    if len(cols) != kernel.arity:
        raise ValueError(f"kernel has arity {kernel.arity}, got {len(cols)} columns")
    n_rows = cols[0].shape[0]
    dim = kernel.codomain.dim
    vals = np.asarray(kernel.eval_batch(*cols), dtype=np.float64)
    if dim == 1 and vals.shape == (n_rows,):
        vals = vals[:, None]
    if vals.shape != (n_rows, dim):
        raise ValueError(f"batch evaluator returned shape {vals.shape}")
    return vals


def partial_expectations(
    kernel: KernelSpec, dist: FiniteDistribution, top: int, table: np.ndarray | None = None
) -> list[np.ndarray]:
    """Exact partial expectations M_0, ..., M_top (top <= arity) under iid draws from dist.

    M_j has shape (A,) * j + (dim,) for a law with A atoms; its entry at atom
    indices (i_1, ..., i_j) is E h(a_{i_1}, ..., a_{i_j}, xi_{j+1}, ..., xi_m).
    The kernel is evaluated once on every tuple of atoms. Each tail is summed
    one term at a time in itertools.product order, with weights
    p_1 * p_2 * ... formed left to right, so every entry equals
    `exact_expectation` of the same function bit for bit. Raises
    EnumerationBudgetError when A**m exceeds ENUMERATION_BUDGET. A caller
    that already holds `_atom_table(kernel, dist)` passes it as `table`.
    """
    size, m = dist.size, kernel.arity
    values = _atom_table(kernel, dist) if table is None else table
    return [
        _tail_means(values, dist.probs, m - j).reshape((size,) * j + (-1,)) for j in range(top + 1)
    ]


def _atom_table(kernel: KernelSpec, dist: FiniteDistribution) -> np.ndarray:
    """Kernel values on every m-tuple of atoms, shape (A**m, dim), rows in
    itertools.product order. Raises EnumerationBudgetError when A**m exceeds
    ENUMERATION_BUDGET.
    """
    size, m = dist.size, kernel.arity
    if size**m > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration needs {size**m} terms, budget is {ENUMERATION_BUDGET}"
        )
    grid = (size,) * m
    cols = tuple(dist.atoms[np.broadcast_to(ix, grid).ravel()] for ix in np.indices(grid, sparse=True))
    return batch_values(kernel, cols)


def _tuple_probs(probs: np.ndarray, t: int) -> np.ndarray:
    """Probabilities of the A**t atom t-tuples in itertools.product order,
    each the product p_{i_1} * ... * p_{i_t} formed left to right."""
    out = np.ones(1)
    for _ in range(t):
        out = np.multiply.outer(out, probs).ravel()
    return out


def _tail_means(table: np.ndarray, probs: np.ndarray, tail: int) -> np.ndarray:
    """Integrate the last `tail` atom axes out of a (A**m, dim) atom table.

    Returns (A**(m - tail), dim). Each entry sums its A**tail terms one at a
    time in itertools.product order (`cumsum`), each term weighted by
    `_tuple_probs`.
    """
    weights = _tuple_probs(probs, tail)
    terms = table.reshape(-1, weights.size, table.shape[-1]) * weights[:, None]
    return np.cumsum(terms, axis=1)[:, -1].copy()


def centered(kernel: KernelSpec, dist: FiniteDistribution) -> KernelSpec:
    """Subtract the exact mean under iid draws from `dist`.

    The mean is summed over the full support (`partial_expectations`), so
    the centered kernel has zero expectation to rounding error. The sup
    bound, when one was declared, widens by the norm of the subtracted mean.
    No degeneracy is declared: centering can lower the base kernel's order
    (the product kernel on {0, 2} goes from 2 to 1), and `degeneracy_order`
    computes it under the law.
    """
    (mean,) = partial_expectations(kernel, dist, 0)

    def centered_batch(*cols):
        vals = np.asarray(kernel.eval_batch(*cols), dtype=np.float64)
        owned = vals.flags.writeable and not any(np.may_share_memory(vals, c) for c in cols)
        return np.subtract(vals, mean[0] if vals.ndim == 1 else mean, out=vals if owned else None)

    sup = None
    if kernel.sup_bound is not None:
        sup = kernel.sup_bound + float(row_norms(kernel.codomain, mean))

    return KernelSpec(
        arity=kernel.arity,
        codomain=kernel.codomain,
        eval_batch=centered_batch,
        symmetric=kernel.symmetric,
        sup_bound=sup,
        name=f"centered({kernel.name})",
    )


def check_sup_bound(kernel: KernelSpec, value_norms: np.ndarray, context: str) -> int:
    """Spot-check declared sup bounds; warns instead of clipping."""
    if kernel.sup_bound is None:
        return 0
    exceeded = int(np.count_nonzero(value_norms > kernel.sup_bound * (1.0 + 1e-12)))
    if exceeded:
        warnings.warn(
            f"{context}: {exceeded} kernel values exceeded declared sup bound "
            f"{kernel.sup_bound:g} (max observed {value_norms.max():.6g})",
            SupBoundWarning,
            stacklevel=2,
        )
    return exceeded


# ---------------------------------------------------------------------------
# Built-in kernels


def _scalar_line() -> HilbertSpace:
    return HilbertSpace.euclidean(1)


def gini(input_space: HilbertSpace | None = None, sup_bound: float | None = None) -> KernelSpec:
    """Pairwise distance h(u, v) = ||u - v||, scalar-valued.

    With no input space the arguments are real numbers and the distance is
    |u - v|.
    """
    evaluate = _abs_difference if input_space is None else (lambda u, v: row_norms(input_space, u - v))
    return KernelSpec(
        arity=2,
        codomain=_scalar_line(),
        eval_batch=evaluate,
        symmetric=True,
        sup_bound=sup_bound,
        name="gini",
    )


def _abs_difference(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|u - v|, taken inside the difference array."""
    d = u - v
    return np.abs(d, out=d)


def spatial_sign(input_space: HilbertSpace) -> KernelSpec:
    """Direction kernel h(u, v) = (u - v)/||u - v||, zero at u = v.

    Antisymmetric by construction; bounded by 1.
    """
    def batch(u, v):
        d = u - v
        r = row_norms(input_space, d)
        safe = np.where(r > 0, r, 1.0)
        return d / safe[..., None]

    return KernelSpec(
        arity=2,
        codomain=input_space,
        eval_batch=batch,
        symmetric=False,
        sup_bound=1.0,
        name="spatial-sign",
    )


def product(
    input_space: HilbertSpace | None = None, sup_bound: float | None = None, arity: int = 2
) -> KernelSpec:
    """Product kernel h(x_1, ..., x_m) = x_1 * ... * x_m, scalar-valued.

    With no input space the arguments are real numbers, multiplied left to
    right (`_scalar_product`); at arity 2 an input space makes the value the
    inner product <u, v>, and above arity 2 the arguments must be real.
    Degenerate of order m under any centered law.
    """
    if arity < 2:
        raise ValueError(f"a product kernel needs arity at least 2, got {arity}")
    if input_space is not None and arity != 2:
        raise ValueError(f"an arity-{arity} product takes real arguments, not an input space")
    w = None if input_space is None else input_space.weights
    return KernelSpec(
        arity=arity,
        codomain=_scalar_line(),
        eval_batch=_scalar_product if w is None else (lambda u, v: np.add.reduce(w * u * v, axis=-1)),
        symmetric=True,
        sup_bound=sup_bound,
        declared_degeneracy=arity,
        name="product",
    )


def _scalar_product(*cols: np.ndarray) -> np.ndarray:
    """cols[0] * cols[1] * ..., left to right: the evaluator of the real
    product kernel."""
    out = cols[0] * cols[1]
    for col in cols[2:]:
        out *= col
    return out


def _is_real_product(kernel: KernelSpec) -> bool:
    """Whether `kernel` evaluates as the real product kernel `product` builds,
    told by its evaluator, whatever its name."""
    return kernel.eval_batch is _scalar_product


def empirical_indicator(grid: np.ndarray, cdf_on_grid: np.ndarray) -> KernelSpec:
    """Centered empirical-indicator kernel x -> (1{x <= t_g} - F(t_g))_g.

    Values live on the L2 grid space over the supplied evaluation points;
    the norm is the root-mean-square over the grid, so every value has norm
    at most 1.
    """
    grid = np.asarray(grid, dtype=np.float64)
    cdf_on_grid = np.asarray(cdf_on_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.shape != cdf_on_grid.shape:
        raise ValueError("grid and cdf_on_grid must be 1-d arrays of equal length")
    if np.any(cdf_on_grid < 0) or np.any(cdf_on_grid > 1):
        raise ValueError("cdf values must lie in [0, 1]")
    space = HilbertSpace.grid(grid.shape[0])

    return KernelSpec(
        arity=1,
        codomain=space,
        eval_batch=lambda x: (np.asarray(x)[..., None] <= grid).astype(np.float64) - cdf_on_grid,
        symmetric=True,
        sup_bound=1.0,
        declared_degeneracy=1,
        name="empirical-indicator",
    )


def empirical_indicator_from(dist: FiniteDistribution, grid_points: int) -> KernelSpec:
    """Empirical-indicator kernel with F computed exactly from a finite law.

    The grid spans the support of dist; F(t) = P(xi <= t) is exact, so the
    kernel is exactly centered: E h(xi) = 0 coordinatewise.
    """
    if dist.atoms.ndim != 1:
        raise ValueError("empirical-indicator needs a scalar law")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    grid = np.linspace(float(dist.atoms.min()), float(dist.atoms.max()), grid_points)
    cdf = np.add.reduce(
        np.where(dist.atoms[:, None] <= grid, dist.probs[:, None], 0.0), axis=0
    )
    return empirical_indicator(grid, cdf)
