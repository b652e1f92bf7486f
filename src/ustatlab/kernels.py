"""Kernel definitions and the built-in kernel zoo.

A kernel of arity m maps m sample points into a codomain Hilbert space.
`eval_one` consumes raw point values (floats for scalar inputs, coordinate
rows for vector inputs). Kernels may additionally carry a vectorized
`eval_batch` that broadcasts over leading axes; estimators use it when
present and fall back to a per-tuple loop otherwise.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    ENUMERATION_BUDGET, EnumerationBudgetError, FiniteDistribution, exact_expectation,
)
from .hilbert import HilbertPoint, HilbertSpace, row_norms

__all__ = [
    "KernelSpec",
    "SupBoundWarning",
    "evaluate",
    "batch_values",
    "partial_expectations",
    "symmetrize",
    "centered",
    "conditional_norm_expectation",
    "gini",
    "spatial_sign",
    "product",
    "empirical_indicator",
    "empirical_indicator_from",
]

MAX_SYMMETRIZE_ARITY = 6  # 6! = 720 permutation evaluations per call


class SupBoundWarning(UserWarning):
    """An observed kernel value exceeded the declared sup bound."""


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Declared shape and evaluators of a kernel.

    arity: number of sample arguments.
    codomain: space the values live in.
    eval_one: callable on arity raw points, returns a scalar (codomain
        dim 1) or a coordinate row.
    eval_batch: optional vectorized form; arguments broadcast over leading
        axes, result has a trailing codomain axis unless the codomain is
        the scalar line.
    symmetric: whether eval is invariant under argument permutations.
    sup_bound: optional a.s. bound on the value norm, spot-checked during
        Monte Carlo runs.
    declared_degeneracy: optional degeneracy order hint, cross-checked by
        callers that compute the true order.
    """

    arity: int
    codomain: HilbertSpace
    eval_one: Callable[..., object]
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
    (T, d_in) for vector inputs. Falls back to a per-tuple loop when the
    kernel has no vectorized form.
    """
    if len(cols) != kernel.arity:
        raise ValueError(f"kernel has arity {kernel.arity}, got {len(cols)} columns")
    n_rows = cols[0].shape[0]
    dim = kernel.codomain.dim
    if kernel.eval_batch is not None:
        vals = np.asarray(kernel.eval_batch(*cols), dtype=np.float64)
        if dim == 1 and vals.shape == (n_rows,):
            vals = vals[:, None]
        if vals.shape != (n_rows, dim):
            raise ValueError(f"batch evaluator returned shape {vals.shape}")
        return vals
    out = np.empty((n_rows, dim))
    for t in range(n_rows):
        out[t] = _as_row(kernel.eval_one(*(c[t] for c in cols)), dim)
    return out


def partial_expectations(kernel: KernelSpec, dist: FiniteDistribution, top: int) -> list[np.ndarray]:
    """Exact partial expectations M_0, ..., M_top (top <= arity) under iid draws from dist.

    M_j has shape (A,) * j + (dim,) for a law with A atoms; its entry at atom
    indices (i_1, ..., i_j) is E h(a_{i_1}, ..., a_{i_j}, xi_{j+1}, ..., xi_m).
    The kernel is evaluated once on every tuple of atoms. Each tail is summed
    one term at a time in itertools.product order, with weights
    p_1 * p_2 * ... formed left to right, so every entry equals
    `exact_expectation` of the same function bit for bit. Raises
    EnumerationBudgetError when A**m exceeds ENUMERATION_BUDGET.
    """
    size, m, dim = dist.size, kernel.arity, kernel.codomain.dim
    if size**m > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration needs {size**m} terms, budget is {ENUMERATION_BUDGET}"
        )
    grid = (size,) * m
    cols = tuple(dist.atoms[np.broadcast_to(ix, grid).ravel()] for ix in np.indices(grid, sparse=True))
    values = batch_values(kernel, cols)
    weights = [np.ones(1)]  # weights[t]: product weights of the A**t tails of length t
    for _ in range(m):
        weights.append(np.multiply.outer(weights[-1], dist.probs).ravel())
    out = []
    for j in range(top + 1):
        terms = values.reshape(size**j, size ** (m - j), dim) * weights[m - j][:, None]
        out.append(np.cumsum(terms, axis=1)[:, -1].copy().reshape((size,) * j + (dim,)))
    return out


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

    def sym_one(*args):
        acc = None
        for perm in perms:
            val = np.asarray(kernel.eval_one(*(args[p] for p in perm)), dtype=np.float64)
            acc = val.copy() if acc is None else acc + val
        return acc * scale

    sym_batch = None
    if kernel.eval_batch is not None:
        def sym_batch(*cols):
            acc = None
            for perm in perms:
                val = np.asarray(kernel.eval_batch(*(cols[p] for p in perm)), dtype=np.float64)
                acc = val.copy() if acc is None else acc + val
            return acc * scale

    return KernelSpec(
        arity=kernel.arity,
        codomain=kernel.codomain,
        eval_one=sym_one,
        eval_batch=sym_batch,
        symmetric=True,
        sup_bound=kernel.sup_bound,
        declared_degeneracy=kernel.declared_degeneracy,
        name=f"sym({kernel.name})",
    )


def centered(kernel: KernelSpec, dist: FiniteDistribution) -> KernelSpec:
    """Subtract the exact mean under iid draws from `dist`.

    The mean is summed over the full support (`partial_expectations`), so
    the centered kernel has zero expectation to rounding error. The sup
    bound, when one was declared, widens by the norm of the subtracted mean.
    """
    dim = kernel.codomain.dim
    (mean,) = partial_expectations(kernel, dist, 0)

    def centered_one(*args):
        return np.asarray(_as_row(kernel.eval_one(*args), dim), dtype=np.float64) - mean

    centered_batch = None
    if kernel.eval_batch is not None:
        def centered_batch(*cols):
            vals = np.asarray(kernel.eval_batch(*cols), dtype=np.float64)
            return vals - mean[0] if vals.ndim == 1 else vals - mean

    sup = None
    if kernel.sup_bound is not None:
        sup = kernel.sup_bound + float(row_norms(kernel.codomain, mean))

    return KernelSpec(
        arity=kernel.arity,
        codomain=kernel.codomain,
        eval_one=centered_one,
        eval_batch=centered_batch,
        symmetric=kernel.symmetric,
        sup_bound=sup,
        declared_degeneracy=kernel.declared_degeneracy,
        name=f"centered({kernel.name})",
    )


def conditional_norm_expectation(
    kernel: KernelSpec, dist: FiniteDistribution, fixed: tuple
) -> float:
    """E[ ||h(fixed, xi_{j+1}, ..., xi_m)|| ] with the tail coordinates integrated out.

    `fixed` pins the first j arguments; the remaining arity - j arguments are
    enumerated exactly over the atoms of dist.
    """
    j = len(fixed)
    if j > kernel.arity:
        raise ValueError(f"{j} fixed arguments exceed arity {kernel.arity}")
    space = kernel.codomain

    def tail_norm(*rest):
        return row_norms(space, _as_row(kernel.eval_one(*fixed, *rest), space.dim))

    return float(exact_expectation(tail_norm, dist, kernel.arity - j))


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
    if input_space is None:
        return KernelSpec(
            arity=2,
            codomain=_scalar_line(),
            eval_one=lambda u, v: abs(u - v),
            eval_batch=lambda u, v: np.abs(u - v),
            symmetric=True,
            sup_bound=sup_bound,
            name="gini",
        )
    return KernelSpec(
        arity=2,
        codomain=_scalar_line(),
        eval_one=lambda u, v: row_norms(input_space, np.asarray(u) - np.asarray(v)),
        eval_batch=lambda u, v: row_norms(input_space, u - v),
        symmetric=True,
        sup_bound=sup_bound,
        name="gini",
    )


def spatial_sign(input_space: HilbertSpace) -> KernelSpec:
    """Direction kernel h(u, v) = (u - v)/||u - v||, zero at u = v.

    Antisymmetric by construction; bounded by 1.
    """
    def one(u, v):
        d = np.asarray(u, dtype=np.float64) - np.asarray(v, dtype=np.float64)
        r = row_norms(input_space, d)
        return d / r if r > 0 else np.zeros(input_space.dim)

    def batch(u, v):
        d = u - v
        r = row_norms(input_space, d)
        safe = np.where(r > 0, r, 1.0)
        return d / safe[..., None]

    return KernelSpec(
        arity=2,
        codomain=input_space,
        eval_one=one,
        eval_batch=batch,
        symmetric=False,
        sup_bound=1.0,
        name="spatial-sign",
    )


def product(input_space: HilbertSpace | None = None, sup_bound: float | None = None) -> KernelSpec:
    """Inner-product kernel h(u, v) = <u, v>, scalar-valued.

    With no input space the arguments are real numbers and the value is u*v.
    Degenerate of order 2 under any centered law.
    """
    if input_space is None:
        return KernelSpec(
            arity=2,
            codomain=_scalar_line(),
            eval_one=lambda u, v: u * v,
            eval_batch=lambda u, v: u * v,
            symmetric=True,
            sup_bound=sup_bound,
            declared_degeneracy=2,
            name="product",
        )
    w = input_space.weights
    return KernelSpec(
        arity=2,
        codomain=_scalar_line(),
        eval_one=lambda u, v: np.add.reduce(w * np.asarray(u) * np.asarray(v)),
        eval_batch=lambda u, v: np.add.reduce(w * u * v, axis=-1),
        symmetric=True,
        sup_bound=sup_bound,
        declared_degeneracy=2,
        name="product",
    )


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
        eval_one=lambda x: (x <= grid).astype(np.float64) - cdf_on_grid,
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
