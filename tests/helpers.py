"""Shared test fixtures: random finite laws, table-backed kernels, and the
enumeration oracle for exact projections."""

from __future__ import annotations

import itertools
import math

import numpy as np

from ustatlab import FiniteDistribution, HilbertSpace, KernelSpec
from ustatlab.distributions import exact_expectation


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

    def one(*args):
        idx = tuple(int(lookup([a])[0]) for a in args)
        row = sym[idx]
        return float(row[0]) if dim == 1 else row

    def batch(*cols):
        idx = tuple(lookup(col) for col in cols)
        vals = sym[idx]
        return vals[:, 0] if dim == 1 else vals

    return KernelSpec(
        arity=arity,
        codomain=HilbertSpace.euclidean(dim),
        eval_one=one,
        eval_batch=batch,
        symmetric=True,
        sup_bound=float(np.sqrt((sym**2).sum(axis=-1)).max()),
        name=f"table{arity}",
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
                return np.asarray(kernel.eval_one(*pinned, *rest), dtype=np.float64).reshape(dim)

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
