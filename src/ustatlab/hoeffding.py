"""Exact projections of symmetric kernels and the degeneracy ladder.

The order-k projection of a symmetric kernel h of arity m under a law P is

    h_k(s_1, ..., s_k) = sum_{j=0}^{k} (-1)^(k-j)
        sum_{u in Inc^j_k} E[ h(s_{u_1}, ..., s_{u_j}, xi_{j+1}, ..., xi_m) ],

an inclusion-exclusion over which arguments stay pinned. Each h_k is fully
degenerate: integrating out any single argument gives zero. The complete
U-statistic then decomposes as

    U_{m,n}(h) = sum_{k=0}^{m} binom(m, k) * [binom(n, m)/binom(n, k)] * U_{k,n}(h_k),

which `decomposition_check` verifies term by term on a concrete sample.

Under a finite law with A atoms an exact projection is a dense table of
shape (A,) * k + (dim,) over the support: the kernel is evaluated once on
every tuple of atoms, the partial expectations are contractions of that
table with the probabilities (`kernels.partial_expectations`), and h_k
follows by the inclusion-exclusion above. Evaluating h_k maps each argument
to its atom by exact value and reads the table; an argument off the support
raises ValueError. A Monte Carlo plug-in variant covers laws without
enumerable support.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import FiniteDistribution, SamplerSpec, draw_iid, mix_ids
from .hilbert import row_norms
from .kernels import KernelSpec, batch_values, partial_expectations
from .ustats import complete

__all__ = [
    "ProjectedKernel",
    "DegeneracyReport",
    "DecompositionCheck",
    "project",
    "project_mc",
    "degeneracy_order",
    "decomposition_check",
]

DEGENERACY_TOL = 1e-9


def _inclusion_exclusion(k: int, pinned: Callable[[tuple], np.ndarray]) -> np.ndarray:
    """sum_j (-1)^(k-j) sum_{u in Inc^j_k} pinned(u), j ascending, u in combinations order."""
    acc = 0.0
    for j in range(k + 1):
        sign = -1.0 if (k - j) % 2 else 1.0
        for u in itertools.combinations(range(k), j):
            acc = acc + sign * pinned(u)
    return acc


@dataclass(frozen=True, eq=False)
class ProjectedKernel:
    """The order-k projection h_k of a symmetric base kernel.

    An exact projection holds h_k as a read-only table of shape
    (A,) * k + (dim,) over the atoms of `support`. A plug-in projection
    (`project_mc`) has no table; it evaluates the inclusion-exclusion from
    `partials`, which maps the pinned arguments to a Monte Carlo tail mean.
    """

    base: KernelSpec
    order: int
    table: np.ndarray | None = None
    support: FiniteDistribution | None = None
    partials: Callable[[tuple], np.ndarray] | None = None

    def eval(self, *args) -> np.ndarray:
        if len(args) != self.order:
            raise ValueError(f"projection has order {self.order}, got {len(args)} arguments")
        if self.table is None:
            return _inclusion_exclusion(self.order, lambda u: self.partials(tuple(args[i] for i in u)))
        return np.array(self._lookup(*args))

    def _lookup(self, *cols) -> np.ndarray:
        """Table entries at the atoms of each argument column, matched exactly."""
        return self.table[tuple(self.support.index_of(c) for c in cols)]

    def as_kernel(self) -> KernelSpec:
        """Repackage as a kernel of arity k for use in U-statistics."""
        if self.order < 1:
            raise ValueError("order-0 projection is a constant, not a kernel")
        return KernelSpec(
            arity=self.order,
            codomain=self.base.codomain,
            eval_one=self.eval,
            eval_batch=None if self.table is None else self._lookup,
            symmetric=True,
            name=f"proj{self.order}({self.base.name})",
        )


def _check_projectable(base: KernelSpec, k: int) -> None:
    if not base.symmetric:
        raise ValueError("projection requires a symmetric kernel; call symmetrize first")
    if not 0 <= k <= base.arity:
        raise ValueError(f"projection order must lie in [0, {base.arity}], got {k}")


def _projections(
    base: KernelSpec, dist: FiniteDistribution, top: int, table: np.ndarray | None = None
) -> list[ProjectedKernel]:
    """Exact projections h_0, ..., h_top from one evaluation of the kernel on the support.

    Entry (i_1, ..., i_k) of the h_k table is the inclusion-exclusion of the
    partial expectations at the pinned atoms (i_u for u in Inc^j_k).
    """
    _check_projectable(base, top)
    partials = partial_expectations(base, dist, top, table)
    size, dim = dist.size, base.codomain.dim
    out = []
    for k in range(top + 1):
        # M_j spread over the pinned axes u of the (A,) * k grid
        table = _inclusion_exclusion(
            k, lambda u: partials[len(u)].reshape([size if a in u else 1 for a in range(k)] + [dim])
        )
        table.setflags(write=False)
        out.append(ProjectedKernel(base=base, order=k, table=table, support=dist))
    return out


def project(base: KernelSpec, dist: FiniteDistribution, k: int) -> ProjectedKernel:
    """Exact order-k projection of a symmetric kernel under a finite law.

    Raises EnumerationBudgetError when the law has more than
    ENUMERATION_BUDGET tuples of `base.arity` atoms.
    """
    return _projections(base, dist, k)[k]


def project_mc(
    base: KernelSpec,
    sampler: SamplerSpec,
    k: int,
    draws: int = 10_000,
    stream: int = 0,
) -> ProjectedKernel:
    """Plug-in projection for laws without enumerable support.

    Tail expectations use a Monte Carlo sample mean over `draws` points, so
    values carry O(draws**-0.5) error; compare against the exact mode with a
    4-standard-error tolerance when the law is actually finite.
    """
    _check_projectable(base, k)
    if draws < 2:
        raise ValueError("draws must be at least 2")
    # one shared tail sample per tail length keeps h_k a consistent
    # functional of the same empirical measure; tails[t] holds t columns
    tails = [
        tuple(draw_iid(sampler, draws, mix_ids(stream, 9100 + t, pos)) for pos in range(t))
        for t in range(base.arity + 1)
    ]

    def tail_mean(fixed: tuple) -> np.ndarray:
        tail = tails[base.arity - len(fixed)]
        rows = draws if tail else 1
        pinned = tuple(np.broadcast_to(np.asarray(a, np.float64), (rows,) + np.shape(a)) for a in fixed)
        return np.add.reduce(batch_values(base, pinned + tail), axis=0) / rows

    return ProjectedKernel(base=base, order=k, partials=tail_mean)


def _nondecreasing(size: int, k: int) -> np.ndarray:
    """Mask of the index tuples i_1 <= ... <= i_k of a (size,) * k grid."""
    ix = np.indices((size,) * k, sparse=True)
    ordered = (a <= b for a, b in zip(ix, ix[1:]))
    return functools.reduce(np.logical_and, ordered, np.ones((size,) * k, dtype=bool))


@dataclass(frozen=True)
class DegeneracyReport:
    """Projection residuals over the support and the resulting order."""

    order: int
    residuals: tuple[float, ...]  # max ||h_k|| over support^k, k = 1..arity
    mean_norm: float  # ||h_0||
    tol: float
    declared: int | None
    declared_matches: bool | None

    @property
    def fully_degenerate(self) -> bool:
        """All projections below the arity vanish and the kernel is centered."""
        arity = len(self.residuals)
        return self.order == arity and self.mean_norm <= self.tol


def degeneracy_order(
    base: KernelSpec,
    dist: FiniteDistribution,
    tol: float = DEGENERACY_TOL,
    table: np.ndarray | None = None,
) -> DegeneracyReport:
    """Smallest k >= 1 whose projection survives on the support.

    Returns order m (the arity) when every lower projection vanishes. The
    mean ||h_0|| is reported separately: the tail-scan normalization
    additionally requires a centered kernel. `table` is the kernel's atom
    table on the support (`kernels._atom_table`), if the caller has built it.
    """
    m = base.arity
    space = base.codomain
    h0, *tables = (proj.table for proj in _projections(base, dist, m, table))
    residuals = [
        float(row_norms(space, table[_nondecreasing(dist.size, k)]).max())
        for k, table in enumerate(tables, start=1)
    ]
    order = next((k for k, worst in enumerate(residuals, start=1) if worst > tol), m)
    declared = base.declared_degeneracy
    matches = None if declared is None else (declared == order)
    if matches is False:
        warnings.warn(
            f"kernel {base.name!r} declares degeneracy {declared} but the computed "
            f"order under this law is {order}",
            stacklevel=2,
        )
    return DegeneracyReport(
        order=order,
        residuals=tuple(residuals),
        mean_norm=float(row_norms(space, h0)),
        tol=tol,
        declared=declared,
        declared_matches=matches,
    )


@dataclass(frozen=True)
class DecompositionCheck:
    """Deviation between a complete U-statistic and its projection expansion."""

    deviation: float
    lhs_norm: float
    per_order_norms: tuple[float, ...]  # ||binom-scaled U_{k,n}(h_k)||, k = 0..m

    def within(self, rel_tol: float = 1e-10) -> bool:
        return self.deviation <= rel_tol * (1.0 + self.lhs_norm)


def decomposition_check(
    base: KernelSpec, dist: FiniteDistribution, sample: np.ndarray, table: np.ndarray | None = None
) -> DecompositionCheck:
    """Verify U_{m,n}(h) = sum_k binom(m,k) [binom(n,m)/binom(n,k)] U_{k,n}(h_k).

    The left side is the complete statistic of the kernel itself; the right
    side sums the complete statistics of the projection tables. Both go
    through `ustats.complete`. The sample must be drawn from the support of
    dist (projections are exact only there); it is mapped to atom indices
    once, and a point off the support raises ValueError. The tables are then
    read at those indices, the same entries `as_kernel` finds by value.
    They are built from the kernel's atom table (`kernels._atom_table`),
    passed as `table` if the caller has built it.
    """
    atoms = dist.index_of(sample)
    lhs = complete(base, sample).coords
    n, m, space = len(sample), base.arity, base.codomain
    rhs = np.zeros(space.dim)
    per_order = []
    for k, proj in enumerate(_projections(base, dist, m, table)):
        u_k = proj.eval() if k == 0 else complete(_atom_kernel(proj), atoms).coords
        scaled = (math.comb(m, k) * math.comb(n, m) / math.comb(n, k)) * u_k
        per_order.append(float(row_norms(space, scaled)))
        rhs += scaled

    return DecompositionCheck(
        deviation=float(row_norms(space, lhs - rhs)),
        lhs_norm=float(row_norms(space, lhs)),
        per_order_norms=tuple(per_order),
    )


def _atom_kernel(proj: ProjectedKernel) -> KernelSpec:
    """An exact h_k as a kernel of atom indices, which it reads its table at.

    `ustats.complete` hands the indices over as floats; they are exact.
    """
    return KernelSpec(
        arity=proj.order,
        codomain=proj.base.codomain,
        eval_batch=lambda *cols: proj.table[tuple(c.astype(np.intp) for c in cols)],
        symmetric=True,
        name=f"proj{proj.order}({proj.base.name})",
    )
