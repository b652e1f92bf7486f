"""Finite-dimensional Hilbert spaces as coordinate arrays with quadrature weights.

A space is R^dim equipped with the inner product

    <a, b> = sum_i w_i a_i b_i,

where the weights w_i are strictly positive. Unit weights give plain
Euclidean space; weights 1/dim give the discretized L2 norm of a function
sampled on a regular grid of [0, 1]. Values are immutable after
construction and every reduction runs in a fixed order, so repeated
evaluation is bit-identical regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HilbertSpace",
    "HilbertPoint",
    "SpaceMismatchError",
    "inner",
    "norm",
    "axpy",
    "row_norms",
    "squared_row_norms",
]


class SpaceMismatchError(ValueError):
    """Operands live in different spaces or have the wrong shape."""


def _frozen_array(values, shape=None) -> np.ndarray:
    out = np.array(values, dtype=np.float64, copy=True)
    if shape is not None and out.shape != shape:
        raise SpaceMismatchError(f"expected shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("coordinates must be finite")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class HilbertSpace:
    """Descriptor of a weighted coordinate space.

    dim: number of coordinates, at least 1.
    weights: strictly positive quadrature weights, one per coordinate.
    """

    dim: int
    weights: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        w = np.ones(self.dim) if self.weights is None else np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.dim,):
            raise ValueError(f"weights must have shape ({self.dim},), got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "weights", _frozen_array(w))

    @classmethod
    def euclidean(cls, dim: int) -> "HilbertSpace":
        """R^dim with unit weights."""
        return cls(dim)

    @classmethod
    def grid(cls, dim: int) -> "HilbertSpace":
        """Discretized L2[0, 1] on a regular grid of dim points (weights 1/dim)."""
        return cls(dim, np.full(dim, 1.0 / dim))

    def point(self, coords) -> "HilbertPoint":
        return HilbertPoint(_frozen_array(coords, (self.dim,)), self)

    def zero(self) -> "HilbertPoint":
        return self.point(np.zeros(self.dim))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HilbertSpace):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:
        return hash((self.dim, self.weights.tobytes()))

    def __repr__(self) -> str:
        if np.all(self.weights == 1.0):
            return f"HilbertSpace.euclidean({self.dim})"
        return f"HilbertSpace(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class HilbertPoint:
    """A vector of coordinates tied to its space."""

    coords: np.ndarray
    space: HilbertSpace

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _frozen_array(self.coords, (self.space.dim,)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HilbertPoint):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.coords, other.coords)

    def __repr__(self) -> str:
        return f"HilbertPoint({np.array2string(self.coords, threshold=6)})"


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


def squared_row_norms(space: HilbertSpace, values: np.ndarray) -> np.ndarray:
    """Squared norms of stacked coordinate rows; values has shape (..., dim).

    Each is np.add.reduce of the row's `value * value * weight` terms.
    numpy's pairwise reduce adds fewer than 8 terms one after another, so
    below dim 8 the coordinate columns are added in sequence: the same bits,
    with no operation along the tiny last axis.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != space.dim:
        raise SpaceMismatchError(
            f"last axis must have length {space.dim}, got {values.shape[-1]}"
        )
    if space.dim >= 8:
        squares = values * values
        squares *= space.weights  # in place: the bits of values * values * weights, one temporary
        return np.add.reduce(squares, axis=-1)
    total = None
    for j, weight in enumerate(space.weights):
        column = values[..., j]
        term = column * column * weight
        total = term if total is None else total + term
    return total


def row_norms(space: HilbertSpace, values: np.ndarray) -> np.ndarray:
    """Norms of stacked coordinate rows; values has shape (..., dim). A single
    row gives a NumPy scalar."""
    return np.sqrt(squared_row_norms(space, values))
