"""Sampling laws, counter-based random substreams, and exact expectations.

Substreams follow a counter-based discipline: the generator handed to a
consumer is keyed by (master seed, substream id), so the k-th draw of any
substream is a pure function of (master seed, substream id, k). Replicas
seeded this way give identical results no matter how work is scheduled
across threads.

`draw_iid` is the reference sampler: one numpy Philox Generator per
substream. `draw_iid_batch` produces the same draws for a whole stack of
substreams at once. Philox is counter-based, so every substream's words
come out of one vectorized Philox4x64-10 pass (Salmon et al., SC'11), and
they are mapped to draws exactly as numpy's Generator maps them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import HilbertSpace

__all__ = [
    "FiniteDistribution",
    "SamplerSpec",
    "EnumerationBudgetError",
    "substream",
    "mix_ids",
    "mix_ids_batch",
    "philox4x64",
    "draw_iid",
    "draw_iid_batch",
    "exact_expectation",
]

ENUMERATION_BUDGET = 10**7


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the configured term budget."""


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A law with finitely many atoms.

    atoms: shape (A,) for scalar laws or (A, dim) for vector-valued laws.
    probs: nonnegative, sums to 1 within 1e-12.
    """

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.array(self.atoms, dtype=np.float64, copy=True)
        probs = np.array(self.probs, dtype=np.float64, copy=True)
        if atoms.ndim not in (1, 2) or atoms.shape[0] < 1:
            raise ValueError("atoms must be a nonempty 1-d or 2-d array")
        if probs.shape != (atoms.shape[0],):
            raise ValueError("probs must have one entry per atom")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite and nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probs sum to {probs.sum()!r}, expected 1 within 1e-12")
        flat = atoms.reshape(atoms.shape[0], -1)
        if len(np.unique(flat, axis=0)) != atoms.shape[0]:
            raise ValueError("atoms must be distinct")
        atoms.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    def atom(self, i: int):
        """The i-th atom, as a scalar for 1-d laws or a coordinate row."""
        return float(self.atoms[i]) if self.atoms.ndim == 1 else self.atoms[i]

    def index_of(self, values) -> np.ndarray:
        """Atom index of each point in `values`, matched by exact value.

        Points run along the leading axes: scalars for a 1-d law, rows for a
        2-d law. Raises ValueError naming the first point that is not an atom.
        """
        point = self.atoms.shape[1:]
        flat = np.asarray(values, dtype=np.float64).reshape((-1,) + point)
        atoms, keys = _point_keys(self.atoms), _point_keys(flat)
        order = np.argsort(atoms)
        pos = order[np.minimum(np.searchsorted(atoms, keys, sorter=order), self.size - 1)]
        missing = np.flatnonzero(atoms[pos] != keys)
        if missing.size:
            raise ValueError(f"{flat[missing[0]].tolist()!r} is not an atom of the law")
        return pos.reshape(np.shape(values)[: np.ndim(values) - len(point)])

    @classmethod
    def rademacher(cls) -> "FiniteDistribution":
        return cls(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))

    @classmethod
    def uniform_grid(cls, k: int) -> "FiniteDistribution":
        """Uniform law on k evenly spaced points of [-1, 1] (k >= 2)."""
        if k < 2:
            raise ValueError("uniform-grid needs at least 2 points")
        return cls(_grid(k), np.full(k, 1.0 / k))


def _point_keys(points: np.ndarray) -> np.ndarray:
    """One sortable key per point: the value itself, or a record of its coordinates."""
    if points.ndim == 1:
        return points
    return np.ascontiguousarray(points).view(np.dtype([("", np.float64)] * points.shape[1]))[:, 0]


@functools.lru_cache(maxsize=4)
def _grid(k: int) -> np.ndarray:
    """The uniform-grid atoms np.linspace(-1, 1, k), built once per k, read-only."""
    grid = np.linspace(-1.0, 1.0, k)
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class SamplerSpec:
    """What to sample and from which seed stream.

    kind: one of "finite", "rademacher", "uniform-grid", "discretized-gaussian".
    dist: required for kind="finite".
    grid_points: required for kind="uniform-grid".
    space: required for kind="discretized-gaussian"; coordinates are i.i.d.
        standard normals scaled by weights**0.5 (sampling only, no finite
        support, so exact enumeration is unavailable).
    seed_stream: 64-bit base id; draws are deterministic given
        (seed_stream, substream).
    """

    kind: str
    seed_stream: int = 0
    dist: FiniteDistribution | None = None
    grid_points: int | None = None
    space: HilbertSpace | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "rademacher", "uniform-grid", "discretized-gaussian"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.kind == "finite" and self.dist is None:
            raise ValueError("finite sampler needs dist")
        if self.kind == "uniform-grid" and (self.grid_points is None or self.grid_points < 2):
            raise ValueError("uniform-grid sampler needs grid_points >= 2")
        if self.kind == "discretized-gaussian" and self.space is None:
            raise ValueError("discretized-gaussian sampler needs space")
        if not 0 <= int(self.seed_stream) < 2**64:
            raise ValueError("seed_stream must fit in 64 bits")

    def finite_support(self) -> FiniteDistribution | None:
        """The finite law backing this sampler, if it has one."""
        if self.kind == "finite":
            return self.dist
        if self.kind == "rademacher":
            return FiniteDistribution.rademacher()
        if self.kind == "uniform-grid":
            return FiniteDistribution.uniform_grid(self.grid_points)
        return None


def mix_ids(*ids: int) -> int:
    """Fold integers into one 64-bit word (splitmix64-style rounds)."""
    acc = 0x9E3779B97F4A7C15
    for value in ids:
        acc = (acc ^ (int(value) & 0xFFFFFFFFFFFFFFFF)) * 0xBF58476D1CE4E5B9 % 2**64
        acc = (acc ^ (acc >> 31)) * 0x94D049BB133111EB % 2**64
        acc ^= acc >> 29
    return acc


_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox4x64 multipliers and key increments (Salmon et al., SC'11), shaped
# to act on the (c0, c2) / (c1, c3) lane pairs of a (2, R, blocks) state.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)


def mix_ids_batch(*ids) -> np.ndarray:
    """`mix_ids` elementwise over broadcast integer arrays, as uint64."""
    acc = np.full(np.broadcast_shapes(*(np.shape(v) for v in ids)), 0x9E3779B97F4A7C15, np.uint64)
    for value in ids:
        if isinstance(value, int):
            value = np.uint64(value & 0xFFFFFFFFFFFFFFFF)
        acc = (acc ^ np.asarray(value).astype(np.uint64)) * np.uint64(0xBF58476D1CE4E5B9)
        acc = (acc ^ (acc >> np.uint64(31))) * np.uint64(0x94D049BB133111EB)
        acc ^= acc >> np.uint64(29)
    return acc


def substream(master_seed: int, *ids: int) -> np.random.Generator:
    """A generator whose state is a pure function of (master_seed, ids, draw index)."""
    key = np.array([int(master_seed) % 2**64, mix_ids(*ids)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> _SHIFT32
    b_lo, b_hi = b & _MASK32, b >> _SHIFT32
    hi_lo = a_hi * b_lo
    cross = ((a_lo * b_lo) >> _SHIFT32) + (hi_lo & _MASK32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)


def philox4x64(keys: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 output words for a stack of keys, shape (R, 4 * blocks).

    Row r equals `np.random.Philox(key=keys[r]).random_raw(4 * blocks)`:
    numpy starts the counter at zero and bumps it before each block, so
    block b is keyed by counter (b + 1, 0, 0, 0).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    rows = keys.shape[0]
    key = keys.T[:, :, None].copy()
    even = np.zeros((2, rows, blocks), dtype=np.uint64)  # words (c0, c2)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)  # words (c1, c3)
    for step in range(10):
        if step:
            key += _PHILOX_W
        # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        even, odd = _mulhi(_PHILOX_M, even)[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
    return np.stack([even, odd], axis=-1).transpose(1, 2, 0, 3).reshape(rows, 4 * blocks)


def draw_iid(spec: SamplerSpec, n: int, stream: int) -> np.ndarray:
    """n i.i.d. draws from spec on substream `stream`.

    Returns shape (n,) for scalar laws, (n, dim) for vector laws. The result
    depends only on (spec.seed_stream, stream, spec contents).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = substream(spec.seed_stream, stream)
    if spec.kind == "rademacher":
        return rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    if spec.kind == "uniform-grid":
        return _grid(spec.grid_points)[rng.integers(0, spec.grid_points, size=n)]
    if spec.kind == "discretized-gaussian":
        scale = np.sqrt(spec.space.weights)
        return rng.standard_normal((n, spec.space.dim)) * scale
    idx = rng.choice(spec.dist.size, size=n, p=spec.dist.probs)
    return np.array(spec.dist.atoms[idx], dtype=np.float64)


def draw_iid_batch(spec: SamplerSpec, n: int, streams) -> np.ndarray:
    """`np.stack([draw_iid(spec, n, s) for s in streams])`, bit for bit.

    The Philox words of every stream are produced in one vectorized pass and
    mapped the way numpy's Generator maps them: `integers` takes Lemire's
    bounded value of each uint32 (low half of each word first), `choice`
    searches (word >> 11) * 2**-53 in the normalized cdf. A stream where
    Lemire's method would reject a draw is recomputed with `draw_iid`, as is
    every stream of the ziggurat-based discretized-gaussian kind.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    streams = np.asarray(streams, dtype=np.uint64)
    if spec.kind == "discretized-gaussian":
        return np.stack([draw_iid(spec, n, int(s)) for s in streams])
    seeds = np.full(streams.shape, spec.seed_stream, dtype=np.uint64)
    keys = np.stack([seeds, mix_ids_batch(streams)], axis=1)
    if spec.kind == "finite":
        raw = philox4x64(keys, -(-n // 4))[:, :n]
        cdf = spec.dist.probs.cumsum()
        cdf /= cdf[-1]
        idx = cdf.searchsorted((raw >> np.uint64(11)) * (1.0 / 2**53), side="right")
        return np.array(spec.dist.atoms[idx], dtype=np.float64)
    k = 2 if spec.kind == "rademacher" else spec.grid_points
    raw = philox4x64(keys, -(-n // 8))
    words = np.stack([raw & _MASK32, raw >> _SHIFT32], axis=-1).reshape(raw.shape[0], -1)[:, :n]
    scaled = words * np.uint64(k)
    idx = scaled >> _SHIFT32
    if spec.kind == "rademacher":
        return idx.astype(np.float64) * 2.0 - 1.0
    out = _grid(k)[idx]
    for r in np.flatnonzero(((scaled & _MASK32) < (2**32 - k) % k).any(axis=1)):
        out[r] = draw_iid(spec, n, int(streams[r]))
    return out


def exact_expectation(
    f: Callable[..., object],
    dist: FiniteDistribution,
    j: int,
    budget: int = ENUMERATION_BUDGET,
):
    """E[f(xi_1, ..., xi_j)] by full enumeration over the j-fold support.

    Errors out (rather than silently truncating) when size**j exceeds the
    budget. Returns whatever scalar/array type f produces.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    terms = dist.size**j
    if terms > budget:
        raise EnumerationBudgetError(
            f"enumeration needs {terms} terms, budget is {budget}"
        )
    acc = None
    for combo in itertools.product(range(dist.size), repeat=j):
        p = 1.0
        for i in combo:
            p *= dist.probs[i]
        value = f(*(dist.atom(i) for i in combo))
        term = np.asarray(value, dtype=np.float64) * p
        acc = term if acc is None else acc + term
    if acc is None:  # unreachable: product(..., repeat=0) yields one empty tuple
        raise AssertionError("empty enumeration")
    return float(acc) if acc.ndim == 0 else acc
