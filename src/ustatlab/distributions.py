"""Sampling laws, counter-based random substreams, and exact expectations.

Substreams follow a counter-based discipline: the generator handed to a
consumer is keyed by (master seed, substream id), so the k-th draw of any
substream is a pure function of (master seed, substream id, k). Replicas
seeded this way give identical results no matter how work is scheduled
or batched.

`draw_iid` is the reference sampler: one numpy Philox Generator per
substream. `draw_iid_batch` produces the same draws for a whole stack of
substreams at once. Philox is counter-based (Salmon et al., SC'11), so any
range of counter blocks of every substream comes out of one vectorized
Philox4x64-10 pass (`_philox_lanes`), and the words are mapped to draws
exactly as numpy's Generator maps them. For the finite kinds that mapping
yields atom indices (`draw_atoms_batch`), and the value draws read the
atoms at them, so a consumer that works on atom indices (the tail scan's
routes) sees the very draws it would as values. `atom_blocks` draws them a
batch of substreams at a time, step-major, into one index buffer allocated
once per call: each step chunk's words are computed where they are
written, so a long loop of batches allocates nothing large after its first.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
import numpy.random  # numpy loads it lazily at the first Generator; load it here, not mid-run

from .hilbert import HilbertSpace

__all__ = [
    "FiniteDistribution",
    "SamplerSpec",
    "EnumerationBudgetError",
    "substream",
    "mix_ids",
    "draw_iid",
    "exact_expectation",
]

ENUMERATION_BUDGET = 10**7


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the configured term budget."""


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A law with finitely many atoms.

    atoms: shape (A,) for scalar laws or (A, dim) for vector-valued laws.
    probs: positive, sums to 1 within 1e-12: every atom carries mass.
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
        if np.any(probs <= 0.0) or not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite and positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probs sum to {float(probs.sum())}, expected 1 within 1e-12")
        keys = np.sort(_point_keys(atoms))  # -0.0 == 0.0, so they count as one atom
        if np.any(keys[1:] == keys[:-1]):
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
# Philox4x64 multipliers and key increments (Salmon et al., SC'11), the
# multipliers also split into 32-bit limbs.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_M_LIMBS = tuple((m & _MASK32, m >> _SHIFT32) for m in _PHILOX_M)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
# Words per lane that `atom_blocks` computes at a time: the four lanes and
# four scratch arrays of a step chunk, 64 * _LANE_WORDS bytes, stay in L2.
_LANE_WORDS = 2**14


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


def substreams(master_seed: int, ids: Iterable[int]) -> Iterator[np.random.Generator]:
    """`substream(master_seed, i)` for each i in ids, bit for bit, from one re-keyed Philox.

    The ids are mixed in one pass. The same Generator is yielded every time,
    its state reset for the next id, so a yielded generator must not be kept
    or used past its iteration.
    """
    words = mix_ids_batch(np.fromiter((int(i) & 0xFFFFFFFFFFFFFFFF for i in ids), np.uint64))
    bit_gen = np.random.Philox(0)
    rng = np.random.Generator(bit_gen)
    fresh = bit_gen.state  # empty buffer, no cached 32-bit half
    # counter 0 and the key as plain ints, which the state setter reads faster than arrays
    fresh.update(state={"counter": [0] * 4, "key": [int(master_seed) % 2**64, 0]}, buffer=[0] * 4)
    key = fresh["state"]["key"]
    for word in words.tolist():
        key[1] = word
        bit_gen.state = fresh
        yield rng


def _philox_lanes(keys: np.ndarray, b0: int, b1: int, scratch: np.ndarray) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 words of counter blocks b0..b1-1 of R keys as four
    block-major (b1 - b0, R) lanes: lane l at [b - b0, r] is word 4b + l of
    `np.random.Philox(key=keys[r]).random_raw`, whose counter for block b is
    (b + 1, 0, 0, 0). The lanes and the rounds' scratch are views of
    `scratch`, at least 8 * R * (b1 - b0) words. The key words are (R,) rows
    broadcast along the blocks, and the first two rounds are mostly closed form.
    """
    rows, blocks = keys.shape[0], b1 - b0
    size = blocks * rows
    c0, c1, c2, c3, *tmp = (scratch[i * size : (i + 1) * size].reshape(blocks, rows) for i in range(8))
    key0, key1 = keys[:, 0], keys[:, 1]
    # Round 1 on counter (b + 1, 0, 0, 0) leaves (k0, 0, hi(M0 (b + 1)) ^ k1,
    # lo(M0 (b + 1))), from products of Python ints, so round 2 multiplies
    # the key row k0 by M0 and only c2 at full width.
    products = [int(_PHILOX_M[0]) * b for b in range(b0 + 1, b1 + 1)]
    np.bitwise_xor(key1, np.array([p >> 64 for p in products], dtype=np.uint64).reshape(blocks, 1), out=c2)
    k0, k1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
    np.bitwise_xor(_mulhi(c2, *_PHILOX_M_LIMBS[1], *tmp), k0, out=c1)
    np.bitwise_xor(k1, np.array([p % 2**64 for p in products], dtype=np.uint64).reshape(blocks, 1), out=c3)
    c3 ^= _mulhi(key0, *_PHILOX_M_LIMBS[0], *(t[:1] for t in tmp))
    np.multiply(key0, _PHILOX_M[0], out=c0)
    c2 *= _PHILOX_M[1]
    c0, c1, c2, c3 = c1, c2, c3, c0
    for _ in range(8):
        k0 += _PHILOX_W[0]
        k1 += _PHILOX_W[1]
        # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)),
        # each new word written over an old one that is no longer read
        c1 ^= _mulhi(c2, *_PHILOX_M_LIMBS[1], *tmp)
        c1 ^= k0
        c2 *= _PHILOX_M[1]
        c3 ^= _mulhi(c0, *_PHILOX_M_LIMBS[0], *tmp)
        c3 ^= k1
        c0 *= _PHILOX_M[0]
        c0, c1, c2, c3 = c1, c2, c3, c0
    return c0, c1, c2, c3


def _mulhi(x: np.ndarray, m_lo, m_hi, lo, hi, cross, out) -> np.ndarray:
    """High 64 bits of the 128-bit products m * x, from the 32-bit limbs of
    the multiplier m and of x, written into `out` through the scratch arrays
    lo, hi and cross, each shaped like x."""
    np.bitwise_and(x, _MASK32, out=lo)
    np.right_shift(x, _SHIFT32, out=hi)
    np.multiply(lo, m_hi, out=cross)
    lo *= m_lo
    lo >>= _SHIFT32
    # (lo * m_lo >> 32) + (cross mod 2**32) + hi * m_lo < 2**64
    np.bitwise_and(cross, _MASK32, out=out)
    lo += out
    np.multiply(hi, m_lo, out=out)
    lo += out
    lo >>= _SHIFT32
    cross >>= _SHIFT32
    np.multiply(hi, m_hi, out=out)
    out += cross
    out += lo
    return out


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

    Finite kinds read their atoms at the indices `draw_atoms_batch` draws;
    the ziggurat-based discretized-gaussian kind is drawn stream by stream
    with `draw_iid`.
    """
    if spec.kind != "discretized-gaussian":
        return spec.finite_support().atoms.take(draw_atoms_batch(spec, n, streams), axis=0)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return np.stack([draw_iid(spec, n, int(s)) for s in np.asarray(streams, dtype=np.uint64)])


def draw_atoms_batch(spec: SamplerSpec, n: int, streams) -> np.ndarray:
    """Atom indices of `draw_iid_batch(spec, n, streams)`, shape (R, n), for
    a finite kind: its draws are `spec.finite_support().atoms` at these
    indices. It is the one block of `atom_blocks` over every stream.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    for block in atom_blocks(spec, n, streams, streams.size):
        return block
    return np.empty((0, n), dtype=np.int64)


def atom_blocks(spec: SamplerSpec, n: int, streams, batch: int) -> Iterator[np.ndarray]:
    """`draw_atoms_batch(spec, n, streams)` in blocks of `batch` streams, the
    last one possibly shorter, for a finite kind. Each (B, n) block is the
    transpose of a C-contiguous step-major (n, B) prefix of one index buffer,
    allocated once per call, which the next block overwrites.

    Each step chunk's Philox lanes (`_philox_lanes`, `_LANE_WORDS` words a
    lane) are written straight into the buffer's rows and mapped there as
    numpy's Generator maps them: `integers` takes the uint32 halves h of
    word l of block b, low first, as draws 8b + 2l + h, by `_lemire`;
    `choice` searches word 4b + l, as (word >> 11) * 2**-53, in the
    normalized cdf. A stream where numpy would reject a draw is redrawn with
    `draw_iid`, and its grid values, looked up in the sorted grid, fill its
    column.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if spec.kind == "discretized-gaussian":
        raise ValueError("discretized-gaussian has no finite support")
    streams = np.asarray(streams, dtype=np.uint64)
    batch = max(1, min(batch, streams.size))
    finite = spec.kind == "finite"
    per_block = 4 if finite else 8  # draws per counter block
    blocks = -(-n // per_block)
    chunk = max(1, _LANE_WORDS // batch)
    scratch = np.empty(8 * batch * min(chunk, blocks), dtype=np.uint64)
    keys = np.empty((batch, 2), dtype=np.uint64)
    keys[:, 0] = spec.seed_stream
    indices = np.empty(n * batch, dtype=np.int64)
    if finite:
        cdf = spec.dist.probs.cumsum()
        cdf /= cdf[-1]
    else:
        k = 2 if spec.kind == "rademacher" else spec.grid_points
    for start in range(0, streams.size, batch):
        ids = streams[start : start + batch]
        rows = ids.size
        keys[:rows, 1] = mix_ids_batch(ids)
        steps = indices[: n * rows].reshape(n, rows)
        words = steps.view(np.uint64)
        rejected = np.zeros(rows, dtype=bool)
        for b0 in range(0, blocks, chunk):
            first, last = per_block * b0, min(per_block * (b0 + chunk), n)
            lanes = _philox_lanes(keys[:rows], b0, min(b0 + chunk, blocks), scratch)
            if not finite:  # each word's uint32 halves, low half first
                lanes = [word.view("<u4")[:, half::2] for word in lanes for half in (0, 1)]
            for i, lane in enumerate(lanes):
                dest = words[first + i : last : per_block]
                dest[:] = lane[: len(dest)]
            drawn, raw = steps[first:last], words[first:last]
            if finite:
                raw >>= np.uint64(11)
                drawn[:] = cdf.searchsorted(np.multiply(raw, 1.0 / 2**53, out=raw.view(np.float64)), side="right")
            else:
                rejected |= _lemire(raw, k, drawn, axis=0)
        for r in np.flatnonzero(rejected):
            steps[:, r] = _grid(k).searchsorted(draw_iid(spec, n, int(ids[r])))
        yield steps.T


def _lemire_indices(raw: np.ndarray, n: int, k: int, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`_lemire` along each row of the first n uint32 halves, low half first,
    of raw Philox words (R, >= n / 2): int64 (R, n) values, written into
    `out` when it is given, and per row whether numpy rejects one."""
    halves = np.ascontiguousarray(raw, dtype="<u8").view("<u4")[:, :n]
    out = np.empty(halves.shape, dtype=np.int64) if out is None else out
    return out, _lemire(halves, k, out, axis=1)


def _lemire(halves: np.ndarray, k: int, out: np.ndarray, axis: int) -> np.ndarray:
    """Write into `out`, an int64 2-d array with contiguous rows, the values
    `Generator.integers(0, k)` makes of the uint32 values `halves` shaped
    like it (`out` may hold them), for 1 <= k <= 2**32, and return whether
    numpy rejects one along `axis`. numpy maps u to (u * k) >> 32 (Lemire,
    ACM TOMACS 2019) and rejects u when (u * k) mod 2**32 < (2**32 - k) mod
    k, never for a power of two k; a flagged stream must be drawn by numpy.
    """
    scaled = out.view("<u8")
    np.multiply(halves, np.uint64(k), out=scaled)
    reject_below = (2**32 - k) % k
    rejected = np.zeros(scaled.shape[1 - axis], dtype=bool)
    if reject_below:  # the low half of each product is (u * k) mod 2**32
        rejected = scaled.view("<u4")[:, ::2].min(axis=axis, initial=reject_below) < reject_below
    scaled >>= _SHIFT32
    return rejected


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
