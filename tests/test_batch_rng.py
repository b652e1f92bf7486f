"""Known-answer tests of the batch sampling layer against numpy's own Philox."""

import numpy as np
import pytest

from ustatlab import distributions
from ustatlab.distributions import (
    FiniteDistribution,
    SamplerSpec,
    draw_atoms_batch,
    draw_iid,
    draw_iid_batch,
    mix_ids,
    mix_ids_batch,
    substream,
)
from ustatlab.distributions import _lemire_indices, _philox_lanes, atom_blocks
from ustatlab.hilbert import HilbertSpace

STREAMS = mix_ids_batch(11, np.arange(2000))


def _philox_words(keys, b0, b1):
    """`_philox_lanes` of counter blocks b0..b1-1, laid out per key as
    `np.random.Philox(key=keys[r]).random_raw(4 * b1)[4 * b0:]`."""
    lanes = _philox_lanes(keys, b0, b1, np.empty(8 * keys.shape[0] * (b1 - b0), np.uint64))
    assert all(lane.shape == (b1 - b0, keys.shape[0]) for lane in lanes)
    return np.stack(lanes, axis=-1).transpose(1, 0, 2).reshape(keys.shape[0], -1)


@pytest.mark.parametrize("blocks", [1, 5, 11])
def test_philox_block_function_matches_numpy(blocks):
    keys = np.random.default_rng(2024).integers(0, 2**64, size=(200, 2), dtype=np.uint64)
    keys[:50, 0] |= np.uint64(1 << 63)
    keys[25:75, 1] |= np.uint64(1 << 63)
    expected = np.stack([np.random.Philox(key=k).random_raw(4 * blocks) for k in keys])
    got = _philox_words(keys, 0, blocks)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("blocks", [1, 2])
def test_philox_extreme_key_words_match_numpy(blocks):
    # rounds 1 and 2 are closed form in the key; each key word takes 0 and
    # 2**64 - 1 (so k + W wraps) against the other's extremes and random words
    top, rng = 2**64 - 1, np.random.default_rng(7)
    words = [0, top, 1, top - 1, *rng.integers(0, 2**64, size=3, dtype=np.uint64).tolist()]
    keys = np.array(
        [(a, b) for a in (0, top) for b in words] + [(a, b) for a in words for b in (0, top)],
        dtype=np.uint64,
    )
    expected = np.stack([np.random.Philox(key=k).random_raw(4 * blocks) for k in keys])
    np.testing.assert_array_equal(_philox_words(keys, 0, blocks), expected)


def test_mix_ids_batch_matches_scalar():
    big = np.array([0, 1, 2**63, 2**63 + 12345, 2**64 - 1], dtype=np.uint64)
    negative = np.array([-1, -2**63, 0, 7, -123456789], dtype=np.int64)
    cases = [
        ((big,), [(int(v),) for v in big]),
        ((11, big), [(11, int(v)) for v in big]),
        ((negative, 3), [(int(v), 3) for v in negative]),
        ((-5, big), [(-5, int(v)) for v in big]),
        ((2**64 + 9, negative), [(2**64 + 9, int(v)) for v in negative]),
    ]
    for args, scalar_args in cases:
        got = mix_ids_batch(*args)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [mix_ids(*a) for a in scalar_args]


def _samplers():
    law_2d = FiniteDistribution(
        atoms=np.array([[0.0, 1.0], [1.5, -2.0], [-3.0, 0.25], [2.0, 2.0]]),
        probs=np.array([0.0625, 0.4375 - 1e-9, 0.3, 0.2 + 1e-9]),
    )
    point_mass = FiniteDistribution(atoms=np.array([2.5]), probs=np.array([1.0]))
    return {
        "rademacher": SamplerSpec(kind="rademacher", seed_stream=2024),
        "grid-7": SamplerSpec(kind="uniform-grid", seed_stream=800, grid_points=7),
        "grid-64": SamplerSpec(kind="uniform-grid", seed_stream=801, grid_points=64),
        "grid-3145729": SamplerSpec(kind="uniform-grid", seed_stream=802, grid_points=3_145_729),
        "finite-2d": SamplerSpec(kind="finite", seed_stream=2**64 - 1, dist=law_2d),
        "point-mass": SamplerSpec(kind="finite", seed_stream=5, dist=point_mass),
        "gaussian": SamplerSpec(
            kind="discretized-gaussian", seed_stream=6, space=HilbertSpace.grid(3)
        ),
    }


def _expected(spec, n, streams):
    """np.stack of draw_iid over the streams.

    For a grid of millions of points, draw_iid's own mapping is replayed
    with the grid built once instead of once per stream.
    """
    if spec.kind == "uniform-grid" and spec.grid_points > 10**6:
        k = spec.grid_points
        idx = np.stack([substream(spec.seed_stream, int(s)).integers(0, k, size=n) for s in streams])
        return np.linspace(-1.0, 1.0, k)[idx]
    return np.stack([draw_iid(spec, n, int(s)) for s in streams])


def test_large_grid_replay_is_draw_iid():
    spec = _samplers()["grid-3145729"]
    np.testing.assert_array_equal(
        _expected(spec, 40, STREAMS[:3]), np.stack([draw_iid(spec, 40, int(s)) for s in STREAMS[:3]])
    )


@pytest.mark.parametrize("n", [1, 7, 40])
@pytest.mark.parametrize("name", list(_samplers()))
def test_draw_iid_batch_matches_per_stream_draws(name, n):
    spec = _samplers()[name]
    streams = STREAMS[:200] if name == "gaussian" else STREAMS
    expected = _expected(spec, n, streams)
    got = draw_iid_batch(spec, n, streams)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("name", [k for k in _samplers() if k != "gaussian"])
def test_drawn_atoms_index_the_support(name):
    spec = _samplers()[name]
    idx = draw_atoms_batch(spec, 40, STREAMS)
    assert idx.shape == (STREAMS.size, 40) and idx.dtype == np.intp
    atoms = spec.finite_support().atoms
    np.testing.assert_array_equal(atoms[idx], draw_iid_batch(spec, 40, STREAMS))
    np.testing.assert_array_equal(atoms[idx], _expected(spec, 40, STREAMS))


@pytest.mark.parametrize("k", [2, 3])  # 3 runs the rejection scan over no halves
def test_zero_draws_give_an_empty_row_per_stream(k):
    spec = SamplerSpec(kind="uniform-grid", seed_stream=7, grid_points=k)
    assert draw_atoms_batch(spec, 0, STREAMS[:5]).shape == (5, 0)
    assert draw_iid_batch(spec, 0, STREAMS[:5]).shape == (5, 0)


@pytest.mark.parametrize("name", ["grid-7", "finite-2d"])
def test_no_streams_give_no_rows(name):
    spec = _samplers()[name]
    idx = draw_atoms_batch(spec, 6, STREAMS[:0])
    assert idx.shape == (0, 6) and idx.dtype == np.intp
    draws = draw_iid_batch(spec, 6, STREAMS[:0])
    assert draws.shape == (0, 6) + spec.finite_support().atoms.shape[1:]


def test_a_law_without_atoms_has_no_atom_draws():
    with pytest.raises(ValueError, match="no finite support"):
        draw_atoms_batch(_samplers()["gaussian"], 4, STREAMS[:3])


def _count_fallbacks(monkeypatch, spec, n):
    calls = []

    def counting(*args):
        calls.append(args)
        return draw_iid(*args)

    monkeypatch.setattr(distributions, "draw_iid", counting)
    got = draw_iid_batch(spec, n, STREAMS)
    monkeypatch.undo()
    np.testing.assert_array_equal(got, _expected(spec, n, STREAMS))
    return len(calls)


def test_rejected_lemire_draws_fall_back_to_the_oracle(monkeypatch):
    # (2**32 - k) % k / 2**32 is about 2.4e-4 for k = 3*2**20 + 1, so some of
    # the 80,000 draws are rejected by numpy and redrawn
    spec = _samplers()["grid-3145729"]
    assert 5 <= _count_fallbacks(monkeypatch, spec, 40) <= 60


def test_rejected_lemire_draws_fall_back_in_every_block(monkeypatch):
    # 2000 streams in blocks of 819 leave a partial last block; the fallback
    # writes each redrawn stream into its row of the reused index buffer
    spec = _samplers()["grid-3145729"]
    calls = []

    def counting(*args):
        calls.append(args)
        return draw_iid(*args)

    monkeypatch.setattr(distributions, "draw_iid", counting)
    blocks = [block.copy() for block in atom_blocks(spec, 40, STREAMS, 819)]
    monkeypatch.undo()
    assert [len(b) for b in blocks] == [819, 819, 362]
    redrawn = np.flatnonzero(np.isin(STREAMS, [int(args[2]) for args in calls]))
    assert 5 <= redrawn.size <= 60 and redrawn.max() >= 2 * 819
    np.testing.assert_array_equal(spec.finite_support().atoms[np.concatenate(blocks)], _expected(spec, 40, STREAMS))


def test_a_block_is_a_view_the_next_block_overwrites():
    blocks = atom_blocks(_samplers()["grid-7"], 40, STREAMS[:8], 4)
    first = next(blocks)
    kept = first.copy()
    second = next(blocks)
    assert np.shares_memory(first, second)
    np.testing.assert_array_equal(first, second)
    assert not np.array_equal(kept, second)
    whole = draw_atoms_batch(_samplers()["grid-7"], 40, STREAMS[:8])
    np.testing.assert_array_equal(np.concatenate([kept, second]), whole)


def test_rademacher_never_falls_back(monkeypatch):
    assert _count_fallbacks(monkeypatch, _samplers()["rademacher"], 40) == 0


def test_negative_size_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        draw_iid_batch(_samplers()["rademacher"], -1, STREAMS[:3])


def _halves_consumed(bit_gen) -> int:
    """uint32 halves a fresh numpy Philox has handed out: whole words from its
    4-word blocks, less a cached upper half."""
    state = bit_gen.state
    words = 4 * int(state["state"]["counter"][0]) - (4 - state["buffer_pos"])
    return 2 * words - state["has_uint32"]


@pytest.mark.parametrize("n", [1, 9, 40])
@pytest.mark.parametrize("k", [1, 2, 7, 190, 2**16, 3 * 2**20 + 1, 2**31 + 1, 2**32])
def test_lemire_indices_are_numpy_integers(k, n):
    # k = 2**31 + 1 rejects about half of all halves; powers of two never do
    keys = np.random.default_rng(k).integers(0, 2**64, size=(64, 2), dtype=np.uint64)
    raw = np.stack([np.random.Philox(key=key).random_raw(-(-n // 2)) for key in keys])
    idx, rejected = _lemire_indices(raw, n, k)
    assert idx.shape == (64, n) and idx.dtype == np.int64 and rejected.shape == (64,)
    for r, key in enumerate(keys):
        bit_gen = np.random.Philox(key=key)
        want = np.random.Generator(bit_gen).integers(0, k, size=n)
        assert rejected[r] == (_halves_consumed(bit_gen) > n)
        if not rejected[r]:
            np.testing.assert_array_equal(idx[r], want)
    if (k, n) == (2**31 + 1, 1):  # both branches are exercised
        assert 0 < rejected.sum() < 64
    if k & (k - 1) == 0:
        assert not rejected.any()


@pytest.mark.parametrize("b0, b1", [(0, 1), (0, 6), (3, 4), (2, 9)])
def test_philox_lanes_of_a_block_range_match_numpy(b0, b1):
    keys = np.random.default_rng(b1).integers(0, 2**64, size=(37, 2), dtype=np.uint64)
    keys[:9, 0] |= np.uint64(1 << 63)
    got = _philox_words(keys, b0, b1)
    expected = np.stack([np.random.Philox(key=k).random_raw(4 * b1)[4 * b0 :] for k in keys])
    np.testing.assert_array_equal(got, expected)


def _first_rejected_draw(spec, n, stream) -> int | None:
    """The index of the first of n draws numpy's Lemire method rejects on a
    stream, replayed from its raw words, or None."""
    k = spec.grid_points
    halves = np.random.Philox(key=[spec.seed_stream, int(stream)]).random_raw(-(-n // 2)).view("<u4")[:n]
    low = (halves.astype(np.uint64) * np.uint64(k)) & np.uint64(0xFFFFFFFF)
    rejected = np.flatnonzero(low < (2**32 - k) % k)
    return int(rejected[0]) if rejected.size else None


@pytest.mark.parametrize("name", ["rademacher", "grid-7", "grid-3145729", "finite-2d"])
def test_atom_blocks_in_step_chunks_equal_per_stream_draws(monkeypatch, name):
    # a lane of 2 * 819 words holds two counter blocks of an 819-stream batch:
    # 43 draws span 6 blocks (11 for the finite kind), so 3 (6) step chunks,
    # the last block partial, and 2000 streams leave a partial last batch
    spec = _samplers()[name]
    n, batch = 43, 819
    monkeypatch.setattr(distributions, "_LANE_WORDS", 2 * batch)
    blocks = [block.copy() for block in atom_blocks(spec, n, STREAMS, batch)]
    assert [len(b) for b in blocks] == [819, 819, 362]
    got = np.concatenate(blocks)
    expected = _expected(spec, n, STREAMS)
    if spec.kind == "uniform-grid":  # atom indices of sorted grid values
        np.testing.assert_array_equal(got, np.linspace(-1.0, 1.0, spec.grid_points).searchsorted(expected))
    else:
        np.testing.assert_array_equal(got, spec.finite_support().index_of(expected))
    if name == "grid-3145729":
        first = [_first_rejected_draw(spec, n, s) for s in STREAMS]
        assert any(i is not None and i >= 16 for i in first)  # a redraw set off past the first chunk
