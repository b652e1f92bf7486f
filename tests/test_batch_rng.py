"""Known-answer tests of the batch sampling layer against numpy's own Philox."""

import numpy as np
import pytest

from ustatlab import distributions
from ustatlab.distributions import (
    FiniteDistribution,
    SamplerSpec,
    draw_iid,
    draw_iid_batch,
    mix_ids,
    mix_ids_batch,
    philox4x64,
    substream,
)
from ustatlab.hilbert import HilbertSpace

STREAMS = mix_ids_batch(11, np.arange(2000))


@pytest.mark.parametrize("blocks", [1, 5, 11])
def test_philox_block_function_matches_numpy(blocks):
    keys = np.random.default_rng(2024).integers(0, 2**64, size=(200, 2), dtype=np.uint64)
    keys[:50, 0] |= np.uint64(1 << 63)
    keys[25:75, 1] |= np.uint64(1 << 63)
    expected = np.stack([np.random.Philox(key=k).random_raw(4 * blocks) for k in keys])
    got = philox4x64(keys, blocks)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, expected)


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


def test_rademacher_never_falls_back(monkeypatch):
    assert _count_fallbacks(monkeypatch, _samplers()["rademacher"], 40) == 0


def test_negative_size_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        draw_iid_batch(_samplers()["rademacher"], -1, STREAMS[:3])
