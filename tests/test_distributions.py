"""Finite laws, counter-based sampling, and exact enumeration."""

import numpy as np
import pytest

from helpers import random_scalar_dist, uniform_three
from ustatlab.distributions import (
    EnumerationBudgetError,
    FiniteDistribution,
    SamplerSpec,
    draw_iid,
    exact_expectation,
    mix_ids,
    substream,
    substreams,
)
from ustatlab.hilbert import HilbertSpace


class TestFiniteDistribution:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            FiniteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_atoms_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            FiniteDistribution(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("dim", [None, 1, 3])
    def test_distinct_atoms_as_np_unique_judges_them(self, dim):
        """Sorted point keys give np.unique(axis=0)'s verdict: -0 and +0 are one
        value, and NaN never equals itself."""
        rng = np.random.default_rng(dim or 0)
        for _ in range(300):
            size = int(rng.integers(1, 9))
            atoms = rng.choice([-1.0, -0.0, 0.0, 2.0, np.nan], size=(size, dim or 1))
            atoms = atoms if dim else atoms[:, 0]
            distinct = len(np.unique(atoms.reshape(size, -1), axis=0)) == size
            probs = np.full(size, 1.0 / size)
            if distinct:
                FiniteDistribution(atoms, probs)
            else:
                with pytest.raises(ValueError, match="distinct"):
                    FiniteDistribution(atoms, probs)

    def test_rademacher_support(self):
        dist = FiniteDistribution.rademacher()
        np.testing.assert_array_equal(np.sort(dist.atoms), [-1.0, 1.0])
        np.testing.assert_allclose(dist.probs, [0.5, 0.5])

    def test_uniform_grid_support(self):
        dist = FiniteDistribution.uniform_grid(5)
        np.testing.assert_allclose(dist.atoms, np.linspace(-1.0, 1.0, 5))
        assert dist.probs.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            FiniteDistribution.uniform_grid(1)


class TestDrawIid:
    def test_rademacher_values_and_determinism(self):
        spec = SamplerSpec(kind="rademacher", seed_stream=2024)
        first = draw_iid(spec, 4, stream=0)
        assert set(np.unique(first)) <= {-1.0, 1.0}
        np.testing.assert_array_equal(first, draw_iid(spec, 4, stream=0))

    def test_point_mass(self):
        dist = FiniteDistribution(np.array([2.5]), np.array([1.0]))
        spec = SamplerSpec(kind="finite", dist=dist)
        np.testing.assert_array_equal(draw_iid(spec, 3, stream=1), [2.5, 2.5, 2.5])

    def test_distinct_streams_differ(self):
        spec = SamplerSpec(kind="rademacher", seed_stream=5)
        a = draw_iid(spec, 256, stream=0)
        b = draw_iid(spec, 256, stream=1)
        assert not np.array_equal(a, b)

    def test_rademacher_mean_is_centered(self):
        """Empirical mean of 1e5 sign draws sits within 3 standard errors."""
        spec = SamplerSpec(kind="rademacher", seed_stream=99)
        draws = draw_iid(spec, 100_000, stream=0)
        assert abs(draws.mean()) <= 3.0 / np.sqrt(100_000)

    def test_streams_are_uncorrelated(self):
        spec = SamplerSpec(kind="rademacher", seed_stream=17)
        a = draw_iid(spec, 100_000, stream=0)
        b = draw_iid(spec, 100_000, stream=1)
        corr = float(np.mean(a * b))
        assert abs(corr) <= 4.0 / np.sqrt(100_000)

    def test_gaussian_sampler_shape(self):
        space = HilbertSpace.euclidean(3)
        spec = SamplerSpec(kind="discretized-gaussian", space=space, seed_stream=1)
        draws = draw_iid(spec, 10, stream=4)
        assert draws.shape == (10, 3)
        assert spec.finite_support() is None

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SamplerSpec(kind="lattice")
        with pytest.raises(ValueError):
            SamplerSpec(kind="finite")
        with pytest.raises(ValueError):
            SamplerSpec(kind="uniform-grid", grid_points=1)


class TestSubstreams:
    # each program leaves the generator mid-buffer (a partly used block of
    # four 64-bit words, or a cached 32-bit half after an odd count of float32
    # draws), so a reset that missed either would shift the next stream
    PROGRAMS = {
        "integers": lambda rng: rng.integers(0, 7, size=5),
        "float32": lambda rng: rng.random(3, dtype=np.float32),
        "random": lambda rng: rng.random(3),
        "standard_normal": lambda rng: rng.standard_normal(7),
        "integers-40-bit": lambda rng: rng.integers(0, 2**40, size=3),
        "mixed": lambda rng: np.concatenate(
            [rng.integers(0, 3, size=1), rng.random(2), rng.standard_normal(1)]
        ),
    }

    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_bit_equal_to_substream(self, program):
        draw = self.PROGRAMS[program]
        ids = [mix_ids(5, r) for r in range(150)] + list(range(150))
        expected = [draw(substream(2**64 + 17, i)) for i in ids]
        got = [draw(rng) for rng in substreams(2**64 + 17, ids)]
        for e, g in zip(expected, got, strict=True):
            np.testing.assert_array_equal(g, e)

    def test_rekeying_resets_the_whole_state(self):
        ids = [mix_ids(5, r) for r in range(4)]
        for i, rng in zip(ids, substreams(2**64 + 17, ids), strict=True):
            np.testing.assert_equal(rng.bit_generator.state, substream(2**64 + 17, i).bit_generator.state)
            rng.random(3, dtype=np.float32)  # three 32-bit halves: mid-block, one half cached
            state = rng.bit_generator.state
            assert (state["buffer_pos"], state["has_uint32"]) == (2, 1)


class TestSubstreamIds:
    """The ids substreams accepts, each against `substream` on the same id."""

    @staticmethod
    def _words(master_seed, ids):
        return [rng.integers(0, 2**62, size=3).tolist() for rng in substreams(master_seed, ids)]

    def test_generator_input(self):
        ids = [mix_ids(9, r) for r in range(40)]
        expected = [substream(11, i).integers(0, 2**62, size=3).tolist() for i in ids]
        assert self._words(11, (i for i in ids)) == expected

    def test_empty_iterable(self):
        assert self._words(11, []) == []
        assert self._words(11, iter(())) == []

    def test_ids_with_the_top_bit_set(self):
        ids = [2**63, 2**63 + 1, 2**64 - 1, 2**64 + 5, -1, np.uint64(2**63 + 7)]
        expected = [substream(2**63 + 3, int(i)).integers(0, 2**62, size=3).tolist() for i in ids]
        assert self._words(2**63 + 3, ids) == expected
        assert self._words(2**63 + 3, np.array(ids[:3], dtype=np.uint64)) == expected[:3]


class TestExactExpectation:
    def test_identity_on_rademacher_is_zero(self):
        out = exact_expectation(lambda x: x, FiniteDistribution.rademacher(), 1)
        np.testing.assert_allclose(out, [0.0], atol=1e-15)

    def test_abs_difference_rademacher(self):
        """E|x - y| enumerates to (0 + 2 + 2 + 0) / 4 = 1."""
        out = exact_expectation(
            lambda x, y: abs(x - y), FiniteDistribution.rademacher(), 2
        )
        np.testing.assert_allclose(out, [1.0], rtol=1e-15)

    def test_abs_difference_uniform_three(self):
        out = exact_expectation(lambda x, y: abs(x - y), uniform_three(), 2)
        np.testing.assert_allclose(out, [8.0 / 9.0], rtol=1e-14)

    def test_point_mass_returns_the_atom(self):
        dist = FiniteDistribution(np.array([-3.25]), np.array([1.0]))
        out = exact_expectation(lambda x: x, dist, 1)
        np.testing.assert_array_equal(out, [-3.25])

    def test_linearity(self):
        rng = np.random.default_rng(11)
        dist = random_scalar_dist(rng, 4)
        f = lambda x, y: x * y + 0.5
        g = lambda x, y: abs(x) - y
        lhs = exact_expectation(lambda x, y: 2.0 * f(x, y) + g(x, y), dist, 2)
        rhs = 2.0 * exact_expectation(f, dist, 2) + exact_expectation(g, dist, 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_budget_guard(self):
        dist = uniform_three()
        with pytest.raises(EnumerationBudgetError):
            exact_expectation(lambda x, y, z: x + y + z, dist, 3, budget=10)


def test_mix_ids_is_deterministic_and_order_sensitive():
    assert mix_ids(1, 2, 3) == mix_ids(1, 2, 3)
    assert mix_ids(1, 2) != mix_ids(2, 1)
    assert 0 <= mix_ids(7, 123456789) < 2**64


# One case of each refusal of the law and sampler constructors: (call, message).
REFUSALS = {
    "probs-per-atom": (
        lambda: FiniteDistribution(np.array([0.0, 1.0]), np.array([1.0])),
        "probs must have one entry per atom",
    ),
    "negative-probs": (
        lambda: FiniteDistribution(np.array([0.0, 1.0]), np.array([1.5, -0.5])),
        "probs must be finite and positive",
    ),
    "probs-sum": (
        lambda: FiniteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.6])),
        "probs sum to 1.1, expected 1 within 1e-12",
    ),
    "gaussian-without-space": (
        lambda: SamplerSpec(kind="discretized-gaussian"),
        "discretized-gaussian sampler needs space",
    ),
    "seed-stream-width": (
        lambda: SamplerSpec(kind="rademacher", seed_stream=2**64),
        "seed_stream must fit in 64 bits",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_a_refusal_names_its_rule(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
