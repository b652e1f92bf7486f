"""Weighted coordinate spaces: inner products, norms, axpy."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustatlab.hilbert import (
    HilbertSpace,
    SpaceMismatchError,
    axpy,
    inner,
    norm,
    row_norms,
)


def test_orthogonal_axes():
    space = HilbertSpace.euclidean(2)
    assert inner(space.point([1.0, 0.0]), space.point([0.0, 1.0])) == 0.0


def test_three_four_five():
    space = HilbertSpace.euclidean(2)
    p = space.point([3.0, 4.0])
    assert inner(p, p) == 25.0
    assert norm(p) == 5.0


def test_grid_weights_normalize_the_constant_function():
    """On an averaged grid the constant function 1 has norm exactly 1."""
    half = HilbertSpace.grid(2)
    assert inner(half.point([1.0, 1.0]), half.point([1.0, 1.0])) == pytest.approx(1.0)
    quarter = HilbertSpace.grid(4)
    assert norm(quarter.point([1.0, 1.0, 1.0, 1.0])) == pytest.approx(1.0)


def test_zero_vector_has_zero_norm():
    space = HilbertSpace.euclidean(3)
    assert norm(space.zero()) == 0.0


class TestAxpy:
    def test_alpha_zero_returns_b(self):
        space = HilbertSpace.euclidean(2)
        a = space.point([5.0, -7.0])
        b = space.point([1.0, 2.0])
        np.testing.assert_array_equal(axpy(0.0, a, b).coords, b.coords)

    def test_alpha_one_adds(self):
        space = HilbertSpace.euclidean(2)
        out = axpy(1.0, space.point([1.0, 2.0]), space.point([3.0, 4.0]))
        np.testing.assert_array_equal(out.coords, [4.0, 6.0])

    def test_self_cancellation(self):
        space = HilbertSpace.grid(5)
        a = space.point(np.linspace(-2.0, 3.0, 5))
        assert norm(axpy(-1.0, a, a)) <= 1e-14


def test_mismatched_spaces_rejected():
    a = HilbertSpace.euclidean(2).point([1.0, 0.0])
    b = HilbertSpace.grid(2).point([1.0, 0.0])
    with pytest.raises(SpaceMismatchError):
        inner(a, b)
    with pytest.raises(SpaceMismatchError):
        axpy(1.0, a, b)


def test_space_validation():
    with pytest.raises(ValueError):
        HilbertSpace(dim=0, weights=np.array([]))
    with pytest.raises(ValueError):
        HilbertSpace(dim=2, weights=np.array([1.0, 0.0]))


@st.composite
def point_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    coord = st.floats(min_value=-100.0, max_value=100.0)
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim))
    space = HilbertSpace(dim=dim, weights=np.asarray(weights))
    a = space.point(draw(st.lists(coord, min_size=dim, max_size=dim)))
    b = space.point(draw(st.lists(coord, min_size=dim, max_size=dim)))
    return a, b


@given(point_pairs())
def test_cauchy_schwarz(pair):
    a, b = pair
    bound = norm(a) * norm(b)
    assert abs(inner(a, b)) <= bound + 1e-12 * max(1.0, bound)


@given(point_pairs())
def test_inner_is_symmetric_bit_exact(pair):
    a, b = pair
    assert inner(a, b) == inner(b, a)


def test_row_norms_matches_pointwise_norm():
    rng = np.random.default_rng(7)
    space = HilbertSpace(dim=4, weights=rng.uniform(0.2, 2.0, size=4))
    rows = rng.normal(size=(9, 4))
    expected = [norm(space.point(r)) for r in rows]
    np.testing.assert_allclose(row_norms(space, rows), expected, rtol=1e-15)


class TestRowNorms:
    """Small dims add coordinate columns in sequence; the bits are the reduce's."""

    @pytest.mark.parametrize("dim", range(1, 13))
    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
    def test_bits_equal_the_reduce(self, dim, lead):
        rng = np.random.default_rng(100 * dim + len(lead))
        space = HilbertSpace(dim, rng.uniform(0.1, 3.0, size=dim))
        values = rng.normal(size=lead + (dim,)) * 10.0 ** rng.uniform(-3, 3, size=lead + (dim,))
        got = row_norms(space, values)
        want = np.sqrt(np.add.reduce(values * values * space.weights, axis=-1))
        assert np.shape(got) == lead
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 12])
    def test_a_single_row_gives_a_numpy_scalar(self, dim):
        got = row_norms(HilbertSpace.grid(dim), np.arange(1.0, dim + 1.0))
        assert isinstance(got, np.float64) and not isinstance(got, np.ndarray)
