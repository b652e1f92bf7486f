"""Kernel zoo behavior, symmetrization, centering, the two evaluators."""

import warnings

import numpy as np
import pytest

from helpers import norm, random_scalar_dist, symmetrize, uniform_three
from ustatlab.distributions import FiniteDistribution
from ustatlab.hilbert import HilbertSpace
from ustatlab.hoeffding import degeneracy_order, project
from ustatlab.kernels import (
    KernelSpec,
    SupBoundWarning,
    batch_values,
    centered,
    check_sup_bound,
    _is_real_product,
    empirical_indicator,
    empirical_indicator_from,
    evaluate,
    gini,
    partial_expectations,
    product,
    spatial_sign,
)
from ustatlab.montecarlo import coordinate_kernel

plane = HilbertSpace.euclidean(2)


def test_gini_on_scalars():
    k = gini()
    assert evaluate(k, (3.0, -1.0)).coords[0] == 4.0
    assert evaluate(k, (2.0, 2.0)).coords[0] == 0.0


def test_product_orthogonal_inputs():
    k = product(plane)
    out = evaluate(k, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert out.coords[0] == 0.0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_product_of_any_arity_multiplies_left_to_right(m):
    k = product(arity=m)
    assert k.arity == m and k.declared_degeneracy == m and k.symmetric
    cols = np.random.default_rng(m).normal(size=(m, 30))
    want = cols[0] * cols[1]
    for col in cols[2:]:
        want = want * col
    np.testing.assert_array_equal(batch_values(k, tuple(cols))[:, 0], want)
    assert evaluate(k, (2.0, -3.0, 0.5, 7.0)[:m]).coords[0] == np.prod([2.0, -3.0, 0.5, 7.0][:m])


def test_product_arity_is_checked():
    with pytest.raises(ValueError, match="arity at least 2"):
        product(arity=1)
    with pytest.raises(ValueError, match="real arguments"):
        product(plane, arity=3)


def test_spatial_sign_fixes_the_origin():
    k = spatial_sign(plane)
    u = np.array([1.0, 2.0])
    assert norm(evaluate(k, (u, u))) == 0.0


def test_spatial_sign_is_a_unit_vector_off_the_diagonal():
    rng = np.random.default_rng(3)
    k = spatial_sign(plane)
    for _ in range(25):
        u, v = rng.normal(size=(2, 2))
        assert norm(evaluate(k, (u, v))) == pytest.approx(1.0, abs=1e-12)


def test_gini_triangle_probe():
    rng = np.random.default_rng(4)
    k = gini(plane)
    for _ in range(25):
        u, v, w = rng.normal(size=(3, 2))
        huw = evaluate(k, (u, w)).coords[0]
        hvw = evaluate(k, (v, w)).coords[0]
        assert huw >= 0.0
        assert abs(huw - hvw) <= np.sqrt(((u - v) ** 2).sum()) + 1e-12


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError, match="arity"):
        evaluate(gini(), (1.0,))


class TestSymmetrize:
    def test_two_term_average(self):
        line = HilbertSpace.euclidean(1)
        k = KernelSpec(arity=2, codomain=line, eval_one=lambda x, y: x)
        sym = symmetrize(k)
        assert evaluate(sym, (1.0, 5.0)).coords[0] == pytest.approx(3.0)
        assert sym.symmetric

    def test_antisymmetric_kernel_averages_to_zero(self):
        line = HilbertSpace.euclidean(1)
        k = KernelSpec(arity=2, codomain=line, eval_one=lambda x, y: x - y)
        sym = symmetrize(k)
        assert evaluate(sym, (2.0, -7.0)).coords[0] == 0.0

    def test_symmetric_kernel_is_a_fixed_point(self):
        k = gini()
        assert symmetrize(k) is k

    def test_idempotent_on_random_probes(self):
        rng = np.random.default_rng(5)
        line = HilbertSpace.euclidean(1)
        base = KernelSpec(
            arity=3, codomain=line, eval_one=lambda x, y, z: x * x + 2.0 * y - z
        )
        once = symmetrize(base)
        twice = symmetrize(once)
        for _ in range(20):
            args = tuple(rng.normal(size=3))
            np.testing.assert_allclose(
                evaluate(twice, args).coords, evaluate(once, args).coords, rtol=1e-14
            )

    def test_arity_cap(self):
        line = HilbertSpace.euclidean(1)
        k = KernelSpec(arity=7, codomain=line, eval_one=lambda *a: sum(a))
        with pytest.raises(ValueError):
            symmetrize(k)


class TestCentered:
    def test_centered_mean_vanishes(self):
        from ustatlab.distributions import exact_expectation

        dist = FiniteDistribution.rademacher()
        k = centered(gini(), dist)
        mean = exact_expectation(lambda x, y: k.eval_one(x, y), dist, 2)
        np.testing.assert_allclose(mean, [0.0], atol=1e-15)

    def test_centering_shifts_values_by_the_old_mean(self):
        dist = uniform_three()
        k = centered(gini(), dist)
        value = float(np.asarray(k.eval_one(1.0, -1.0)).reshape(-1)[0])
        assert value == pytest.approx(2.0 - 8.0 / 9.0)

    def test_declares_no_degeneracy(self):
        """Centering can lower the order: the product kernel declares 2, but
        on {0, 2} its centered form h - 1 has order 1."""
        law = FiniteDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        k = centered(product(), law)
        assert k.declared_degeneracy is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert degeneracy_order(k, law).order == 1

    def test_sup_bound_widens(self):
        dist = FiniteDistribution.rademacher()
        base = gini(sup_bound=2.0)
        assert centered(base, dist).sup_bound == pytest.approx(3.0)

    def test_batch_agrees_with_pointwise(self):
        rng = np.random.default_rng(6)
        dist = random_scalar_dist(rng, 4)
        k = centered(gini(), dist)
        xs = rng.choice(dist.atoms, size=8)
        ys = rng.choice(dist.atoms, size=8)
        vals = batch_values(k, (xs, ys))
        expected = [float(np.asarray(k.eval_one(x, y))[0]) for x, y in zip(xs, ys)]
        np.testing.assert_allclose(vals[:, 0], expected, rtol=1e-14)


class TestResultOwnership:
    """`KernelSpec`'s rule: eval_batch returns a new array, a view of its
    argument columns or a read-only array, so `centered` writes only into a
    writeable result that shares no memory with the arguments."""

    LAW = FiniteDistribution(np.array([0.0, 1.0, 5.0]), np.array([0.2, 0.3, 0.5]))

    def test_centering_the_identity_leaves_its_column(self):
        base = coordinate_kernel()
        (mean,) = partial_expectations(base, self.LAW, 0)
        x = np.random.default_rng(31).choice(self.LAW.atoms, size=40)
        before = x.copy()
        got = centered(base, self.LAW).eval_batch(x)
        assert x.tobytes() == before.tobytes()
        assert got.tobytes() == (before - mean[0]).tobytes()

    def test_a_read_only_result_is_never_written(self):
        made = []

        def doubled(x):
            out = 2.0 * x
            out.setflags(write=False)
            made.append((out, out.copy()))
            return out

        base = KernelSpec(arity=1, codomain=HilbertSpace.euclidean(1), eval_batch=doubled, symmetric=True)
        (mean,) = partial_expectations(base, self.LAW, 0)
        x = np.random.default_rng(32).choice(self.LAW.atoms, size=40)
        got = centered(base, self.LAW).eval_batch(x)
        assert got.tobytes() == (2.0 * x - mean[0]).tobytes()
        assert made and all(out.tobytes() == kept.tobytes() for out, kept in made)

    @pytest.mark.parametrize("kernel", ["gini", "centered-gini"])
    def test_gini_leaves_its_arguments(self, kernel):
        k = gini() if kernel == "gini" else centered(gini(), self.LAW)
        rng = np.random.default_rng(33)
        u, v = rng.choice(self.LAW.atoms, size=40), rng.choice(self.LAW.atoms, size=40)
        before = u.copy(), v.copy()
        got = k.eval_batch(u, v)
        assert u.tobytes() == before[0].tobytes() and v.tobytes() == before[1].tobytes()
        shift = 0.0 if kernel == "gini" else partial_expectations(gini(), self.LAW, 0)[0][0]
        assert got.tobytes() == (np.abs(before[0] - before[1]) - shift).tobytes()


def test_empirical_indicator_values():
    """The indicator map subtracts the exact cdf on each grid node."""
    dist = uniform_three()
    k = empirical_indicator_from(dist, grid_points=3)
    out = evaluate(k, (0.0,))
    grid = np.linspace(-1.0, 1.0, 3)
    cdf = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0])
    np.testing.assert_allclose(out.coords, (0.0 <= grid) - cdf, atol=1e-14)


def test_sup_bound_spot_check_warns():
    norms = np.array([0.5, 1.5])
    k = gini(sup_bound=1.0)
    with pytest.warns(SupBoundWarning):
        flagged = check_sup_bound(k, norms, context="test")
    assert flagged == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_sup_bound(k, np.array([0.5, 0.9]), context="test") == 0


def test_batch_values_falls_back_to_the_loop():
    """A loop-only kernel's eval_batch is the row loop KernelSpec builds."""
    line = HilbertSpace.euclidean(1)
    k = KernelSpec(arity=2, codomain=line, eval_one=lambda x, y: x * y, symmetric=True)
    xs = np.array([1.0, 2.0, 3.0])
    ys = np.array([4.0, 5.0, 6.0])
    assert k.eval_batch is not None
    np.testing.assert_array_equal(k.eval_batch(xs, ys), (xs * ys)[:, None])
    np.testing.assert_array_equal(batch_values(k, (xs, ys))[:, 0], xs * ys)


def test_a_kernel_needs_an_evaluator():
    with pytest.raises(ValueError, match="eval_one or eval_batch"):
        KernelSpec(arity=2, codomain=HilbertSpace.euclidean(1))


def _zoo():
    """(kernel, argument columns) for every built-in kernel, both combinators
    over a loop-only and a batch-only base, and both kinds of projection."""
    rng = np.random.default_rng(11)
    law = random_scalar_dist(rng, 4)
    rows = 40
    scalars = [rng.choice(law.atoms, size=rows) for _ in range(3)]
    vectors = [rng.normal(size=(rows, 2)) for _ in range(2)]
    vectors[1][:5] = vectors[0][:5]  # spatial sign at u = v
    line = HilbertSpace.euclidean(1)
    loop_only = KernelSpec(arity=2, codomain=line, eval_one=lambda x, y: x * x - 3.0 * y)
    batch_only = KernelSpec(arity=2, codomain=line, eval_batch=lambda x, y: x * x - 3.0 * y)
    pair = scalars[:2]
    return {
        "gini": (gini(), pair),
        "gini-plane": (gini(plane), vectors),
        "product": (product(), pair),
        "product-plane": (product(plane), vectors),
        "product-arity-3": (product(arity=3), scalars),
        "spatial-sign": (spatial_sign(plane), vectors),
        "empirical-indicator": (empirical_indicator_from(law, 5), scalars[:1]),
        "coordinate": (coordinate_kernel(), scalars[:1]),
        "sym-loop-only": (symmetrize(loop_only), pair),
        "sym-batch-only": (symmetrize(batch_only), pair),
        "centered-gini": (centered(gini(), law), pair),
        "centered-loop-only": (centered(loop_only, law), pair),
        "projection-table": (project(gini(), law, 2).as_kernel(), pair),
    }


ZOO = _zoo()


@pytest.mark.parametrize("name", list(ZOO))
def test_one_evaluator_matches_the_batch_rows(name):
    """`evaluate` on one argument tuple equals that tuple's `batch_values` row, bit for bit."""
    kernel, cols = ZOO[name]
    rows = batch_values(kernel, tuple(cols))
    for t in range(rows.shape[0]):
        one = evaluate(kernel, tuple(c[t] for c in cols)).coords
        np.testing.assert_array_equal(one, rows[t])


# One case of each refusal of the empirical-indicator builders: (call, message).
REFUSALS = {
    "grid-shape": (
        lambda: empirical_indicator(np.zeros(3), np.zeros(2)),
        "grid and cdf_on_grid must be 1-d arrays of equal length",
    ),
    "cdf-range": (
        lambda: empirical_indicator(np.array([0.0, 1.0]), np.array([0.5, 1.5])),
        "cdf values must lie in [0, 1]",
    ),
    "vector-law": (
        lambda: empirical_indicator_from(FiniteDistribution(np.eye(2), np.array([0.5, 0.5])), 4),
        "empirical-indicator needs a scalar law",
    ),
    "one-grid-point": (
        lambda: empirical_indicator_from(FiniteDistribution.uniform_grid(3), 1),
        "need at least 2 grid points",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_a_refusal_names_its_rule(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_only_the_real_product_evaluates_as_one():
    """`product` on real arguments hands every arity the one evaluator the
    product routes recognise; the inner product and other kernels do not."""
    assert all(_is_real_product(product(arity=m)) for m in (2, 3, 4))
    assert not _is_real_product(product(HilbertSpace.euclidean(2)))
    assert not _is_real_product(gini())
