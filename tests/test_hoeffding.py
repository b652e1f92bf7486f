"""Exact projections, degeneracy detection, and the decomposition identity."""

import itertools
import math

import numpy as np
import pytest

from helpers import evaluate, projection_oracle, random_scalar_dist, symmetrize, table_kernel, uniform_three
from ustatlab.distributions import (
    EnumerationBudgetError,
    FiniteDistribution,
    SamplerSpec,
    draw_iid,
    exact_expectation,
)
from ustatlab.hilbert import HilbertSpace, row_norms
from ustatlab import cli, hoeffding, kernels, ustats, weighted_decomposition_check
from ustatlab.hoeffding import (
    DecompositionCheck,
    decomposition_check,
    degeneracy_order,
    project,
)
from ustatlab.kernels import (
    KernelSpec, centered, gini, partial_expectations, product, spatial_sign,
)
from ustatlab.ustats import WeightScheme, complete

rademacher = FiniteDistribution.rademacher()


class TestProject:
    def test_product_kernel_first_projection_vanishes(self):
        """A centered factor law kills the level-1 projection of x*y."""
        proj = project(product(), rademacher, 1)
        for atom in (-1.0, 1.0):
            np.testing.assert_allclose(proj.eval(atom), [0.0], atol=1e-15)

    def test_gini_rademacher_first_projection_vanishes(self):
        proj = project(gini(), rademacher, 1)
        for atom in (-1.0, 1.0):
            np.testing.assert_allclose(proj.eval(atom), [0.0], atol=1e-15)

    def test_gini_rademacher_second_projection(self):
        proj = project(gini(), rademacher, 2)
        np.testing.assert_allclose(proj.eval(1.0, -1.0), [1.0], rtol=1e-14)
        np.testing.assert_allclose(proj.eval(1.0, 1.0), [-1.0], rtol=1e-14)

    def test_gini_uniform_three_level_one(self):
        """h_1(0) = E|0 - xi| - E|xi - xi'| = 2/3 - 8/9 = -2/9."""
        proj = project(gini(), uniform_three(), 1)
        np.testing.assert_allclose(proj.eval(0.0), [-2.0 / 9.0], rtol=1e-13)

    def test_level_zero_is_the_mean(self):
        proj = project(gini(), uniform_three(), 0)
        np.testing.assert_allclose(proj.eval(), [8.0 / 9.0], rtol=1e-14)

    def test_asymmetric_kernel_rejected(self):
        line = HilbertSpace.euclidean(1)
        k = KernelSpec(arity=2, codomain=line, eval_batch=lambda x, y: x)
        with pytest.raises(ValueError, match="symmetric"):
            project(k, rademacher, 1)

    def test_projection_values_are_conditionally_centered(self):
        """Integrating out the last argument of h_k gives zero pointwise."""
        rng = np.random.default_rng(21)
        dist = random_scalar_dist(rng, 4)
        kernel = table_kernel(3, dist, rng)
        for k in (1, 2, 3):
            proj = project(kernel, dist, k)
            for head in itertools.product(dist.atoms, repeat=k - 1):
                out = exact_expectation(lambda last: proj.eval(*head, last), dist, 1)
                np.testing.assert_allclose(out, [0.0], atol=1e-12)

    def test_constant_kernel_projects_to_zero(self):
        line = HilbertSpace.euclidean(1)
        k = KernelSpec(
            arity=2, codomain=line, eval_batch=lambda x, y: np.full_like(x, 4.5), symmetric=True
        )
        proj = project(k, uniform_three(), 1)
        for atom in uniform_three().atoms:
            np.testing.assert_allclose(proj.eval(atom), [0.0], atol=1e-15)

    def test_additive_kernel_has_no_level_two_part(self):
        line = HilbertSpace.euclidean(1)
        k = KernelSpec(
            arity=2,
            codomain=line,
            eval_batch=lambda x, y: x * x + y * y,
            symmetric=True,
        )
        proj = project(k, uniform_three(), 2)
        for a, b in itertools.product(uniform_three().atoms, repeat=2):
            np.testing.assert_allclose(proj.eval(a, b), [0.0], atol=1e-14)


class TestDegeneracyOrder:
    def test_gini_uniform_three_is_order_one(self):
        report = degeneracy_order(gini(), uniform_three())
        assert report.order == 1
        assert not report.fully_degenerate

    def test_gini_rademacher_is_order_two(self):
        report = degeneracy_order(gini(), rademacher)
        assert report.order == 2
        assert report.residuals[0] <= 1e-12
        # order matches the arity but the kernel mean is 1, so the
        # centered-and-degenerate flag stays off until we subtract it
        assert not report.fully_degenerate
        assert degeneracy_order(centered(gini(), rademacher), rademacher).fully_degenerate

    def test_centered_product_is_order_two_and_equals_its_top_projection(self):
        kernel = product()
        report = degeneracy_order(kernel, rademacher)
        assert report.order == 2
        proj = project(kernel, rademacher, 2)
        for a, b in itertools.product((-1.0, 1.0), repeat=2):
            np.testing.assert_allclose(proj.eval(a, b), [a * b], rtol=1e-14)

    def test_declared_degeneracy_is_cross_checked(self):
        report = degeneracy_order(product(), rademacher)
        assert report.declared == 2
        assert report.declared_matches

    def test_a_massless_atom_cannot_lower_the_order(self):
        """h(x, y) = xy + 1{x=0} + 1{y=0} equals xy almost surely under
        {-1: 1/2, 0: 0, 1: 1/2}, so its order is 2; a residual read as a
        maximum over every atom would see the massless 0 and report 1. A law
        refuses such an atom, and on its support the order is 2."""
        with pytest.raises(ValueError, match="probs must be finite and positive"):
            FiniteDistribution(np.array([-1.0, 0.0, 1.0]), np.array([0.5, 0.0, 0.5]))
        kernel = KernelSpec(
            arity=2, codomain=HilbertSpace.euclidean(1), symmetric=True,
            eval_batch=lambda x, y: x * y + (x == 0) + (y == 0),
        )
        report = degeneracy_order(kernel, rademacher)
        assert report.order == 2 and report.residuals[0] == 0.0


class TestDecompositionCheck:
    def test_arity_one_telescopes_exactly(self):
        rng = np.random.default_rng(31)
        dist = random_scalar_dist(rng, 5)
        kernel = table_kernel(1, dist, rng)
        sample = draw_iid(SamplerSpec(kind="finite", dist=dist, seed_stream=1), 9, 0)
        check = decomposition_check(kernel, dist, sample)
        assert check.within(1e-12)

    def test_gini_rademacher_n6(self):
        sample = draw_iid(SamplerSpec(kind="rademacher", seed_stream=2), 6, 0)
        check = decomposition_check(gini(), rademacher, sample)
        assert check.within(1e-10)
        assert len(check.per_order_norms) == 3

    def test_product_uniform_three_n5(self):
        sample = draw_iid(
            SamplerSpec(kind="finite", dist=uniform_three(), seed_stream=3), 5, 0
        )
        assert decomposition_check(product(), uniform_three(), sample).within(1e-10)

    @pytest.mark.parametrize("case", range(10))
    def test_randomized_kernels(self, case):
        """Spot sample of the identity; the full sweep runs in acceptance."""
        rng = np.random.default_rng(1000 + case)
        m = int(rng.integers(1, 4))
        dist = random_scalar_dist(rng, int(rng.integers(2, 6)))
        kernel = table_kernel(m, dist, rng, dim=int(rng.integers(1, 4)))
        n = int(rng.integers(max(m, 2), 9))
        sample = draw_iid(
            SamplerSpec(kind="finite", dist=dist, seed_stream=int(case)), n, 0
        )
        assert decomposition_check(kernel, dist, sample).within(1e-10)

    @pytest.mark.parametrize(
        "deviation, lhs_norm, relative",
        [(1.5e-10, 1.0, 1.5e-10), (1.5e-10, 0.25, 1.5e-10), (3e-10, 2.0, 1.5e-10), (1e-10, 1.0, 1e-10)],
    )
    def test_within_reads_the_deviation_relative_to_a_norm_of_at_least_one(self, deviation, lhs_norm, relative):
        """One rule for the identity: deviation / max(||U||, 1) <= tolerance.
        At deviation 1.5e-10 and ||U|| = 1 it refuses a tolerance of 1e-10,
        which deviation <= tolerance * (1 + ||U||) would accept."""
        check = DecompositionCheck(deviation=deviation, lhs_norm=lhs_norm, per_order_norms=())
        assert check.relative == relative
        assert check.within(1e-10) == (relative <= 1e-10)


class TestWeightedDecompositionCheck:
    def test_scalar_weights_match_the_projection_expansion(self):
        rng = np.random.default_rng(50)
        dist = random_scalar_dist(rng, 3)
        kernel = table_kernel(2, dist, rng)
        n = 6
        sample = draw_iid(SamplerSpec(kind="finite", dist=dist, seed_stream=9), n, 0)
        scheme = WeightScheme(rng.normal(size=math.comb(n, 2)))
        assert weighted_decomposition_check(kernel, dist, scheme, sample) <= 1e-10

    def test_diagonal_weights_match_the_projection_expansion(self):
        rng = np.random.default_rng(51)
        dist = random_scalar_dist(rng, 3)
        kernel = table_kernel(2, dist, rng, dim=3)
        n = 5
        sample = draw_iid(SamplerSpec(kind="finite", dist=dist, seed_stream=10), n, 0)
        scheme = WeightScheme(rng.normal(size=(math.comb(n, 2), 3)))
        assert weighted_decomposition_check(kernel, dist, scheme, sample) <= 1e-10

    def test_builds_the_projections_once_and_maps_the_sample_once(self, monkeypatch):
        rng = np.random.default_rng(52)
        dist = random_scalar_dist(rng, 4)
        kernel = table_kernel(3, dist, rng, dim=2)
        n = 9
        sample = draw_iid(SamplerSpec(kind="finite", dist=dist, seed_stream=12), n, 0)
        scheme = WeightScheme(rng.normal(size=math.comb(n, 3)))
        partials, lookups = [], []
        original, index_of = hoeffding.partial_expectations, FiniteDistribution.index_of
        monkeypatch.setattr(
            hoeffding, "partial_expectations", lambda *args: partials.append(args[2]) or original(*args)
        )
        monkeypatch.setattr(
            FiniteDistribution, "index_of", lambda self, v: lookups.append(len(v)) or index_of(self, v)
        )
        assert weighted_decomposition_check(kernel, dist, scheme, sample) <= 1e-10
        assert partials == [3]
        assert lookups == [n]


def test_projection_reuse_is_consistent():
    first = project(gini(), rademacher, 2)
    second = project(gini(), rademacher, 2)
    np.testing.assert_array_equal(first.eval(1.0, -1.0), second.eval(1.0, -1.0))


def _plane_law() -> FiniteDistribution:
    """A law on five points of the plane, with uneven probabilities."""
    atoms = np.array([[0.0, 0.0], [1.0, -0.5], [-0.3, 2.0], [1.0, 0.25], [-2.0, -1.5]])
    return FiniteDistribution(atoms=atoms, probs=np.array([0.1, 0.3, 0.15, 0.25, 0.2]))


def _table_cases():
    """(name, kernel, law) for the table-versus-enumeration comparison."""
    rng = np.random.default_rng(404)
    scalar = random_scalar_dist(rng, 5)
    plane = HilbertSpace.euclidean(2)
    cases = [
        ("gini-three", gini(), uniform_three()),
        ("gini-random", gini(), scalar),
        ("product-random", product(), scalar),
        ("centered-gini", centered(gini(), scalar), scalar),
        ("centered-product", centered(product(), uniform_three()), uniform_three()),
        ("gini-grid64", centered(gini(), FiniteDistribution.uniform_grid(64)),
         FiniteDistribution.uniform_grid(64)),
        ("gini-plane", gini(plane), _plane_law()),
        ("product-plane", product(plane), _plane_law()),
        ("sym-sign-plane", symmetrize(spatial_sign(plane)), _plane_law()),
        (
            "quadratic-form",
            KernelSpec(arity=2, codomain=HilbertSpace.euclidean(1),
                       eval_batch=lambda x, y: x * x + y * y + x * y, symmetric=True),
            scalar,
        ),
    ]
    for m in (1, 2, 3):
        for dim in (1, 2, 3):
            law = random_scalar_dist(rng, 4)
            cases.append((f"table-m{m}-dim{dim}", table_kernel(m, law, rng, dim=dim), law))
    return cases


TABLE_CASES = {name: (kernel, law) for name, kernel, law in _table_cases()}


class TestProjectionTables:
    """Dense projection tables against term-by-term enumeration, bit for bit."""

    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_tables_equal_the_enumeration(self, case):
        kernel, law = TABLE_CASES[case]
        for k in range(kernel.arity + 1):
            want = projection_oracle(kernel, law, k)
            proj = project(kernel, law, k)
            np.testing.assert_array_equal(proj.table, want)
            for idx in itertools.product(range(law.size), repeat=k):
                np.testing.assert_array_equal(proj.eval(*(law.atom(i) for i in idx)), want[idx])

    @pytest.mark.filterwarnings("ignore:kernel 'product' declares degeneracy 2")
    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_degeneracy_residuals_equal_the_enumeration(self, case):
        kernel, law = TABLE_CASES[case]
        space = kernel.codomain
        report = degeneracy_order(kernel, law)
        residuals = []
        for k in range(1, kernel.arity + 1):
            table = projection_oracle(kernel, law, k)
            worst = 0.0
            for idx in itertools.combinations_with_replacement(range(law.size), k):
                worst = max(worst, float(row_norms(space, table[idx])))
            residuals.append(worst)
        assert report.residuals == tuple(residuals)
        assert report.mean_norm == float(row_norms(space, projection_oracle(kernel, law, 0)))

    @pytest.mark.parametrize("case", ["centered-gini", "centered-product", "gini-grid64"])
    def test_centered_mean_equals_the_enumeration(self, case):
        centered_kernel, law = TABLE_CASES[case]
        base = gini() if "gini" in case else product()
        mean = exact_expectation(lambda *a: evaluate(base, a).coords, law, 2)
        for a, b in itertools.product(law.atoms[:4], repeat=2):
            np.testing.assert_array_equal(
                evaluate(centered_kernel, (a, b)).coords, evaluate(base, (a, b)).coords - mean
            )

    def test_arity_three_means_equal_the_enumeration(self):
        """Tail weights of three atoms must multiply left to right, (p_a * p_b) * p_c."""
        rng = np.random.default_rng(77)
        for _ in range(20):
            law = random_scalar_dist(rng, 5)
            kernel = table_kernel(3, law, rng)
            want = exact_expectation(lambda *a: evaluate(kernel, a).coords, law, 3)
            np.testing.assert_array_equal(partial_expectations(kernel, law, 0)[0], want)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_flat_read_equals_the_per_axis_read(self, k, dim):
        """`_table_read` at one flat index, from integer or float index
        columns, gives the entries of the per-axis read table[c_1, ..., c_k]."""
        rng = np.random.default_rng(310 + 10 * k + dim)
        law = random_scalar_dist(rng, 5)
        table = project(table_kernel(3, law, rng, dim), law, k).table
        cols = [rng.integers(0, law.size, 60) for _ in range(k)]
        want = table[tuple(cols)]
        assert hoeffding._table_read(table, cols).tobytes() == want.tobytes()
        assert hoeffding._table_read(table, [c.astype(np.float64) for c in cols]).tobytes() == want.tobytes()

    def test_batch_lookup_matches_eval(self):
        kernel, law = TABLE_CASES["gini-plane"]
        proj = project(kernel, law, 2)
        sample = draw_iid(SamplerSpec(kind="finite", dist=law, seed_stream=5), 12, 0)
        direct = np.zeros(1)
        for i, j in itertools.combinations(range(12), 2):
            direct += proj.eval(sample[i], sample[j])
        np.testing.assert_allclose(complete(proj.as_kernel(), sample).coords, direct, rtol=1e-13)

    @pytest.mark.parametrize("case", ["gini-plane", "centered-gini", "gini-grid64"])
    def test_decomposition_maps_the_sample_once(self, monkeypatch, case):
        """Each order reads its table at the sample's atom indices, found once;
        the terms equal the value lookups of `as_kernel` bit for bit."""
        kernel, law = TABLE_CASES[case]
        sample = draw_iid(SamplerSpec(kind="finite", dist=law, seed_stream=8), 30, 0)
        m, n = kernel.arity, len(sample)
        want = []
        for k in range(m + 1):
            proj = project(kernel, law, k)
            u_k = proj.eval() if k == 0 else complete(proj.as_kernel(), sample).coords
            scaled = (math.comb(m, k) * math.comb(n, m) / math.comb(n, k)) * u_k
            want.append(float(row_norms(kernel.codomain, scaled)))
        lookups = []
        index_of = FiniteDistribution.index_of
        monkeypatch.setattr(
            FiniteDistribution, "index_of", lambda self, v: lookups.append(len(v)) or index_of(self, v)
        )
        check = decomposition_check(kernel, law, sample)
        assert lookups == [n]
        assert check.per_order_norms == tuple(want)

    def test_off_support_argument_raises(self):
        proj = project(gini(), rademacher, 1)
        with pytest.raises(ValueError, match="0.5 is not an atom"):
            proj.eval(0.5)
        with pytest.raises(ValueError, match="0.25 is not an atom"):
            complete(project(gini(), rademacher, 2).as_kernel(), np.array([1.0, 0.25, -1.0]))
        with pytest.raises(ValueError, match=r"\[1.0, 0.5\] is not an atom"):
            project(gini(HilbertSpace.euclidean(2)), _plane_law(), 1).eval(np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="is not an atom"):
            decomposition_check(gini(), rademacher, np.array([1.0, -1.0, 0.0, 1.0]))

    def test_enumeration_budget_is_enforced(self):
        # 3163**2 = 10,004,569 tuples, just over the budget of 10**7
        law = FiniteDistribution.uniform_grid(3163)
        with pytest.raises(EnumerationBudgetError, match="10004569"):
            project(gini(), law, 1)
        with pytest.raises(EnumerationBudgetError):
            degeneracy_order(gini(), law)
        with pytest.raises(EnumerationBudgetError):
            centered(gini(), law)


def _check_by_complete(kernel, law, sample):
    """decomposition_check as `ustats.complete` gives it: of the kernel on the
    sample, and of each `as_kernel` projection."""
    m, n, space = kernel.arity, len(sample), kernel.codomain
    lhs = complete(kernel, sample).coords
    rhs = np.zeros(space.dim)
    per_order = []
    for k in range(m + 1):
        proj = project(kernel, law, k)
        u_k = proj.eval() if k == 0 else complete(proj.as_kernel(), sample).coords
        scaled = (math.comb(m, k) * math.comb(n, m) / math.comb(n, k)) * u_k
        per_order.append(float(row_norms(space, scaled)))
        rhs += scaled
    return DecompositionCheck(
        float(row_norms(space, lhs - rhs)), float(row_norms(space, lhs)), tuple(per_order)
    )


class TestDecompositionTable:
    """decomposition_check, its projections built and then found again,
    against `ustats.complete` on sample values, bit for bit, below and above
    the materialization cap."""

    @pytest.mark.filterwarnings("ignore:kernel 'product' declares degeneracy 2")
    @pytest.mark.parametrize("cap", [ustats._MATERIALIZE_CAP, 5])
    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_equals_the_complete_route(self, monkeypatch, case, cap):
        kernel, law = TABLE_CASES[case]
        sample = draw_iid(SamplerSpec(kind="finite", dist=law, seed_stream=21), 30, 0)
        want = _check_by_complete(kernel, law, sample)
        monkeypatch.setattr(ustats, "_MATERIALIZE_CAP", cap)
        hoeffding._projections.cache_clear()
        assert decomposition_check(kernel, law, sample) == want
        assert decomposition_check(kernel, law, sample) == want
        assert hoeffding._projections.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_a_sample_below_the_arity_is_refused(self):
        law = FiniteDistribution.uniform_grid(5)
        with pytest.raises(ValueError, match="cannot feed an arity-2 kernel"):
            decomposition_check(gini(), law, law.atoms[:1])

    def test_decompose_refuses_a_draw_below_the_arity(self, tmp_path, capsys):
        path = tmp_path / "decompose.yaml"
        path.write_text(
            "version: 1\nexperiment: decompose\nkernel:\n  name: gini\n"
            "sampler:\n  kind: uniform-grid\n  grid_points: 9\ndata:\n  draw: 1\n"
        )
        code = cli.main(["decompose", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE
        assert "cannot feed an arity-2 kernel" in capsys.readouterr().err

    @pytest.mark.parametrize("centered, tables", [("false", 1), ("true", 2)])
    def test_decompose_builds_the_atom_table_and_projections_once(self, tmp_path, centered, tables):
        # builds are cache misses; centering first builds the base kernel's table for its mean
        kernels._atom_table.cache_clear()
        hoeffding._projections.cache_clear()
        cfg = cli.parse_config_text(
            f"version: 1\nexperiment: decompose\nkernel:\n  name: gini\n  centered: {centered}\n"
            "sampler:\n  kind: uniform-grid\n  grid_points: 9\ndata:\n  draw: 40\n"
        )
        assert cli.run("decompose", cfg, out_dir=str(tmp_path)) == cli.EXIT_OK
        assert kernels._atom_table.cache_info().misses == tables
        assert hoeffding._projections.cache_info().misses == 1
