"""Replication engine, tail scans, envelopes, scaling and decoupling reports."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ustatlab.confidence import wilson_bounds
from ustatlab.distributions import FiniteDistribution, SamplerSpec, draw_iid, exact_expectation, mix_ids
from ustatlab.hilbert import HilbertSpace, row_norms
from ustatlab.kernels import KernelSpec, SupBoundWarning, centered, gini, product
from ustatlab.montecarlo import (
    BoundEnvelope,
    ExperimentConfig,
    ScalingCell,
    ScalingReport,
    ScalingRow,
    coordinate_kernel,
    decouple_compare,
    envelope_eval,
    fit_tail_exponent,
    hk_tail_oracle,
    incomplete_scaling_experiment,
    matching_point_compare,
    replicate,
    tail_scan,
)
from ustatlab import kernels, montecarlo
from ustatlab.montecarlo import _domination_constant, _log_power_integral
from ustatlab.ustats import SamplingDesign, complete, inc_count

from helpers import (
    bounded_kernel_tail, domination_constant_oracle, empirical_tail, evaluate, rademacher_product_tail,
)

line = HilbertSpace.euclidean(1)
FOUR_ATOM = FiniteDistribution(np.array([-1.5, -0.25, 0.5, 2.0]), np.array([0.1, 0.2, 0.3, 0.4]))


def zero_kernel():
    return KernelSpec(
        arity=2,
        codomain=line,
        eval_batch=lambda x, y: np.zeros(np.shape(x)[0]),
        symmetric=True,
        name="zero",
    )


def make_config(**overrides):
    base = dict(
        kernel=product(),
        sampler=SamplerSpec(kind="rademacher", seed_stream=7),
        sample_size=12,
        replicas=200,
        x_grid=np.geomspace(0.2, 6.0, 12),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_replica_floor(self):
        with pytest.raises(ValueError, match="replicas"):
            make_config(replicas=50)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="x_grid"):
            make_config(x_grid=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="x_grid"):
            make_config(x_grid=np.array([0.0, 1.0]))

    @pytest.mark.parametrize("grid", [[0.5, math.nan], [0.5, math.inf], [math.nan, 1.0], [0.5, math.nan, 2.0]])
    def test_grid_must_be_finite(self, grid):
        with pytest.raises(ValueError, match="x_grid"):
            make_config(x_grid=np.array(grid))

    def test_sample_size_floor(self):
        with pytest.raises(ValueError, match="arity"):
            make_config(sample_size=1)


class TestReplicate:
    def test_same_seed_is_bit_identical(self):
        a = replicate(make_config())
        b = replicate(make_config())
        np.testing.assert_array_equal(a, b)

    def test_point_mass_law_gives_all_zeros(self):
        dist = FiniteDistribution(np.array([0.0]), np.array([1.0]))
        cfg = make_config(sampler=SamplerSpec(kind="finite", dist=dist, seed_stream=7))
        np.testing.assert_array_equal(replicate(cfg), np.zeros(cfg.replicas))

    def test_scaled_means_concentrate(self):
        """Averages of gini values over tuples settle near the law mean."""
        n, replicas = 30, 2000
        sampler = SamplerSpec(kind="rademacher", seed_stream=21)

        values = np.array(
            [complete(gini(), draw_iid(sampler, n, r)).coords[0] / inc_count(2, n) for r in range(replicas)]
        )
        se = values.std(ddof=1) / np.sqrt(replicas)
        assert abs(values.mean() - 1.0) <= 4.0 * se


def test_tail_scan_counts_the_replicas_strictly_above_each_grid_point():
    """Grid points equal to replica values (ties) count only the values above them."""
    cfg = make_config()
    stats = replicate(cfg) / tail_scan(cfg).normalization
    values = np.sort(stats[stats > 0])
    grid = np.union1d(values, values + 0.5)
    report = tail_scan(make_config(x_grid=grid))
    counts = np.array([np.count_nonzero(stats > x) for x in grid])
    assert np.count_nonzero(np.isin(grid, stats)) >= 3 and counts.min() < counts.max()
    lo, hi = wilson_bounds(counts, stats.size)
    assert report.p_hat.tobytes() == (counts / stats.size).tobytes()
    assert report.ci_lo.tobytes() == lo.tobytes() and report.ci_hi.tobytes() == hi.tobytes()


class TestFitTailExponent:
    def test_exact_synthetic_curve(self):
        xs = np.geomspace(0.95, 2.4, 12)
        beta, used = fit_tail_exponent(xs, np.exp(-(xs**2)))
        assert used == 12
        assert beta == pytest.approx(2.0, abs=1e-9)

    def test_too_few_points(self):
        xs = np.array([1.0, 1.2, 1.4])
        beta, used = fit_tail_exponent(xs, np.exp(-(xs**2)))
        assert beta is None
        assert used == 3

    def test_flat_zero_curve(self):
        xs = np.geomspace(0.5, 4.0, 10)
        beta, used = fit_tail_exponent(xs, np.zeros(10))
        assert beta is None
        assert used == 0


class TestTailScan:
    def test_uncentered_kernel_rejected(self):
        with pytest.raises(ValueError, match="not centered"):
            tail_scan(make_config(kernel=gini()))

    def test_continuous_law_needs_an_explicit_order(self):
        sampler = SamplerSpec(kind="discretized-gaussian", space=line)
        cfg = make_config(kernel=gini(), sampler=sampler)
        with pytest.raises(ValueError, match="finite support"):
            tail_scan(cfg)

    def test_stated_order_must_match_the_computed_one(self):
        with pytest.raises(ValueError, match="degeneracy"):
            tail_scan(make_config(), degeneracy=1)

    def test_zero_kernel_has_no_fit(self):
        report = tail_scan(make_config(kernel=zero_kernel()))
        np.testing.assert_array_equal(report.p_hat, np.zeros(12))
        assert not report.fit_available
        assert report.beta is None
        assert report.degeneracy == 2

    def test_report_compares_by_identity(self):
        reports = [tail_scan(make_config()) for _ in range(2)]
        assert reports[0] == reports[0] and reports[0] != reports[1]
        assert len({*reports, reports[0]}) == 2

    def test_normalization_factor(self):
        deg = tail_scan(make_config())
        assert deg.normalization == pytest.approx(12.0)  # n^(m - d/2) at d = m = 2
        assert deg.target_exponent == pytest.approx(1.0)

    @pytest.mark.parametrize("generic", [False, True])
    def test_sup_bound_spot_check_fires(self, generic):
        """On the product route, and on the gather route of a product
        kernel not built by `product`."""
        kernel = product(sup_bound=0.5)
        if generic:
            kernel = KernelSpec(
                arity=2, codomain=line, eval_batch=lambda u, v: u * v, symmetric=True,
                sup_bound=0.5, declared_degeneracy=2, name="product",
            )
        cfg = make_config(kernel=kernel, replicas=100)
        with pytest.warns(SupBoundWarning):
            tail_scan(cfg)


class TestTailScanEnvelope:
    GRID = FiniteDistribution.uniform_grid(7)

    @pytest.mark.parametrize("second", [0.0, 2.0])
    def test_column_is_the_pointwise_envelope(self, second):
        kernel = centered(gini(), self.GRID)
        sampler = SamplerSpec(kind="finite", dist=self.GRID, seed_stream=7)
        cfg = make_config(kernel=kernel, sampler=sampler, replicas=100)
        coefficients = dict(scale=1.0, first_coefficient=0.7, second_coefficient=second, tail_scale=0.5)
        report = tail_scan(cfg, envelope=functools.partial(BoundEnvelope, **coefficients))
        assert report.degeneracy == 1
        env = BoundEnvelope(arity=1, **coefficients)
        tail = hk_tail_oracle(kernel, self.GRID, 1) if second else None
        want = np.array([envelope_eval(env, float(x), tail).total for x in cfg.x_grid])
        assert report.envelope.tobytes() == want.tobytes()
        first = 0.7 * np.exp(-(cfg.x_grid**2))  # the integral term adds a constant
        assert np.all(report.envelope - first > 0.1 if second else np.abs(report.envelope - first) < 1e-15)

    def test_the_integral_term_reads_the_scan_atom_table(self):
        kernel = centered(gini(), self.GRID)
        sampler = SamplerSpec(kind="finite", dist=self.GRID, seed_stream=7)
        cfg = make_config(kernel=kernel, sampler=sampler, replicas=100)
        envelope = functools.partial(BoundEnvelope, scale=1.0, second_coefficient=2.0, tail_scale=0.5)
        tail = hk_tail_oracle(kernel, self.GRID, 1)
        want = np.array([envelope_eval(envelope(arity=1), float(x), tail).total for x in cfg.x_grid])
        kernels._atom_table.cache_clear()
        report = tail_scan(cfg, envelope=envelope)
        assert kernels._atom_table.cache_info().misses == 1  # one build, read by every later call
        assert report.envelope.tobytes() == want.tobytes()

    def test_no_envelope_gives_nan(self):
        report = tail_scan(make_config())
        assert report.envelope.shape == report.x_grid.shape and np.all(np.isnan(report.envelope))

    def test_integral_term_on_an_infinite_law_fails_before_any_replica(self, monkeypatch):
        def no_replicas(*args, **kwargs):
            raise AssertionError("replicas were drawn before the envelope was checked")

        monkeypatch.setattr(montecarlo, "replicate", no_replicas)
        cfg = make_config(sampler=SamplerSpec(kind="discretized-gaussian", space=line))
        envelope = functools.partial(BoundEnvelope, scale=1.0, second_coefficient=0.5)
        with pytest.raises(ValueError, match="the integral term needs a finite sampling law"):
            tail_scan(cfg, degeneracy=2, envelope=envelope)


class TestEnvelope:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            BoundEnvelope(
                arity=2, scale=-1.0, first_coefficient=1.0,
                second_coefficient=1.0, tail_scale=1.0,
            )

    def test_exponent_bookkeeping(self):
        env = BoundEnvelope(
            arity=3, scale=1.0, first_coefficient=1.0,
            second_coefficient=1.0, tail_scale=1.0,
        )
        assert env.p_m == pytest.approx(5.0)  # m(m+1)/2 - 1
        assert env.log_power == pytest.approx(6.0)

    def test_pure_exponential(self):
        env = BoundEnvelope(
            arity=2, scale=3.0, first_coefficient=1.0,
            second_coefficient=0.0, tail_scale=1.0,
        )
        out = envelope_eval(env, x=6.0, tail_oracle=bounded_kernel_tail(10.0))
        assert out.total == pytest.approx(np.exp(-2.0))
        assert out.second_term == 0.0
        assert envelope_eval(env, x=6.0, tail_oracle=None) == out

    def test_the_integral_term_needs_a_tail(self):
        env = BoundEnvelope(arity=2, scale=1.0, second_coefficient=1.0)
        with pytest.raises(ValueError, match="needs a tail"):
            envelope_eval(env, x=1.0, tail_oracle=None)

    def test_bounded_tail_cutoff_kills_the_integral(self):
        """With the scale at the cutoff the indicator tail never triggers."""
        bound = 4.0
        env = BoundEnvelope(
            arity=2, scale=bound, first_coefficient=1.0,
            second_coefficient=5.0, tail_scale=1.0,
        )
        out = envelope_eval(env, x=2.0, tail_oracle=bounded_kernel_tail(bound))
        assert out.second_term == 0.0

    @pytest.mark.parametrize("q", [1, 3, 6, 10, 21])
    def test_log_power_integral_against_quad(self, q):
        assert _log_power_integral(np.array([1.0]), q)[0] == 0.0
        for u in (1.001, 1.5, 2.0, 7.25, 1e3):
            want = _quad_log_power(q, u)
            assert _log_power_integral(np.array([u]), q)[0] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("q", [6, 10, 21])
    def test_log_power_integral_just_above_one(self, q):
        """Where the closed form's alternating terms cancel, G keeps its
        relative precision."""
        for u in (1.0 + 2.0**-40, 1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.1):
            want = _quad_log_power(q, u)
            assert _log_power_integral(np.array([u]), q)[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("q", [6, 10, 21])
    def test_log_power_integral_is_monotone(self, q):
        for u in (1.0 + np.arange(20_000) * 2.0**-52, np.geomspace(1.0, 1e4, 20_000)):
            g = _log_power_integral(u, q)
            assert g[0] == 0.0 and np.all(np.diff(g) >= 0.0)

    def test_log_power_integral_keeps_the_closed_form_up_to_q_3(self, monkeypatch):
        """Envelopes of arity 1 and 2 (q <= 3) never take the series."""

        def no_series(*args):
            raise AssertionError("the series was used")

        monkeypatch.setattr(montecarlo, "_log_power_series", no_series)
        u = np.concatenate([1.0 + np.arange(20_000) * 2.0**-52, np.geomspace(1.0, 1e12, 100_000)])
        for q in (1, 2, 3):
            _log_power_integral(u, q)

    @pytest.mark.parametrize("name", ["bounded", "empirical", "hk"])
    def test_second_term_is_the_sum_over_the_steps(self, name):
        """E[G(max(1, V / c))] with each step's G from quad and its mass
        from the law itself."""
        tail, values, probs = step_tail_with_its_law(name)
        env = BoundEnvelope(arity=2, scale=0.8, second_coefficient=1.5, tail_scale=0.5)
        c = env.tail_scale * env.scale
        want = 1.5 * sum(p * _quad_log_power(3, max(1.0, v / c)) for v, p in zip(values, probs))
        assert want > 0.0
        assert envelope_eval(env, x=1.0, tail_oracle=tail).second_term == pytest.approx(want, rel=1e-9)

    def test_pinned_centered_gini_grid7(self):
        """The tailscan case `envelope-centered-gini-grid7`: d = 1, y = 1,
        second coefficient 2 and tail scale 0.5 on the exact H_1 tail."""
        grid = FiniteDistribution.uniform_grid(7)
        env = BoundEnvelope(arity=1, scale=1.0, second_coefficient=2.0, tail_scale=0.5)
        out = envelope_eval(env, x=0.5, tail_oracle=hk_tail_oracle(centered(gini(), grid), grid, 1))
        assert out.second_term == pytest.approx(0.14676773471314, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=30),
        st.integers(1, 2),
        st.floats(0.05, 50.0),
        st.floats(1.01, 4.0),
    )
    def test_second_term_vanishes_below_the_cutoff_and_falls_with_scale(self, samples, arity, scale, factor):
        tail = empirical_tail(np.array(samples))

        def second(y: float) -> float:
            env = BoundEnvelope(arity=arity, scale=y, second_coefficient=1.0, tail_scale=1.0)
            return envelope_eval(env, x=1.0, tail_oracle=tail).second_term

        assert second(max(samples)) == 0.0
        assert 0.0 <= second(scale * factor) <= second(scale)

    def test_exact_conditional_tail_oracle(self):
        dist = FiniteDistribution.rademacher()
        tail = hk_tail_oracle(gini(), dist, 1)
        assert tail(0.5) == 1.0
        assert tail(1.0) == 0.0


def _quad_log_power(q, u):
    """integral_1^u s (1 + log s)^q ds by adaptive quadrature."""
    return quad(lambda s: s * (1.0 + math.log(s)) ** q, 1.0, u, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def step_tail_with_its_law(name):
    """One of the three step tails, with its law's values and masses."""
    if name == "bounded":
        return bounded_kernel_tail(3.0), np.array([3.0]), np.array([1.0])
    if name == "empirical":
        samples = 2.0 * np.abs(np.random.default_rng(61).normal(size=40))
        return empirical_tail(samples), samples, np.full(samples.size, 1.0 / samples.size)
    return hk_tail_oracle(gini(), FOUR_ATOM, 1), *hk_values_by_enumeration(gini(), FOUR_ATOM, 1)


def hk_values_by_enumeration(kernel, dist, k):
    """H_k and its probability at every atom k-tuple, in itertools.product
    order: one `exact_expectation` of the tail norms per pinned tuple, and
    the probability multiplied up one atom at a time."""
    values, probs = [], []
    for combo in itertools.product(range(dist.size), repeat=k):
        pinned = tuple(dist.atom(i) for i in combo)

        def tail_norm(*rest):
            return row_norms(kernel.codomain, evaluate(kernel, (*pinned, *rest)).coords)

        values.append(float(exact_expectation(tail_norm, dist, kernel.arity - k)))
        p = 1.0
        for i in combo:
            p *= float(dist.probs[i])
        probs.append(p)
    return np.array(values), np.array(probs)


class TestHkTailOracle:
    def test_order_zero_is_the_mean_norm(self):
        tail = hk_tail_oracle(gini(), FiniteDistribution.rademacher(), 0)
        assert tail(np.nextafter(1.0, 0.0)) == 1.0
        assert tail(1.0) == 0.0

    def test_one_pinned_point_product_kernel(self):
        tail = hk_tail_oracle(product(), FiniteDistribution.rademacher(), 1)
        assert tail(np.nextafter(1.0, 0.0)) == 1.0
        assert tail(1.0) == 0.0

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("law", ["rademacher", "four-atom"])
    @pytest.mark.parametrize("name", ["gini", "product", "centered-gini"])
    def test_steps_sit_at_the_enumerated_values(self, name, law, k):
        """Each H_k value is a step of the tail exactly, and the tail drops
        there by that value's probability."""
        if law == "rademacher":
            dist = FiniteDistribution.rademacher()
        else:
            dist = FiniteDistribution(np.array([-1.5, -0.25, 0.5, 2.0]), np.array([0.1, 0.2, 0.3, 0.4]))
        kernel = {"gini": gini(), "product": product(), "centered-gini": centered(gini(), dist)}[name]
        values, probs = hk_values_by_enumeration(kernel, dist, k)
        tail = hk_tail_oracle(kernel, dist, k)
        for v in np.unique(values):
            above = probs[values > v].sum()
            assert tail(v) == pytest.approx(above, abs=1e-12)
            at_v = probs[values == v].sum()
            assert tail(np.nextafter(v, -np.inf)) == pytest.approx(above + at_v, abs=1e-12)

    def test_empirical_tail_steps(self):
        tail = empirical_tail(np.array([1.0, 2.0, 3.0, 4.0]))
        assert tail(0.5) == 1.0
        assert tail(2.0) == pytest.approx(0.5)
        assert tail(9.0) == 0.0

    def test_empirical_tail_refuses_nan(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            empirical_tail(np.array([np.nan, 1.0]))
        assert empirical_tail(np.array([-np.inf, 1.0, np.inf]))(1.0) == pytest.approx(1 / 3)


class TestIncompleteScaling:
    def test_grid_rows_and_unbiasedness(self):
        cells = [
            ScalingCell(sample_size=n, design=SamplingDesign(kind="with-replacement", size=N))
            for n in (10, 14)
            for N in (50, 200)
        ]
        report = incomplete_scaling_experiment(
            product(), SamplerSpec(kind="rademacher", seed_stream=31), cells, replicas=300
        )
        assert report.degeneracy == 2
        assert len(report.rows) == 4
        for row in report.rows:
            assert row.used == 300 - row.empty_count
            assert row.quantile_lo <= row.quantile <= row.quantile_hi
            assert row.unbias_ok
        assert report.spread >= 1.0

    def test_spread_skips_rows_without_a_quantile_in_any_order(self):
        def row(quantile, used):
            return ScalingRow(
                sample_size=10, design_kind="with-replacement", design_param=5.0, replicas=100,
                used=used, empty_count=100 - used, quantile=quantile, quantile_lo=quantile,
                quantile_hi=quantile, unbias_max_sigmas=0.0, unbias_ok=True,
            )

        # one usable replica gives no quantile
        rows = [row(float("nan"), 1), row(1.0, 100), row(2.0, 90), row(float("nan"), 0)]
        for order in itertools.permutations(rows):
            assert ScalingReport(0.9, 2, order).spread == 2.0
        assert ScalingReport(0.9, 2, tuple(rows[::3])).spread == float("inf")

    def test_full_bernoulli_design_is_exactly_unbiased(self):
        """Keeping every tuple reduces the estimator to the complete sum."""
        cells = [ScalingCell(sample_size=8, design=SamplingDesign(kind="bernoulli", rate=1.0))]
        report = incomplete_scaling_experiment(
            product(), SamplerSpec(kind="rademacher", seed_stream=33), cells, replicas=150
        )
        row = report.rows[0]
        assert row.empty_count == 0
        assert row.unbias_max_sigmas == 0.0
        assert row.quantile > 0.0


def test_matching_point_normalizations_agree():
    sampler = SamplerSpec(kind="discretized-gaussian", space=line, seed_stream=41)
    report = matching_point_compare(sampler, sample_size=20, size=10, replicas=600)
    assert report.rate == pytest.approx(0.5)
    assert report.overlap


class TestDecoupleCompare:
    def test_arity_one_constant_is_near_one(self):
        cfg = ExperimentConfig(
            kernel=coordinate_kernel(),
            sampler=SamplerSpec(kind="rademacher", seed_stream=51),
            sample_size=20,
            replicas=2000,
            x_grid=np.geomspace(0.5, 8.0, 12),
        )
        report = decouple_compare(cfg)
        assert report.constant_defined
        assert 1.0 <= report.fitted_constant <= 1.5

    def test_zero_kernel_leaves_the_constant_undefined(self):
        cfg = make_config(kernel=zero_kernel(), replicas=300)
        report = decouple_compare(cfg)
        assert not report.constant_defined
        assert report.fitted_constant is None
        assert not report.usable.any()

    def test_constant_equals_the_bisection(self, monkeypatch):
        """Bit for bit the search the closed form replaced, through
        `decouple_compare` on given norms: continuous and half-integer
        decoupled norms, sparse and all-zero ones, and one-point grids."""
        rng = np.random.default_rng(2101)
        seen = {"defined": 0, "above one": 0, "undefined": 0, "one usable": 0}
        for case in range(200):
            R = int(rng.integers(100, 400))
            stats_u = rng.exponential(rng.uniform(0.5, 3.0), R)
            stats_d = [
                rng.exponential(1.0, R),
                np.round(rng.exponential(2.0, R) * 2.0) / 2.0,
                np.where(rng.random(R) < 0.1, rng.exponential(1.0, R), 0.0),
                np.zeros(R),
            ][case % 4]
            grid = np.geomspace(0.05, 4.0, 12) if case % 3 else np.array([rng.uniform(0.05, 1.0)])
            monkeypatch.setattr(montecarlo, "_decouple_stats", lambda config: (stats_u, stats_d))
            report = decouple_compare(make_config(replicas=R, x_grid=grid))
            count_u = np.array([np.count_nonzero(stats_u > x) for x in grid])
            count_d = np.array([np.count_nonzero(stats_d > x) for x in grid])
            usable = (count_u >= 10) & (count_d >= 10)
            want = domination_constant_oracle(grid[usable], count_u[usable] / R, stats_d) if usable.any() else None
            assert report.fitted_constant == want and type(report.fitted_constant) is type(want)
            seen["defined"] += want is not None
            seen["above one"] += want is not None and want > 1.0
            seen["undefined"] += want is None
            seen["one usable"] += usable.sum() == 1
        assert min(seen.values()) >= 10, seen

    def test_constant_above_2_to_the_41_is_undefined(self):
        """Norms down to 1e-14 put K beyond the search's 2**41 ceiling; on
        either side of it the closed form still equals the bisection. A grid
        point `decouple_compare` uses has ten decoupled norms above it, so
        there K <= R / 10 and this case needs the helper itself."""
        rng = np.random.default_rng(2102)
        xs = np.array([1.0])
        edge = 2.0**-41
        cases = [
            (xs, np.array([0.5]), np.full(100, edge)),
            (xs, np.array([0.5]), np.full(100, np.nextafter(edge, 1.0))),
            (xs, np.array([1.0]), np.zeros(100)),
        ]
        for _ in range(300):
            R = int(rng.integers(20, 300))
            grid = np.sort(rng.exponential(2.0, int(rng.integers(1, 6)))) + 1e-3
            norms = rng.exponential(1.0, R) * 10.0 ** rng.integers(-14, 2)
            cases.append((grid, rng.integers(1, R + 1, grid.size) / R, norms))
        got = [_domination_constant(grid, targets, np.sort(norms)) for grid, targets, norms in cases]
        assert got == [domination_constant_oracle(*case) for case in cases]
        assert got[:3] == [None, got[1], None] and 2.0**40 < got[1] <= 2.0**41
        assert sum(k is None for k in got) >= 30 and sum(k is not None and k > 1.0 for k in got) >= 30

    def test_product_kernel_domination(self):
        cfg = make_config(sampler=SamplerSpec(kind="rademacher", seed_stream=52), sample_size=20, replicas=2000)
        report = decouple_compare(cfg)
        assert report.constant_defined
        assert report.fitted_constant >= 1.0
        assert report.usable.any()
        assert report.replicas == 2000

    def test_sorts_each_norm_column_once(self, monkeypatch):
        """Both tails and every `dominated(k)` check of the fit count through
        `_tail_counts` on the two columns sorted once, not on a fresh sort."""
        cfg = make_config(sampler=SamplerSpec(kind="rademacher", seed_stream=5), sample_size=10, replicas=500)
        sort, tail_counts = np.sort, montecarlo._tail_counts
        sorted_sizes, counted = [], []

        def spy_sort(a, *args, **kwargs):
            sorted_sizes.append(np.size(a))
            return sort(a, *args, **kwargs)

        def spy_counts(ascending, thresholds):
            counted.append(ascending)
            return tail_counts(ascending, thresholds)

        monkeypatch.setattr(np, "sort", spy_sort)
        monkeypatch.setattr(montecarlo, "_tail_counts", spy_counts)
        report = decouple_compare(cfg)
        monkeypatch.undo()
        assert report.constant_defined
        # every other sort checks the distinct atoms of the two-point law
        assert [size for size in sorted_sizes if size > 2] == [cfg.replicas] * 2
        columns = {id(a): a for a in counted}
        assert len(columns) == 2 and len(counted) > 2
        assert all(np.all(a[1:] >= a[:-1]) for a in columns.values())

    def test_reports_compare_by_identity(self):
        """Reports that hold arrays compare and hash by identity: a generated
        `__eq__` would ask numpy for an array's truth value."""
        reports = [decouple_compare(make_config()) for _ in range(2)]
        assert reports[0] == reports[0] and reports[0] != reports[1]
        assert len({*reports, reports[0]}) == 2


class TestExactTail:
    """`tail_scan` against the exact tail of its statistic, the running
    maximum of the product kernel on Rademacher signs."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_exact_tail_equals_enumeration(self, n, m):
        signs = np.array(list(itertools.product([-1, 1], repeat=n)), dtype=np.int64)
        e = np.zeros((signs.shape[0], m + 1), dtype=np.int64)
        e[:, 0] = 1
        best = np.zeros(signs.shape[0], dtype=np.int64)
        for column in signs.T:
            for j in range(m, 0, -1):
                e[:, j] += column * e[:, j - 1]
            best = np.maximum(best, np.abs(e[:, m]))
        norm = float(n) ** (m / 2)
        levels = np.unique(best) / norm  # each attained level, where > is strict
        xs = np.concatenate([levels[levels > 0], np.geomspace(0.05, 3.0, 9)])
        want = (best[:, None] / norm > xs).mean(axis=0)
        assert rademacher_product_tail(n, m, xs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, m", [(40, 2), (40, 3), (160, 2)])
    def test_tail_scan_lies_in_the_dkw_band(self, n, m):
        """Dvoretzky-Kiefer-Wolfowitz with Massart's constant: the empirical
        tail of R replicas leaves the exact one by more than
        sqrt(ln(2 / alpha) / 2R) anywhere with probability at most alpha."""
        replicas, alpha = 20000, 1e-3
        cfg = make_config(kernel=product(arity=m), sampler=SamplerSpec(kind="rademacher", seed_stream=2024),
                          sample_size=n, replicas=replicas, x_grid=np.geomspace(0.2, 6.0, 24))
        scan = tail_scan(cfg)
        assert scan.degeneracy == m and scan.normalization == float(n) ** (m / 2)
        exact = rademacher_product_tail(n, m, cfg.x_grid)
        assert 0.0 < exact[-1] and exact[0] < 1.0  # the grid reaches into both ends
        band = math.sqrt(math.log(2.0 / alpha) / (2 * replicas))
        assert np.max(np.abs(scan.p_hat - exact)) <= band


_NO_GRID = ExperimentConfig(product(), SamplerSpec(kind="rademacher"), 8, 100)
# One case of each refusal an experiment raises before drawing: (call, message).
REFUSALS = {
    "tail-scan-grid": (lambda: tail_scan(_NO_GRID), "tail_scan needs x_grid"),
    "decouple-grid": (lambda: decouple_compare(_NO_GRID), "decouple_compare needs x_grid"),
    "scaling-law": (
        lambda: incomplete_scaling_experiment(
            product(),
            SamplerSpec(kind="discretized-gaussian", space=HilbertSpace.euclidean(1)),
            [ScalingCell(8, SamplingDesign(kind="with-replacement", size=3))],
            100,
        ),
        "scaling experiment needs a finite sampling law",
    ),
    "matching-size": (
        lambda: matching_point_compare(SamplerSpec(kind="rademacher"), 5, 6, 100),
        "size must lie in [1, n]",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_a_refusal_names_its_rule(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("sup_bound, draws", [(None, 0), (8.0, 1)])
def test_the_spot_check_draws_only_against_a_bound(monkeypatch, sup_bound, draws):
    """`_spot_check_sup` draws replica 0's sample of its role itself, and only
    when the kernel declares a sup bound."""
    calls = []

    def counting(spec, n, stream):
        calls.append(stream)
        return draw_iid(spec, n, stream)

    monkeypatch.setattr(montecarlo, "draw_iid", counting)
    sampler = SamplerSpec(kind="uniform-grid", grid_points=7, seed_stream=5)
    montecarlo._spot_check_sup(gini(sup_bound=sup_bound), sampler, 20, (11, 3), "test")
    assert calls == [mix_ids(11, 3, 0)] * draws
