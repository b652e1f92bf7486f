"""Complete, decoupled, weighted, and incomplete estimators plus the tuple stream."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    norm,
    random_scalar_dist,
    running_max_embedding_check,
    table_kernel,
    tuple_weights,
    uniform_three,
    unrank_oracle,
    weight_aggregate_oracle,
    weighted_oracle,
)
from ustatlab import ustats
from ustatlab.distributions import EnumerationBudgetError, FiniteDistribution, SamplerSpec, draw_iid
from ustatlab.hilbert import HilbertSpace
from ustatlab.kernels import KernelSpec, batch_values, centered, gini, product, spatial_sign
from ustatlab.montecarlo import ExperimentConfig, coordinate_kernel
from ustatlab.ustats import (
    DecoupledSample,
    _grouped_columns,
    _lex_ranks,
    _lex_unranks,
    _stacked_values,
    _sum_tuples,
    _tuple_columns,
    SamplingDesign,
    Selection,
    WeightScheme,
    complete,
    decoupled,
    design_mean_factor,
    draw_design,
    inc_count,
    incomplete,
    running_max,
    running_max_norms,
    weight_aggregate,
    weighted,
)

line = HilbertSpace.euclidean(1)


def _one_unrank(rank: int, n: int, k: int) -> list[int]:
    """The 0-based tuple of one exact rank, from an object array of one row."""
    return [int(c[0]) for c in _lex_unranks(np.array([rank], dtype=object), n, k)]


class TestLexicographicTuples:
    """The index columns of the increasing tuples in lexicographic order, the
    one tuple-count gate, and the ranks and unranks of those tuples."""

    def test_pairs_of_three(self):
        assert list(zip(*_tuple_columns(2, 3))) == [(0, 1), (0, 2), (1, 2)]

    def test_single_full_tuple(self):
        assert list(zip(*_tuple_columns(3, 3))) == [(0, 1, 2)]

    def test_count_ten_choose_two(self):
        assert inc_count(2, 10) == 45
        assert _tuple_columns(2, 10)[0].size == 45

    def test_cap(self):
        with pytest.raises(EnumerationBudgetError):
            ustats._tuple_count(2, 10, cap=44)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 20))
    def test_count_and_order(self, m, n):
        if m > n:
            assert inc_count(m, n) == 0
            return
        tuples = [tuple(int(v) for v in row) for row in zip(*_tuple_columns(m, n))]
        assert len(tuples) == math.comb(n, m)
        assert tuples == sorted(tuples)
        for tpl in tuples:
            assert all(a < b for a, b in zip(tpl, tpl[1:]))
            assert 0 <= tpl[0] and tpl[-1] < n

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(4, 15), st.data())
    def test_rank_roundtrip(self, m, n, data):
        rank = data.draw(st.integers(0, math.comb(n, m) - 1))
        assert _lex_ranks(_one_unrank(rank, n, m), n) == rank

    @pytest.mark.parametrize(("k", "n"), [(1, 1), (1, 9), (2, 2), (2, 13), (3, 10), (4, 12), (2, 400)])
    def test_vectorized_ranks_count_the_enumeration(self, k, n):
        cols = _tuple_columns(k, n)
        ranks = _lex_ranks(cols, n)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(ranks, np.arange(math.comb(n, k)))
        for row in range(0, ranks.size, max(1, ranks.size // 200)):
            assert _lex_ranks([int(c[row]) for c in cols], n) == ranks[row]

    @pytest.mark.parametrize(
        ("k", "n"),
        # (64, 70): partial products of C(69, 34) overflow int64, so the columns come from exact ints
        [(1, 1), (1, 9), (2, 2), (2, 13), (3, 10), (4, 12), (9, 10), (2, 2100), (3, 400), (64, 70)],
    )
    def test_vectorized_unranks_equal_the_per_tuple_oracle(self, k, n):
        total = math.comb(n, k)
        ranks = np.r_[0, total - 1, np.random.default_rng(n).integers(0, total, 100)]
        cols = _lex_unranks(ranks, n, k)
        want = np.array([unrank_oracle(int(r), n, k) for r in ranks])
        np.testing.assert_array_equal(np.stack(cols, axis=1), want - 1)
        one_row = [_one_unrank(int(r), n, k) for r in ranks[:10]]
        assert one_row == (want[:10] - 1).tolist()
        np.testing.assert_array_equal(_lex_ranks(cols, n), ranks)

    def test_ranks_are_exact_at_any_size(self):
        assert _lex_ranks([10**7 - 3, 10**7 - 2, 10**7 - 1], 10**7) == math.comb(10**7, 3) - 1
        rank = math.comb(10**7, 3) // 3  # above 2**63
        assert _lex_ranks(_one_unrank(rank, 10**7, 3), 10**7) == rank


class TestIndexColumns:
    """The vectorized index columns against itertools.combinations."""

    CASES = [(m, n) for m in range(1, 5) for n in range(m, 13)] + [(2, 400)]

    @pytest.mark.parametrize(("m", "n"), CASES)
    def test_full_enumeration_order(self, m, n):
        cols = _tuple_columns(m, n)
        expected = np.array(list(itertools.combinations(range(n), m)), dtype=np.int64)
        np.testing.assert_array_equal(np.stack(cols, axis=1), expected)
        assert all(c.dtype == np.int64 and not c.flags.writeable for c in cols)

    @pytest.mark.parametrize(("m", "n"), [(m, n) for m in range(1, 5) for n in range(m, 11)] + [(3, 40)])
    def test_grouped_by_last_index(self, m, n):
        cols, starts = _grouped_columns(m, n)
        tuples = sorted(itertools.combinations(range(n), m), key=lambda t: (t[-1], t))
        np.testing.assert_array_equal(np.stack(cols, axis=1), np.array(tuples, dtype=np.int64))
        np.testing.assert_array_equal(starts, [math.comb(last, m) for last in range(m - 1, n)])


class TestComplete:
    def test_product_hand_enumeration(self):
        value = complete(product(), np.array([1.0, -1.0, 2.0]))
        assert value.coords[0] == -1.0

    def test_gini_hand_enumeration(self):
        value = complete(gini(), np.array([0.0, 3.0, 7.0]))
        assert value.coords[0] == 14.0

    def test_single_term_at_minimal_sample(self):
        value = complete(gini(), np.array([2.0, -3.0]))
        assert value.coords[0] == 5.0

    def test_permutation_invariance_for_symmetric_kernels(self):
        rng = np.random.default_rng(43)
        sample = rng.normal(size=7)
        shuffled = rng.permutation(sample)
        a = complete(gini(), sample).coords[0]
        b = complete(gini(), shuffled).coords[0]
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_sample_shorter_than_arity_rejected(self):
        with pytest.raises(ValueError):
            complete(gini(), np.array([1.0]))


class TestRunningMax:
    def test_minimal_sample_is_the_single_term(self):
        out = running_max(product(), np.array([3.0, 2.0]))
        assert out.max_norm == 6.0
        assert out.argmax_prefix == 2

    def test_nonnegative_kernel_peaks_at_the_end(self):
        sample = np.abs(np.random.default_rng(44).normal(size=9)) + 0.5
        out = running_max(gini(), sample)
        assert out.argmax_prefix == 9
        assert out.max_norm == out.prefix_norms[-1]

    def test_matches_bruteforce_prefix_recomputation(self):
        rng = np.random.default_rng(45)
        sample = rng.normal(size=8)
        out = running_max(product(), sample)
        for stop in range(2, 9):
            fresh = complete(product(), sample[:stop])
            np.testing.assert_allclose(
                out.prefix_values[stop - 2], fresh.coords, rtol=1e-12, atol=1e-12
            )
        assert out.max_norm == pytest.approx(out.prefix_norms.max())

    def test_result_compares_by_identity(self):
        results = [running_max(product(), np.array([3.0, 2.0, -1.0])) for _ in range(2)]
        assert results[0] == results[0] and results[0] != results[1]
        assert len({*results, results[0]}) == 2


class TestDecoupled:
    def test_equal_rows_reproduce_complete(self):
        rng = np.random.default_rng(46)
        sample = rng.normal(size=6)
        twin = DecoupledSample(rows=(sample, sample))
        np.testing.assert_array_equal(
            decoupled(product(), twin).coords, complete(product(), sample).coords
        )

    def test_arity_one_is_complete(self):
        rng = np.random.default_rng(47)
        k = KernelSpec(
            arity=1,
            codomain=line,
            eval_one=lambda x: x * x,
            eval_batch=lambda x: np.asarray(x) ** 2,
            symmetric=True,
        )
        sample = rng.normal(size=5)
        solo = DecoupledSample(rows=(sample,))
        np.testing.assert_array_equal(
            decoupled(k, solo).coords, complete(k, sample).coords
        )

    def test_two_row_hand_enumeration(self):
        pair = DecoupledSample(rows=(np.array([1.0, 2.0]), np.array([3.0, 4.0])))
        assert decoupled(product(), pair).coords[0] == 4.0

    def test_row_count_must_match_arity(self):
        with pytest.raises(ValueError, match="arity"):
            decoupled(product(), DecoupledSample(rows=(np.zeros(3),)))


class TestEmbeddingCheck:
    def test_minimal_sample_deviation_is_zero(self):
        assert running_max_embedding_check(product(), np.array([1.5, -2.0])) == 0.0

    def test_zero_kernel(self):
        k = KernelSpec(
            arity=2, codomain=line, eval_one=lambda x, y: 0.0, symmetric=True
        )
        assert running_max_embedding_check(k, np.zeros(6)) == 0.0

    def test_random_sample(self):
        rng = np.random.default_rng(48)
        assert running_max_embedding_check(product(), rng.normal(size=7)) <= 1e-12


class TestWeights:
    def test_aggregate_hand_example(self):
        scheme = WeightScheme(np.array([1.0, 2.0, 3.0]))  # (1, 2), (1, 3), (2, 3)
        agg = weight_aggregate(scheme, m=2, n=3, k=1)
        np.testing.assert_array_equal(agg, [3.0, 4.0, 5.0])

    def test_unit_weights_count_tuples_through_each_index(self):
        n, m = 6, 3
        agg = weight_aggregate(WeightScheme.identity(m, n), m=m, n=n, k=1)
        np.testing.assert_array_equal(agg, np.full(n, math.comb(n - 1, m - 1)))

    def test_single_triple_aggregates_to_itself_on_pairs(self):
        agg = weight_aggregate(WeightScheme(np.array([2.5])), m=3, n=3, k=2)
        np.testing.assert_array_equal(agg, [2.5, 2.5, 2.5])

    def test_identity_weights_reproduce_complete(self):
        rng = np.random.default_rng(49)
        sample = rng.normal(size=6)
        lhs = weighted(product(), WeightScheme.identity(2, 6), sample)
        rhs = complete(product(), sample)
        np.testing.assert_array_equal(lhs.coords, rhs.coords)

    def test_zero_weights_give_the_zero_vector(self):
        out = weighted(product(), WeightScheme(np.zeros(math.comb(5, 2))), np.arange(5.0))
        assert norm(out) == 0.0

    def test_weight_validation(self):
        for bad in (np.ones((3, 2, 1)), 1.0, [1.0, np.nan], [[np.inf], [0.0]]):
            with pytest.raises(ValueError):
                WeightScheme(bad)
        given = np.ones((3, 2))
        scheme = WeightScheme(given)
        assert scheme.kind == "diagonal" and WeightScheme(given[:, 0]).kind == "scalar"
        assert given.flags.writeable and not scheme.values.flags.writeable

    @pytest.mark.parametrize(
        ("values", "dim", "match"),
        [
            (np.ones(math.comb(5, 2) + 1), 1, "11 weights for 10 tuples"),
            (np.ones(1), 1, "1 weights for 10 tuples"),
            (np.ones((math.comb(5, 2), 2)), 1, "width 2 for a dim-1"),
            (np.ones((math.comb(5, 2), 2)), 3, "width 2 for a dim-3"),
        ],
    )
    def test_weights_that_cannot_apply_are_refused_before_any_evaluation(self, values, dim, match):
        calls = []

        def count(x, y):
            calls.append(x.size)
            return np.zeros((x.size, dim))

        kernel = KernelSpec(arity=2, codomain=HilbertSpace.euclidean(dim), eval_batch=count)
        with pytest.raises(ValueError, match=match):
            weighted(kernel, WeightScheme(values), np.arange(5.0))
        assert calls == []

    def test_aggregate_refuses_a_scheme_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="4 weights for 3 tuples"):
            weight_aggregate(WeightScheme(np.ones(4)), m=2, n=3, k=1)


class TestWeightOracles:
    """`weighted` and `weight_aggregate` against the tuple-keyed dict loops
    of `helpers`, bit for bit, materialized and streamed."""

    SCHEMES = {
        "scalar": lambda rng, t, dim: rng.normal(size=t),
        "diagonal": lambda rng, t, dim: rng.normal(size=(t, dim)),
        "mostly-zero": lambda rng, t, dim: np.where(rng.random(t) < 0.1, rng.normal(size=t), 0.0),
        "integer": lambda rng, t, dim: rng.integers(-3, 4, size=(t, dim)).astype(np.float64),
    }

    @staticmethod
    def _stream(monkeypatch):
        ustats._lex_columns.cache_clear()
        ustats._grouped_columns.cache_clear()
        monkeypatch.setattr(ustats, "_MATERIALIZE_CAP", 20)
        monkeypatch.setattr(ustats, "_CHUNK", 9)

    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_weighted_equals_the_tuple_keyed_loop(self, monkeypatch, name, m, streamed):
        rng = np.random.default_rng(60 + m)
        dist = random_scalar_dist(rng, 4)
        kernel = table_kernel(m, dist, rng, dim=3)
        n = 23
        sample = draw_iid(SamplerSpec(kind="finite", dist=dist, seed_stream=11), n, 0)
        values = self.SCHEMES[name](rng, math.comb(n, m), 3)
        if streamed:
            self._stream(monkeypatch)
            assert ustats._tuple_columns(m, n) is None
        got = weighted(kernel, WeightScheme(values), sample).coords
        want = weighted_oracle(kernel, tuple_weights(values, m, n), values[0].size, sample)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize(("m", "k"), [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_weight_aggregate_equals_the_tuple_keyed_loop(self, monkeypatch, name, m, k, streamed):
        """Bit for bit in one piece, where each entry adds its weights in
        enumeration order; streamed, the pieces' sums are added, which
        keeps the bytes only where every partial sum is an integer."""
        rng = np.random.default_rng(70 + 3 * m + k)
        n = 11
        values = self.SCHEMES[name](rng, math.comb(n, m), 2)
        if streamed:
            self._stream(monkeypatch)
        got = weight_aggregate(WeightScheme(values), m, n, k)
        want = weight_aggregate_oracle(tuple_weights(values, m, n), values.shape[1:], m, n, k)
        assert got.shape == want.shape
        if streamed and name != "integer":
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        else:
            assert got.tobytes() == want.tobytes()


class TestDesigns:
    def test_without_replacement_full_draw_hits_every_tuple(self):
        rng = np.random.default_rng(52)
        design = SamplingDesign(kind="without-replacement", size=inc_count(2, 5))
        sel = draw_design(design, 2, 5, rng)
        assert sel.distinct == 10
        np.testing.assert_array_equal(sel.counts, np.ones(10, dtype=np.int64))
        np.testing.assert_array_equal(sel.ranks, np.arange(10))

    def test_bernoulli_rate_one_keeps_everything(self):
        rng = np.random.default_rng(53)
        sel = draw_design(SamplingDesign(kind="bernoulli", rate=1.0), 2, 6, rng)
        assert sel.distinct == inc_count(2, 6)
        assert not sel.empty

    def test_with_replacement_frequencies(self):
        """Each of the 10 pairs from n=5 lands near frequency 1/10."""
        rng = np.random.default_rng(54)
        design = SamplingDesign(kind="with-replacement", size=10_000)
        sel = draw_design(design, 2, 5, rng)
        freq = np.zeros(10)
        freq[sel.ranks] = sel.counts / design.size
        se = np.sqrt(0.1 * 0.9 / design.size)
        np.testing.assert_allclose(freq, 0.1, atol=4.0 * se)

    @pytest.mark.parametrize(
        "m, n, size, distinct",
        [(2, 10, 1, 1), (3, 3, 40, 1), (5, 100, 30, 30), (2, 10, 500, 45)],
        ids=["size-1", "all-equal", "all-distinct", "mixed"],
    )
    def test_with_replacement_ranks_and_counts_are_np_uniques(self, m, n, size, distinct):
        design = SamplingDesign(kind="with-replacement", size=size)
        sel = draw_design(design, m, n, np.random.default_rng(size))
        draws = np.random.default_rng(size).integers(0, inc_count(m, n), size=size)
        ranks, counts = np.unique(draws, return_counts=True)
        assert sel.distinct == distinct
        assert sel.ranks.tobytes() == ranks.tobytes() and sel.counts.tobytes() == counts.tobytes()

    def test_without_replacement_cannot_exceed_the_population(self):
        rng = np.random.default_rng(55)
        with pytest.raises(ValueError):
            draw_design(SamplingDesign(kind="without-replacement", size=11), 2, 5, rng)

    def test_design_validation(self):
        with pytest.raises(ValueError):
            SamplingDesign(kind="bernoulli", rate=1.5)
        with pytest.raises(ValueError):
            SamplingDesign(kind="with-replacement")
        with pytest.raises(ValueError):
            SamplingDesign(kind="bernoulli", rate=0.5, size=3)

    def test_selection_validation(self):
        assert Selection(m=2, n=5, ranks=[], counts=[]).empty
        assert Selection(m=2, n=5, ranks=[7], counts=[3]).selected == 3
        for ranks, counts in [([1, 4, 4], [1, 1, 1]), ([4, 1], [1, 1]), ([1, 4], [1, 0]), ([1, 4], [1])]:
            with pytest.raises(ValueError):
                Selection(m=2, n=5, ranks=ranks, counts=counts)

    def test_mean_factor(self):
        assert design_mean_factor(
            SamplingDesign(kind="bernoulli", rate=0.25), 2, 6
        ) == pytest.approx(0.25)
        assert design_mean_factor(
            SamplingDesign(kind="without-replacement", size=3), 2, 6
        ) == pytest.approx(3.0 / 15.0)


class TestIncomplete:
    def test_full_selection_is_complete(self):
        rng = np.random.default_rng(56)
        sample = rng.normal(size=6)
        sel = draw_design(SamplingDesign(kind="bernoulli", rate=1.0), 2, 6, rng)
        out = incomplete(product(), sample, sel)
        np.testing.assert_allclose(
            out.value.coords, complete(product(), sample).coords, rtol=1e-12
        )
        assert out.distinct == 15

    def test_empty_selection_flags_and_zeroes(self):
        rng = np.random.default_rng(57)
        sel = draw_design(SamplingDesign(kind="bernoulli", rate=1e-9), 2, 6, rng)
        out = incomplete(product(), np.arange(6.0), sel)
        assert out.empty
        assert norm(out.value) == 0.0

    def test_design_unbiasedness_monte_carlo(self):
        """Design means of incomplete/N track complete/binom within 4 SE."""
        rng = np.random.default_rng(58)
        sample = draw_iid(SamplerSpec(kind="rademacher", seed_stream=11), 8, 0)
        target = complete(gini(), sample).coords[0] / inc_count(2, 8)
        design = SamplingDesign(kind="with-replacement", size=20)
        draws = np.empty(2000)
        for r in range(draws.size):
            sel = draw_design(design, 2, 8, rng)
            draws[r] = incomplete(gini(), sample, sel).value.coords[0] / design.size
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - target) <= 4.0 * se

    DESIGNS = {
        "with-replacement": SamplingDesign(kind="with-replacement", size=10_000),
        "without-replacement": SamplingDesign(kind="without-replacement", size=3_000),
        "bernoulli": SamplingDesign(kind="bernoulli", rate=0.3),
    }
    KERNELS = {
        "centered-gini-grid7": (lambda: centered(gini(), FiniteDistribution.uniform_grid(7)), 2, 200),
        "triple-product": (
            lambda: KernelSpec(arity=3, codomain=line, eval_batch=lambda x, y, z: x * y * z), 3, 30,
        ),
        # integer values: with -0 among them (0 * -1) they take the compressed
        # route of `_selection_sums`, without it the dense product
        "integer-steps-grid7": (
            lambda: KernelSpec(arity=2, codomain=line, eval_batch=lambda x, y: np.round(3 * x) * np.round(3 * y)),
            2, 200,
        ),
        "integer-gaps-grid7": (
            lambda: KernelSpec(arity=2, codomain=line, eval_batch=lambda x, y: np.abs(np.round(3 * x) - np.round(3 * y))),
            2, 200,
        ),
    }

    @pytest.mark.parametrize("kernel_case", list(KERNELS))
    @pytest.mark.parametrize("design_case", list(DESIGNS))
    def test_gathered_columns_match_unranked_tuples(self, monkeypatch, design_case, kernel_case):
        make_kernel, m, n = self.KERNELS[kernel_case]
        kernel = make_kernel()
        sample = draw_iid(SamplerSpec(kind="uniform-grid", grid_points=7, seed_stream=3), n, 0)
        sel = draw_design(self.DESIGNS[design_case], m, n, np.random.default_rng(60))
        # each selected tuple unranked on its own, its values weighted by multiplicity
        idx = np.array([unrank_oracle(int(r), n, m) for r in sel.ranks]) - 1
        vals = batch_values(kernel, tuple(sample[idx[:, j]] for j in range(m)))
        want = np.add.reduce(vals * sel.counts[:, None].astype(np.float64), axis=0)
        if kernel_case.startswith("integer"):
            assert (ustats._exact_bound(vals) < math.inf) == (kernel_case == "integer-gaps-grid7")
        # by bytes: assert_array_equal takes -0 for +0
        assert incomplete(kernel, sample, sel).value.coords.tobytes() == want.tobytes()
        ustats._lex_columns.cache_clear()
        monkeypatch.setattr(ustats, "_MATERIALIZE_CAP", 20)
        assert ustats._tuple_columns(m, n) is None
        assert incomplete(kernel, sample, sel).value.coords.tobytes() == want.tobytes()

    def test_selection_must_match_the_sample(self):
        rng = np.random.default_rng(59)
        sel = draw_design(SamplingDesign(kind="bernoulli", rate=0.5), 2, 6, rng)
        with pytest.raises(ValueError):
            incomplete(product(), np.arange(5.0), sel)


class TestAboveTheMaterializeCap:
    """Above _MATERIALIZE_CAP tuples, sums run through pieces of whole
    first-index groups and the running max through pieces of whole
    last-index groups. The running max gives the materialized path's bytes
    for every kernel; `complete` and `weighted` fold their lexicographic pieces in another order than one
    reduction, so they agree bit for bit where every sum is an integer and
    to 1e-12 relative otherwise."""

    GRID7 = SamplerSpec(kind="uniform-grid", grid_points=7)
    CASES = {
        "product-rademacher": (product, SamplerSpec(kind="rademacher"), 0.0),
        "coordinate-rademacher": (coordinate_kernel, SamplerSpec(kind="rademacher"), 0.0),
        "triple-product-rademacher": (
            lambda: KernelSpec(arity=3, codomain=line, eval_batch=lambda x, y, z: x * y * z),
            SamplerSpec(kind="rademacher"),
            0.0,
        ),
        "centered-gini-grid7": (
            lambda: centered(gini(), FiniteDistribution.uniform_grid(7)), GRID7, 1e-12,
        ),
    }

    @staticmethod
    def _statistics(kernel, samples):
        m, n = kernel.arity, samples.shape[1]
        scheme = WeightScheme(np.arange(math.comb(n, m)) % 5.0)
        return (
            np.stack([complete(kernel, s).coords for s in samples]),
            np.stack([weighted(kernel, scheme, s).coords for s in samples]),
            np.stack([running_max(kernel, s).prefix_values for s in samples]),
            running_max_norms(kernel, samples),
        )

    @pytest.mark.parametrize("case", list(CASES))
    def test_streamed_paths_match_the_materialized_ones(self, monkeypatch, case):
        make_kernel, sampler, rtol = self.CASES[case]
        kernel = make_kernel()
        samples = np.stack([draw_iid(sampler, 23, r) for r in range(3)])
        materialized = self._statistics(kernel, samples)
        ustats._lex_columns.cache_clear()
        ustats._grouped_columns.cache_clear()
        monkeypatch.setattr(ustats, "_MATERIALIZE_CAP", 20)
        monkeypatch.setattr(ustats, "_CHUNK", 9)
        assert ustats._tuple_columns(kernel.arity, 23) is None
        streamed = self._statistics(kernel, samples)
        for want, got in zip(materialized[:2], streamed[:2]):
            if rtol:
                np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
            else:
                np.testing.assert_array_equal(got, want)
        for want, got in zip(materialized[2:], streamed[2:]):  # the running max
            assert got.tobytes() == want.tobytes()

    KERNELS = {
        "gini": gini,
        "centered-gini-grid7": lambda: centered(gini(), FiniteDistribution.uniform_grid(7)),
        "triple-product": lambda: product(arity=3),
    }

    @pytest.mark.parametrize("chunk", [1, 9, 100, 1000])
    @pytest.mark.parametrize("kernel_case", list(KERNELS))
    def test_running_max_bytes_do_not_depend_on_the_pieces(self, monkeypatch, kernel_case, chunk):
        kernel = self.KERNELS[kernel_case]()
        n = 120 if kernel.arity == 2 else 50
        samples = np.stack(
            [draw_iid(SamplerSpec(kind="uniform-grid", grid_points=7), n, r) for r in range(2)]
            + [np.random.default_rng(7).normal(size=n)]
        )
        want = self._running_max(kernel, samples)
        monkeypatch.setattr(ustats, "_MATERIALIZE_CAP", 20)
        monkeypatch.setattr(ustats, "_CHUNK", chunk)
        pieces = list(ustats._index_pieces(kernel.arity, n, lex=False))
        assert len(pieces) > 1 and all(starts[0] == 0 for _, starts in pieces)
        for got, expected in zip(self._running_max(kernel, samples), want):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [1, 9, 1000])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_lexicographic_pieces_are_whole_first_index_groups(self, monkeypatch, m, chunk):
        n = 23
        monkeypatch.setattr(ustats, "_MATERIALIZE_CAP", 20)
        monkeypatch.setattr(ustats, "_CHUNK", chunk)
        pieces = [cols for cols, _ in ustats._index_pieces(m, n, lex=True)]
        want = np.array(list(itertools.combinations(range(n), m)), dtype=np.int64)
        np.testing.assert_array_equal(np.concatenate([np.stack(c, axis=1) for c in pieces]), want)
        firsts = [c[0] for c in pieces]
        assert all(a[-1] < b[0] for a, b in zip(firsts, firsts[1:]))  # no first-index group is cut
        assert all(c[0].size >= chunk for c in pieces[:-1])

    @staticmethod
    def _running_max(kernel, samples):
        return (
            np.stack([running_max(kernel, s).prefix_values for s in samples]),
            running_max_norms(kernel, samples),
        )


class TestStackedSums:
    """`_sum_tuples` sums every sample of a stack as `complete`, `decoupled`
    and `weighted` sum it alone, bit for bit, whether its tuples come as one
    cached piece or as pieces of whole first-index groups; `_stacked_values`
    gives a sample the same values in a stack of one as in a longer stack."""

    KERNELS = {
        "centered-gini-grid7": (
            lambda: centered(gini(), FiniteDistribution.uniform_grid(7)),
            lambda r: draw_iid(SamplerSpec(kind="uniform-grid", grid_points=7), 23, r),
        ),
        "triple-product-normal": (
            lambda: product(arity=3), lambda r: np.random.default_rng(r).normal(size=23),
        ),
        "spatial-sign-2d": (
            lambda: spatial_sign(HilbertSpace.euclidean(2)),
            lambda r: np.random.default_rng(r).normal(size=(23, 2)),
        ),
    }

    @pytest.mark.parametrize("above_cap", [False, True])
    @pytest.mark.parametrize("case", list(KERNELS))
    def test_a_stack_sums_each_sample_as_alone(self, monkeypatch, case, above_cap):
        make_kernel, draw = self.KERNELS[case]
        kernel = make_kernel()
        m, n, dim = kernel.arity, 23, kernel.codomain.dim
        samples = np.stack([draw(r) for r in range(4)])
        copies = tuple(np.stack([draw(10 * slot + r) for r in range(4)]) for slot in range(1, m + 1))
        rng = np.random.default_rng(61)
        schemes = [WeightScheme(rng.normal(size=shape)) for shape in [math.comb(n, m), (math.comb(n, m), dim)]]
        if above_cap:
            monkeypatch.setattr(ustats, "_MATERIALIZE_CAP", 20)
            monkeypatch.setattr(ustats, "_CHUNK", 9)
            assert ustats._tuple_columns(m, n) is None
        alone = np.stack([complete(kernel, s).coords for s in samples])
        assert _sum_tuples(kernel, (samples,) * m).tobytes() == alone.tobytes()
        alone = np.stack(
            [decoupled(kernel, DecoupledSample(tuple(c[r] for c in copies))).coords for r in range(4)]
        )
        assert _sum_tuples(kernel, copies).tobytes() == alone.tobytes()
        for scheme in schemes:
            alone = np.stack([weighted(kernel, scheme, s).coords for s in samples])
            rows = scheme.values.reshape(len(scheme.values), -1)
            assert _sum_tuples(kernel, (samples,) * m, rows).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("case", ["centered-gini-grid7", "spatial-sign-2d"])
    def test_a_stack_of_one_gathers_as_a_longer_stack(self, case):
        make_kernel, draw = self.KERNELS[case]
        kernel = make_kernel()
        pair = np.stack([draw(0), draw(1)])
        cols = _tuple_columns(2, 23)
        both = _stacked_values(kernel, (pair,) * 2, cols)
        assert both.shape == (2, math.comb(23, 2), kernel.codomain.dim)
        for r in range(2):
            assert _stacked_values(kernel, (pair[r : r + 1],) * 2, cols).tobytes() == both[r : r + 1].tobytes()


def test_index_caches_keep_at_most_four_sample_sizes():
    ustats._lex_columns.cache_clear()
    ustats._grouped_columns.cache_clear()
    signs = draw_iid(SamplerSpec(kind="rademacher"), 400, 0)
    assert running_max_embedding_check(product(), signs) == 0.0
    assert ustats._lex_columns.cache_info().currsize <= 4
    assert ustats._grouped_columns.cache_info().currsize <= 4


class TestTupleGate:
    """`ustats._tuple_count` is the one rule for how many tuples a sample
    feeds: below the arity a ValueError, above ENUMERATION_CAP one message."""

    CALLS = {
        "_tuple_count": lambda: ustats._tuple_count(2, 12),
        "complete": lambda: complete(gini(), np.arange(12.0)),
        "running_max": lambda: running_max(gini(), np.arange(12.0)),
        "draw_design": lambda: draw_design(
            SamplingDesign(kind="with-replacement", size=5), 2, 12, np.random.default_rng(0)
        ),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    def test_every_caller_raises_the_one_cap_message(self, monkeypatch, call):
        monkeypatch.setattr(ustats, "ENUMERATION_CAP", 65)
        with pytest.raises(EnumerationBudgetError) as caught:
            self.CALLS[call]()
        assert str(caught.value) == "66 tuples exceed the cap of 65"

    def test_below_the_arity(self):
        for call in (
            lambda: ustats._tuple_count(3, 2),
            lambda: complete(gini(), np.arange(1.0)),
            lambda: decoupled(product(), DecoupledSample((np.arange(1.0), np.arange(1.0)))),
            lambda: running_max_norms(gini(), np.zeros((3, 1))),
            lambda: weighted(gini(), WeightScheme(np.ones(0)), np.arange(1.0)),
            lambda: ExperimentConfig(gini(), SamplerSpec(kind="rademacher"), 1, 100),
        ):
            with pytest.raises(ValueError, match="sample of size [12] cannot feed an arity-[23] kernel"):
                call()


# One case of each refusal of the sample, copy, weight and design checks: (call, message).
REFUSALS = {
    "sample-rank": (lambda: complete(gini(), np.zeros((2, 2, 2))), "sample must be a 1-d or 2-d array of points"),
    "no-copies": (lambda: DecoupledSample(()), "need at least one copy"),
    "copy-shapes": (lambda: DecoupledSample((np.zeros(3), np.zeros(4))), "all copies must share one shape"),
    "aggregate-order": (
        lambda: ustats.weight_aggregate(WeightScheme.identity(2, 4), 2, 4, 3),
        "k must lie in [1, 2], got 3",
    ),
    "design-kind": (lambda: SamplingDesign(kind="bogus", size=3), "unknown design kind 'bogus'"),
    "design-rate": (
        lambda: SamplingDesign(kind="with-replacement", size=3, rate=0.5),
        "with-replacement design takes no rate",
    ),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_a_refusal_names_its_rule(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
