"""Batched design and decoupling experiments: equal to the per-replica loops at
any batch size, dense design counts equal to `draw_design`, design sums read
from the drawn ranks equal to the counts product, the selection sums' dense
route taken only where it is exact, and the up-front checks raised before
any replica is drawn."""

import numpy as np
import pytest

from helpers import (
    cell_values_oracle,
    decouple_stats_oracle,
    design_normalizer_oracle,
    estimator_oracle,
    matching_stat_oracle,
    norm_stat_oracle,
    table_kernel,
)
from ustatlab import montecarlo, ustats
from ustatlab.distributions import (
    EnumerationBudgetError,
    FiniteDistribution,
    SamplerSpec,
    draw_iid,
    mix_ids,
    mix_ids_batch,
    substream,
)
from ustatlab.hilbert import HilbertSpace
from ustatlab.kernels import KernelSpec, centered, gini, product
from ustatlab.montecarlo import (
    ExperimentConfig,
    ScalingCell,
    coordinate_kernel,
    decouple_compare,
    incomplete_scaling_experiment,
)
from ustatlab.ustats import (
    SamplingDesign,
    _design_batch,
    design_counts,
    design_sums_batch,
    draw_design,
    inc_count,
)

DEFAULT_CHUNK = montecarlo._CHUNK_VALUES
SEED = 4242
_ROLE = 12


def _kernels():
    """(kernel, sampler) pairs: integer, non-integer, dim 2, and no eval_batch."""
    grid7 = FiniteDistribution.uniform_grid(7)
    law = FiniteDistribution(np.array([-0.7, 0.1, 0.35, 1.3]), np.array([0.1, 0.3, 0.35, 0.25]))
    gini7 = centered(gini(), grid7)
    return {
        "product-rademacher": (product(), SamplerSpec(kind="rademacher", seed_stream=SEED)),
        "centered-gini-grid7": (
            gini7,
            SamplerSpec(kind="uniform-grid", grid_points=7, seed_stream=SEED),
        ),
        "table-dim2": (
            table_kernel(2, law, np.random.default_rng(5), dim=2),
            SamplerSpec(kind="finite", dist=law, seed_stream=SEED),
        ),
        "gini-grid7-no-batch": (
            KernelSpec(arity=2, codomain=gini7.codomain, eval_one=gini7.eval_one, symmetric=True),
            SamplerSpec(kind="uniform-grid", grid_points=7, seed_stream=SEED),
        ),
    }


DESIGNS = {
    "with-replacement": SamplingDesign(kind="with-replacement", size=40),
    "without-replacement": SamplingDesign(kind="without-replacement", size=10),
    "bernoulli": SamplingDesign(kind="bernoulli", rate=0.05),
}
CHUNKS = (1, 7, pytest.param(DEFAULT_CHUNK, id="default"))


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("design", list(DESIGNS))
@pytest.mark.parametrize("kernel_case", list(_kernels()))
def test_scaling_statistics_equal_the_per_replica_loop(monkeypatch, kernel_case, design, chunk):
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", chunk)
    monkeypatch.setattr(ustats, "_CHUNK", chunk)
    kernel, sampler = _kernels()[kernel_case]
    design = DESIGNS[design]
    n, m, d, cell_id, replicas = 8, kernel.arity, 1, 3, 101
    got = montecarlo._normalized_norms(
        kernel, sampler, design, n, cell_id, replicas,
        lambda k: montecarlo._design_normalizer(design, k, n, m, d),
    )
    want = norm_stat_oracle(kernel, sampler, design, n, cell_id, replicas, d)
    np.testing.assert_array_equal(got, want)

    fixed_sample = draw_iid(sampler, n, mix_ids(montecarlo._ROLE_FIXED, cell_id))
    fixed = cell_values_oracle(kernel, (fixed_sample,) * m)
    ids = mix_ids_batch(montecarlo._ROLE_FIXED, cell_id, np.arange(replicas))
    np.testing.assert_array_equal(
        design_sums_batch(design, m, n, SEED, ids, fixed),
        estimator_oracle(fixed, design, m, n, cell_id, replicas, SEED),
    )


def test_bernoulli_cases_include_empty_selections():
    kernel, sampler = _kernels()["centered-gini-grid7"]
    stats = norm_stat_oracle(kernel, sampler, DESIGNS["bernoulli"], 8, 3, 101, 1)
    assert 0 < np.isnan(stats).sum() < stats.size


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("sampler_kind", ["discretized-gaussian", "uniform-grid"])
def test_matching_statistics_equal_the_per_replica_loop(monkeypatch, sampler_kind, chunk):
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", chunk)
    sampler = SamplerSpec(
        kind=sampler_kind, seed_stream=SEED, grid_points=7, space=HilbertSpace.euclidean(1)
    )
    n, size, replicas = 12, 5, 150
    norm_wo = design_normalizer_oracle(SamplingDesign("without-replacement", size), size, n, 1, 1)
    designs = (
        SamplingDesign(kind="without-replacement", size=size),
        SamplingDesign(kind="bernoulli", rate=size / n),
    )
    for cell_id, design in enumerate(designs):
        got = montecarlo._normalized_norms(
            coordinate_kernel(), sampler, design, n, cell_id, replicas, lambda _: norm_wo
        )
        want = matching_stat_oracle(coordinate_kernel(), sampler, design, n, cell_id, replicas, norm_wo)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kernel_case", list(_kernels()))
def test_decouple_statistics_equal_the_per_replica_loop(monkeypatch, kernel_case, chunk):
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", chunk)
    kernel, sampler = _kernels()[kernel_case]
    config = ExperimentConfig(kernel=kernel, sampler=sampler, sample_size=9, replicas=130)
    got = montecarlo._decouple_stats(config)
    want = decouple_stats_oracle(kernel, sampler, 9, 130)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_decouple_statistics_at_dim_3_and_many_tuples():
    grid = HilbertSpace.grid(3)
    kernel = product(grid)
    sampler = SamplerSpec(kind="discretized-gaussian", space=grid, seed_stream=SEED)
    config = ExperimentConfig(kernel=kernel, sampler=sampler, sample_size=100, replicas=100)
    got = montecarlo._decouple_stats(config)
    want = decouple_stats_oracle(kernel, sampler, 100, 100)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


@pytest.mark.parametrize("n", [5, 20, 40])  # C(n, 2) = 10, 190, 780
@pytest.mark.parametrize(
    "design",
    [
        SamplingDesign(kind="with-replacement", size=300),
        SamplingDesign(kind="without-replacement", size=7),
        SamplingDesign(kind="bernoulli", rate=0.1),
    ],
    ids=lambda d: d.kind,
)
def test_design_counts_equal_draw_design(n, design):
    total = inc_count(2, n)
    for stream in range(200):
        dense_rng = substream(SEED, mix_ids(7, n, stream))
        sparse_rng = substream(SEED, mix_ids(7, n, stream))
        counts = design_counts(design, 2, n, dense_rng)
        sel = draw_design(design, 2, n, sparse_rng)
        assert counts.shape == (total,)
        np.testing.assert_array_equal(np.flatnonzero(counts), sel.ranks)
        np.testing.assert_array_equal(counts[sel.ranks], sel.counts)
        # both consumed the same generator words
        np.testing.assert_equal(dense_rng.bit_generator.state, sparse_rng.bit_generator.state)


def _stacked_design_counts(design, m, n, ids):
    return np.stack([design_counts(design, m, n, substream(SEED, int(i))) for i in ids])


@pytest.mark.parametrize(
    "size, m, n",
    [
        (1, 2, 20),
        (7, 2, 20),  # odd: the last word's upper half is unused
        (40, 2, 40),
        (33, 1, 16),  # 16 tuples, a power of two: no rejection scan
        (9, 2, 2),  # one tuple: numpy draws no word at all
    ],
)
@pytest.mark.parametrize("chunk", [50, ustats._CHUNK])
def test_batched_replacement_counts_equal_design_counts(monkeypatch, size, m, n, chunk):
    # a pass of 50 draws holds 7 streams of size 7, and 101 streams are no multiple of 7
    monkeypatch.setattr(ustats, "_CHUNK", chunk)
    ids = mix_ids_batch(_ROLE, 5, np.arange(101))
    design = SamplingDesign(kind="with-replacement", size=size)
    got = _design_batch(design, m, n, SEED, ids)
    assert got.dtype == np.int64 and got.shape == (101, inc_count(m, n))
    np.testing.assert_array_equal(got, _stacked_design_counts(design, m, n, ids))


# 5e-324, the least positive double, stands in for rate 0, which
# SamplingDesign refuses: only a word below 2**11 would select a tuple
@pytest.mark.parametrize("rate", [5e-324, 1e-9, 0.5, 1.0])
@pytest.mark.parametrize(
    "m, n, streams, chunk",
    [
        (2, 8, 101, 50),  # a pass of 50 words holds one stream of 28 tuples
        (2, 40, 101, ustats._CHUNK),  # 84 streams of 780 tuples a pass, the last one partial
        (1, 2**20 + 3, 3, ustats._CHUNK),  # one stream's uniforms cross draw_design's 2**20 chunk
    ],
)
def test_batched_bernoulli_designs_equal_design_counts(monkeypatch, rate, m, n, streams, chunk):
    monkeypatch.setattr(ustats, "_CHUNK", chunk)
    ids = mix_ids_batch(_ROLE, 7, np.arange(streams))
    design = SamplingDesign(kind="bernoulli", rate=rate)
    calls = _counting_fallbacks(monkeypatch)
    counts = _design_batch(design, m, n, SEED, ids)
    selected = _design_batch(design, m, n, SEED, ids, selected=True)
    assert not calls and counts.dtype == np.int64 and selected.dtype == bool
    want = _stacked_design_counts(design, m, n, ids)
    np.testing.assert_array_equal(counts, want)
    np.testing.assert_array_equal(selected, want > 0)
    if rate in (5e-324, 1.0):
        assert np.all(want == (rate == 1.0))


def _counting_fallbacks(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return design_counts(*args)

    monkeypatch.setattr(ustats, "design_counts", counting)
    return calls


def test_rejected_replacement_streams_fall_back_to_design_counts(monkeypatch):
    # numpy rejects a uint32 for k = 39,650 tuples with probability
    # (2**32 % k) / 2**32 = 9.2e-6, so about 1 in 6 streams of 20,001 draws
    n, size, ids = 39_650, 20_001, mix_ids_batch(_ROLE, 6, np.arange(40))
    design = SamplingDesign(kind="with-replacement", size=size)
    want = _stacked_design_counts(design, 1, n, ids)
    calls = _counting_fallbacks(monkeypatch)
    np.testing.assert_array_equal(_design_batch(design, 1, n, SEED, ids), want)
    assert 2 <= len(calls) <= 20


@pytest.mark.parametrize(
    "n, size",
    [
        (39_650, 20_001),  # the selection prefix is the whole design
        # prefix 142,104 < 150,000 draws, rejected in it with probability
        # (2**32 % k) / 2**32 = 1.7e-6 per uint32: about 1 in 4 streams
        (10_000, 150_000),
    ],
)
def test_rejected_selection_prefixes_fall_back_to_design_counts(monkeypatch, n, size):
    ids = mix_ids_batch(_ROLE, 6, np.arange(40))
    design = SamplingDesign(kind="with-replacement", size=size)
    want = _stacked_design_counts(design, 1, n, ids) > 0
    calls = _counting_fallbacks(monkeypatch)
    np.testing.assert_array_equal(_design_batch(design, 1, n, SEED, ids, selected=True), want)
    assert 2 <= len(calls) <= 20


SELECTION_CASES = {
    # (design, m, n): C(n, m) = 10 gives a prefix of 74 draws, below 300
    "prefix-below-size": (SamplingDesign(kind="with-replacement", size=300), 2, 5),
    "prefix-at-size": (SamplingDesign(kind="with-replacement", size=40), 2, 8),
    "workload-size": (SamplingDesign(kind="with-replacement", size=10_000), 2, 20),
    "one-tuple": (SamplingDesign(kind="with-replacement", size=9), 2, 2),
    "without-replacement": (DESIGNS["without-replacement"], 2, 8),
    "bernoulli": (DESIGNS["bernoulli"], 2, 8),
}


@pytest.mark.parametrize("chunk", [50, ustats._CHUNK])
@pytest.mark.parametrize(
    "case, margin",
    [(case, ustats._COVER_MARGIN) for case in SELECTION_CASES]
    # margin 0 leaves a tuple undrawn in about 1 - 1/e of the prefixes (one
    # tuple would get a prefix of ln 1 = 0 draws)
    + [(case, 0) for case in SELECTION_CASES if case != "one-tuple"],
)
def test_selected_tuples_equal_the_nonzero_counts(monkeypatch, case, margin, chunk):
    design, m, n = SELECTION_CASES[case]
    monkeypatch.setattr(ustats, "_CHUNK", chunk)
    monkeypatch.setattr(ustats, "_COVER_MARGIN", margin)
    ids = mix_ids_batch(_ROLE, 8, np.arange(101))
    want = _stacked_design_counts(design, m, n, ids) > 0
    calls = _counting_fallbacks(monkeypatch)
    got = _design_batch(design, m, n, SEED, ids, selected=True)
    assert got.dtype == bool and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    if case == "prefix-below-size":
        assert len(calls) >= 50 if margin == 0 else len(calls) <= 5


def _counting_words(monkeypatch):
    """Word counts of every `random_raw` call on a `substreams` generator."""
    words = []
    original = ustats.substreams

    class Counted:
        def __init__(self, rng):
            self.bit_generator = self
            self._raw = rng.bit_generator.random_raw

        def random_raw(self, size):
            words.append(size)
            return self._raw(size)

    monkeypatch.setattr(ustats, "substreams", lambda *args: map(Counted, original(*args)))
    return words


def test_the_selection_draws_fewer_words(monkeypatch):
    design, m, n = SELECTION_CASES["workload-size"]
    ids = mix_ids_batch(_ROLE, 9, np.arange(30))
    words = _counting_words(monkeypatch)
    counts = _design_batch(design, m, n, SEED, ids)
    assert words == [5_000] * 30
    words.clear()
    np.testing.assert_array_equal(_design_batch(design, m, n, SEED, ids, selected=True), counts > 0)
    assert words == [974] * 30  # ceil(190 * (ln 190 + 5)) = 1,947 draws


@pytest.mark.parametrize("selected", [False, True], ids=["counts", "selected"])
@pytest.mark.parametrize("design", list(DESIGNS))
def test_no_ids_give_no_rows(selected, design):
    got = _design_batch(DESIGNS[design], 2, 8, SEED, [], selected=selected)
    assert got.shape == (0, 28)
    assert got.dtype == (bool if selected else np.int64)


def _exact_values(total, dim, seed=0):
    """Integers in [-3, 3], zeros and negatives among them, none of them -0."""
    cycle = np.arange(total * dim) % 7 - 3.0
    return np.random.default_rng(seed).permutation(cycle).reshape(total, dim)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize(
    "size, m, n",
    [(1, 2, 20), (7, 2, 20), (40, 2, 40), (33, 1, 16), (9, 2, 2), (10_000, 2, 20)],
)
@pytest.mark.parametrize("chunk", [50, ustats._CHUNK])
def test_design_sums_equal_the_counts_product(monkeypatch, size, m, n, dim, chunk):
    monkeypatch.setattr(ustats, "_CHUNK", chunk)
    ids = mix_ids_batch(_ROLE, 10, np.arange(101))
    design = SamplingDesign(kind="with-replacement", size=size)
    values = _exact_values(inc_count(m, n), dim, size)
    got = design_sums_batch(design, m, n, SEED, ids, values)
    assert got.shape == (101, dim)
    assert got.tobytes() == (_design_batch(design, m, n, SEED, ids) @ values).tobytes()


def test_rejected_streams_sum_through_design_counts(monkeypatch):
    # about 1 in 6 streams of 20,001 draws from 39,650 tuples is rejected, as above
    n, size, ids = 39_650, 20_001, mix_ids_batch(_ROLE, 6, np.arange(40))
    design = SamplingDesign(kind="with-replacement", size=size)
    values = _exact_values(n, 2)
    want = _stacked_design_counts(design, 1, n, ids) @ values
    calls = _counting_fallbacks(monkeypatch)
    assert design_sums_batch(design, 1, n, SEED, ids, values).tobytes() == want.tobytes()
    assert 2 <= len(calls) <= 20


def test_design_sums_of_no_ids_and_what_they_refuse():
    design = SamplingDesign(kind="with-replacement", size=5)
    got = design_sums_batch(design, 2, 8, SEED, [], _exact_values(28, 3))
    assert got.shape == (0, 3) and got.dtype == np.float64
    ids = mix_ids_batch(_ROLE, 11, np.arange(60))
    for other in ("with-replacement", "without-replacement", "bernoulli"):
        counts = _design_batch(DESIGNS[other], 2, 8, SEED, ids)
        for values in (_exact_values(28, 2), np.random.default_rng(1).normal(size=(28, 2))):
            want = ustats._selection_sums(values, counts, ustats._exact_bound(values))
            assert design_sums_batch(DESIGNS[other], 2, 8, SEED, ids, values).tobytes() == want.tobytes()
    for shape in [(28,), (27, 1)]:
        with pytest.raises(ValueError, match="values of shape"):
            design_sums_batch(design, 2, 8, SEED, [1], np.zeros(shape))


_INTS = _exact_values(190, 1, 4)
ESTIMATE_CASES = {
    # (fixed values, design, whether the sums are read from the drawn ranks)
    "integers": (_INTS, SamplingDesign("with-replacement", 100), True),
    "integers-dim3": (_exact_values(190, 3, 5), SamplingDesign("with-replacement", 1_000), True),
    "below-2**53": (np.sign(_INTS) * 2.0**48, SamplingDesign("with-replacement", 31), True),
    "at-2**53": (np.sign(_INTS) * 2.0**48, SamplingDesign("with-replacement", 32), False),
    "non-integer": (_INTS + 0.5, SamplingDesign("with-replacement", 100), False),
    "negative-zero": (np.where(_INTS == 0, -0.0, _INTS), SamplingDesign("with-replacement", 100), False),
    "without-replacement": (_INTS, DESIGNS["without-replacement"], False),
    "bernoulli": (_INTS, DESIGNS["bernoulli"], False),
}


def _counting_design_batches(monkeypatch):
    """Calls of `ustats._design_batch` that read sums from the drawn ranks, and
    calls that return count rows."""
    sums, counts = [], []
    original = ustats._design_batch

    def counted(*args, **kwargs):
        (sums if "values" in kwargs else counts).append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ustats, "_design_batch", counted)
    return sums, counts


@pytest.mark.parametrize("name", list(ESTIMATE_CASES))
def test_design_sums_read_exact_sums_from_the_drawn_ranks(monkeypatch, name):
    fixed, design, exact = ESTIMATE_CASES[name]
    monkeypatch.setattr(ustats, "_CHUNK", 190 * 7)  # 50 draws in 8 count batches
    sums, counts = _counting_design_batches(monkeypatch)
    ids = mix_ids_batch(montecarlo._ROLE_FIXED, 0, np.arange(50))
    got = design_sums_batch(design, 2, 20, SEED, ids, fixed)
    assert got.tobytes() == estimator_oracle(fixed, design, 2, 20, 0, 50, SEED).tobytes()
    assert (len(sums), len(counts)) == ((1, 0) if exact else (0, 8))


def _compressed_sums(vals, weights):
    """Each replica's compressed rows reduced one replica at a time."""
    out = np.zeros((weights.shape[0], vals.shape[-1]))
    for b, w in enumerate(weights):
        ranks = np.flatnonzero(w)
        if ranks.size:
            rows = vals[b, ranks] if vals.ndim == 3 else vals[ranks]
            out[b] = np.add.reduce(rows * w[ranks][:, None], axis=0)
    return out


def _selection_case(name):
    rng = np.random.default_rng(len(name))
    counts = rng.integers(0, 3, size=(9, 12)) * (rng.random((9, 12)) < 0.4)
    counts[[2, 5]] = 0  # empty replicas
    ints = rng.integers(-4, 5, size=(12, 2)).astype(np.float64)
    gini7 = centered(gini(), FiniteDistribution.uniform_grid(7))
    grid = np.linspace(-1.0, 1.0, 7)
    cases = {
        "ints-shared": (ints, counts),
        "ints-per-replica-bool": (rng.integers(-4, 5, size=(9, 12, 1)).astype(np.float64), counts > 0),
        "ints-per-replica-counts": (rng.integers(-4, 5, size=(9, 12, 3)).astype(np.float64), counts),
        # a zero-weight term 0 * v is -0 for v < 0, and the compressed sum of an empty replica is +0
        "all-negative": (-rng.integers(1, 5, size=(12, 1)).astype(np.float64), counts),
        "all-negative-bool": (-np.ones((9, 12, 2)), counts > 0),
        "non-integer": (gini7.eval_batch(rng.choice(grid, 12), rng.choice(grid, 12))[:, None], counts),
        "at-2**53": (np.full((12, 1), 2.0**48), np.where(np.arange(12) < 8, 4, 0) + 0 * counts),
        "negative-zero": (np.where(ints == 0, -0.0, ints), counts),
        "negative-weights": (ints, counts - 1),
    }
    return cases[name]


DENSE = ["ints-shared", "ints-per-replica-bool", "ints-per-replica-counts", "all-negative", "all-negative-bool"]
COMPRESSED = ["non-integer", "at-2**53", "negative-zero", "negative-weights"]


def _dense_route(monkeypatch, vals, weights, bound):
    """Whether `ustats._selection_sums` takes its dense product, and its sums."""
    verdicts = []
    original = ustats._exact_sums

    def counted(*args):
        verdicts.append(original(*args))
        return verdicts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(ustats, "_exact_sums", counted)
        got = ustats._selection_sums(vals, weights, bound)
    return verdicts == [True], got


@pytest.mark.parametrize("name", DENSE + COMPRESSED)
def test_selection_sums_take_the_dense_route_only_where_exact(monkeypatch, name):
    vals, weights = _selection_case(name)
    bound = ustats._exact_bound(vals)
    dense, got = _dense_route(monkeypatch, vals, weights, bound)
    assert dense == (name in DENSE)
    assert got.tobytes() == _compressed_sums(vals, weights).tobytes()
    monkeypatch.setattr(ustats, "_exact_sums", lambda *_: False)
    assert got.tobytes() == ustats._selection_sums(vals, weights, bound).tobytes()


def test_the_dense_route_bound_is_strict(monkeypatch):
    vals = np.full((4, 1), 2.0**48)
    bound = ustats._exact_bound(vals)
    weights = np.array([[8, 8, 8, 7], [1, 0, 0, 0]])
    assert _dense_route(monkeypatch, vals, weights, bound)[0]  # largest sum 31 * 2**48
    weights[1, 0] = 32
    assert not _dense_route(monkeypatch, vals, weights, bound)[0]  # 2**53


def _counting(monkeypatch, name):
    calls = []
    original = getattr(montecarlo, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, name, counted)
    return calls


@pytest.mark.parametrize(
    "bad_cell, error",
    [
        (ScalingCell(5, SamplingDesign(kind="without-replacement", size=11)), ValueError),
        (
            ScalingCell(14_143, SamplingDesign(kind="with-replacement", size=10)),
            EnumerationBudgetError,
        ),
        (ScalingCell(2_100, SamplingDesign(kind="with-replacement", size=10)), ValueError),
    ],
    ids=["size", "budget", "materialize"],
)
def test_scaling_checks_come_before_any_replica(monkeypatch, bad_cell, error):
    batches = _counting(monkeypatch, "draw_iid_batch")
    designs = _counting(monkeypatch, "design_sums_batch")
    selections = _counting(monkeypatch, "_design_batch")
    good = ScalingCell(20, SamplingDesign(kind="with-replacement", size=10))
    with pytest.raises(error):
        incomplete_scaling_experiment(
            product(), SamplerSpec(kind="rademacher", seed_stream=1), [good, bad_cell], replicas=100
        )
    assert batches == [] and designs == [] and selections == []


def test_decouple_checks_come_before_any_replica(monkeypatch):
    batches = _counting(monkeypatch, "draw_iid_batch")
    config = ExperimentConfig(
        kernel=product(),
        sampler=SamplerSpec(kind="rademacher", seed_stream=1),
        sample_size=2_100,
        replicas=100,
        x_grid=np.array([1.0, 2.0]),
    )
    with pytest.raises(ValueError, match="too large"):
        decouple_compare(config)
    assert batches == []


@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["exact", "non-integer"])
def test_design_sums_check_the_values_once_per_cell(monkeypatch, offset):
    calls = []
    original = ustats._exact_bound

    def counted(vals):
        calls.append(vals.shape)
        return original(vals)

    monkeypatch.setattr(ustats, "_exact_bound", counted)
    monkeypatch.setattr(ustats, "_CHUNK", 190 * 7)  # several batches per cell
    fixed = np.random.default_rng(3).integers(-3, 4, size=(190, 1)) + offset
    design = SamplingDesign("with-replacement", 100)
    ests = design_sums_batch(design, 2, 20, 9, mix_ids_batch(montecarlo._ROLE_FIXED, 0, np.arange(50)), fixed)
    assert ests.shape == (50, 1)
    assert calls == [(190, 1)]
