"""Batched design and decoupling experiments: equal to the per-replica loops at
any batch size, dense design counts equal to `draw_design`, and the up-front
checks raised before any replica is drawn."""

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
    design_counts,
    design_counts_batch,
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
CHUNKS = (1, 7, DEFAULT_CHUNK)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("design", list(DESIGNS))
@pytest.mark.parametrize("kernel_case", list(_kernels()))
def test_scaling_statistics_equal_the_per_replica_loop(monkeypatch, kernel_case, design, chunk):
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", chunk)
    kernel, sampler = _kernels()[kernel_case]
    design = DESIGNS[design]
    n, m, d, cell_id, replicas = 8, kernel.arity, 1, 3, 101
    got = montecarlo._normalized_norms(
        kernel, sampler, design, n, cell_id, replicas, SEED,
        lambda k: montecarlo._design_normalizer(design, k, n, m, d),
    )
    want = norm_stat_oracle(kernel, sampler, design, n, cell_id, replicas, SEED, d)
    np.testing.assert_array_equal(got, want)

    fixed_sample = draw_iid(sampler, n, mix_ids(montecarlo._ROLE_FIXED, cell_id))
    fixed = cell_values_oracle(kernel, (fixed_sample,) * m)
    np.testing.assert_array_equal(
        montecarlo._design_estimates(fixed, design, m, n, cell_id, replicas, SEED),
        estimator_oracle(fixed, design, m, n, cell_id, replicas, SEED),
    )


def test_bernoulli_cases_include_empty_selections():
    kernel, sampler = _kernels()["centered-gini-grid7"]
    stats = norm_stat_oracle(kernel, sampler, DESIGNS["bernoulli"], 8, 3, 101, SEED, 1)
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
            coordinate_kernel(), sampler, design, n, cell_id, replicas, SEED, lambda _: norm_wo
        )
        want = matching_stat_oracle(
            coordinate_kernel(), sampler, design, n, cell_id, replicas, SEED, norm_wo
        )
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kernel_case", list(_kernels()))
def test_decouple_statistics_equal_the_per_replica_loop(monkeypatch, kernel_case, chunk):
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", chunk)
    kernel, sampler = _kernels()[kernel_case]
    config = ExperimentConfig(
        kernel=kernel, sampler=sampler, sample_size=9, replicas=130, master_seed=SEED
    )
    got = montecarlo._decouple_stats(config)
    want = decouple_stats_oracle(kernel, sampler, 9, 130)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_decouple_statistics_at_dim_3_and_many_tuples():
    grid = HilbertSpace.grid(3)
    kernel = product(grid)
    sampler = SamplerSpec(kind="discretized-gaussian", space=grid, seed_stream=SEED)
    config = ExperimentConfig(
        kernel=kernel, sampler=sampler, sample_size=100, replicas=100, master_seed=SEED
    )
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
    got = design_counts_batch(design, m, n, SEED, ids)
    assert got.dtype == np.int64 and got.shape == (101, inc_count(m, n))
    np.testing.assert_array_equal(got, _stacked_design_counts(design, m, n, ids))


def test_rejected_replacement_streams_fall_back_to_design_counts(monkeypatch):
    # numpy rejects a uint32 for k = 39,650 tuples with probability
    # (2**32 % k) / 2**32 = 9.2e-6, so about 1 in 6 streams of 20,001 draws
    n, size, ids = 39_650, 20_001, mix_ids_batch(_ROLE, 6, np.arange(40))
    design = SamplingDesign(kind="with-replacement", size=size)
    want = _stacked_design_counts(design, 1, n, ids)
    calls = []

    def counting(*args):
        calls.append(args)
        return design_counts(*args)

    monkeypatch.setattr(ustats, "design_counts", counting)
    np.testing.assert_array_equal(design_counts_batch(design, 1, n, SEED, ids), want)
    assert 2 <= len(calls) <= 20


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


@pytest.mark.parametrize("name", DENSE + COMPRESSED)
def test_selection_sums_take_the_dense_route_only_where_exact(monkeypatch, name):
    vals, weights = _selection_case(name)
    bound = montecarlo._dense_values_bound(vals)
    assert montecarlo._dense_sums_exact(weights, bound) == (name in DENSE)
    got = montecarlo._selection_sums(vals, weights, bound)
    assert got.tobytes() == _compressed_sums(vals, weights).tobytes()
    monkeypatch.setattr(montecarlo, "_dense_sums_exact", lambda *_: False)
    assert got.tobytes() == montecarlo._selection_sums(vals, weights, bound).tobytes()


def test_the_dense_route_bound_is_strict():
    bound = montecarlo._dense_values_bound(np.full((4, 1), 2.0**48))
    weights = np.array([[8, 8, 8, 7], [1, 0, 0, 0]])
    assert montecarlo._dense_sums_exact(weights, bound)  # largest sum 31 * 2**48
    weights[1, 0] = 32
    assert not montecarlo._dense_sums_exact(weights, bound)  # 2**53


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
    designs = _counting(monkeypatch, "design_counts_batch")
    good = ScalingCell(20, SamplingDesign(kind="with-replacement", size=10))
    with pytest.raises(error):
        incomplete_scaling_experiment(
            product(), SamplerSpec(kind="rademacher"), [good, bad_cell], replicas=100, master_seed=1
        )
    assert batches == [] and designs == []


def test_decouple_checks_come_before_any_replica(monkeypatch):
    batches = _counting(monkeypatch, "draw_iid_batch")
    config = ExperimentConfig(
        kernel=product(),
        sampler=SamplerSpec(kind="rademacher"),
        sample_size=2_100,
        replicas=100,
        master_seed=1,
        x_grid=np.array([1.0, 2.0]),
    )
    with pytest.raises(ValueError, match="too large"):
        decouple_compare(config)
    assert batches == []


def test_design_estimates_check_the_fixed_values_once_per_cell(monkeypatch):
    calls = []
    original = montecarlo._dense_values_bound

    def counted(vals):
        calls.append(vals.shape)
        return original(vals)

    monkeypatch.setattr(montecarlo, "_dense_values_bound", counted)
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", 190 * 7)  # several batches per cell
    fixed = np.random.default_rng(3).integers(-3, 4, size=(190, 1)).astype(np.float64)
    design = SamplingDesign("with-replacement", 100)
    ests = montecarlo._design_estimates(fixed, design, 2, 20, 0, 50, 9)
    assert ests.shape == (50, 1)
    assert calls == [(190, 1)]
