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
from ustatlab import montecarlo
from ustatlab.distributions import (
    EnumerationBudgetError,
    FiniteDistribution,
    SamplerSpec,
    draw_iid,
    mix_ids,
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
from ustatlab.ustats import SamplingDesign, design_counts, draw_design, inc_count

DEFAULT_CHUNK = montecarlo._CHUNK_VALUES
SEED = 4242


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
    designs = _counting(monkeypatch, "substreams")
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
