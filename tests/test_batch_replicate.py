"""Batched replicas: equal to the per-replica loop at any replica count and batch size."""

import numpy as np
import pytest

from ustatlab import montecarlo
from ustatlab.distributions import FiniteDistribution, SamplerSpec, draw_iid, mix_ids
from ustatlab.hilbert import HilbertSpace
from ustatlab.kernels import KernelSpec, centered, gini, product
from ustatlab.montecarlo import ExperimentConfig, coordinate_kernel, replicate
from ustatlab.ustats import running_max, running_max_norms

DEFAULT_CHUNK = montecarlo._CHUNK_VALUES


def _cases(seed):
    grid = HilbertSpace.grid(3)
    return {
        "gini-grid7": (
            centered(gini(), FiniteDistribution.uniform_grid(7)),
            SamplerSpec(kind="uniform-grid", grid_points=7, seed_stream=seed),
            40,
        ),
        "coordinate-rademacher": (coordinate_kernel(), SamplerSpec(kind="rademacher", seed_stream=seed), 40),
        "product-gaussian": (
            product(grid),
            SamplerSpec(kind="discretized-gaussian", space=grid, seed_stream=seed),
            12,
        ),
        "coordinate-n3": (coordinate_kernel(), SamplerSpec(kind="rademacher", seed_stream=seed), 3),
    }


def _config(name, replicas, seed=800):
    kernel, sampler, n = _cases(seed)[name]
    return ExperimentConfig(kernel=kernel, sampler=sampler, sample_size=n, replicas=replicas)


def _per_replica(config):
    """The per-replica loop: one substream and one running_max per replica."""
    return np.array(
        [
            running_max(
                config.kernel,
                draw_iid(config.sampler, config.sample_size, mix_ids(montecarlo._ROLE_DATA, r)),
            ).max_norm
            for r in range(config.replicas)
        ]
    )


@pytest.mark.parametrize("replicas", [100, 901])
@pytest.mark.parametrize("name", ["gini-grid7", "coordinate-rademacher", "product-gaussian"])
def test_replicate_equals_per_replica_loop(name, replicas):
    # 100 replicas fit in one draw batch; 901 is no multiple of any batch
    config = _config(name, replicas)
    np.testing.assert_array_equal(replicate(config), _per_replica(config))


@pytest.mark.parametrize("name", ["gini-grid7", "coordinate-n3", "product-gaussian"])
def test_batch_size_does_not_change_results(monkeypatch, name):
    config = _config(name, 101, seed=2024)
    runs = []
    for chunk in (1, 7, DEFAULT_CHUNK):
        monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", chunk)
        runs.append(replicate(config))
    for other in runs[1:]:
        np.testing.assert_array_equal(runs[0], other)


def test_running_max_norms_without_batch_evaluator():
    kernel = coordinate_kernel()
    loop_only = KernelSpec(arity=1, codomain=kernel.codomain, eval_one=kernel.eval_one)
    samples = np.random.default_rng(3).normal(size=(5, 9))
    np.testing.assert_array_equal(
        running_max_norms(loop_only, samples), running_max_norms(kernel, samples)
    )
