"""Peak memory of the exact decomposition's `complete` calls, counted in
arrays of T = C(n, 2) float64 or int64 rows (`tracemalloc`, which sees every
numpy buffer): centered gini on the 64-point grid, n = 400."""

import math
import tracemalloc

import numpy as np
import pytest

from ustatlab import hoeffding, ustats
from ustatlab.distributions import FiniteDistribution
from ustatlab.kernels import centered, gini

N = 400
T_BYTES = 8 * math.comb(N, 2)
LAW = FiniteDistribution.uniform_grid(64)
KERNEL = centered(gini(), LAW)
SAMPLE = LAW.atoms[np.random.default_rng(400).integers(0, LAW.size, N)]


def _peak_arrays(call) -> float:
    """Peak of the memory `call` holds at once, in T-row arrays."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / T_BYTES
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture
def cached_columns():
    ustats.complete(KERNEL, SAMPLE)  # the pair columns are then cached


def test_centered_gini_on_cached_columns_holds_three_arrays(cached_columns):
    """The two gathered columns, and one difference array that gini takes
    |.| in and centering subtracts the mean in."""
    assert _peak_arrays(lambda: ustats.complete(KERNEL, SAMPLE)) < 3.25


def test_the_atom_kernel_holds_four_arrays(cached_columns):
    """Two gathered columns of atom indices, one flat intp index and the
    values read at it."""
    atoms = LAW.index_of(SAMPLE).astype(np.float64)
    kernel = hoeffding._atom_kernel(hoeffding.project(KERNEL, LAW, 2))
    assert _peak_arrays(lambda: ustats.complete(kernel, atoms)) < 4.25


def test_building_the_columns_then_complete_holds_five_arrays():
    """The two cached pair columns, built without a gather, plus the three
    arrays of `complete`."""
    ustats._lex_columns.cache_clear()
    assert _peak_arrays(lambda: ustats.complete(KERNEL, SAMPLE)) < 5.25
