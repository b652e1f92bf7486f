"""The tail scan's atom-count route and product recurrence against the tuple
gather, bit for bit.

On a finite law with an integer kernel table, `replicate` draws atom indices
and reads the running maxima from the table (`ustats._table_running_max`)
instead of gathering and evaluating every pair. The real product kernel on
integer atoms runs ahead of it on the elementary-symmetric recurrence
(`ustats._product_running_max`). `ustats._atom_route` chooses between them.
Every partial sum is then an exact integer, so both must give the gather's
bytes.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatlab import kernels, montecarlo, ustats
from ustatlab.distributions import (
    FiniteDistribution,
    SamplerSpec,
    draw_atoms_batch,
    draw_iid,
    mix_ids,
    mix_ids_batch,
)
from ustatlab.hilbert import HilbertSpace, row_norms, squared_row_norms
from ustatlab.kernels import KernelSpec, _atom_table, centered, gini, product
from ustatlab.montecarlo import ExperimentConfig, replicate, tail_scan
from ustatlab.ustats import (
    _atom_route,
    _product_running_max,
    _table_running_max,
    running_max_norms,
)

DEFAULT_CHUNK = montecarlo._CHUNK_VALUES
STREAMS = mix_ids_batch(11, np.arange(40))


def lookup_kernel(atoms, table, symmetric) -> KernelSpec:
    """The arity-2 kernel whose value at (atom a, atom b) is table[a, b].

    atoms must be sorted, so each argument finds its atom by searchsorted.
    """
    atoms = np.asarray(atoms, dtype=np.float64)

    def batch(u, v):
        return table[np.searchsorted(atoms, u), np.searchsorted(atoms, v)]

    return KernelSpec(
        arity=2,
        codomain=HilbertSpace.euclidean(table.shape[-1]),
        eval_batch=batch,
        symmetric=symmetric,
        name="lookup",
    )


def _product_lookup(atoms) -> KernelSpec:
    """`lookup_kernel` on the product's table over the sorted atoms."""
    atoms = np.asarray(atoms, dtype=np.float64)
    return lookup_kernel(atoms, np.multiply.outer(atoms, atoms)[..., None], True)


def _law(atoms) -> FiniteDistribution:
    return FiniteDistribution(np.array(atoms, dtype=np.float64), np.full(len(atoms), 1.0 / len(atoms)))


def _cases(seed=0):
    rng = np.random.default_rng(9)
    wide = rng.integers(-5, 6, size=(3, 3, 2))
    tilted = rng.integers(-7, 8, size=(3, 3, 1))
    assert not np.array_equal(tilted, tilted.transpose(1, 0, 2))
    three = _law([-1.0, 0.5, 2.0])
    pm12 = _law([-2, -1, 1, 2])
    return {
        "product-rademacher": (product(), SamplerSpec(kind="rademacher", seed_stream=seed)),
        "product-pm12": (product(), SamplerSpec(kind="finite", dist=pm12, seed_stream=seed)),
        # the product's own tables, read by a kernel the recurrence does not know
        "table-rademacher": (_product_lookup([-1.0, 1.0]), SamplerSpec(kind="rademacher", seed_stream=seed)),
        "table-pm12": (_product_lookup(pm12.atoms), SamplerSpec(kind="finite", dist=pm12, seed_stream=seed)),
        "table-dim2": (
            lookup_kernel(three.atoms, (wide + wide.transpose(1, 0, 2)).astype(float), True),
            SamplerSpec(kind="finite", dist=three, seed_stream=seed),
        ),
        "asymmetric": (
            lookup_kernel(three.atoms, tilted.astype(float), False),
            SamplerSpec(kind="finite", dist=three, seed_stream=seed),
        ),
    }


CASES = list(_cases())


def _draw(name, n, streams=STREAMS):
    """The case's kernel, its (A, A, dim) table, and atom indices with their values."""
    kernel, sampler = _cases()[name]
    support = sampler.finite_support()
    atoms = draw_atoms_batch(sampler, n, streams)
    table = _atom_table(kernel, support).reshape(support.size, support.size, -1)
    return kernel, table, atoms, support.atoms[atoms]


def _config(name, n, replicas, seed=800):
    kernel, sampler = _cases(seed)[name]
    return ExperimentConfig(kernel=kernel, sampler=sampler, sample_size=n, replicas=replicas)


def _route(name) -> str:
    """The route `replicate` takes on a case: the product kernel's recurrence, or the count route."""
    return "recurrence" if name.startswith("product") else "count"


def _spies(monkeypatch):
    """Count calls to the recurrence, the count route and the gather inside `replicate`."""
    calls = {"recurrence": 0, "count": 0, "gather": 0}
    routes = (
        ("recurrence", ustats, "_product_running_max"),
        ("count", ustats, "_table_running_max"),
        ("gather", montecarlo, "running_max_norms"),
    )
    for key, module, name in routes:
        original = getattr(module, name)

        def spy(*args, _key=key, _original=original):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, spy)
    return calls


def _only(calls, route) -> bool:
    """Whether `replicate` ran `route` and no other."""
    return calls[route] >= 1 and sum(calls.values()) == calls[route]


def _gather_replicate(monkeypatch, config):
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_atom_route", lambda *args: None)
        return replicate(config)


def _counted(kernel, table, atoms) -> np.ndarray:
    """The count route's running maxima of replica-major (R, n) atom indices."""
    return _table_running_max(table, atoms.T, kernel.codomain)


@pytest.mark.parametrize("n", [2, 3, 40, 161])
@pytest.mark.parametrize("name", CASES)
def test_table_running_max_equals_the_gather(name, n):
    kernel, table, atoms, values = _draw(name, n)
    counted = _counted(kernel, table, atoms)
    assert counted.shape == (STREAMS.size,)
    assert counted.tobytes() == running_max_norms(kernel, values).tobytes()


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("name", CASES)
def test_table_running_max_equals_a_brute_force_loop(name, n):
    kernel, table, atoms, _ = _draw(name, n, STREAMS[:8])
    counted = _counted(kernel, table, atoms)
    for r, x in enumerate(atoms):
        norms = []
        for stop in range(2, n + 1):
            total = np.zeros(table.shape[-1])
            for i, j in itertools.combinations(range(stop), 2):
                total = total + table[x[i], x[j]]
            norms.append(row_norms(kernel.codomain, total))
        assert counted[r] == max(norms)


@pytest.fixture
def small_cap(monkeypatch):
    """Run the gather above `_MATERIALIZE_CAP`: one sample at a time, in pieces of whole last-index groups."""
    monkeypatch.setattr(ustats, "_MATERIALIZE_CAP", 20)
    monkeypatch.setattr(ustats, "_CHUNK", 9)
    ustats._lex_columns.cache_clear()
    ustats._grouped_columns.cache_clear()


@pytest.mark.parametrize("name", CASES)
def test_count_path_equals_the_gather_above_the_cap(small_cap, monkeypatch, name):
    kernel, table, atoms, values = _draw(name, 40)
    assert len(list(ustats._index_pieces(2, 40, lex=False))) > 1
    np.testing.assert_array_equal(_counted(kernel, table, atoms), running_max_norms(kernel, values))
    config = _config(name, 40, 101)
    np.testing.assert_array_equal(replicate(config), _gather_replicate(monkeypatch, config))


@pytest.mark.parametrize("chunk", [1, 7, pytest.param(DEFAULT_CHUNK, id="default")])
@pytest.mark.parametrize("n", [40, 161])
@pytest.mark.parametrize("name", CASES)
def test_replicate_on_counts_equals_the_gather(monkeypatch, name, n, chunk):
    config = _config(name, n, 101 if n == 40 else 100)
    want = _gather_replicate(monkeypatch, config)
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", chunk)
    calls = _spies(monkeypatch)
    got = replicate(config)
    assert _only(calls, _route(name))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("replicas, chunk", [(101, 600), pytest.param(2500, 2**14, id="2500-2**14")])
@pytest.mark.parametrize("name", CASES)
def test_count_route_equals_the_per_replica_oracle(monkeypatch, name, replicas, chunk):
    # at N = 40 both chunks draw 2 * chunk // 40 replicas a batch, 30 and 819,
    # so both leave at least three batches, the last one partial, which runs
    # on prefixes of the first batch's buffers
    config = _config(name, 40, replicas)
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", chunk)
    calls = _spies(monkeypatch)
    got = replicate(config)
    assert _only(calls, _route(name)) and calls[_route(name)] >= 3
    samples = (draw_iid(config.sampler, 40, mix_ids(montecarlo._ROLE_DATA, r)) for r in range(replicas))
    want = [ustats.running_max(config.kernel, s).max_norm for s in samples]
    assert got.tobytes() == np.array(want).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    size=st.integers(1, 5),
    dim=st.integers(1, 3),
    n=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_integer_tables_match_the_gather(size, dim, n, seed):
    rng = np.random.default_rng(seed)
    table = rng.integers(-8, 9, size=(size, size, dim)).astype(np.float64)
    atoms = np.arange(size, dtype=np.float64)
    kernel = lookup_kernel(atoms, table, symmetric=False)
    idx = rng.integers(0, size, size=(6, n))
    assert _counted(kernel, table, idx).tobytes() == running_max_norms(kernel, atoms[idx]).tobytes()


def _cumsum_prefix_sums(table, atoms):
    """The count route written with `np.cumsum` along the sample axis."""
    rows = np.arange(len(atoms))[:, None]
    seen = np.cumsum(table[atoms[:, :-1]], axis=1)  # (R, n - 1, A, dim): rows x_0..x_j
    steps = seen[rows, np.arange(atoms.shape[1] - 1), atoms[:, 1:]]
    return np.cumsum(steps, axis=1)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(1, 5),
    dim=st.sampled_from([1, 2, 3, 8, 9, 13]),
    n=st.integers(2, 60),
    samples=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_float_tables_sum_in_cumsum_order(size, dim, n, samples, seed):
    # no integer table: any other order of adding would change the bits. From
    # dim 8 each squared norm is a pairwise reduce of its replica's row, as
    # on a stack of prefix statistics
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((size, size, dim)) * 10.0 ** rng.integers(-8, 9, size=(size, size, 1))
    space = HilbertSpace(dim=dim, weights=rng.uniform(0.1, 3.0, size=dim))
    atoms = rng.integers(0, size, size=(samples, n))
    want = np.sqrt(squared_row_norms(space, _cumsum_prefix_sums(table, atoms)).max(axis=1))
    assert _table_running_max(table, atoms.T, space).tobytes() == want.tobytes()


def _fallbacks():
    grid7 = FiniteDistribution.uniform_grid(7)
    # C(40, 2) * 2**44 >= 2**53: partial sums could round
    huge = lookup_kernel([-1.0, 1.0], np.array([[2.0**44, -(2.0**44)], [-(2.0**44), 2.0**44]])[..., None], True)
    return {
        "non-integer": (centered(gini(), grid7), SamplerSpec(kind="uniform-grid", grid_points=7, seed_stream=3)),
        "sum-bound": (huge, SamplerSpec(kind="rademacher", seed_stream=3)),
        # (40 - 1) * 30 * 1 >= C(40, 2) = 780: the gather touches fewer values
        "too-many-atoms": (
            _product_lookup(range(-15, 15)),
            SamplerSpec(kind="finite", dist=_law(range(-15, 15)), seed_stream=3),
        ),
    }


@pytest.mark.parametrize("name", list(_fallbacks()))
def test_other_tables_take_the_gather(monkeypatch, name):
    kernel, sampler = _fallbacks()[name]
    config = ExperimentConfig(kernel=kernel, sampler=sampler, sample_size=40, replicas=100)
    calls = _spies(monkeypatch)
    replicate(config)
    assert _only(calls, "gather")


def _routed(kernel, law: FiniteDistribution, n: int = 40) -> bool:
    """Whether `_atom_route` reads the kernel's running maxima from atom indices."""
    return _atom_route(kernel, law, n, 1) is not None


def test_the_atom_count_rule_is_strict():
    # at N = 40, 19 atoms touch 39 * 19 = 741 values, under C(40, 2) = 780; 20 touch 780
    for size, counted in ((19, True), (20, False)):
        assert _routed(_product_lookup(range(size)), _law(range(size))) == counted
    # 780 * max|H| must stay below 2**53, which 780 does not divide
    for entry, counted in ((2**53 // 780, True), (2**53 // 780 + 1, False)):
        kernel = lookup_kernel([-1.0, 1.0], np.full((2, 2, 1), float(entry)), True)
        assert _routed(kernel, FiniteDistribution.rademacher()) == counted


@pytest.mark.parametrize("kernel", [product(), _product_lookup([-1, 0, 1])], ids=["product", "table"])
def test_a_law_with_zero_takes_its_route(monkeypatch, kernel):
    # the product on atoms {-1, 0, 1} has h(-1, 0) = -0, which no norm sees:
    # the product kernel runs on the recurrence, its table on the count path
    law = SamplerSpec(kind="finite", dist=_law([-1, 0, 1]), seed_stream=5)
    table = _atom_table(kernel, law.dist)
    assert _routed(kernel, law.dist) and np.any(np.signbit(table) & (table == 0))
    config = ExperimentConfig(kernel=kernel, sampler=law, sample_size=40, replicas=300)
    want = _gather_replicate(monkeypatch, config)
    calls = _spies(monkeypatch)
    assert replicate(config).tobytes() == want.tobytes()
    assert _only(calls, "recurrence" if kernel.name == "product" else "count")


def test_a_tail_scan_builds_the_atom_table_once(monkeypatch):
    calls = []

    def counted(kernel, dist):
        calls.append(dist.size)
        return _atom_table(kernel, dist)

    for module in (kernels, montecarlo, ustats):
        monkeypatch.setattr(module, "_atom_table", counted)
    config = ExperimentConfig(
        kernel=product(), sampler=SamplerSpec(kind="rademacher", seed_stream=3), sample_size=40, replicas=100,
        x_grid=np.array([0.5, 1.0]),
    )
    spies = _spies(monkeypatch)
    tail_scan(config)
    assert calls == [2] and _only(spies, "recurrence")


# ---------------------------------------------------------------------------
# The product kernel's elementary-symmetric recurrence


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(2, 6),
    extra=st.integers(0, 9),
    top=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_recurrence_equals_the_gather_on_integer_samples(m, extra, top, seed):
    # n = m up to m + 9 covers arities above n / 2, where low orders stop early
    n = m + extra
    values = np.random.default_rng(seed).integers(-top, top + 1, size=(7, n)).astype(np.float64)
    got = _product_running_max(np.ascontiguousarray(values.T), m)
    assert got.tobytes() == running_max_norms(product(arity=m), values).tobytes()


@pytest.mark.parametrize("chunk", [1, 7, pytest.param(DEFAULT_CHUNK, id="default")])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_the_recurrence_gives_the_gather_bytes_at_every_arity(monkeypatch, m, chunk):
    # at n = 6 a chunk of 7 draws two replicas a batch and the default 21,845,
    # so both replica counts leave a partial last batch
    replicas = 101 if chunk < DEFAULT_CHUNK else 30_000
    config = ExperimentConfig(
        kernel=product(arity=m), sampler=SamplerSpec(kind="finite", dist=_law([-2, -1, 1, 3]), seed_stream=17),
        sample_size=6, replicas=replicas,
    )
    want = _gather_replicate(monkeypatch, config)
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", chunk)
    sizes = []
    original = montecarlo.atom_blocks

    def blocks(*args):
        for block in original(*args):
            sizes.append(len(block))
            yield block

    monkeypatch.setattr(montecarlo, "atom_blocks", blocks)
    calls = _spies(monkeypatch)
    got = replicate(config)
    assert _only(calls, "recurrence") and sum(sizes) == replicas
    assert chunk == 1 or 0 < sizes[-1] < sizes[0]
    assert got.tobytes() == want.tobytes()


def _off_the_rule():
    # C(40, 2) * (2**22)**2 and C(40, 3) * (2**15)**3 are at least 2**53
    return {
        "grid7-m2": (product(), SamplerSpec(kind="uniform-grid", grid_points=7, seed_stream=3)),
        "grid7-m3": (product(arity=3), SamplerSpec(kind="uniform-grid", grid_points=7, seed_stream=3)),
        "sum-bound-m2": (product(), SamplerSpec(kind="finite", dist=_law([-(2**22), 2**22]), seed_stream=3)),
        "sum-bound-m3": (product(arity=3), SamplerSpec(kind="finite", dist=_law([-(2**15), 2**15]), seed_stream=3)),
    }


@pytest.mark.parametrize("name", list(_off_the_rule()))
def test_laws_off_the_rule_keep_the_gather(monkeypatch, name):
    kernel, sampler = _off_the_rule()[name]
    config = ExperimentConfig(kernel=kernel, sampler=sampler, sample_size=40, replicas=100)
    calls = _spies(monkeypatch)
    got = replicate(config)
    assert _only(calls, "gather")
    samples = np.stack([draw_iid(sampler, 40, mix_ids(montecarlo._ROLE_DATA, r)) for r in range(100)])
    assert got.tobytes() == ustats.running_max_norms(kernel, samples).tobytes()


def test_the_recurrence_rule_is_strict():
    # C(40, 3) * max|x|**3 must stay below 2**53
    top = max(b for b in range(1, 10_000) if 9880 * b**3 < 2**53)
    for bound, taken in ((top, True), (top + 1, False)):
        assert _routed(product(arity=3), _law([-bound, 1, bound])) == taken
    assert not _routed(product(arity=3), _law([-0.5, 0.5]))


def test_a_product_by_name_alone_takes_the_count_route(monkeypatch):
    # the recurrence knows the product kernel by its evaluator, not its name
    named = KernelSpec(
        arity=2, codomain=HilbertSpace.euclidean(1), eval_batch=lambda u, v: u * v,
        symmetric=True, declared_degeneracy=2, name="product",
    )
    sampler = SamplerSpec(kind="rademacher", seed_stream=9)
    configs = [
        ExperimentConfig(kernel=k, sampler=sampler, sample_size=40, replicas=300)
        for k in (named, product())
    ]
    calls = _spies(monkeypatch)
    got = replicate(configs[0])
    assert _only(calls, "count")
    assert got.tobytes() == replicate(configs[1]).tobytes()


def test_a_tail_scan_above_the_enumeration_cap_runs_on_the_recurrence(monkeypatch):
    # C(900, 3) = 120,629,300 tuples per replica: more than the gather may enumerate
    assert ustats.inc_count(3, 900) > ustats.ENUMERATION_CAP
    config = ExperimentConfig(
        kernel=product(arity=3), sampler=SamplerSpec(kind="rademacher", seed_stream=3), sample_size=900,
        replicas=100, x_grid=np.array([0.5, 1.0, 2.0]),
    )
    calls = _spies(monkeypatch)
    report = tail_scan(config)
    assert _only(calls, "recurrence")
    assert report.degeneracy == 3 and report.normalization == 900.0**1.5
    assert 0.0 < report.p_hat[0] <= 1.0


@pytest.mark.parametrize("name", ["product-rademacher", "table-dim2"])
def test_every_full_batch_reaches_its_route_c_contiguous(monkeypatch, name):
    # 2,500 replicas at N = 40 in batches of 819: three full batches and a
    # partial one. The route and the running maximum it runs must each read
    # a C-contiguous step-major (N, B) block, not a transposed view.
    config = _config(name, 40, 2500)
    monkeypatch.setattr(montecarlo, "_CHUNK_VALUES", 2**14)
    seen = {"route": [], "recurrence": [], "count": []}

    def record(key, original, at=0):
        def spy(*args):
            seen[key].append((args[at].shape, args[at].flags.c_contiguous))
            return original(*args)

        return spy

    monkeypatch.setattr(montecarlo, "_atom_route", lambda *args: record("route", _atom_route(*args)))
    monkeypatch.setattr(ustats, "_product_running_max", record("recurrence", _product_running_max))
    monkeypatch.setattr(ustats, "_table_running_max", record("count", _table_running_max, at=1))
    replicate(config)
    used = seen[_route(name)]
    assert [s for s, _ in seen["route"]] == [s for s, _ in used] == [(40, 819)] * 3 + [(40, 43)]
    assert all(c for _, c in seen["route"] + used)
    assert not seen["count" if _route(name) == "recurrence" else "recurrence"]
