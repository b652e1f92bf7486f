"""Difference-sequence generators and the deviation-inequality checks."""

import dataclasses

import numpy as np
import pytest

from helpers import step_tail_integral_oracle, summarize_oracle
from ustatlab import cli, martingale
from ustatlab.confidence import _Z95, mean_interval, wilson_bounds
from ustatlab.distributions import mix_ids, substream
from ustatlab.hilbert import HilbertSpace
from ustatlab.martingale import (
    MartingalePath,
    _step_tail_integral,
    _tail_triples,
    check_conv_tail_lemma,
    check_hilbert_inequality,
    check_real_inequality,
    conv_pair_from_paths,
    simulate_ensemble,
    simulate_mds,
    simulate_summaries,
    summarize,
    verify_conv_grid,
    verify_grid,
    verify_pairs,
)

line = HilbertSpace.euclidean(1)
plane = HilbertSpace.euclidean(2)


def _substream(seed):
    return np.random.default_rng(seed)


class TestGenerators:
    def test_bounded_signs_structure(self):
        path = simulate_mds("bounded-signs", 64, line, _substream(1))
        assert set(np.unique(path.increments)) <= {-1.0, 1.0}
        np.testing.assert_array_equal(path.cond_second_moments, np.ones(64))
        assert path.f0_measurable

    def test_bounded_signs_quadratic_identity(self):
        """Squared increments plus conditional moments telescope to 2n."""
        path = simulate_mds("bounded-signs", 50, line, _substream(2))
        total = float((path.increments**2).sum() + path.cond_second_moments.sum())
        assert total == 100.0

    def test_bounded_signs_needs_a_real_line(self):
        with pytest.raises(ValueError, match="dim-1"):
            simulate_mds("bounded-signs", 8, plane, _substream(3))

    def test_gaussian_coords_shape(self):
        path = simulate_mds("gaussian-coords", 12, plane, _substream(4))
        assert path.increments.shape == (12, 2)
        np.testing.assert_allclose(path.cond_second_moments, 2.0)

    def test_randomized_scale_is_frozen_at_time_zero(self):
        a = simulate_mds("f0-randomized-scale", 20, plane, _substream(5))
        b = simulate_mds("f0-randomized-scale", 20, plane, _substream(6))
        assert np.ptp(a.cond_second_moments) == 0.0
        assert a.f0_measurable
        assert a.cond_second_moments[0] != b.cond_second_moments[0]

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="generator"):
            simulate_mds("drift", 8, line, _substream(7))

    def test_increments_are_centered(self):
        paths = simulate_ensemble("bounded-signs", 5, line, master_seed=11, count=10_000)
        firsts = np.array([p.increments[0, 0] for p in paths])
        assert abs(firsts.mean()) <= 4.0 / np.sqrt(firsts.size)

    def test_path_validation(self):
        with pytest.raises(ValueError, match="shape"):
            MartingalePath(np.zeros((4, 3)), np.ones(4), True, plane)
        with pytest.raises(ValueError, match="per step"):
            MartingalePath(np.zeros((4, 2)), np.ones(3), True, plane)


@pytest.fixture(scope="module")
def sign_paths():
    return simulate_ensemble("bounded-signs", 100, line, master_seed=303, count=3000)


class TestRealInequality:
    def test_moderate_threshold(self, sign_paths):
        entry = check_real_inequality(sign_paths, x=30.0, y=20.0)
        assert entry.rhs >= 2.0 * np.exp(-2.25) - 1e-12
        assert entry.lhs < entry.rhs
        assert not entry.violated

    def test_tiny_threshold_is_trivially_satisfied(self, sign_paths):
        entry = check_real_inequality(sign_paths, x=1e-9, y=20.0)
        assert entry.lhs == 1.0
        assert entry.rhs >= 2.0
        assert not entry.violated

    def test_deterministic_budget_hits_the_pure_exponential_regime(self, sign_paths):
        """At y^2 = 4n the quadratic tail term is exactly zero."""
        entry = check_real_inequality(sign_paths, x=30.0, y=20.0)
        assert entry.rhs == pytest.approx(2.0 * np.exp(-2.25), rel=1e-12)
        assert entry.rhs_lo == pytest.approx(entry.rhs, rel=1e-12)

    def test_needs_real_paths(self):
        paths = simulate_ensemble("gaussian-coords", 10, plane, master_seed=1, count=50)
        with pytest.raises(ValueError, match="real-valued"):
            check_real_inequality(paths, 1.0, 1.0)

    def test_grid_has_no_violations(self, sign_paths):
        xs = np.linspace(5.0, 25.0, 4)
        ys = np.linspace(12.0, 30.0, 4)
        report = verify_grid(sign_paths, xs, ys, "real")
        assert report.violations == 0
        assert len(report.entries) == 16


class TestHilbertInequalities:
    def test_a2_cross_checks_the_real_entry_on_shared_paths(self, sign_paths):
        real = check_real_inequality(sign_paths, x=25.0, y=18.0)
        a2 = check_hilbert_inequality(sign_paths, x=25.0, y=18.0, variant="A2")
        assert a2.lhs == real.lhs
        assert not a2.violated
        assert not real.violated

    def test_a2_grid_on_plane_paths(self):
        paths = simulate_ensemble("gaussian-coords", 50, plane, master_seed=7, count=2000)
        report = verify_grid(
            paths, np.linspace(4.0, 30.0, 4), np.linspace(12.0, 36.0, 4), "A2"
        )
        assert report.violations == 0

    def test_a3_requires_time_zero_moments(self):
        space = line
        rng = _substream(9)
        paths = [
            MartingalePath(rng.normal(size=(10, 1)), np.ones(10), False, space)
            for _ in range(120)
        ]
        with pytest.raises(ValueError, match="time zero"):
            check_hilbert_inequality(paths, 2.0, 2.0, variant="A3")
        with pytest.raises(ValueError, match="time zero"):
            verify_pairs(paths, [(2.0, 2.0)], "A3")

    def test_a3_grid_on_randomized_scale_paths(self):
        paths = simulate_ensemble(
            "f0-randomized-scale", 40, plane, master_seed=13, count=1500
        )
        report = verify_grid(
            paths, np.linspace(6.0, 40.0, 4), np.linspace(16.0, 40.0, 4), "A3"
        )
        assert report.violations == 0

    def test_a3_integral_term_shrinks_with_the_scale(self):
        paths = simulate_ensemble("gaussian-coords", 30, plane, master_seed=17, count=1500)
        x = 10.0
        terms = []
        for y in (8.0, 12.0, 16.0, 24.0):
            entry = check_hilbert_inequality(paths, x, y, variant="A3")
            terms.append(entry.rhs - 4.0 * np.exp(-(x * x) / (y * y)))
        diffs = np.diff(terms)
        assert np.all(diffs <= 1e-12)

    def test_unknown_variant(self, sign_paths):
        with pytest.raises(ValueError, match="variant"):
            check_hilbert_inequality(sign_paths, 1.0, 1.0, variant="A9")


class TestConvTailLemma:
    def test_constant_pair_closed_form(self):
        c = 6.0
        samples = np.full(500, c)
        entry = check_conv_tail_lemma(samples, samples, t=2.0)
        assert entry.rhs == pytest.approx(4.0 * c / 2.0 - 1.0)
        assert entry.lhs == 1.0
        assert not entry.violated

    def test_thresholds_beyond_the_support_are_all_zero(self):
        c = 6.0
        samples = np.full(500, c)
        entry = check_conv_tail_lemma(samples, samples, t=4.0 * c + 1.0)
        assert entry.lhs == 0.0
        assert entry.rhs == 0.0
        assert not entry.violated

    def test_canonical_pair_on_sign_paths(self, sign_paths):
        x_samples, y_samples = conv_pair_from_paths(sign_paths)
        np.testing.assert_array_equal(x_samples, np.full(len(sign_paths), 200.0))
        np.testing.assert_array_equal(y_samples, np.full(len(sign_paths), 200.0))
        report = verify_conv_grid(sign_paths, np.geomspace(20.0, 1000.0, 8))
        assert report.violations == 0

    def test_rejects_nonpositive_thresholds(self):
        with pytest.raises(ValueError):
            check_conv_tail_lemma(np.ones(10), np.ones(10), t=0.0)


def test_verify_pairs_summary_counts(sign_paths):
    report = verify_pairs(sign_paths, [(10.0, 15.0), (20.0, 25.0)], "real")
    assert report.variant == "real"
    assert report.replicas == len(sign_paths)
    assert report.violations == 0
    assert all(0.0 <= e.lhs <= 1.0 for e in report.entries)


def _gaussian_sqrt_quad():
    paths = simulate_ensemble("gaussian-coords", 50, plane, master_seed=501, count=4000)
    return summarize(paths).sqrt_quad


def _rows(report):
    return np.array([dataclasses.astuple(e) for e in report.entries])


class TestStepTailIntegral:
    """The array pass against the piece-by-piece loop, bit for bit."""

    CASES = {
        "ties": (lambda: np.random.default_rng(5).integers(0, 40, size=3000) / 4.0, 0.5, 25.0),
        "empty-interior": (lambda: np.random.default_rng(6).uniform(0.0, 2.0, size=500), 2.0, 2.0),
        "single-sample": (lambda: np.array([3.7]), 1.0, 8.0),
        "at-u-max": (lambda: np.array([10.0, 10.0, 4.0, 7.5, 1.0, 12.0]), 2.0, 5.0),
        "no-pieces": (lambda: np.array([0.5, 3.0]), 1.0, 1.0),
        "gaussian-ensemble": (_gaussian_sqrt_quad, 2.5, None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_the_loop(self, case):
        make, scale, u_max = self.CASES[case]
        samples = make()
        if u_max is None:
            u_max = max(2.0, 2.0 * float(samples.max()) / scale)
        got = _step_tail_integral(samples, scale, u_max)
        expected = step_tail_integral_oracle(samples, scale, u_max, _Z95)
        np.testing.assert_array_equal(np.array(got), np.array(expected))
        assert got[1] <= got[0] <= got[2]


class TestSummaries:
    """Stacked, batched summaries against the path-by-path reference."""

    @staticmethod
    def _ragged():
        long = simulate_ensemble("f0-randomized-scale", 50, plane, master_seed=21, count=300)
        short = simulate_ensemble("f0-randomized-scale", 13, plane, master_seed=22, count=200)
        # runs of each length, so batches end where the step count changes
        return long[:90] + short[:7] + long[90:91] + short[7:] + long[91:]

    @pytest.mark.parametrize("batch_values", [1, 7, martingale._BATCH_VALUES])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_batches_match_the_reference(self, monkeypatch, batch_values, ragged):
        paths = (
            self._ragged()
            if ragged
            else simulate_ensemble("gaussian-coords", 50, plane, master_seed=501, count=1000)
        )
        monkeypatch.setattr(martingale, "_BATCH_VALUES", batch_values)
        s = summarize(paths)
        expected = summarize_oracle(paths)
        for got, want in zip((s.max_partial_norm, s.quad_plus_cond, s.sqrt_quad), expected):
            np.testing.assert_array_equal(got, want)
        assert s.f0_all and not s.real_valued

    def test_summaries_stand_in_for_the_paths(self, sign_paths):
        s = summarize(sign_paths)
        pairs = [(10.0, 15.0), (20.0, 25.0)]
        reports = [
            (verify_pairs(s, pairs, v), verify_pairs(sign_paths, pairs, v))
            for v in ("real", "A2", "A3")
        ]
        grid = np.geomspace(20.0, 1000.0, 4)
        reports.append((verify_conv_grid(s, grid), verify_conv_grid(sign_paths, grid)))
        for got, want in reports:
            assert got.replicas == want.replicas == len(sign_paths)
            np.testing.assert_array_equal(_rows(got), _rows(want))

    def test_space_check(self):
        paths = simulate_ensemble("gaussian-coords", 5, plane, master_seed=3, count=4)
        rng = _substream(4)
        twin = simulate_mds("gaussian-coords", 5, HilbertSpace.euclidean(2), rng)
        summarize(paths + [twin])
        other = simulate_mds("gaussian-coords", 5, HilbertSpace(2, np.array([1.0, 2.0])), rng)
        with pytest.raises(ValueError, match="different spaces"):
            summarize(paths + [other])


class TestA3Integral:
    """A3's tail integral depends on y only: one evaluation per distinct y."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        original = martingale._step_tail_integral

        def counted(samples, scale, u_max):
            calls.append(scale)
            return original(samples, scale, u_max)

        monkeypatch.setattr(martingale, "_step_tail_integral", counted)
        return calls

    def test_grid_evaluates_one_integral_per_y(self, monkeypatch):
        paths = simulate_ensemble("gaussian-coords", 20, plane, master_seed=8, count=300)
        xs, ys = np.linspace(1.0, 8.0, 5), np.linspace(2.0, 12.0, 4)
        calls = self._counted(monkeypatch)
        report = verify_grid(paths, xs, ys, "A3")
        assert len(calls) == ys.size
        cells = [check_hilbert_inequality(paths, x, y, "A3") for x in xs for y in ys]
        expected = np.array([dataclasses.astuple(e) for e in cells])
        np.testing.assert_array_equal(_rows(report), expected)

    def test_repeated_pairs_share_their_integral(self, monkeypatch):
        paths = simulate_ensemble("gaussian-coords", 20, plane, master_seed=9, count=200)
        pairs = [(1.0, 3.0), (2.0, 5.0), (4.0, 3.0), (1.0, 5.0), (6.0, 7.0)]
        calls = self._counted(monkeypatch)
        verify_pairs(paths, pairs, "A3")
        assert len(calls) == 3


# (kind, dim) pairs every generator allows, over dims 1, 2 and 3
KIND_DIMS = [("bounded-signs", 1)] + [
    (kind, dim) for kind in ("gaussian-coords", "f0-randomized-scale") for dim in (1, 2, 3)
]
SEED, BASE = 2**63 + 41, 2**64 - 3


def _paths_one_by_one(kind, steps, space, count):
    """The ensemble drawn path by path, each on its own substream."""
    return [
        simulate_mds(kind, steps, space, substream(SEED, mix_ids(BASE, r))) for r in range(count)
    ]


class TestEnsembleBlocks:
    """Ensembles drawn block by block against per-path `simulate_mds`."""

    @pytest.mark.parametrize("batch_values", [1, 7, martingale._BATCH_VALUES])
    @pytest.mark.parametrize("count", [1, 7, 1001])
    @pytest.mark.parametrize("kind, dim", KIND_DIMS)
    def test_summaries_match_the_oracle(self, monkeypatch, kind, dim, count, batch_values):
        space = HilbertSpace.euclidean(dim)
        expected = summarize_oracle(_paths_one_by_one(kind, 9, space, count))
        monkeypatch.setattr(martingale, "_BATCH_VALUES", batch_values)
        s = simulate_summaries(kind, 9, space, SEED, count, base_stream=BASE)
        for got, want in zip((s.max_partial_norm, s.quad_plus_cond, s.sqrt_quad), expected):
            np.testing.assert_array_equal(got, want)
        assert s.real_valued == (dim == 1) and s.f0_all

    @pytest.mark.parametrize("batch_values", [7, martingale._BATCH_VALUES])
    @pytest.mark.parametrize("kind, dim", KIND_DIMS)
    def test_ensemble_rows_match_the_paths(self, monkeypatch, kind, dim, batch_values):
        space = HilbertSpace.euclidean(dim)
        expected = _paths_one_by_one(kind, 11, space, 300)
        monkeypatch.setattr(martingale, "_BATCH_VALUES", batch_values)
        got = simulate_ensemble(kind, 11, space, SEED, 300, base_stream=BASE)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g.increments, e.increments)
            np.testing.assert_array_equal(g.cond_second_moments, e.cond_second_moments)
            assert g.f0_measurable and g.space == space

    def test_cli_builds_no_path_objects(self, monkeypatch, tmp_path):
        built = []
        original = MartingalePath.__post_init__

        def spy(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(MartingalePath, "__post_init__", spy)
        cfg = cli.parse_config_text(
            "version: 1\nexperiment: martingale-verify\nseed: 7\nreplicas: 200\n"
            "martingale: {generator: f0-randomized-scale, dim: 2, steps: 10, variants: [A2, A3, conv]}\n"
        )
        assert cli.run("martingale-verify", cfg, out_dir=str(tmp_path)) == 0
        assert built == []

    @pytest.mark.parametrize(
        "kind, steps, dim, count, message",
        [
            ("drift", 5, 1, 10, "unknown generator"),
            ("bounded-signs", 5, 2, 10, "dim-1"),
            ("gaussian-coords", 0, 2, 10, "steps must be positive"),
            ("gaussian-coords", 5, 2, 0, "at least one path"),
        ],
    )
    def test_checks_come_before_any_stream(self, monkeypatch, kind, steps, dim, count, message):
        drawn = []
        monkeypatch.setattr(martingale, "substreams", lambda *args: drawn.append(args))
        monkeypatch.setattr(martingale, "draw_iid_batch", lambda *args: drawn.append(args))
        space = HilbertSpace.euclidean(dim)
        with pytest.raises(ValueError, match=message):
            simulate_summaries(kind, steps, space, SEED, count)
        if count:
            with pytest.raises(ValueError, match=message):
                simulate_ensemble(kind, steps, space, SEED, count)
        assert drawn == []

    def test_cli_rejects_signs_in_the_plane_before_writing(self, tmp_path, capsys):
        config = tmp_path / "signs.yaml"
        config.write_text(
            "version: 1\nexperiment: martingale-verify\nreplicas: 100\n"
            "martingale: {generator: bounded-signs, dim: 2, steps: 5, variants: [A2]}\n"
        )
        out = tmp_path / "out"
        argv = ["martingale-verify", "--config", str(config), "--out", str(out)]
        assert cli.main(argv) == 1
        assert "dim-1" in capsys.readouterr().err
        assert not out.exists()


def _tail_triple_per_cell(values, threshold):
    """One cell's tail probability and Wilson band, counted by comparison."""
    count = np.count_nonzero(values > threshold)
    lo, hi = wilson_bounds(count, values.size)
    return count / values.size, float(lo), float(hi)


def _step_tail_integral_unique(samples, scale, u_max):
    """`_step_tail_integral` with its breakpoints from np.unique of the clipped ratios."""
    samples = np.sort(np.asarray(samples, dtype=np.float64))
    R = samples.size
    points = np.unique(np.clip(samples / scale, 1.0, u_max))
    edges = np.concatenate([[1.0], points[(points > 1.0) & (points < u_max)], [u_max]])
    keep = edges[1:] > edges[:-1]
    a, b = edges[:-1][keep], edges[1:][keep]
    counts = R - np.searchsorted(samples, scale * a, side="right")
    piece = (b * b - a * a) / 2.0
    w_lo, w_hi = wilson_bounds(counts, R)
    terms = np.hstack([np.zeros((3, 1)), np.stack([counts / R, w_lo, w_hi]) * piece])
    return tuple(np.cumsum(terms, axis=1)[:, -1])


def _verify_pairs_per_cell(s, pairs, variant):
    """verify_pairs cell by cell: a comparison count and a Wilson call per
    tail, A3's integral by the np.unique route."""
    c_exp, c_tail, divisor = martingale._BOUNDS[variant]
    rows = []
    for x, y in pairs:
        if variant == "A3":
            scale = y / 8.0
            u_max = max(2.0, 2.0 * float(s.sqrt_quad.max()) / scale)
            tail = _step_tail_integral_unique(s.sqrt_quad, scale, u_max)
        else:
            tail = _tail_triple_per_cell(s.quad_plus_cond, y * y / divisor)
        exp_term = c_exp * np.exp(-(x * x) / (y * y))
        lhs = _tail_triple_per_cell(s.max_partial_norm, x)
        rhs = tuple(exp_term + c_tail * v for v in tail)
        rows.append((x, y, *lhs, *rhs, bool(lhs[1] > rhs[2])))
    return np.array(rows, dtype=np.float64)


class TestTailCounts:
    """Counts from one sort per statistic against per-cell comparisons, bit for bit."""

    @staticmethod
    def _values(seed):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 30, size=997) / 4.0  # many duplicates

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_triples_equal_the_per_cell_counts(self, seed):
        values = self._values(seed)
        rng = np.random.default_rng(seed + 10)
        thresholds = np.concatenate([
            rng.choice(values, 40),  # equal to sample values, duplicated ones among them
            [values.min() - 1.0, values.min(), values.max(), values.max() + 1.0, -np.inf, np.inf],
            rng.uniform(-1.0, 9.0, 40),
        ])
        got = _tail_triples(values, thresholds)
        want = np.array([_tail_triple_per_cell(values, t) for t in thresholds]).T
        assert got.shape == (3, thresholds.size)
        assert got.tobytes() == want.tobytes()
        # below the minimum every value counts, above the maximum none:
        # Wilson's boundary branches
        assert got[0, 40] == 1.0 and got[2, 40] == 1.0
        assert got[0, 43] == 0.0 and got[1, 43] == 0.0

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_step_integral_equals_the_unique_route(self, seed):
        rng = np.random.default_rng(seed)
        scale = 0.75
        # ties, and a share of samples at or below the scale (ratio <= 1)
        samples = np.concatenate([
            rng.integers(0, 40, size=600) / 8.0, np.full(50, scale), rng.uniform(0.0, scale, 80)
        ])
        rng.shuffle(samples)
        for u_max in (1.0, 2.0, 3.5, max(2.0, 2.0 * float(samples.max()) / scale)):
            got = _step_tail_integral(samples, scale, u_max)
            want = _step_tail_integral_unique(samples, scale, u_max)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("variant", ["real", "A2", "A3"])
    def test_verify_pairs_equals_the_per_cell_checks(self, variant):
        space = line if variant == "real" else plane
        kind = "bounded-signs" if variant == "real" else "gaussian-coords"
        s = simulate_summaries(kind, 30, space, master_seed=77, count=1500)
        grid = [(x, y) for x in np.linspace(1.0, 20.0, 7) for y in np.linspace(2.0, 30.0, 6)]
        pairs = grid + [(0.0, 5.0), (100.0, 5.0), (3.0, 6.0), (3.0, 6.0)]
        got = _rows(verify_pairs(s, pairs, variant))
        assert got.tobytes() == _verify_pairs_per_cell(s, pairs, variant).tobytes()

    def test_conv_grid_equals_the_per_cell_checks(self):
        s = simulate_summaries("gaussian-coords", 30, plane, master_seed=78, count=1500)
        x_samples, y_samples = conv_pair_from_paths(s)
        ts = np.geomspace(5.0, 400.0, 9)
        rows = []
        for t in ts:
            lhs = _tail_triple_per_cell(x_samples, t)
            mean, lo, hi = mean_interval(np.maximum(0.0, 4.0 * y_samples / t - 1.0))
            rows.append((t, np.nan, *lhs, mean, max(0.0, lo), hi, lhs[1] > hi))
        got = _rows(verify_conv_grid(s, ts))
        assert got.tobytes() == np.array(rows, dtype=np.float64).tobytes()

    def test_summaries_do_not_depend_on_the_batch_size(self, monkeypatch):
        runs = []
        for batch_values in (1 << 10, martingale._BATCH_VALUES):
            monkeypatch.setattr(martingale, "_BATCH_VALUES", batch_values)
            s = simulate_summaries("f0-randomized-scale", 50, plane, master_seed=79, count=700)
            runs.append((s.max_partial_norm, s.quad_plus_cond, s.sqrt_quad))
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()
