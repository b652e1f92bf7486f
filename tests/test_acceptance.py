"""Acceptance gate: the eight pinned end-to-end criteria.

Each test prints one pass/fail line (visible with pytest -s or on failure)
and enforces the pinned tolerance and runtime budget.
"""

import time

import numpy as np

from helpers import random_scalar_dist, running_max_embedding_check, table_kernel, uniform_three
from ustatlab import martingale, montecarlo
from ustatlab.cli import EXIT_OK, parse_config_text, run
from ustatlab.distributions import FiniteDistribution, SamplerSpec, draw_iid
from ustatlab.hilbert import HilbertSpace
from ustatlab.hoeffding import decomposition_check, degeneracy_order
from ustatlab.kernels import centered, gini, product
from ustatlab.martingale import simulate_ensemble, verify_conv_grid, verify_grid
from ustatlab.montecarlo import (
    ExperimentConfig,
    ScalingCell,
    coordinate_kernel,
    incomplete_scaling_experiment,
    matching_point_compare,
    tail_scan,
)
from ustatlab.ustats import SamplingDesign

line = HilbertSpace.euclidean(1)
rademacher = FiniteDistribution.rademacher()


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_decomposition_identity():
    """50 randomized kernels: projection expansion matches the direct sum."""
    start = time.perf_counter()
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(10_000 + case)
        m = case % 3 + 1
        dist = random_scalar_dist(rng, int(rng.integers(2, 6)))
        kernel = table_kernel(m, dist, rng, dim=int(rng.integers(1, 4)))
        n = int(rng.integers(max(m, 2), 13))
        sample = draw_iid(SamplerSpec(kind="finite", dist=dist, seed_stream=case), n, 0)
        check = decomposition_check(kernel, dist, sample)
        worst = max(worst, check.deviation / (1.0 + check.lhs_norm))
    elapsed = time.perf_counter() - start
    report(
        1,
        "decomposition identity",
        worst <= 1e-10 and elapsed < 10.0,
        f"max relative deviation {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_degeneracy_detection():
    start = time.perf_counter()
    g_rad = degeneracy_order(gini(), rademacher)
    g_uni = degeneracy_order(gini(), uniform_three())
    prod = degeneracy_order(centered(product(), rademacher), rademacher)
    ok = (
        g_rad.order == 2
        and g_uni.order == 1
        and prod.order == 2
        and g_rad.residuals[0] <= 1e-12
        and prod.residuals[0] <= 1e-12
    )
    elapsed = time.perf_counter() - start
    report(
        2,
        "degeneracy detection",
        ok and elapsed < 1.0,
        f"orders {g_rad.order}/{g_uni.order}/{prod.order}, "
        f"vanishing residuals {max(g_rad.residuals[0], prod.residuals[0]):.1e}, {elapsed:.2f}s",
    )


def test_criterion_3_running_max_embedding():
    start = time.perf_counter()
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(20_000 + case)
        m = case % 3 + 1
        dist = random_scalar_dist(rng, int(rng.integers(2, 5)))
        kernel = table_kernel(m, dist, rng, dim=int(rng.integers(1, 4)))
        size = int(rng.integers(m, 11))
        sample = draw_iid(
            SamplerSpec(kind="finite", dist=dist, seed_stream=700 + case), size, 0
        )
        worst = max(worst, running_max_embedding_check(kernel, sample))
    elapsed = time.perf_counter() - start
    report(
        3,
        "running-max embedding",
        worst <= 1e-12 and elapsed < 5.0,
        f"max deviation {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_4_tail_decay_exponents():
    start = time.perf_counter()
    grid = np.geomspace(0.2, 6.0, 24)
    scan2 = tail_scan(
        ExperimentConfig(
            kernel=product(),
            sampler=SamplerSpec(kind="rademacher", seed_stream=2024),
            sample_size=40,
            replicas=100_000,
            x_grid=grid,
        )
    )
    scan1 = tail_scan(
        ExperimentConfig(
            kernel=coordinate_kernel(),
            sampler=SamplerSpec(kind="rademacher", seed_stream=2025),
            sample_size=40,
            replicas=100_000,
            x_grid=grid,
        )
    )
    elapsed = time.perf_counter() - start
    ok = (
        scan2.fit_available
        and abs(scan2.beta - 1.0) <= 0.25
        and scan1.fit_available
        and abs(scan1.beta - 2.0) <= 0.3
        and elapsed < 300.0
    )
    report(
        4,
        "tail-decay exponents",
        ok,
        f"pair-degenerate beta {scan2.beta:.3f} (target 1.0), "
        f"single-argument beta {scan1.beta:.3f} (target 2.0), {elapsed:.1f}s",
    )


def test_criterion_5_martingale_inequalities():
    start = time.perf_counter()
    xs = np.linspace(2.0, 20.0, 10)
    ys = np.linspace(11.0, 38.0, 10)
    ts = np.geomspace(20.0, 1000.0, 10)
    violations = {}

    signs = simulate_ensemble("bounded-signs", 100, line, master_seed=500, count=10_000)
    for variant in ("real", "A2", "A3"):
        violations[f"signs-{variant}"] = verify_grid(signs, xs, ys, variant).violations
    violations["signs-conv"] = verify_conv_grid(signs, ts).violations

    plane = HilbertSpace.euclidean(2)
    gauss = simulate_ensemble("gaussian-coords", 50, plane, master_seed=501, count=10_000)
    for variant in ("A2", "A3"):
        violations[f"gauss-{variant}"] = verify_grid(gauss, xs, ys, variant).violations
    violations["gauss-conv"] = verify_conv_grid(gauss, ts).violations

    elapsed = time.perf_counter() - start
    total = sum(violations.values())
    report(
        5,
        "martingale inequalities",
        total == 0 and elapsed < 180.0,
        f"violations {total} across {len(violations)} suites, {elapsed:.1f}s",
    )


def test_criterion_6_incomplete_scaling():
    start = time.perf_counter()
    cells = [
        ScalingCell(sample_size=n, design=SamplingDesign(kind="with-replacement", size=N))
        for n in (20, 40)
        for N in (100, 1_000, 10_000)
    ]
    scaling = incomplete_scaling_experiment(
        product(),
        SamplerSpec(kind="rademacher", seed_stream=600),
        cells,
        replicas=2_000,
    )
    unbias_ok = all(row.unbias_ok for row in scaling.rows)
    matching = matching_point_compare(
        SamplerSpec(kind="discretized-gaussian", space=line, seed_stream=41),
        sample_size=20,
        size=10,
        replicas=600,
    )
    elapsed = time.perf_counter() - start
    ok = unbias_ok and scaling.spread <= 5.0 and matching.overlap and elapsed < 600.0
    report(
        6,
        "incomplete scaling",
        ok,
        f"quantile spread {scaling.spread:.2f} (bound 5), unbiasedness "
        f"{'ok' if unbias_ok else 'failed'}, matching-point overlap {matching.overlap}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_decoupling_constant(tmp_path):
    start = time.perf_counter()
    cfg = parse_config_text(
        """\
version: 1
experiment: decouple-compare
replicas: 100000
sample_size: 30
seed: 700
kernel:
  name: product
sampler:
  kind: rademacher
x_grid: {start: 0.2, stop: 6.0, points: 24, scale: log}
"""
    )
    status = run("decouple-compare", cfg, out_dir=str(tmp_path))
    import json

    with open(tmp_path / "run_manifest.json") as fh:
        results = json.load(fh)["results"]
    elapsed = time.perf_counter() - start
    fitted = results["fitted_constant"]
    ok = (
        status == EXIT_OK
        and results["constant_defined"]
        and fitted is not None
        and np.isfinite(fitted)
        and fitted >= 1.0
        and elapsed < 300.0
    )
    report(
        7,
        "decoupling constant",
        ok,
        f"fitted constant {fitted}, usable points {results['usable_points']}, {elapsed:.1f}s",
    )


# Criterion 8 runs each batched subcommand at several batch sizes: replica
# r's inputs come from its own substreams and replicas reduce in replica
# order, so neither the batch size nor a rerun may change a byte.
BATCHED = {
    "tailscan": """\
version: 1
experiment: tailscan
seed: 801
replicas: 300
sample_size: 12
kernel: {name: gini, centered: true}
sampler: {kind: uniform-grid, grid_points: 7}
x_grid: {start: 0.05, stop: 4.0, points: 12, scale: log}
beta_tolerance: 5.0
""",
    "decouple-compare": """\
version: 1
experiment: decouple-compare
seed: 802
replicas: 300
sample_size: 10
kernel: {name: spatial-sign, dim: 2}
sampler: {kind: discretized-gaussian, dim: 2}
x_grid: {start: 0.2, stop: 8.0, points: 12, scale: log}
""",
    "incomplete-compare": """\
version: 1
experiment: incomplete-compare
seed: 803
replicas: 200
kernel: {name: gini, centered: true}
sampler: {kind: uniform-grid, grid_points: 7}
scaling:
  design_kind: with-replacement
  sizes: [3, 20]
  sample_sizes: [8, 12]
  matching: {sample_size: 12, size: 5, replicas: 200}
""",
    "martingale-verify": """\
version: 1
experiment: martingale-verify
seed: 804
replicas: 300
martingale: {generator: gaussian-coords, dim: 2, steps: 20, variants: [A2, A3, conv]}
""",
}
RERUN = {
    "estimate": """\
version: 1
experiment: estimate
seed: 805
kernel: {name: gini}
sampler: {kind: uniform-grid, grid_points: 7}
data: {draw: 60}
""",
    "decompose": """\
version: 1
experiment: decompose
seed: 806
kernel: {name: gini, centered: true}
sampler: {kind: uniform-grid, grid_points: 16}
data: {draw: 40}
""",
}


def _run_outputs(subcommand, text, out):
    """Exit status, output digests and results block of one run."""
    import json

    status = run(subcommand, parse_config_text(text), out_dir=str(out))
    with open(out / "run_manifest.json") as fh:
        manifest = json.load(fh)
    return status, manifest["outputs"], manifest["results"]


def test_criterion_8_batch_determinism(tmp_path, monkeypatch):
    start = time.perf_counter()
    differ = []
    for subcommand, text in BATCHED.items():
        first = _run_outputs(subcommand, text, tmp_path / subcommand / "default")
        for batch in (1, 7):
            with monkeypatch.context() as patch:
                patch.setattr(montecarlo, "_CHUNK_VALUES", batch)
                patch.setattr(martingale, "_BATCH_VALUES", batch)
                if _run_outputs(subcommand, text, tmp_path / subcommand / f"batch{batch}") != first:
                    differ.append(f"{subcommand} at batch {batch}")
        if _run_outputs(subcommand, text, tmp_path / subcommand / "rerun") != first:
            differ.append(f"{subcommand} on rerun")
    for subcommand, text in RERUN.items():
        first = _run_outputs(subcommand, text, tmp_path / subcommand / "first")
        if _run_outputs(subcommand, text, tmp_path / subcommand / "rerun") != first:
            differ.append(f"{subcommand} on rerun")
    elapsed = time.perf_counter() - start
    report(
        8,
        "batch determinism",
        not differ and elapsed < 60.0,
        f"outputs and results equal at batch 1/7/default and on rerun: "
        f"{', '.join(differ) or 'all'} {'differ' if differ else 'agree'}, {elapsed:.1f}s",
    )
