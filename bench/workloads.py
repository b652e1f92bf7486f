"""Workload definitions: configs, units of work, output invariants, predictions.

Each workload is one ``ustatlab`` subcommand on a config generated here from
the workload definition and a seed. ``config(seed, reduced)`` gives the
measured size, or with ``reduced`` a small size used for the reference-digest
check at the start of every run and by the self-test. ``check`` returns the
list of broken invariants for one run's outputs; the invariants hold for any
seed.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

# Later performance claims must also hold on this seed, which no workload
# pins and which is not used while a change is being written.
HELD_OUT_SEED = 8675309


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    seed: int  # pinned default; the reference digests are recorded at it
    threads: int
    unit: str  # unit of work behind work_per_s
    why: str
    config: Callable[[int, bool], dict]
    work: Callable[[dict], int]
    check: Callable[[str, dict, dict], list[str]]


def _read_csv(out_dir: str, name: str) -> tuple[list[str], list[list[str]]]:
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _shape(problems: list[str], name: str, header, rows, columns: list[str], count: int) -> bool:
    if header != columns:
        problems.append(f"{name}: header {header} != {columns}")
        return False
    if len(rows) != count or any(len(r) != len(columns) for r in rows):
        problems.append(f"{name}: expected {count} rows of {len(columns)} columns, got {len(rows)}")
        return False
    return True


def _nonincreasing(values: list[float]) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# tail-product


def _tail_config(seed: int, reduced: bool) -> dict:
    return {
        "version": 1,
        "experiment": "tailscan",
        "seed": seed,
        "replicas": 2000 if reduced else 40_000,
        "sample_size": 40,
        "kernel": {"name": "product"},
        "sampler": {"kind": "rademacher"},
        "x_grid": {"start": 0.2, "stop": 6.0, "points": 24, "scale": "log"},
    }


def _tail_check(out_dir: str, manifest: dict, cfg: dict) -> list[str]:
    problems: list[str] = []
    header, rows = _read_csv(out_dir, "tailscan.csv")
    columns = ["x", "p_hat", "ci_lo", "ci_hi", "envelope"]
    if _shape(problems, "tailscan.csv", header, rows, columns, cfg["x_grid"]["points"]):
        x, p, lo, hi = ([float(r[i]) for r in rows] for i in range(4))
        if any(b <= a for a, b in zip(x, x[1:])):
            problems.append("tailscan.csv: x is not strictly increasing")
        if not _nonincreasing(p):
            problems.append("tailscan.csv: p_hat increases along x")
        if not all(0.0 <= l <= q <= h <= 1.0 for l, q, h in zip(lo, p, hi)):
            problems.append("tailscan.csv: a Wilson interval does not bracket p_hat")
    results = manifest["results"]
    if results["degeneracy"] != 2:
        problems.append(f"degeneracy {results['degeneracy']} != 2 for the product kernel")
    if not results["beta_in_window"]:
        problems.append(f"fitted exponent {results['beta']} outside the tolerance window")
    return problems


# ---------------------------------------------------------------------------
# exact-decompose


def _decompose_config(seed: int, reduced: bool) -> dict:
    return {
        "version": 1,
        "experiment": "decompose",
        "seed": seed,
        "kernel": {"name": "gini", "centered": True},
        "sampler": {"kind": "uniform-grid", "grid_points": 64},
        "data": {"draw": 60 if reduced else 400},
    }


def _decompose_check(out_dir: str, manifest: dict, cfg: dict) -> list[str]:
    problems: list[str] = []
    header, rows = _read_csv(out_dir, "decompose.csv")
    if _shape(problems, "decompose.csv", header, rows, ["order", "max_projection_norm"], 3):
        if [int(r[0]) for r in rows] != [0, 1, 2]:
            problems.append("decompose.csv: orders are not 0, 1, 2")
        if any(not float(r[1]) >= 0.0 for r in rows):
            problems.append("decompose.csv: a projection norm is negative or nan")
    results = manifest["results"]
    if results["identity_ok"] is not True:
        problems.append(f"decomposition identity off by {results['decomposition_relative']}")
    if results["degeneracy_order"] != 1:
        problems.append(f"degeneracy order {results['degeneracy_order']} != 1 for the gini kernel")
    if not results["mean_norm"] <= 1e-9:
        problems.append(f"centered kernel has mean norm {results['mean_norm']}")
    return problems


# ---------------------------------------------------------------------------
# martingale-gauss

_GRID_CELLS = {"A2": 100, "A3": 100, "conv": 10}  # default x-by-y grid, default t grid


def _martingale_config(seed: int, reduced: bool) -> dict:
    return {
        "version": 1,
        "experiment": "martingale-verify",
        "seed": seed,
        "replicas": 500 if reduced else 4000,
        "martingale": {
            "generator": "gaussian-coords",
            "dim": 2,
            "steps": 50,
            "variants": list(_GRID_CELLS),
        },
    }


def _martingale_check(out_dir: str, manifest: dict, cfg: dict) -> list[str]:
    problems: list[str] = []
    columns = ["x", "y", "lhs", "lhs_ci_hi", "rhs", "rhs_ci_lo", "violated"]
    for variant, cells in _GRID_CELLS.items():
        name = f"martingale-{variant}.csv"
        header, rows = _read_csv(out_dir, name)
        if not _shape(problems, name, header, rows, columns, cells):
            continue
        x, _, lhs, lhs_hi, rhs, rhs_lo = ([float(r[i]) for r in rows] for i in range(6))
        by_x = [q for _, q in sorted(zip(x, lhs), key=lambda pair: pair[0])]
        if not _nonincreasing(by_x):
            problems.append(f"{name}: the tail probability increases along x")
        if not all(q <= h for q, h in zip(lhs, lhs_hi)) or not all(l <= q for l, q in zip(rhs_lo, rhs)):
            problems.append(f"{name}: a confidence band does not bracket its estimate")
        if any(r[6] != "0" for r in rows):
            problems.append(f"{name}: a cell is flagged as violated")
    if manifest["results"]["total_violations"] != 0:
        problems.append(f"{manifest['results']['total_violations']} inequality violations")
    return problems


# ---------------------------------------------------------------------------
# incomplete-designs


def _incomplete_config(seed: int, reduced: bool) -> dict:
    return {
        "version": 1,
        "experiment": "incomplete-compare",
        "seed": seed,
        "replicas": 200 if reduced else 1200,
        "kernel": {"name": "product"},
        "sampler": {"kind": "rademacher"},
        "scaling": {
            "design_kind": "with-replacement",
            "sizes": [100, 1000, 10000],
            "sample_sizes": [20, 40],
        },
    }


def _incomplete_check(out_dir: str, manifest: dict, cfg: dict) -> list[str]:
    problems: list[str] = []
    header, rows = _read_csv(out_dir, "incomplete-compare.csv")
    columns = [
        "sample_size", "design_kind", "design_param", "replicas", "used", "empty_count",
        "quantile", "ci_lo", "ci_hi", "unbias_max_sigmas", "unbias_ok",
    ]
    scaling = cfg["scaling"]
    cells = len(scaling["sizes"]) * len(scaling["sample_sizes"])
    if _shape(problems, "incomplete-compare.csv", header, rows, columns, cells):
        for r in rows:
            if int(r[4]) + int(r[5]) != int(r[3]) or int(r[3]) != cfg["replicas"]:
                problems.append(f"incomplete-compare.csv: used + empty != replicas in {r}")
            if not float(r[7]) <= float(r[6]) <= float(r[8]):
                problems.append(f"incomplete-compare.csv: quantile interval misses its estimate in {r}")
            if r[10] != "1":
                problems.append(f"incomplete-compare.csv: design unbiasedness failed in {r}")
    results = manifest["results"]
    if not (results["spread_ok"] and results["unbiasedness_ok"]):
        problems.append(f"spread {results['spread']} or unbiasedness check failed")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tail-product",
            subcommand="tailscan",
            seed=2024,
            threads=1,
            unit="replicas",
            why=(
                "tailscan, product kernel, Rademacher, N=40, 4e4 replicas (unit: replicas): "
                "per-replica Philox set-up and gather/eval/reduceat dominate; hoeffding and "
                "martingale are bypassed"
            ),
            config=_tail_config,
            work=lambda cfg: cfg["replicas"],
            check=_tail_check,
        ),
        Workload(
            name="exact-decompose",
            subcommand="decompose",
            seed=2024,
            threads=1,
            unit="decomposition terms",
            why=(
                "decompose, centered gini, 64-atom grid, 400 draws (unit: C(n,2)+n+1 terms): "
                "exact projection enumeration dominates; one draw, no replicas, so RNG "
                "batching should not move it"
            ),
            config=_decompose_config,
            work=lambda cfg: math.comb(cfg["data"]["draw"], 2) + cfg["data"]["draw"] + 1,
            check=_decompose_check,
        ),
        Workload(
            name="martingale-gauss",
            subcommand="martingale-verify",
            seed=501,
            threads=1,
            unit="path-cells",
            why=(
                "martingale-verify, gaussian-coords, dim 2, 50 steps, 4000 paths, A2/A3/conv "
                "(unit: paths x grid cells): normal draws and Wilson bands dominate; ustats "
                "and kernels are bypassed"
            ),
            config=_martingale_config,
            work=lambda cfg: cfg["replicas"] * sum(_GRID_CELLS[v] for v in cfg["martingale"]["variants"]),
            check=_martingale_check,
        ),
        Workload(
            name="incomplete-designs",
            subcommand="incomplete-compare",
            seed=600,
            threads=2,
            unit="replica-draws",
            why=(
                "incomplete-compare, product, with-replacement 100/1000/10000 x n 20/40, 1200 "
                "replicas, 2 threads (unit: cells x replicas x 2): two substreams per replica, "
                "designs and threads"
            ),
            config=_incomplete_config,
            work=lambda cfg: len(cfg["scaling"]["sizes"])
            * len(cfg["scaling"]["sample_sizes"])
            * cfg["replicas"]
            * 2,
            check=_incomplete_check,
        ),
    )
}

# Which end-to-end metric each per-layer metric should move, and on which
# workloads, written down before any optimisation so later changes can cite
# them by name. A metric name ending in ".*" stands for calls and self_s.
PREDICTIONS = (
    {
        "layer": [
            "distributions.substream.calls", "distributions.substream.self_s",
            "distributions.draw_iid.calls", "distributions.draw_iid.self_s",
            "distributions.draws", "distributions.draws_per_substream",
        ],
        "moves": ["run_s", "work_per_s"],
        "on": ["tail-product", "incomplete-designs"],
    },
    {
        "layer": [
            "ustats.running_max.calls", "ustats.running_max.self_s", "ustats.running_max.tuples",
            "kernels.batch_values.calls", "kernels.batch_values.rows",
            "kernels.batch_values.self_s", "kernels.batch_values.bytes",
            "hilbert.row_norms.calls", "hilbert.row_norms.rows", "hilbert.row_norms.self_s",
        ],
        "moves": ["run_s", "peak_rss_mb"],
        "on": ["tail-product"],
    },
    {
        "layer": [
            "montecarlo.replicate.self_s", "montecarlo.tail_scan.self_s",
            "montecarlo.incomplete_scaling_experiment.self_s",
        ],
        "moves": ["run_s", "cpu_s"],
        "on": ["tail-product", "incomplete-designs"],
    },
    {
        "layer": [
            "ustats.draw_design.calls", "ustats.draw_design.self_s", "ustats.draw_design.selected",
            "confidence.quantile_interval.calls", "confidence.quantile_interval.self_s",
        ],
        "moves": ["run_s"],
        "on": ["incomplete-designs"],
    },
    {
        "layer": [
            "ustats.complete.calls", "ustats.complete.self_s",
            "ustats.decoupled.calls", "ustats.decoupled.self_s",
            "ustats.incomplete.calls", "ustats.incomplete.self_s",
        ],
        "moves": ["run_s"],
        "on": ["tail-product", "exact-decompose", "martingale-gauss", "incomplete-designs"],
    },
    {
        "layer": [
            "hoeffding.ProjectedKernel.eval.calls", "hoeffding.ProjectedKernel.eval.self_s",
            "hoeffding.decomposition_check.self_s", "hoeffding.degeneracy_order.s",
            "distributions.exact_expectation.calls", "distributions.exact_expectation.terms",
            "distributions.exact_expectation.self_s", "hoeffding.exact_terms_per_eval",
        ],
        "moves": ["run_s", "peak_rss_mb"],
        "on": ["exact-decompose"],
    },
    {
        "layer": [
            "martingale.simulate_ensemble.s", "martingale.simulate_ensemble.paths",
            "martingale.verify_pairs.calls", "martingale.verify_pairs.self_s",
            "martingale.verify_pairs.cells", "martingale.conv_pair_from_paths.s",
            "confidence.wilson_interval.calls", "confidence.wilson_interval.self_s",
        ],
        "moves": ["run_s"],
        "on": ["martingale-gauss"],
    },
    {
        "layer": ["cli.parse_config.s", "cli.run.self_s", "cli.output_bytes"],
        "moves": ["setup_s", "run_s"],
        "on": ["tail-product", "exact-decompose", "martingale-gauss", "incomplete-designs"],
    },
)

# The layer expected to hold most of the traced self time on each workload.
DOMINANT = {
    "tail-product": ["distributions", "ustats"],
    "exact-decompose": ["hoeffding"],
    "martingale-gauss": ["martingale", "confidence"],
    "incomplete-designs": ["ustats"],
}
