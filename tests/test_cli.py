"""Config parsing, the batch runners, and the on-disk artifact contract."""

import csv
import hashlib
import json
from dataclasses import fields
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ustatlab
from ustatlab import cli, montecarlo
from ustatlab.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    ConfigError,
    emit_config,
    main,
    parse_config_text,
    run,
)
from ustatlab.hoeffding import DecompositionCheck
from ustatlab.kernels import SupBoundWarning
from ustatlab.ustats import complete

ESTIMATE_CONFIG = """\
version: 1
experiment: estimate
kernel:
  name: product
sampler:
  kind: rademacher
sample_size: 3
data:
  values: [1, -1, 2]
"""


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_manifest(out_dir):
    with open(out_dir / "run_manifest.json") as fh:
        return json.load(fh)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# (config text, fragments the error message must hold): the dotted key and
# the line it sits on, for one case of every validation rule the parser keeps.
ERROR_CASES = {
    # unknown keys at each nesting level
    "unknown-top": ("version: 1\nexperiment: estimate\nthreadz: 2\n", ["'threadz'", "line 3", "the top level"]),
    "unknown-kernel": (
        "version: 1\nexperiment: estimate\nkernel:\n  name: gini\n  foo: 1\n",
        ["'foo'", "line 5", "in kernel"],
    ),
    "unknown-martingale-x_grid": (
        "version: 1\nexperiment: martingale-verify\nmartingale:\n  x_grid:\n    start: 1.0\n    stepz: 3\n",
        ["'stepz'", "line 6", "in martingale.x_grid"],
    ),
    "unknown-scaling-matching": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  matching:\n    size: 3\n    rate: 0.5\n",
        ["'rate'", "line 6", "in scaling.matching"],
    ),
    # a key given twice, named with both lines
    "duplicate-top": ("version: 1\nexperiment: estimate\nseed: 1\nseed: 5\n", ["'seed'", "lines 3 and 4"]),
    "duplicate-kernel": (
        "version: 1\nexperiment: estimate\nkernel:\n  name: gini\n  dim: 2\n  name: product\n",
        ["'kernel.name'", "lines 4 and 6"],
    ),
    # top level
    "top-type": ("version: 1\nexperiment: estimate\nreplicas: many\n", ["'replicas' (line 3)"]),
    "top-bound": ("version: 1\nexperiment: estimate\nreplicas: 5\n", ["'replicas' (line 3)"]),
    "top-choice": ("version: 1\nexperiment: estimat\n", ["'experiment' (line 2)"]),
    # kernel
    "kernel-type": ("version: 1\nexperiment: estimate\nkernel:\n  centered: 3\n", ["'kernel.centered' (line 4)"]),
    "kernel-bound": ("version: 1\nexperiment: estimate\nkernel:\n  dim: 0\n", ["'kernel.dim' (line 4)"]),
    "kernel-choice": ("version: 1\nexperiment: estimate\nkernel:\n  name: cubic\n", ["'kernel.name' (line 4)"]),
    "kernel-arity-bound": ("version: 1\nexperiment: estimate\nkernel:\n  arity: 1\n", ["'kernel.arity' (line 4)"]),
    # sampler
    "sampler-type": (
        "version: 1\nexperiment: estimate\nsampler:\n  kind: uniform-grid\n  grid_points: 2.5\n",
        ["'sampler.grid_points' (line 5)"],
    ),
    "sampler-bound": (
        "version: 1\nexperiment: estimate\nsampler:\n  kind: uniform-grid\n  grid_points: 1\n",
        ["'sampler.grid_points' (line 5)"],
    ),
    "sampler-choice": ("version: 1\nexperiment: estimate\nsampler:\n  kind: poisson\n", ["'sampler.kind' (line 4)"]),
    # x_grid
    "x_grid-type": ("version: 1\nexperiment: tailscan\nx_grid:\n  points: ten\n", ["'x_grid.points' (line 4)"]),
    "x_grid-bound": ("version: 1\nexperiment: tailscan\nx_grid:\n  points: 1\n", ["'x_grid.points' (line 4)"]),
    "x_grid-choice": ("version: 1\nexperiment: tailscan\nx_grid:\n  scale: cubic\n", ["'x_grid.scale' (line 4)"]),
    # envelope
    "envelope-type": ("version: 1\nexperiment: tailscan\nenvelope:\n  first: high\n", ["'envelope.first' (line 4)"]),
    "envelope-bound": (
        "version: 1\nexperiment: tailscan\nenvelope:\n  tail_scale: 0\n",
        ["'envelope.tail_scale' (line 4)"],
    ),
    # data
    "data-type": ("version: 1\nexperiment: estimate\ndata:\n  draw: 1.5\n", ["'data.draw' (line 4)"]),
    "data-bound": ("version: 1\nexperiment: estimate\ndata:\n  draw: 0\n", ["'data.draw' (line 4)"]),
    # martingale and its grids
    "martingale-type": (
        "version: 1\nexperiment: martingale-verify\nmartingale:\n  steps: 1.5\n",
        ["'martingale.steps' (line 4)"],
    ),
    "martingale-bound": (
        "version: 1\nexperiment: martingale-verify\nmartingale:\n  steps: 0\n",
        ["'martingale.steps' (line 4)"],
    ),
    "martingale-choice": (
        "version: 1\nexperiment: martingale-verify\nmartingale:\n  generator: brownian\n",
        ["'martingale.generator' (line 4)"],
    ),
    "martingale-variant-choice": (
        "version: 1\nexperiment: martingale-verify\nmartingale:\n  variants: [A2, A4]\n",
        ["'martingale.variants' (line 4)"],
    ),
    "martingale-grid-type": (
        "version: 1\nexperiment: martingale-verify\nmartingale:\n  y_grid:\n    stop: far\n",
        ["'martingale.y_grid.stop' (line 5)"],
    ),
    # scaling and its matching block
    "scaling-type": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  sample_sizes: 3\n",
        ["'scaling.sample_sizes' (line 4)"],
    ),
    "scaling-bound": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  sample_sizes: [4, 0]\n",
        ["'scaling.sample_sizes' (line 4)"],
    ),
    "scaling-choice": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  design_kind: poisson\n",
        ["'scaling.design_kind' (line 4)"],
    ),
    "matching-type": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  matching:\n    replicas: lots\n",
        ["'scaling.matching.replicas' (line 5)"],
    ),
    "matching-bound": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  matching:\n    replicas: 10\n",
        ["'scaling.matching.replicas' (line 5)"],
    ),
    "matching-choice": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  matching:\n    sampler_kind: uniform-grid\n",
        ["'scaling.matching.sampler_kind' (line 5)"],
    ),
    # rules that span several fields
    "finite-needs-probs": (
        "version: 1\nexperiment: estimate\nsampler:\n  kind: finite\n  atoms: [0, 1]\n",
        ["'sampler.kind' (line 4)"],
    ),
    "uniform-grid-needs-grid_points": (
        "version: 1\nexperiment: estimate\nsampler:\n  kind: uniform-grid\n",
        ["'sampler.kind' (line 4)"],
    ),
    "gaussian-needs-dim": (
        "version: 1\nexperiment: estimate\nsampler:\n  kind: discretized-gaussian\n",
        ["'sampler.kind' (line 4)"],
    ),
    "arity-needs-product": (
        "version: 1\nexperiment: estimate\nkernel:\n  name: gini\n  arity: 3\n",
        ["'kernel.arity' (line 5)", "only the product kernel"],
    ),
    "grid-stop-after-start": (
        "version: 1\nexperiment: tailscan\nx_grid:\n  start: 2.0\n  stop: 1.0\n",
        ["'x_grid.stop' (line 5)"],
    ),
    "log-grid-positive-start": (
        "version: 1\nexperiment: martingale-verify\nmartingale:\n  t_grid:\n    start: 0.0\n    scale: log\n",
        ["'martingale.t_grid.start' (line 5)"],
    ),
    "real-variant-needs-dim-1": (
        "version: 1\nexperiment: martingale-verify\nmartingale:\n  dim: 2\n",
        ["'martingale.dim' (line 4)"],
    ),
    "bernoulli-rates": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  design_kind: bernoulli\n  sizes: [0.5, 1.5]\n",
        ["'scaling.sizes' (line 5)"],
    ),
    "integer-selection-sizes": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  design_kind: with-replacement\n  sizes: [10, 2.5]\n",
        ["'scaling.sizes' (line 5)"],
    ),
    "matching-size-within-sample": (
        "version: 1\nexperiment: incomplete-compare\nscaling:\n  matching:\n    sample_size: 10\n    size: 11\n",
        ["'scaling.matching.size' (line 6)"],
    ),
    "values-xor-draw": (
        "version: 1\nexperiment: estimate\ndata:\n  values: [1, 2, 3]\n  draw: 5\n",
        ["'data.draw' (line 5)"],
    ),
    "quantile-inside-unit-interval": ("version: 1\nexperiment: estimate\nquantile: 1.0\n", ["'quantile' (line 3)"]),
    "version-one": ("version: 2\nexperiment: estimate\n", ["'version' (line 1)"]),
}


_floats = dict(allow_nan=False, allow_infinity=False)


def _grid():
    """A valid grid mapping: start > 0 and stop above start."""

    @st.composite
    def build(draw):
        scale = draw(st.sampled_from(["log", "linear"]))
        start = draw(st.floats(1e-3, 50.0, **_floats))
        stop = start + draw(st.floats(0.5, 100.0, **_floats))
        return {"start": start, "stop": stop, "points": draw(st.integers(2, 40)), "scale": scale}

    return build()


def _optional(strategies: dict, required=()):
    """A mapping holding every required key and any subset of the others."""
    return st.fixed_dictionaries(
        {k: v for k, v in strategies.items() if k in required},
        optional={k: v for k, v in strategies.items() if k not in required},
    )


@st.composite
def _sampler(draw):
    kind = draw(st.sampled_from(["finite", "rademacher", "uniform-grid", "discretized-gaussian"]))
    out = {"kind": kind}
    if kind == "finite" or draw(st.booleans()):
        size = draw(st.integers(1, 4))
        width = draw(st.sampled_from([None, 2]))
        atom = st.floats(-5.0, 5.0, **_floats)
        entry = atom if width is None else st.lists(atom, min_size=width, max_size=width)
        out["atoms"] = draw(st.lists(entry, min_size=size, max_size=size))
        out["probs"] = draw(st.lists(st.floats(0.01, 1.0, **_floats), min_size=size, max_size=size))
    if kind == "uniform-grid" or draw(st.booleans()):
        out["grid_points"] = draw(st.integers(2, 50))
    if kind == "discretized-gaussian" or draw(st.booleans()):
        out["dim"] = draw(st.integers(1, 4))
    return out


@st.composite
def _martingale(draw):
    out = draw(
        _optional(
            {
                "generator": st.sampled_from(["bounded-signs", "gaussian-coords", "f0-randomized-scale"]),
                "steps": st.integers(1, 200),
                "dim": st.integers(1, 3),
                "x_grid": _grid(),
                "y_grid": _grid(),
                "t_grid": _grid(),
            }
        )
    )
    variants = draw(st.lists(st.sampled_from(["real", "A2", "A3", "conv"]), min_size=1, max_size=4, unique=True))
    if out.get("dim", 1) != 1 and "real" in variants:
        variants.remove("real")
    if variants and draw(st.booleans()):
        out["variants"] = variants
    elif out.get("dim", 1) != 1:
        out["variants"] = ["A2"]
    return out


@st.composite
def _scaling(draw):
    kind = draw(st.sampled_from(["without-replacement", "with-replacement", "bernoulli"]))
    if kind == "bernoulli":
        size = st.floats(1e-3, 1.0, **_floats)
    else:
        size = st.integers(1, 10_000) | st.integers(1, 10_000).map(float)
    out = {
        "design_kind": kind,
        "sizes": draw(st.lists(size, min_size=1, max_size=4)),
        "sample_sizes": draw(st.lists(st.integers(1, 100), min_size=1, max_size=3)),
    }
    if draw(st.booleans()):
        n = draw(st.integers(2, 100))
        out["matching"] = draw(
            _optional(
                {
                    "sample_size": st.just(n),
                    "size": st.integers(1, n),
                    "replicas": st.integers(100, 10**6),
                    "sampler_kind": st.sampled_from(["rademacher", "discretized-gaussian"]),
                },
                required=("sample_size", "size"),
            )
        )
    return out


_number = st.floats(0.0, 1e6, **_floats) | st.integers(0, 10**6)
_positive = st.floats(1e-9, 1e6, **_floats) | st.integers(1, 10**6)
_CONFIGS = _optional(
    {
        "version": st.just(1),
        "experiment": st.sampled_from(
            ["estimate", "decompose", "tailscan", "incomplete-compare", "decouple-compare", "martingale-verify"]
        ),
        "output_dir": st.text("abcxyz/_-", min_size=1, max_size=12),
        "seed": st.integers(0, 2**64 - 1),
        "replicas": st.integers(100, 10**7),
        "sample_size": st.integers(1, 10**4),
        "degeneracy": st.integers(1, 4),
        "beta_tolerance": _positive,
        "ratio_bound": st.floats(1.0, 1e3, **_floats),
        "quantile": st.floats(1e-6, 1 - 1e-6, **_floats),
        "identity_tolerance": _positive,
        "kernel": _optional(
            {
                "name": st.sampled_from(["gini", "product", "spatial-sign", "coordinate", "empirical-indicator"]),
                "centered": st.booleans(),
                "sup_bound": _positive,
                "dim": st.integers(1, 5),
                "grid_points": st.integers(2, 64),
            }
        ),
        "sampler": _sampler(),
        "x_grid": _grid(),
        "envelope": _optional(
            {"first": _number, "second": _number, "tail_scale": _positive, "scale": _positive}
        ),
        "data": st.one_of(
            st.just({}),
            st.fixed_dictionaries({"draw": st.integers(1, 1000)}),
            st.fixed_dictionaries(
                {"values": st.lists(st.floats(-9.0, 9.0, **_floats), min_size=1, max_size=6)}
            ),
        ),
        "martingale": _martingale(),
        "scaling": _scaling(),
    },
    required=("version", "experiment"),
)


class TestParsing:
    @pytest.mark.parametrize("case", list(ERROR_CASES))
    def test_error_names_key_and_line(self, case):
        text, fragments = ERROR_CASES[case]
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        for fragment in fragments:
            assert fragment in str(err.value)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_CONFIGS)
    def test_round_trip_property(self, mapping):
        cfg = parse_config_text(yaml.safe_dump(mapping, sort_keys=False))
        emitted = emit_config(cfg)
        again = parse_config_text(emitted)
        assert again == cfg
        assert emit_config(again) == emitted

    def test_defaults_applied(self):
        cfg = parse_config_text(ESTIMATE_CONFIG)
        assert cfg.version == 1
        assert cfg.replicas == 10_000
        assert cfg.beta_tolerance == 0.25
        assert cfg.ratio_bound == 5.0
        assert cfg.quantile == 0.9
        assert cfg.identity_tolerance == 1e-10

    def test_text_is_parsed_once(self, monkeypatch):
        """The data and every key's line come from one composed node."""
        compose, calls = yaml.composer.Composer.compose_document, []

        def spy(loader):
            calls.append(loader)
            return compose(loader)

        monkeypatch.setattr(yaml.composer.Composer, "compose_document", spy)
        assert parse_config_text(ESTIMATE_CONFIG).sample_size == 3
        assert len(calls) == 1

    def test_replica_floor_is_the_experiments_floor(self):
        floors = [
            f.metadata["ge"] for cls in (cli.ConfigFile, cli.MatchingConfig) for f in fields(cls) if f.name == "replicas"
        ]
        assert floors == [montecarlo.MIN_REPLICAS] * 2

    def test_unknown_key_is_named_with_its_line(self):
        bad = ESTIMATE_CONFIG.replace("kernel:", "kernal:")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert "kernal" in str(err.value)
        assert "line 3" in str(err.value)

    def test_bernoulli_rate_out_of_range(self):
        text = """\
version: 1
experiment: incomplete-compare
kernel:
  name: gini
sampler:
  kind: rademacher
scaling: {design_kind: bernoulli, sizes: [1.5]}
"""
        with pytest.raises(ConfigError, match="rate"):
            parse_config_text(text)

    @pytest.mark.parametrize("key", ["threads: 2", "design: {kind: bernoulli, rate: 0.5}"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, key):
        path = write_config(tmp_path, ESTIMATE_CONFIG + key + "\n")
        assert main(["estimate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        name = key.split(":")[0]
        assert f"unknown key '{name}' at line 10 in the top level" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, line",
        [
            ("martingale: {variants: []}", "'martingale.variants' (line 3)"),
            ("scaling: {sizes: []}", "'scaling.sizes' (line 3)"),
            ("scaling: {sample_sizes: []}", "'scaling.sample_sizes' (line 3)"),
        ],
    )
    def test_empty_lists_are_usage_errors(self, tmp_path, capsys, section, line):
        experiment = section.split(":")[0].replace("martingale", "martingale-verify")
        experiment = experiment.replace("scaling", "incomplete-compare")
        path = write_config(tmp_path, f"version: 1\nexperiment: {experiment}\n{section}\n")
        assert main([experiment, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert line in err and "must not be empty" in err
        assert not (tmp_path / "out").exists()

    def test_ragged_atoms_fail_at_parse_time(self):
        text = "version: 1\nexperiment: estimate\nsampler:\n  kind: finite\n"
        text += "  atoms: [[1, 2], [3]]\n  probs: [0.5, 0.5]\n"
        with pytest.raises(ConfigError, match=r"'sampler.atoms' \(line 5\)"):
            parse_config_text(text)

    def test_ragged_data_values_fail_at_parse_time(self):
        text = "version: 1\nexperiment: estimate\ndata:\n  values: [[1, 2], [3, 4], 5]\n"
        with pytest.raises(ConfigError, match=r"'data.values' \(line 4\)"):
            parse_config_text(text)

    def test_data_values_below_the_kernel_arity_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, ESTIMATE_CONFIG.replace("values: [1, -1, 2]", "values: [1.5]"))
        assert main(["estimate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "data.values" in err and "sample of size 1 cannot feed an arity-2 kernel" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("start", [0.0, -1.0])
    def test_linear_tail_grid_must_be_positive(self, start):
        text = f"version: 1\nexperiment: tailscan\nx_grid:\n  start: {start}\n  scale: linear\n"
        with pytest.raises(ConfigError, match=r"'x_grid.start' \(line 4\)"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "grid, key",
        [("{start: .nan, stop: 6.0, points: 4}", "start"), ("{start: 0.2, stop: .inf, points: 4}", "stop")],
        ids=["nan-start", "inf-stop"],
    )
    def test_a_tail_grid_must_be_finite(self, tmp_path, capsys, grid, key):
        path = write_config(tmp_path, f"version: 1\nexperiment: tailscan\nx_grid: {grid}\n")
        out = tmp_path / "out"
        assert main(["tailscan", "--config", path, "--out", str(out)]) == EXIT_USAGE
        assert f"'x_grid.{key}' (line 3)" in capsys.readouterr().err
        assert not out.exists()

    def test_partial_grid_keeps_the_section_default(self):
        cfg = parse_config_text("version: 1\nexperiment: martingale-verify\nmartingale:\n  y_grid: {points: 4}\n")
        assert (cfg.martingale.y_grid.start, cfg.martingale.y_grid.stop) == (11.0, 38.0)
        assert cfg.martingale.y_grid.points == 4

    def test_version_gate(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config_text(ESTIMATE_CONFIG.replace("version: 1", "version: 2"))

    def test_experiment_required(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config_text("version: 1\nkernel:\n  name: gini\n")

    def test_unknown_kernel_name(self):
        with pytest.raises(ConfigError, match="name"):
            parse_config_text(ESTIMATE_CONFIG.replace("name: product", "name: cubic"))

    def test_round_trip(self):
        cfg = parse_config_text(ESTIMATE_CONFIG)
        emitted = emit_config(cfg)
        again = parse_config_text(emitted)
        assert again == cfg
        assert emit_config(again) == emitted

    def test_round_trip_with_martingale_defaults(self):
        text = """\
version: 1
experiment: martingale-verify
replicas: 500
martingale:
  generator: bounded-signs
  steps: 60
"""
        cfg = parse_config_text(text)
        assert parse_config_text(emit_config(cfg)) == cfg


class TestEstimate:
    def test_product_fixture_row(self, tmp_path):
        cfg = parse_config_text(ESTIMATE_CONFIG)
        assert run("estimate", cfg, out_dir=str(tmp_path)) == EXIT_OK
        with open(tmp_path / "estimate.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["coordinate", "value"]
        assert rows[1][0] == "0"
        assert float(rows[1][1]) == -1.0

    def test_outputs_and_manifest(self, tmp_path):
        cfg = parse_config_text(ESTIMATE_CONFIG)
        run("estimate", cfg, out_dir=str(tmp_path))
        manifest = read_manifest(tmp_path)
        assert manifest["experiment"] == "estimate"
        assert manifest["exit_status"] == EXIT_OK
        assert manifest["results"]["running_max_norm"] >= 0.0
        for name, digest in manifest["outputs"].items():
            assert sha256(tmp_path / name) == digest
        assert "estimate.csv" in manifest["outputs"]
        assert "estimate.dat" in manifest["outputs"]

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = parse_config_text(ESTIMATE_CONFIG)
        first = tmp_path / "a"
        second = tmp_path / "b"
        run("estimate", cfg, out_dir=str(first))
        run("estimate", cfg, out_dir=str(second))
        a = read_manifest(first)["outputs"]
        b = read_manifest(second)["outputs"]
        assert a == b

    def test_plot_twin_uses_comment_header(self, tmp_path):
        cfg = parse_config_text(ESTIMATE_CONFIG)
        run("estimate", cfg, out_dir=str(tmp_path))
        head = (tmp_path / "estimate.dat").read_text().splitlines()[0]
        assert head.startswith("# ")

    def test_subcommand_must_match_the_config(self, tmp_path):
        cfg = parse_config_text(ESTIMATE_CONFIG)
        with pytest.raises(ConfigError, match="experiment"):
            run("decompose", cfg, out_dir=str(tmp_path))

    def test_rows_of_width_one_are_the_scalar_sample(self, tmp_path):
        """`data.values: [[1], [-1], [2]]` is the sample `[1, -1, 2]`, not three
        one-dimensional points, so the product kernel writes the same files."""
        column = ESTIMATE_CONFIG.replace("values: [1, -1, 2]", "values: [[1], [-1], [2]]")
        assert run("estimate", parse_config_text(column), out_dir=str(tmp_path / "column")) == EXIT_OK
        assert run("estimate", parse_config_text(ESTIMATE_CONFIG), out_dir=str(tmp_path / "flat")) == EXIT_OK
        for name in ("estimate.csv", "estimate.dat", "estimate-prefix-norms.csv"):
            assert (tmp_path / "column" / name).read_bytes() == (tmp_path / "flat" / name).read_bytes()


class TestDecompose:
    CONFIG = """\
version: 1
experiment: decompose
kernel:
  name: gini
sampler:
  kind: rademacher
sample_size: 6
data:
  values: [1, -1, 1, 1, -1, -1]
"""

    def test_projection_table(self, tmp_path):
        cfg = parse_config_text(self.CONFIG)
        assert run("decompose", cfg, out_dir=str(tmp_path)) == EXIT_OK
        with open(tmp_path / "decompose.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["order", "max_projection_norm"]
        orders = [int(r[0]) for r in rows[1:]]
        assert orders == [0, 1, 2]
        assert float(rows[2][1]) <= 1e-12  # the level-1 projection vanishes
        manifest = read_manifest(tmp_path)
        assert manifest["results"]["degeneracy_order"] == 2
        assert manifest["results"]["identity_ok"] is True

    def test_off_support_value_is_a_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG.replace("-1, -1]", "-1, 0.5]"))
        code = main(["decompose", "--config", path, "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "0.5 is not an atom" in capsys.readouterr().err

    @pytest.mark.parametrize("deviation, ok", [(1e-10, True), (1.5e-10, False)])
    def test_identity_gate_is_the_checks_rule(self, tmp_path, monkeypatch, deviation, ok):
        """The run gates and reports through `DecompositionCheck`: at ||U|| = 1
        a deviation of 1.5e-10 breaks the default tolerance of 1e-10."""
        check = DecompositionCheck(deviation=deviation, lhs_norm=1.0, per_order_norms=(0.0, 0.0, 1.0))
        monkeypatch.setattr(cli, "decomposition_check", lambda *args, **kwargs: check)
        cfg = parse_config_text(self.CONFIG)
        assert run("decompose", cfg, out_dir=str(tmp_path)) == (EXIT_OK if ok else EXIT_VIOLATION)
        results = read_manifest(tmp_path)["results"]
        assert results["decomposition_relative"] == check.relative == deviation
        assert results["identity_ok"] is ok is check.within(cfg.identity_tolerance)


class TestMartingaleVerify:
    CONFIG = """\
version: 1
experiment: martingale-verify
replicas: 400
martingale:
  generator: bounded-signs
  steps: 60
  x_grid: {start: 4.0, stop: 18.0, points: 3, scale: linear}
  y_grid: {start: 10.0, stop: 24.0, points: 3, scale: linear}
  t_grid: {start: 30.0, stop: 400.0, points: 4, scale: log}
"""

    def test_all_variants_clean(self, tmp_path):
        cfg = parse_config_text(self.CONFIG)
        assert run("martingale-verify", cfg, out_dir=str(tmp_path)) == EXIT_OK
        manifest = read_manifest(tmp_path)
        assert manifest["results"]["total_violations"] == 0
        for variant in ("real", "A2", "A3", "conv"):
            name = f"martingale-{variant}.csv"
            assert name in manifest["outputs"]
            with open(tmp_path / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["x", "y", "lhs", "lhs_ci_hi", "rhs", "rhs_ci_lo", "violated"]
            assert all(r[6] == "0" for r in rows[1:])

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                "y_grid: {start: 10.0, stop: 24.0, points: 3, scale: linear}",
                "y_grid: {start: -1.0, stop: 1.0, points: 3, scale: linear}",
                "'martingale.y_grid.start' (line 8)",
            ),
            (
                "t_grid: {start: 30.0, stop: 400.0, points: 4, scale: log}",
                "t_grid: {start: -1.0, stop: 400.0, points: 4, scale: linear}",
                "'martingale.t_grid.start' (line 9)",
            ),
            (
                "t_grid: {start: 30.0, stop: 400.0, points: 4, scale: log}",
                "t_grid: {start: 30.0, stop: .inf, points: 4, scale: log}",
                "'martingale.t_grid.stop' (line 9)",
            ),
        ],
        ids=["y_grid", "t_grid", "t_grid-inf"],
    )
    def test_nonpositive_config_grid_is_a_usage_error(self, tmp_path, capsys, old, new, message):
        assert old in self.CONFIG
        path = write_config(tmp_path, self.CONFIG.replace(old, new))
        out = tmp_path / "out"
        assert main(["martingale-verify", "--config", path, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and ("must be positive" in err or "must be finite" in err)
        assert not out.exists()

    def test_nonpositive_grid_file_row_is_a_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        grid = tmp_path / "grid.txt"
        grid.write_text("6.0 12.0\n1.0 0.0\n")
        out = tmp_path / "out"
        argv = ["martingale-verify", "--config", path, "--out", str(out), "--grid-file", str(grid)]
        assert main(argv + ["--variant", "A2", "--variant", "A3"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"grid file {grid} line 2" in err and "finite and positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("row", ["nan 12.0", "6.0 inf", "-3.0 12.0"])
    def test_grid_file_values_must_be_finite_and_positive(self, tmp_path, row):
        grid = tmp_path / "grid.txt"
        grid.write_text(f"# x y\n{row}\n")
        with pytest.raises(ConfigError, match=f"grid file {grid} line 2: .*finite and positive"):
            cli._read_grid_file(str(grid), 2)

    def test_variant_flag_and_grid_file(self, tmp_path):
        cfg = parse_config_text(self.CONFIG)
        grid = tmp_path / "grid.txt"
        grid.write_text("6.0 12.0\n9.0 18.0\n")
        status = run(
            "martingale-verify",
            cfg,
            out_dir=str(tmp_path / "out"),
            variants=("real",),
            grid_file=str(grid),
        )
        assert status == EXIT_OK
        manifest = read_manifest(tmp_path / "out")
        assert list(manifest["results"]["violations"]) == ["real"]
        with open(tmp_path / "out" / "martingale-real.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3

    def test_conv_grid_file_holds_one_t_per_line(self, tmp_path):
        cfg = parse_config_text(self.CONFIG)
        grid = tmp_path / "grid.txt"
        grid.write_text("# t\n40.0\n100.0\n250.0\n")
        status = run(
            "martingale-verify", cfg, out_dir=str(tmp_path / "out"), variants=("conv",), grid_file=str(grid)
        )
        assert status == EXIT_OK
        assert list(read_manifest(tmp_path / "out")["results"]["violations"]) == ["conv"]
        with open(tmp_path / "out" / "martingale-conv.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[0]) for r in rows] == [40.0, 100.0, 250.0]
        assert all(r[1] == "nan" for r in rows)


class TestTailscanExitCodes:
    CONFIG = """\
version: 1
experiment: tailscan
replicas: 2000
sample_size: 40
kernel:
  name: coordinate
sampler:
  kind: rademacher
x_grid: {start: 0.2, stop: 6.0, points: 24, scale: log}
beta_tolerance: %s
"""

    def test_loose_window_passes(self, tmp_path):
        cfg = parse_config_text(self.CONFIG % "5.0")
        assert run("tailscan", cfg, out_dir=str(tmp_path)) == EXIT_OK
        manifest = read_manifest(tmp_path)
        assert manifest["results"]["fit_available"] is True

    def test_tight_window_exits_two(self, tmp_path):
        cfg = parse_config_text(self.CONFIG % "1.0e-9")
        assert run("tailscan", cfg, out_dir=str(tmp_path)) == EXIT_VIOLATION
        assert read_manifest(tmp_path)["exit_status"] == EXIT_VIOLATION

    def test_an_arity_three_product_writes_its_tables(self, tmp_path):
        text = self.CONFIG.replace("name: coordinate", "name: product\n  arity: 3") % "0.25"
        code = run("tailscan", parse_config_text(text), out_dir=str(tmp_path))
        results = read_manifest(tmp_path)["results"]
        assert results["degeneracy"] == 3 and results["target_exponent"] == 2.0 / 3.0
        assert results["normalization"] == 40.0**1.5
        assert code == (EXIT_OK if results["beta_in_window"] else EXIT_VIOLATION)
        for name in ("tailscan.csv", "tailscan.dat"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "tailscan.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 24

    GAUSSIAN = """\
version: 1
experiment: tailscan
replicas: 100
sample_size: 10
degeneracy: 2
kernel: {name: product}
sampler: {kind: discretized-gaussian, dim: 1}
x_grid: {start: 0.2, stop: 6.0, points: 8, scale: log}
beta_tolerance: 100.0
envelope: {second: %s}
"""

    def test_integral_term_on_an_infinite_law_fails_before_the_scan(self, tmp_path, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("replicas were drawn before the envelope was checked")

        monkeypatch.setattr(montecarlo, "replicate", no_scan)
        path = write_config(tmp_path, self.GAUSSIAN % "0.5")
        out = tmp_path / "out"
        assert main(["tailscan", "--config", path, "--out", str(out)]) == EXIT_USAGE
        assert "the integral term needs a finite sampling law" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_exponential_term_alone_runs_on_an_infinite_law(self, tmp_path):
        path = write_config(tmp_path, self.GAUSSIAN % "0")
        out = tmp_path / "out"
        assert main(["tailscan", "--config", path, "--out", str(out)]) == EXIT_OK
        with open(out / "tailscan.csv", newline="") as fh:
            envelope = [float(row["envelope"]) for row in csv.DictReader(fh)]
        assert len(envelope) == 8 and all(0.0 < v <= 1.0 for v in envelope)


class TestRefusals:
    MARTINGALE = "version: 1\nexperiment: martingale-verify\nreplicas: 100\nmartingale: {generator: bounded-signs}\n"
    # (subcommand, config text, grid file text or None, extra arguments, start of
    # the message): one case of each refusal `main` reports as a usage error. The
    # grid file is written to {tmp}/grid.txt, {tmp} being the test's directory.
    CASES = {
        "union-type": (
            "estimate",
            "version: 1\nexperiment: estimate\nsampler: {kind: finite, atoms: [a, b], probs: [0.5, 0.5]}\n",
            None,
            (),
            "'sampler.atoms' (line 3): expected a number or a list, got str",
        ),
        "invalid-yaml": ("estimate", "version: 1\nexperiment: [estimate\n", None, (), "not valid YAML: "),
        "top-level-list": ("estimate", "- version\n- 1\n", None, (), "the config must be a mapping at the top level"),
        "indicator-without-support": (
            "estimate",
            "version: 1\nexperiment: estimate\nkernel: {name: empirical-indicator}\n"
            "sampler: {kind: discretized-gaussian, dim: 1}\ndata: {draw: 5}\n",
            None,
            (),
            "kernel: empirical-indicator needs a sampler with finite support",
        ),
        "centering-without-support": (
            "estimate",
            "version: 1\nexperiment: estimate\nkernel: {name: gini, centered: true}\n"
            "sampler: {kind: discretized-gaussian, dim: 1}\ndata: {draw: 5}\n",
            None,
            (),
            "kernel: centering needs a sampler with finite support",
        ),
        "decompose-without-support": (
            "decompose",
            "version: 1\nexperiment: decompose\nsampler: {kind: discretized-gaussian, dim: 1}\ndata: {draw: 5}\n",
            None,
            (),
            "decompose needs a sampler with finite support",
        ),
        "probs-sum": (
            "estimate",
            "version: 1\nexperiment: estimate\nsampler: {kind: finite, atoms: [0, 1], probs: [0.5, 0.6]}\n",
            None,
            (),
            "sampler: probs sum to 1.1, expected 1 within 1e-12\n",
        ),
        "decompose-enumeration-budget": (
            "decompose",
            "version: 1\nexperiment: decompose\nkernel: {name: product, arity: 4}\n"
            "sampler: {kind: uniform-grid, grid_points: 64}\ndata: {draw: 10}\n",
            None,
            (),
            "enumeration needs 16777216 terms, budget is 10000000\n",
        ),
        "tailscan-tuple-cap": (
            "tailscan",
            "version: 1\nexperiment: tailscan\nreplicas: 100\nsample_size: 20000\ndegeneracy: 1\n"
            "kernel: {name: gini}\nsampler: {kind: discretized-gaussian, dim: 1}\n",
            None,
            (),
            "199990000 tuples exceed the cap of 100000000\n",
        ),
        "grid-file-columns": (
            "martingale-verify",
            MARTINGALE,
            "1.0 2.0 3.0\n",
            ("--grid-file", "{tmp}/grid.txt"),
            "grid file {tmp}/grid.txt line 1: expected 2 columns, got 3\n",
        ),
        "grid-file-not-a-number": (
            "martingale-verify",
            MARTINGALE,
            "1.0 abc\n",
            ("--grid-file", "{tmp}/grid.txt"),
            "grid file {tmp}/grid.txt line 1: could not convert string to float: 'abc'\n",
        ),
        "grid-file-unreadable": (
            "martingale-verify",
            MARTINGALE,
            None,
            ("--grid-file", "{tmp}"),
            "cannot read grid file {tmp}: ",
        ),
        "grid-file-only-comments": (
            "martingale-verify",
            MARTINGALE,
            "# x y\n\n",
            ("--grid-file", "{tmp}/grid.txt"),
            "grid file {tmp}/grid.txt holds no grid points\n",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_a_refusal_exits_1_with_one_message_and_no_files(self, tmp_path, capsys, case):
        subcommand, text, grid, extra, message = self.CASES[case]
        if grid is not None:
            (tmp_path / "grid.txt").write_text(grid)
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        argv = [subcommand, "--config", path, "--out", str(out), *(a.format(tmp=tmp_path) for a in extra)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("ustatlab: " + message.format(tmp=tmp_path))
        assert not out.exists()

    def test_a_gather_scan_above_the_tuple_cap_draws_nothing(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("draw_iid", "draw_iid_batch"):
            original = getattr(montecarlo, name)
            monkeypatch.setattr(montecarlo, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
        subcommand, text, _, _, message = self.CASES["tailscan-tuple-cap"]
        path = write_config(tmp_path, text)
        assert main([subcommand, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("ustatlab: " + message)
        assert calls == []

    def test_run_refuses_an_unknown_subcommand(self, tmp_path):
        with pytest.raises(ConfigError, match="^unknown subcommand 'bogus'$"):
            run("bogus", parse_config_text(ESTIMATE_CONFIG), out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()


class TestMain:
    def test_end_to_end_estimate(self, tmp_path):
        path = write_config(tmp_path, ESTIMATE_CONFIG)
        out = tmp_path / "out"
        assert main(["estimate", "--config", path, "--out", str(out)]) == EXIT_OK
        assert (out / "estimate.csv").exists()

    def test_missing_config_file(self, tmp_path):
        code = main(["estimate", "--config", str(tmp_path / "nope.yaml")])
        assert code == EXIT_USAGE

    def test_bad_seed(self, tmp_path):
        path = write_config(tmp_path, ESTIMATE_CONFIG)
        assert main(["estimate", "--config", path, "--seed", "-3"]) == EXIT_USAGE

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, ESTIMATE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--config", path, "--threads", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "--threads" in capsys.readouterr().err

    def test_seed_override_changes_the_manifest(self, tmp_path):
        path = write_config(tmp_path, ESTIMATE_CONFIG)
        out = tmp_path / "out"
        main(["estimate", "--config", path, "--seed", "9", "--out", str(out)])
        assert read_manifest(out)["master_seed"] == 9


class TestTailscanDigests:
    """Output digests recorded with the per-replica sampler, before replicas
    were drawn and reduced in batches; every later version must match them.
    The product cases at N = 160 and 100 were recorded on the tuple gather,
    before integer tables moved to atom counts; they now run on the product
    recurrence. The centered gini on Rademacher, recorded on the atom-count
    route, is -uv there: its digests equal the product's at N = 160, so the
    two routes check each other."""

    CONFIG = """\
version: 1
experiment: tailscan
seed: %d
replicas: %d
sample_size: %d
kernel:
  name: %s
sampler:
  kind: %s
x_grid:
  start: %s
  stop: %s
  points: %d
  scale: log
%s"""
    CASES = {
        "product-rademacher": (
            (2024, 2000, 40, "product", "rademacher", 0.2, 6.0, 24, ""),
            "ff2af07709d6b57ec05e43fc20e438c274aa3fa77ee25f5e39fcb5cd00c2eb60",
            "e697321a8bb4123e96fb447b21d48af0fdeafa33ab1c121deeea72c5ddd4dfa0",
        ),
        "coordinate-grid7": (
            (800, 2000, 40, "coordinate", "uniform-grid\n  grid_points: 7", 0.05, 3.0, 20, ""),
            "6e3b7565fdae342cad1640cce241e59bdab1f0fdec5ccd08fe85262d782d5a4e",
            "e74351246a1e3831a9e88ff62bc3c4809de4ac58902e7b273f938edb94546f6e",
        ),
        # the integral term reads the exact H_k tail (`hk_tail_oracle`)
        "envelope-centered-gini-grid7": (
            (
                515, 2000, 40, "gini\n  centered: true", "uniform-grid\n  grid_points: 7", 0.05, 1.0, 20,
                "beta_tolerance: 0.5\nenvelope:\n  first: 1.0\n  second: 2.0\n  tail_scale: 0.5\n",
            ),
            "474786564dd247a2e785d98749a295a1cc93da4ea668176d84319c4c16bdcc85",
            "b2d5c38cb0d17e333a504dc70359101557e401469e64dc13be94d03fa13e12a5",
        ),
        # no integral term: pins the exponential term's bytes on its own
        "envelope-first-only": (
            (
                2024, 2000, 40, "product", "rademacher", 0.2, 6.0, 24,
                "envelope:\n  first: 1.0\n  second: 0.0\n  scale: 2.0\n",
            ),
            "bfeae3691271ca9d8cf2b0191cabf54530ce9b85473a7e9ab83678ba4ed5b733",
            "5cd8698e34b8456d9d653a660d78c14d0af0350788f261223c438ef1194e8706",
        ),
        # integer atoms: these take the product recurrence
        "product-rademacher-n160": (
            (2024, 500, 160, "product", "rademacher", 0.2, 6.0, 24, ""),
            "63d564cff0d89b9224ba38e1885c7dbb03536e40b9943e5c20c3b645c1155eeb",
            "900dae82dd54228a7130fd67001e68392b40f44d482fcc67c497b15a952ed342",
        ),
        "product-finite-pm12": (
            (
                77, 1000, 100, "product",
                "finite\n  atoms: [-2, -1, 1, 2]\n  probs: [0.25, 0.25, 0.25, 0.25]", 0.2, 12.0, 24, "",
            ),
            "67cebcf62e5e8998fa3bcbd9444d29f78ba18060a718f0b043c59320a6a3e88d",
            "0f1848cf14cdae3fe25ea67affd6df3addec2eb063b54830fc1296225b85c5e7",
        ),
        # an integer table: the atom-count route
        "centered-gini-rademacher-n160": (
            (2024, 500, 160, "gini\n  centered: true", "rademacher", 0.2, 6.0, 24, ""),
            "63d564cff0d89b9224ba38e1885c7dbb03536e40b9943e5c20c3b645c1155eeb",
            "900dae82dd54228a7130fd67001e68392b40f44d482fcc67c497b15a952ed342",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_digests_are_pinned(self, tmp_path, case):
        params, csv_digest, dat_digest = self.CASES[case]
        cfg = parse_config_text(self.CONFIG % params)
        assert run("tailscan", cfg, out_dir=str(tmp_path)) == EXIT_OK
        assert sha256(tmp_path / "tailscan.csv") == csv_digest
        assert sha256(tmp_path / "tailscan.dat") == dat_digest
        assert read_manifest(tmp_path)["outputs"] == {
            "tailscan.csv": csv_digest,
            "tailscan.dat": dat_digest,
        }


class TestEstimateDigests:
    """Output digests of the estimate subcommand, recorded before the config
    schema was declared once; every later version must match them."""

    CASES = {
        "product-values": (
            ESTIMATE_CONFIG,
            {
                "estimate.csv": "65b22f2b90ea96d4df2b6a7c2e875346634a12635bac2282f0a4db7bd8b51f0b",
                "estimate.dat": "13a4d55e6271895ee7eab085bffaf7babed0d1a55956ce68f7a3ad7c02e9583a",
                "estimate-prefix-norms.csv": "d84ee35a48688d809758c0ee326a49979cdf9882b194d4598e3073bbafbac1fc",
                "estimate-prefix-norms.dat": "c575922a00c7d473552ba5819b19e08ccc9d49568418c2766d5d47582a51ca7a",
            },
        ),
        "gini-grid7-draw200": (
            """\
version: 1
experiment: estimate
seed: 41
kernel:
  name: gini
sampler:
  kind: uniform-grid
  grid_points: 7
data: {draw: 200}
""",
            {
                "estimate.csv": "5ce423089df6c8b9b857ed905d4bd912f0483c4107da176cf7e9ddcc24dc0f63",
                "estimate.dat": "f260e03d7496df7e68e954b43b0b66751f92008155b4b57a68e0a46f36a1f925",
                "estimate-prefix-norms.csv": "c60b486850f505ccae65af62a3efb7e249d1916f87f4a9c3b595666c03a9930b",
                "estimate-prefix-norms.dat": "f174fda1e1a259876c388fae655a7bc558c791a4510d915f2a12e25adaae4847",
            },
        ),
        "spatial-sign-gaussian-dim2": (
            """\
version: 1
experiment: estimate
seed: 42
sample_size: 30
kernel:
  name: spatial-sign
  dim: 2
sampler:
  kind: discretized-gaussian
  dim: 2
""",
            {
                "estimate.csv": "6cb06deb744127102775c966d984da2ef2f39e8a0e332983af3709492f79941d",
                "estimate.dat": "5ef21181fbf6786193d6c43243981bcc21e3bf22148cc69ca70d7cf58768c455",
                "estimate-prefix-norms.csv": "919e0f6634bfa68872e768dacc257e66944c3814588571e21647395195126a61",
                "estimate-prefix-norms.dat": "2773ca19f1496f230024ddde6002094345653e094031b9b149b93b2fc492cab8",
            },
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_digests_are_pinned(self, tmp_path, case):
        text, expected = self.CASES[case]
        assert run("estimate", parse_config_text(text), out_dir=str(tmp_path)) == EXIT_OK
        assert {name: sha256(tmp_path / name) for name in expected} == expected
        assert read_manifest(tmp_path)["outputs"] == expected


class TestDecomposeDigests:
    """Output digests recorded with projections enumerated term by term, before
    they became tables over the support; every later version must match them."""

    CONFIG = """\
version: 1
experiment: decompose
seed: %d
kernel:
  name: %s
  centered: %s
sampler:
  kind: %s
data:
  draw: %d
"""
    CASES = {
        "centered-gini-grid64": (
            (2024, "gini", "true", "uniform-grid\n  grid_points: 64", 60),
            "36ffad3990c37245c9745d5ec72b6d261a02cae8d784878d9e47c41caf74b343",
            "ae8e81bf493f893655228d1ff336725aac08e5eeec465b3708c49f8cb1cec5f8",
        ),
        "gini-rademacher": (
            (31, "gini", "false", "rademacher", 25),
            "dc2d7bf5273328d38a8868fd0338935afd5c9703542a4095083d28941086480f",
            "7b82d32da85d28e1c3a3d9f28816159f0b0ef5433e9b3138e2c21df17882ecf5",
        ),
        "centered-product-grid7": (
            (77, "product", "true", "uniform-grid\n  grid_points: 7", 30),
            "279346210e5edddfb63459c763dafed37a1e90061fe7aceed03a17ca7898f0ca",
            "7fd16f163ed73f5a64955f7a5491d2f44d4b7dd8e2db6f797686333c1a5cfc84",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_digests_are_pinned(self, tmp_path, case):
        params, csv_digest, dat_digest = self.CASES[case]
        cfg = parse_config_text(self.CONFIG % params)
        assert run("decompose", cfg, out_dir=str(tmp_path)) == EXIT_OK
        assert sha256(tmp_path / "decompose.csv") == csv_digest
        assert sha256(tmp_path / "decompose.dat") == dat_digest
        assert read_manifest(tmp_path)["outputs"] == {
            "decompose.csv": csv_digest,
            "decompose.dat": dat_digest,
        }


class TestMartingaleDigests:
    """Output digests recorded with path summaries and tail bands computed one
    path and one step-function piece at a time, before they became array
    passes; every later version must match them."""

    CONFIG = """\
version: 1
experiment: martingale-verify
seed: %d
replicas: %d
martingale:
  generator: %s
  steps: %d
  dim: %d
  variants: [%s]
"""
    CASES = {
        "gaussian-dim2": (
            (501, 1000, "gaussian-coords", 50, 2, "A2, A3, conv"),
            {
                "A2.csv": "253c8962fa13b2926beae00d71d5bc9adf0431e144bb3563224113d17405bf62",
                "A2.dat": "8c8ae91e0f409250b1ad760b910c63e7040ed58d8b96bd6a7439f5e8078a7525",
                "A3.csv": "83e873ea04f9a29b46d1b98465a464898e1c23896f04d70e90d09fa43f90c054",
                "A3.dat": "3bfeefcdec927735c6438f34247187edff221f044f736f8ea9a05f0d52919afd",
                "conv.csv": "ff5927202350beb3ec946fcad8aa03b940423a0736c2b03d8e4fac79e99fbe47",
                "conv.dat": "7e623559f6d5b54080c79382bf45a66cff993c1b221e994dd1d55ee5e20658be",
            },
        ),
        "bounded-signs": (
            (77, 800, "bounded-signs", 30, 1, "real, A2, A3, conv"),
            {
                "real.csv": "df9e80bd294804c1821b2063d410feb5efadf81f82b3fee2b08ed0e638a7f0a2",
                "real.dat": "1bafe86a6c3d7a549760a79620eb42c6d5cbbc00cfd2d4980c51c3955ed12408",
                "A2.csv": "09e87f391b413e5b2eddef913e3aebd2c277fb7db05d526a44f3c89f8c5197a8",
                "A2.dat": "e812282fcb4c8c6c885b1d2e9cbec76061df847954fe7fbf8f3062c80a0a0b15",
                "A3.csv": "c8d80060d9fb320883e00327ba7d816e0e05b1c30831e8c4cd860e2f55dcebc0",
                "A3.dat": "e888a6b2ff66431e713a8f42dc2c2fc863a4496da86fbe38140871c4dfff25df",
                "conv.csv": "72c7a120ad14cfd89a9e00a6682cc3660fc55ca08f3ffe7110a71ce0914675c4",
                "conv.dat": "b5bc377847d2b51a0887dc5efe09c72405e8a595ff2e3b1d608b73d3dc6e533e",
            },
        ),
        "f0-randomized-dim3": (
            (31, 800, "f0-randomized-scale", 40, 3, "A2, A3, conv"),
            {
                "A2.csv": "889c63148b0c1ee707e4db1ed2adf662d093bc9763c30dc74806be4514540219",
                "A2.dat": "2232a338ac0be573001a7c65dfa4bc06b2e6ab4121dfbe19a04481f9228c280e",
                "A3.csv": "b418811897e1025d83e1e82007939b769b393a3cb47ca4338e9a0cbda9051922",
                "A3.dat": "8dc3597583707eb3441b7214ac7215862140329fb0f3fae1cbb862fc5f99f072",
                "conv.csv": "e17f833222c1ac153d433dfe5212906598b31510e828fc44c66d44f6e3984140",
                "conv.dat": "f5278a99e814be87d30f8fbddda005737d7c16c5720413954415be81bd779ce9",
            },
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_digests_are_pinned(self, tmp_path, case):
        params, digests = self.CASES[case]
        cfg = parse_config_text(self.CONFIG % params)
        assert run("martingale-verify", cfg, out_dir=str(tmp_path)) == EXIT_OK
        expected = {f"martingale-{name}": digest for name, digest in digests.items()}
        assert {name: sha256(tmp_path / name) for name in expected} == expected
        assert read_manifest(tmp_path)["outputs"] == expected


def _pinned_run(tmp_path, experiment, text):
    """Run one config; return its exit status and the csv, dat and results digests."""
    status = run(experiment, parse_config_text(text), out_dir=str(tmp_path))
    manifest = read_manifest(tmp_path)
    digests = tuple(sha256(tmp_path / f"{experiment}.{ext}") for ext in ("csv", "dat"))
    assert manifest["outputs"] == {f"{experiment}.csv": digests[0], f"{experiment}.dat": digests[1]}
    results = json.dumps(manifest["results"], sort_keys=True).encode()
    return (status, *digests, hashlib.sha256(results).hexdigest())


class TestIncompleteDigests:
    """Output digests (csv, dat and the manifest's results block, which holds
    the matching-point figures) recorded with one design draw and one reduce
    per replica, before replicas were batched; every later version must
    match them."""

    CASES = {
        "workload-product": (
            """\
version: 1
experiment: incomplete-compare
seed: 600
replicas: 200
kernel:
  name: product
sampler:
  kind: rademacher
scaling:
  design_kind: with-replacement
  sizes: [100, 1000, 10000]
  sample_sizes: [20, 40]
""",
            EXIT_OK,
            "8e4ad8b8d394dc6c614ecb77c28450e1c279a02960688d24fb8893cc9f06eca2",
            "d411b5e5a8d76cbc30fa86aac474b1bb2cb54e3d1d27685adf2138773bf94eae",
            "70a3dac1d385a9f7e01469e60c37ff316a042437dbbb03a5dad1e32a21738f74",
        ),
        "without-replacement-gini-grid7": (
            """\
version: 1
experiment: incomplete-compare
seed: 91
replicas: 200
kernel:
  name: gini
  centered: true
sampler:
  kind: uniform-grid
  grid_points: 7
scaling:
  design_kind: without-replacement
  sizes: [3, 40, 66]
  sample_sizes: [12, 20]
""",
            EXIT_VIOLATION,
            "d1d42ff887873f50d943f892859a39cd90420b38b6a7f355f2f37da26861d182",
            "74abb4bc9fe851f99f5a89277d6713c685a1134ae67b6cc31986b3449f062d69",
            "d6def5a042ce3f51eb4955d910ac5292d460727358f0a2e3be1cb3177602d5d3",
        ),
        "bernoulli-gini-grid7": (
            """\
version: 1
experiment: incomplete-compare
seed: 92
replicas: 200
kernel:
  name: gini
  centered: true
sampler:
  kind: uniform-grid
  grid_points: 7
scaling:
  design_kind: bernoulli
  sizes: [0.02, 0.2, 0.9]
  sample_sizes: [8, 15]
""",
            EXIT_OK,
            "20ac12a98e2f6434352b63d8a5e08dab0da773665ad5537554cc0d666e6e07b1",
            "184a170b1991664c953d95ed9b408618c54c1f0ab0e64aece40b291b84f4024d",
            "166cf6d52c266e248ad71a76e59cbebf7199486eac659d71360c23aafed94254",
        ),
        "indicator-dim2": (
            """\
version: 1
experiment: incomplete-compare
seed: 93
replicas: 200
kernel:
  name: empirical-indicator
  grid_points: 2
sampler:
  kind: finite
  atoms: [-0.7, 0.1, 0.35, 1.3]
  probs: [0.1, 0.3, 0.35, 0.25]
scaling:
  design_kind: with-replacement
  sizes: [5, 60, 500]
  sample_sizes: [10, 16]
""",
            EXIT_VIOLATION,
            "c1e5aa58b18d73cf22a9fe3b8bbf20e4ec84d149f7b2ffc4500b8c70ed408504",
            "af0b0bd7df11bc4b157013484a6a74416ef92c97a12a28a7a48e5e1f8da0b4df",
            "05a8a067d10a8f24e7ff46e7124cd875252ed99bf890457451fa86d889eeb04f",
        ),
        "matching-gini-grid7": (
            """\
version: 1
experiment: incomplete-compare
seed: 94
replicas: 200
kernel:
  name: gini
  centered: true
sampler:
  kind: uniform-grid
  grid_points: 7
scaling:
  design_kind: with-replacement
  sizes: [10, 100]
  sample_sizes: [10]
  matching:
    sample_size: 20
    size: 7
    replicas: 300
    sampler_kind: discretized-gaussian
""",
            EXIT_OK,
            "3d6b4de8e278f4ae9ee2f448c0be05e227b7c4ea79138a42a68abee422b57b7d",
            "4eb4955a4b90d534084acc2857b532c83de2134457aa1722947c07a5243fd7af",
            "2c52f55de628962f10232dae38faf921c26516da838819ae668f9bcf83336085",
        ),
        "matching-own-sampler": (
            """\
version: 1
experiment: incomplete-compare
seed: 95
replicas: 200
kernel:
  name: empirical-indicator
  grid_points: 3
sampler:
  kind: uniform-grid
  grid_points: 7
scaling:
  design_kind: without-replacement
  sizes: [2, 9]
  sample_sizes: [9, 14]
  matching:
    sample_size: 16
    size: 5
    replicas: 250
""",
            EXIT_VIOLATION,
            "ca943480c29fe38309b64a5930a1018797688dc024c0c98e7ddc90c5aba9f353",
            "6037f2311ca95062ac637feb31dab048b73d55f3956e75a4ce5ce93f4972d82a",
            "25c339575de5d69c9b86519e5f24ca644e79ef5336e16ef58bfd90857375db56",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_digests_are_pinned(self, tmp_path, case):
        text, *expected = self.CASES[case]
        assert _pinned_run(tmp_path, "incomplete-compare", text) == tuple(expected)


class TestDecoupleDigests:
    """Output digests recorded with complete and decoupled statistics drawn and
    reduced one replica at a time, before replicas were batched."""

    CASES = {
        "gini-grid7": (
            """\
version: 1
experiment: decouple-compare
seed: 96
replicas: 600
sample_size: 12
kernel:
  name: gini
  centered: true
sampler:
  kind: uniform-grid
  grid_points: 7
x_grid: {start: 0.5, stop: 12.0, points: 16, scale: log}
""",
            EXIT_OK,
            "b67e86f6e23b1bba7ac3989fbb866718415f5647023f0a70dbb6c2155e2d0ef4",
            "d16fa78393c822bf9bc329f2947a2dd639d10765715bfac39e4535788bc74b30",
            "49468e7698c678453235b770af604f2cbc155cd029da251c2c7e78df3031c7ec",
        ),
        "spatial-sign-gaussian-dim2": (
            """\
version: 1
experiment: decouple-compare
seed: 97
replicas: 500
sample_size: 9
kernel:
  name: spatial-sign
  dim: 2
sampler:
  kind: discretized-gaussian
  dim: 2
x_grid: {start: 0.2, stop: 8.0, points: 12, scale: log}
""",
            EXIT_OK,
            "752f82e80d91772a4874c5698b96609ee5783e0eba80ddea95e176ae889b4213",
            "2d2fa90d0b5bb61762b0e3e62dafe5daaba7e11e736036700381fb4387ba3917",
            "cc0a64565107c43e2a1f80355a9e25770e72e5f60ba99d6553104098139b494d",
        ),
        "product-rademacher": (
            """\
version: 1
experiment: decouple-compare
seed: 700
replicas: 1000
sample_size: 30
kernel:
  name: product
sampler:
  kind: rademacher
x_grid: {start: 0.2, stop: 6.0, points: 24, scale: log}
""",
            EXIT_OK,
            "b3e17cace0bd58bc37be84df2e8e35d54134090920313deabdb9a670c2ddd029",
            "8c909a453b2f25611508167d3aa0cc668ff7f1c3c6974b66f22272b530c00491",
            "f59683f63ef6286616fb14cbe2ce7ec86d68a7f6bd9980715398bafba55370c0",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_digests_are_pinned(self, tmp_path, case):
        text, *expected = self.CASES[case]
        assert _pinned_run(tmp_path, "decouple-compare", text) == tuple(expected)


def test_each_value_is_formatted_once_for_both_tables(monkeypatch, tmp_path):
    calls = []
    original = cli._fmt
    monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or original(v))
    cfg = parse_config_text(ESTIMATE_CONFIG)
    rows = [(1, 0.5, True), (2, -0.25, False)]
    cli._emit(cfg, str(tmp_path), "started", {"table": (["a", "b", "c"], rows)}, {}, EXIT_OK, [])
    assert len(calls) == 6
    assert (tmp_path / "table.csv").read_text() == "a,b,c\n1,0.5,1\n2,-0.25,0\n"
    assert (tmp_path / "table.dat").read_text() == "# a b c\n1 0.5 1\n2 -0.25 0\n"


def _manifest_digest(out_dir):
    """The sha256 of the manifest less its two timestamps, the package
    version and the warnings raised, which are checked on their own: a
    pinned run raises none."""
    manifest = read_manifest(out_dir)
    del manifest["started_utc"], manifest["finished_utc"]
    assert manifest.pop("artifact_version") == ustatlab.__version__
    assert manifest.pop("warnings") == []
    return manifest, hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


class TestManifestPins:
    """The whole manifest for one config per subcommand, and three for
    incomplete-compare's matching samplers, recorded while each runner still
    wrote its own files. `results` covers None, a non-finite value (written
    as its repr), nested lists and a violation."""

    CASES = {
        "estimate": (ESTIMATE_CONFIG, EXIT_OK, {}, "401d022b039d16aca7353a748388fb65b1279e454cdf5532c67457dd9afa4858"),
        "decompose": (
            """\
version: 1
experiment: decompose
seed: 902
kernel: {name: gini, centered: true}
sampler: {kind: uniform-grid, grid_points: 8}
data: {draw: 12}
""",
            EXIT_OK,
            {"declared_matches": None, "identity_ok": True},
            "c43b9fd87f0afe5cab96b38fb35a36c8e688985a6c9817d87f023d002b4634d2",
        ),
        "tailscan-no-fit": (
            """\
version: 1
experiment: tailscan
seed: 12
replicas: 100
sample_size: 6
kernel: {name: product}
sampler: {kind: rademacher}
x_grid: {start: 50.0, stop: 100.0, points: 4, scale: log}
envelope: {first: 0.5, tail_scale: 2.0}
""",
            EXIT_OK,
            {"beta": None, "fit_available": False},
            "9a2d96c23524daa544cd0b1f048606e34e136c384dc9e7ef624eb23a61d056e2",
        ),
        "incomplete-all-empty": (
            """\
version: 1
experiment: incomplete-compare
seed: 11
replicas: 100
kernel: {name: product}
sampler: {kind: rademacher}
quantile: 0.5
scaling:
  design_kind: bernoulli
  sizes: [0.0001]
  sample_sizes: [2, 3]
""",
            EXIT_VIOLATION,
            {"spread": "inf", "spread_ok": False},
            "27118d47b73b6ae7c3648b08a621f49cc092f3c2f821ca3dfd9d9f5e7546079c",
        ),
        "incomplete-matching-gaussian": (
            """\
version: 1
experiment: incomplete-compare
seed: 904
replicas: 100
kernel: {name: product}
sampler: {kind: rademacher}
scaling:
  design_kind: with-replacement
  sizes: [3, 10]
  sample_sizes: [6, 8]
  matching: {sample_size: 8, size: 5, replicas: 100, sampler_kind: discretized-gaussian}
""",
            EXIT_OK,
            {},
            "0c4baa014a1e5b6625ae1caaaff820b00bef8788e76f20940626d9e22a1617ee",
        ),
        "incomplete-matching-rademacher": (
            """\
version: 1
experiment: incomplete-compare
seed: 905
replicas: 100
kernel: {name: gini, centered: true}
sampler: {kind: uniform-grid, grid_points: 5}
scaling:
  design_kind: without-replacement
  sizes: [4]
  sample_sizes: [6]
  matching: {sample_size: 10, size: 6, replicas: 100, sampler_kind: rademacher}
""",
            EXIT_OK,
            {},
            "807b6f3c97ea2a8d79705abbb1c1d71614e43545040c62b25bd553320c1765e0",
        ),
        "decouple-no-constant": (
            """\
version: 1
experiment: decouple-compare
seed: 13
replicas: 100
sample_size: 5
kernel: {name: product}
sampler: {kind: rademacher}
x_grid: {start: 50.0, stop: 100.0, points: 4, scale: log}
""",
            EXIT_OK,
            {"fitted_constant": None, "constant_defined": False},
            "e1111af27a732cbe5eaab5af0b47957ba88feef60913ab330088717e3ce1fc8e",
        ),
        "martingale": (
            """\
version: 1
experiment: martingale-verify
seed: 906
replicas: 100
martingale: {generator: gaussian-coords, dim: 2, steps: 10, variants: [A2, A3, conv]}
""",
            EXIT_OK,
            {"total_violations": 0},
            "f9d6e68b4bca75fa3a5bb0788f7050931d0566b4d032e8fc430281aac8514add",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_manifest_is_pinned(self, tmp_path, case):
        text, status, some_results, digest = self.CASES[case]
        cfg = parse_config_text(text)
        assert run(cfg.experiment, cfg, out_dir=str(tmp_path)) == status
        manifest, got = _manifest_digest(tmp_path)
        assert manifest["exit_status"] == status
        assert some_results.items() <= manifest["results"].items()
        assert got == digest



class TestManifestWarnings:
    """The manifest lists the warnings a run raised, in the order raised, and
    the run still emits each of them."""

    CONFIG = """\
version: 1
experiment: tailscan
seed: 903
replicas: 100
sample_size: 8
kernel: {name: product, sup_bound: 0.5}
sampler: {kind: rademacher}
x_grid: {start: 0.1, stop: 3.0, points: 6, scale: log}
beta_tolerance: 5.0
"""

    def test_a_sup_bound_warning_is_listed_and_emitted_on_every_run(self, tmp_path):
        cfg = parse_config_text(self.CONFIG)
        for out_dir in (tmp_path / "first", tmp_path / "second"):
            with pytest.warns(SupBoundWarning) as caught:
                run("tailscan", cfg, out_dir=str(out_dir))
            listed = read_manifest(out_dir)["warnings"]
            assert [w["category"] for w in listed] == ["SupBoundWarning"]
            assert listed[0]["message"] == str(caught[0].message)
            assert "exceeded declared sup bound 0.5" in listed[0]["message"]

    def test_a_clean_run_lists_none(self, tmp_path):
        cfg = parse_config_text(self.CONFIG.replace("sup_bound: 0.5", "sup_bound: 1.0"))
        assert run("tailscan", cfg, out_dir=str(tmp_path)) == EXIT_OK
        assert read_manifest(tmp_path)["warnings"] == []


def _assert_emitters_agree(cfg):
    """emit_config's text is the pure-Python SafeDumper's, byte for byte."""
    if hasattr(yaml, "CSafeDumper"):
        assert cli._DUMPER is yaml.CSafeDumper
    assert emit_config(cfg) == yaml.dump(cli._dump(cfg), Dumper=yaml.SafeDumper, sort_keys=False)


_PINNED_TEXTS = {"estimate": ESTIMATE_CONFIG, **{f"pin-{k}": v[0] for k, v in TestManifestPins.CASES.items()}}


@pytest.mark.parametrize("name", list(_PINNED_TEXTS))
def test_the_c_emitter_gives_the_python_text_on_the_pinned_configs(name):
    _assert_emitters_agree(parse_config_text(_PINNED_TEXTS[name]))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_CONFIGS)
def test_the_c_emitter_gives_the_python_text_on_any_config(mapping):
    _assert_emitters_agree(parse_config_text(yaml.safe_dump(mapping, sort_keys=False)))

def _raise(*args, **kwargs):
    raise RuntimeError("step failed")


class TestFailedRunWritesNothing:
    def test_a_later_martingale_variant_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "verify_conv_grid", _raise)
        cfg = parse_config_text(TestManifestPins.CASES["martingale"][0])
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="step failed"):
            run("martingale-verify", cfg, out_dir=str(out))
        assert not out.exists()

    def test_the_matching_step_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "matching_point_compare", _raise)
        cfg = parse_config_text(TestManifestPins.CASES["incomplete-matching-gaussian"][0])
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="step failed"):
            run("incomplete-compare", cfg, out_dir=str(out))
        assert not out.exists()


def test_a_failed_atomic_write_leaves_no_temporary_file(tmp_path):
    """A write that raises removes its `.tmp-*` file and leaves no target."""
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(str(tmp_path / "table.csv"), "a,b\n\ud800\n")  # a lone surrogate has no UTF-8
    assert list(tmp_path.iterdir()) == []


def test_started_utc_is_taken_before_the_computation(monkeypatch, tmp_path):
    clock = [datetime(2020, 1, 1, tzinfo=timezone.utc)]

    class FakeClock:
        @staticmethod
        def now(tz):
            assert tz is timezone.utc
            return clock[0]

    def slow_complete(*args):
        clock[0] += timedelta(hours=1)
        return complete(*args)

    monkeypatch.setattr(cli, "datetime", FakeClock)
    monkeypatch.setattr(cli, "complete", slow_complete)
    assert run("estimate", parse_config_text(ESTIMATE_CONFIG), out_dir=str(tmp_path)) == EXIT_OK
    manifest = read_manifest(tmp_path)
    assert manifest["started_utc"] == "2020-01-01T00:00:00+00:00"
    assert manifest["finished_utc"] == "2020-01-01T01:00:00+00:00"


def test_an_infinite_setting_is_written_as_strict_json(tmp_path):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    cfg = parse_config_text(TestManifestPins.CASES["tailscan-no-fit"][0] + "beta_tolerance: .inf\n")
    assert run("tailscan", cfg, out_dir=str(tmp_path)) == EXIT_OK
    manifest = json.loads((tmp_path / "run_manifest.json").read_text(), parse_constant=refuse)
    assert manifest["results"]["beta_tolerance"] == "inf"
