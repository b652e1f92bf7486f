"""Config parsing, the batch runners, and the on-disk artifact contract."""

import csv
import hashlib
import json

import numpy as np
import pytest

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


class TestParsing:
    def test_defaults_applied(self):
        cfg = parse_config_text(ESTIMATE_CONFIG)
        assert cfg.version == 1
        assert cfg.replicas == 10_000
        assert cfg.beta_tolerance == 0.25
        assert cfg.ratio_bound == 5.0
        assert cfg.quantile == 0.9
        assert cfg.identity_tolerance == 1e-10
        assert cfg.threads == 1

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
design:
  kind: bernoulli
  rate: 1.5
"""
        with pytest.raises(ConfigError, match="rate"):
            parse_config_text(text)

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

    def test_thread_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("USTATLAB_THREADS", "2")
        path = write_config(tmp_path, ESTIMATE_CONFIG)
        out = tmp_path / "out"
        assert main(["estimate", "--config", path, "--out", str(out)]) == EXIT_OK
        monkeypatch.setenv("USTATLAB_THREADS", "many")
        assert main(["estimate", "--config", path, "--out", str(out)]) == EXIT_USAGE

    def test_seed_override_changes_the_manifest(self, tmp_path):
        path = write_config(tmp_path, ESTIMATE_CONFIG)
        out = tmp_path / "out"
        main(["estimate", "--config", path, "--seed", "9", "--out", str(out)])
        assert read_manifest(out)["master_seed"] == 9


class TestTailscanDigests:
    """Output digests recorded with the per-replica sampler, before replicas
    were drawn and reduced in batches; every later version must match them."""

    CONFIG = """\
version: 1
experiment: tailscan
seed: %d
replicas: 2000
sample_size: 40
kernel:
  name: %s
sampler:
  kind: %s
x_grid:
  start: %s
  stop: %s
  points: %d
  scale: log
"""
    CASES = {
        "product-rademacher": (
            (2024, "product", "rademacher", 0.2, 6.0, 24),
            "ff2af07709d6b57ec05e43fc20e438c274aa3fa77ee25f5e39fcb5cd00c2eb60",
            "e697321a8bb4123e96fb447b21d48af0fdeafa33ab1c121deeea72c5ddd4dfa0",
        ),
        "coordinate-grid7": (
            (800, "coordinate", "uniform-grid\n  grid_points: 7", 0.05, 3.0, 20),
            "6e3b7565fdae342cad1640cce241e59bdab1f0fdec5ccd08fe85262d782d5a4e",
            "e74351246a1e3831a9e88ff62bc3c4809de4ac58902e7b273f938edb94546f6e",
        ),
    }

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_digests_are_pinned(self, tmp_path, case, threads):
        params, csv_digest, dat_digest = self.CASES[case]
        cfg = parse_config_text(self.CONFIG % params)
        assert run("tailscan", cfg, out_dir=str(tmp_path), threads=threads) == EXIT_OK
        assert sha256(tmp_path / "tailscan.csv") == csv_digest
        assert sha256(tmp_path / "tailscan.dat") == dat_digest
        assert read_manifest(tmp_path)["outputs"] == {
            "tailscan.csv": csv_digest,
            "tailscan.dat": dat_digest,
        }


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
