"""The parts of the package the benchmark harness under bench/ relies on.

bench/spans.py wraps the functions it names in TRACED, and bench/child.py
calls into ustatlab.cli; a rename or a changed signature there breaks the
traced run or fails every benchmark child without touching any other test.
The harness files are read here, never modified.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ustatlab import cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _load_spans().TRACED])
def test_traced_functions_resolve(module, attr):
    target = importlib.import_module(f"ustatlab.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def _cli_calls():
    """Every `cli.<name>(...)` call in bench/child.py."""
    tree = ast.parse((BENCH / "child.py").read_text(encoding="utf-8"))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "cli"
    ]


def test_child_calls_bind_to_the_cli_signatures():
    calls = _cli_calls()
    assert {c.func.attr for c in calls} >= {"parse_config", "run"}
    for call in calls:
        signature = inspect.signature(getattr(cli, call.func.attr))
        args = [object()] * len(call.args)
        kwargs = {kw.arg: object() for kw in call.keywords}
        signature.bind(*args, **kwargs)  # raises TypeError when the call no longer fits


def test_run_accepts_the_ignored_threads_keyword(tmp_path):
    cfg = cli.parse_config_text("version: 1\nexperiment: estimate\ndata: {values: [1, -1, 2]}\n")
    assert cli.run("estimate", cfg, out_dir=str(tmp_path), threads=2) == cli.EXIT_OK


def test_traced_martingale_run_sees_the_simulation(tmp_path):
    """bench/child.py in trace mode counts every simulated path of a
    martingale-verify run under martingale.simulate_ensemble."""
    replicas = 150
    config = tmp_path / "martingale.yaml"
    config.write_text(
        f"version: 1\nexperiment: martingale-verify\nseed: 3\nreplicas: {replicas}\n"
        "martingale: {generator: gaussian-coords, dim: 2, steps: 5, variants: [A2, conv]}\n"
    )
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    argv = [str(config), "martingale-verify", str(tmp_path / "out"), "1", str(result), "trace"]
    subprocess.run([sys.executable, str(BENCH / "child.py"), *argv], env=env, check=True, timeout=120)
    layers = json.loads(result.read_text())["layers"]
    assert layers["martingale.simulate_ensemble.paths"] == replicas
    assert layers["martingale.simulate_ensemble.s"] > 0
