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
from pathlib import Path

import pytest

from ustatlab import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
