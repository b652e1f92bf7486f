"""Import weight of the CLI: no scipy and no numpy.ma at any point, nothing
imported mid-run, and no numpy.ma after a library call that counts draws.

Each subcommand runs at a tiny size in a fresh interpreter, so the modules
it loads are its own, not those of earlier tests. A module imported during
`cli.run` costs its import time inside the run instead of at start-up.

Also guards the package's source: only `kernels.py` may ask which evaluator
a kernel was given, only `ustats.py` decides when a sum is exact, only
`montecarlo.py` evaluates the bound envelope, no module imports inside a
function, no CLI runner writes a file, every function has a caller, every
parameter default is overridden by some call, no module keeps an unbounded
dict cache, the package exports each module's
`__all__` and nothing twice, only `ustats._stacked_values`
evaluates tuples in `ustats` and `montecarlo`, only
`montecarlo._sample_batches` draws batches of samples in `montecarlo`, and
a Monte Carlo run's seed lives in its sampler alone.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import ustatlab

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ustatlab"

CONFIGS = {
    "estimate": """\
version: 1
experiment: estimate
seed: 901
kernel: {name: gini}
sampler: {kind: uniform-grid, grid_points: 7}
data: {draw: 20}
""",
    "decompose": """\
version: 1
experiment: decompose
seed: 902
kernel: {name: gini, centered: true}
sampler: {kind: uniform-grid, grid_points: 8}
data: {draw: 12}
""",
    "tailscan": """\
version: 1
experiment: tailscan
seed: 903
replicas: 100
sample_size: 8
kernel: {name: product}
sampler: {kind: rademacher}
x_grid: {start: 0.1, stop: 3.0, points: 6, scale: log}
beta_tolerance: 5.0
""",
    "incomplete-compare": """\
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
  matching: {sample_size: 8, size: 5, replicas: 100}
""",
    "decouple-compare": """\
version: 1
experiment: decouple-compare
seed: 905
replicas: 100
sample_size: 6
kernel: {name: spatial-sign, dim: 2}
sampler: {kind: discretized-gaussian, dim: 2}
x_grid: {start: 0.2, stop: 4.0, points: 6, scale: log}
""",
    "martingale-verify": """\
version: 1
experiment: martingale-verify
seed: 906
replicas: 100
martingale: {generator: gaussian-coords, dim: 2, steps: 10, variants: [A2, A3, conv]}
""",
}

CHILD = """\
import json, os, sys
import numpy as np
import ustatlab
from ustatlab import cli
from ustatlab.ustats import SamplingDesign, draw_design

def masked():
    return sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))

work = sys.argv[1]
report = {"masked at import": masked()}
for subcommand, text in json.loads(sys.argv[2]).items():
    path = os.path.join(work, subcommand + ".yaml")
    with open(path, "w") as fh:
        fh.write(text)
    cfg = cli.parse_config(path)
    before = set(sys.modules)
    status = cli.run(subcommand, cfg, out_dir=os.path.join(work, subcommand))
    report[subcommand] = {"status": status, "added": sorted(set(sys.modules) - before)}
report["scipy"] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
report["masked after the runs"] = masked()
draw_design(SamplingDesign("with-replacement", size=50), 2, 10, np.random.default_rng(0))
report["masked after a with-replacement design"] = masked()
print(json.dumps(report))
"""


def test_cli_runs_load_no_scipy_and_import_nothing_mid_run(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), json.dumps(CONFIGS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report.pop("scipy") == []
    # numpy loads numpy.ma lazily, at the first plain np.unique or np.quantile
    assert report.pop("masked at import") == []
    assert report.pop("masked after the runs") == []
    assert report.pop("masked after a with-replacement design") == []
    assert sorted(report) == sorted(CONFIGS)
    for subcommand, entry in report.items():
        assert entry == {"status": 0, "added": []}, subcommand


def test_only_kernels_branches_on_the_evaluator():
    """`KernelSpec` builds whichever evaluator is missing, so no other module
    needs a second, per-tuple path for kernels without `eval_batch`."""
    forks = [path.name for path in sorted(PACKAGE.glob("*.py")) if "eval_batch is" in path.read_text()]
    assert forks == ["kernels.py"]


def _is_two_to_the_53(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and all(isinstance(side, ast.Constant) for side in (node.left, node.right))
        and (node.left.value, node.right.value) == (2, 53)
    )


def test_only_ustats_compares_against_2_to_the_53():
    """The exact-integer rule (integer values, no -0, total * max|v| < 2**53)
    is written once, in `ustats`; other modules ask it instead of comparing
    against 2**53 themselves. A scaling such as `1.0 / 2**53` is no bound."""
    bounds = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Compare) and any(_is_two_to_the_53(part) for part in ast.walk(node))
    ]
    assert bounds and all(bound.startswith("ustats.py:") for bound in bounds), bounds


def test_only_montecarlo_evaluates_the_envelope():
    """`tail_scan` decides the envelope's order, which tail its integral
    term reads and when that tail needs a finite law, so no other module
    calls `envelope_eval` or `hk_tail_oracle`."""
    callers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("envelope_eval", "hk_tail_oracle")
    }
    assert callers == {"montecarlo.py"}


def test_only_ustats_runs_the_atom_routes():
    """`ustats._atom_route` chooses how a finite law's running maxima are
    read from atom indices, so only `ustats` calls the routes, and
    `montecarlo` imports none of the rules that choose between them."""
    callers = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in ("_product_running_max", "_table_running_max")
    }
    assert callers == {"ustats.py"}
    rules = {"_exact_sums", "_product_exact", "_is_real_product", "ENUMERATION_BUDGET"}
    imported = {
        alias.name
        for node in ast.walk(ast.parse((PACKAGE / "montecarlo.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported and not imported & rules


def test_only_stacked_values_evaluates_tuples():
    """Every estimator and experiment in `ustats` and `montecarlo` gathers
    and evaluates its tuples through `ustats._stacked_values`, so no other
    function there calls `batch_values`."""
    callers = {
        f"{name}:{func.name}"
        for name in ("ustats.py", "montecarlo.py")
        for func in ast.walk(ast.parse((PACKAGE / name).read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "batch_values"
    }
    assert callers == {"ustats.py:_stacked_values"}


def test_only_the_producer_draws_sample_batches():
    """`montecarlo._sample_batches` is the one replica loop: the tail scan's
    gather, both design experiments and the decoupling experiment read their
    samples from it, so no other function there calls `draw_iid_batch`."""
    callers = {
        func.name
        for func in ast.walk(ast.parse((PACKAGE / "montecarlo.py").read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "draw_iid_batch"
    }
    assert callers == {"_sample_batches"}


def test_the_sampler_holds_the_only_seed():
    """A Monte Carlo run draws every stream from the seed of the sampler it
    is given: no `src/` call to `replace` sets `seed_stream`, and no function
    or dataclass field in `montecarlo` holds a `master_seed` of its own."""
    rebinds = {
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "replace"
        and any(kw.arg == "seed_stream" for kw in node.keywords)
    }
    seeded = set()
    for node in ast.walk(ast.parse((PACKAGE / "montecarlo.py").read_text())):
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            seeded.update(node.name for a in args if a.arg == "master_seed")
        elif isinstance(node, ast.ClassDef):
            seeded.update(
                node.name for field in node.body
                if isinstance(field, ast.AnnAssign) and getattr(field.target, "id", None) == "master_seed"
            )
    assert (rebinds, seeded) == (set(), set())


def test_no_import_inside_a_function():
    """Every module names its dependencies at its top, so none is first
    loaded in the middle of a call."""
    nested = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(nested) == []


def test_one_emitter_writes_the_files():
    """`_emit` is the one function in `cli.py` that makes a directory or
    writes a file, and only `run` calls it, once every `_run_*` runner has
    returned its tables and results; the runners only compute."""
    callers: dict[str, set[str]] = {}
    for func in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    callers.setdefault(name, set()).add(func.name)
    assert callers.get("_emit") == {"run"}
    assert callers["_atomic_write"] == callers["makedirs"] == {"_emit"}
    assert not any(name.startswith("_run_") for name in callers["open"])


# The paper's estimators that no subcommand runs and the benchmark does not
# trace: entry points of the library that nothing inside it calls.
UNCALLED_ESTIMATORS = {"project", "weighted_decomposition_check"}


def _scoped(tree):
    """Every node of `tree` with the names bound around it by the function
    scopes that enclose it (lambdas included): their arguments, assignment
    and loop targets, and nested defs and classes."""
    todo = [(tree, frozenset())]
    while todo:
        node, bound = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            bound = bound | _bound_in(node)
        yield node, bound
        todo.extend((child, bound) for child in ast.iter_child_nodes(node))


def _bound_in(func) -> set[str]:
    """Names the scope of `func` binds, nested function bodies left out."""
    a = func.args
    names = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def test_every_function_has_a_caller():
    """A top-level function in the package is named somewhere in it, traced
    by the benchmark harness (TRACED in bench/spans.py), or one of the
    paper's estimators that no subcommand runs; a function only tests call
    has no place in `src/`, and being exported does not make it called. A
    name read where an enclosing function binds it is a local variable, not
    the function: `kernels.gini` keeps its evaluator in a local `evaluate`."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defined = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    named = set()
    for name, tree in trees.items():
        for node, bound in _scoped(tree):
            if isinstance(node, ast.Name) and node.id not in bound:
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name != "__init__.py":  # an export is no call
                named.update(alias.name for alias in node.names)
    spans = ast.parse((ROOT / "bench" / "spans.py").read_text())
    traced = {
        entry.elts[1].value.split(".")[0]
        for node in spans.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]
        for entry in node.value.elts
    }
    assert traced
    # the exemptions are defined and still have no other caller
    assert UNCALLED_ESTIMATORS <= {func for _, func in defined}
    assert not UNCALLED_ESTIMATORS & (named | traced)
    orphans = [f"{name}:{func}" for name, func in defined if func not in named | traced | UNCALLED_ESTIMATORS]
    assert orphans == []


# Parameters with a default that no `src/` call passes, each with the reason it stays.
UNPASSED_OPTIONS = {
    ("cli", "run", "threads"): "bench/child.py passes it; ROADMAP item 6 deletes it with the benchmark change",
    ("cli", "main", "argv"): "the console entry point, which calls main() with no arguments",
    ("kernels", "gini", "input_space"): "vector inputs, a library capability no subcommand reaches yet",
    ("kernels", "product", "input_space"): "vector inputs, a library capability no subcommand reaches yet",
}


def _definitions(trees) -> dict:
    """Each top-level function as (module, name) and each method of a
    top-level class as (module, "Class.method"), mapped to its def."""
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[module, node.name] = node
            elif isinstance(node, ast.ClassDef):
                defs.update(((module, f"{node.name}.{f.name}"), f) for f in node.body if isinstance(f, ast.FunctionDef))
    return defs


def _module_scope(module: str, tree, defs) -> dict:
    """What each top-level name of a module stands for: (module, name) for a
    package function or class, (module, None) for a package module, None
    for a name imported from another package."""
    scope = {name.split(".")[0]: (m, name.split(".")[0]) for m, name in defs if m == module}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                target = (node.module, alias.name) if node.module else (alias.name, None)
                scope[alias.asname or alias.name] = target if node.level else None
        elif isinstance(node, ast.Import):
            scope.update((alias.asname or alias.name.split(".")[0], None) for alias in node.names)
    return scope


def _calls(trees, defs):
    """(key, implicit, call) for each `src/` call of a package function or
    method, `implicit` counting the leading arguments (self, cls) the call
    binds without passing them. A name resolves through its module's scope,
    and a local variable to nothing. An attribute read from a package module
    or class resolves there, one read from another package's module
    resolves to nothing (`itertools.product` is no call of
    `kernels.product`), and any other names every package method so named,
    called on an instance."""
    for module, tree in trees.items():
        scope = _module_scope(module, tree, defs)
        for call, bound in _scoped(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                key = None if func.id in bound else scope.get(func.id)
                if key in defs:
                    yield key, 0, call
                continue
            if not isinstance(func, ast.Attribute):
                continue
            owner = func.value.id if isinstance(func.value, ast.Name) and func.value.id not in bound else None
            if owner not in scope:  # an instance
                for key, f in defs.items():
                    if key[1].endswith(f".{func.attr}"):
                        yield key, 0 if _decorated(f, "staticmethod") else 1, call
            elif scope[owner] is not None:
                m, name = scope[owner]
                key = (m, func.attr if name is None else f"{name}.{func.attr}")
                if key in defs:
                    yield key, int(_decorated(defs[key], "classmethod")), call


def _decorated(func, name: str) -> bool:
    return any(getattr(d, "id", None) == name for d in func.decorator_list)


def _passed(func, implicit: int, call) -> set[str]:
    """The parameters of `func` that `call` passes, after the `implicit` ones."""
    a = func.args
    positional = [arg.arg for arg in (*a.posonlyargs, *a.args)][implicit:]
    if any(kw.arg is None for kw in call.keywords):  # **mapping
        return {*positional, *(arg.arg for arg in a.kwonlyargs)}
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return {*positional, *(kw.arg for kw in call.keywords)}
    return {*positional[: len(call.args)], *(kw.arg for kw in call.keywords)}


def test_every_option_has_a_caller():
    """A parameter with a default, on a top-level function or a method of a
    top-level class in `src/`, is passed by some `src/` call of that very
    function: a default that no call overrides is a constant, and a value
    the callee can work out is no parameter. UNPASSED_OPTIONS lists the
    exceptions with their reasons."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    defs = _definitions(trees)
    options = set()
    for key, func in defs.items():
        a = func.args
        positional = [*a.posonlyargs, *a.args]
        options.update((*key, arg.arg) for arg in positional[len(positional) - len(a.defaults):])
        options.update((*key, arg.arg) for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default)
    passed = {(*key, name) for key, implicit, call in _calls(trees, defs) for name in _passed(defs[key], implicit, call)}
    assert sorted(options - passed) == sorted(UNPASSED_OPTIONS)


def test_the_package_exports_each_modules_list_once():
    """`ustatlab.__all__` is "__version__" followed by the `__all__` of each
    module `__init__` re-exports with `import *`, in import order: every
    library module but `cli`. `__init__` imports no public name by name, so
    each exported name is written once, in its module's list."""
    modules = {path.stem: importlib.import_module(f"ustatlab.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))}
    del modules["__init__"], modules["cli"]
    listed = {name for module in modules.values() for name in module.__all__}
    assert sorted(set(ustatlab.__all__) ^ (listed | {"__version__"})) == []
    imports = [node for node in ast.parse((PACKAGE / "__init__.py").read_text()).body if isinstance(node, ast.ImportFrom)]
    for node in imports:  # `from .x import *`, or `from . import x` of modules only
        names = [alias.name for alias in node.names]
        assert names == ["*"] or (node.module is None and set(names) <= set(modules)), names
    starred = [node.module for node in imports if node.module is not None]
    assert sorted(starred) == sorted(modules)
    want = ["__version__", *(name for module in starred for name in modules[module].__all__)]
    assert ustatlab.__all__ == want
    assert len(set(want)) == len(want)
    for module in starred:
        for name in modules[module].__all__:
            assert getattr(ustatlab, name) is getattr(modules[module], name), name


def test_no_module_level_dict_cache():
    """A module-level `{}` or `dict()` that calls fill grows for the life of
    the process; a cache is an `lru_cache` with a bound instead, as
    `ustats._lex_columns`, `ustats._grouped_columns`, `kernels._atom_table`,
    `hoeffding._projections`, `FiniteDistribution.rademacher` and
    `FiniteDistribution.uniform_grid` are. Tables written out in full are
    not caches."""
    caches = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and (
            (isinstance(node.value, ast.Dict) and not node.value.keys)
            or (isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "dict")
        )
    ]
    assert caches == []
