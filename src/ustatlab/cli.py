"""Batch front door: config parsing, orchestration, and file emission.

One YAML config file drives one run. Every run writes CSV output, a
gnuplot-ready .dat twin, and a JSON manifest with the config hash, the
master seed, a checksum per output file and the warnings the run raised, so
a run can be archived and replayed byte for byte. Exit status 0 means the
run completed clean, 1 means a usage or configuration problem, 2 means a
verified invariant was violated by the results (a failed inequality or
identity check, never a crash).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import os
import sys
import tempfile
import warnings
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone
from types import UnionType
from typing import Any, Sequence, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import __version__
from .distributions import EnumerationBudgetError, FiniteDistribution, SamplerSpec, draw_iid
from .hilbert import HilbertSpace, row_norms
from .hoeffding import _projections, decomposition_check, degeneracy_order
from .kernels import (
    KernelSpec,
    centered,
    empirical_indicator_from,
    gini,
    product,
    spatial_sign,
)
from .martingale import GENERATORS, _check_variants, simulate_ensemble, verify_conv_grid, verify_grid, verify_pairs
from .montecarlo import (
    MIN_REPLICAS,
    BoundEnvelope,
    ExperimentConfig,
    ScalingCell,
    ScalingRow,
    coordinate_kernel,
    decouple_compare,
    incomplete_scaling_experiment,
    matching_point_compare,
    tail_scan,
)
from .ustats import SamplingDesign, _tuple_count, complete, running_max

__all__ = [
    "ConfigError",
    "ConfigFile",
    "parse_config",
    "parse_config_text",
    "emit_config",
    "run",
    "main",
]

SUBCOMMANDS = (
    "estimate",
    "decompose",
    "tailscan",
    "incomplete-compare",
    "decouple-compare",
    "martingale-verify",
)
KERNEL_NAMES = ("gini", "product", "spatial-sign", "coordinate", "empirical-indicator")
SAMPLER_KINDS = ("finite", "rademacher", "uniform-grid", "discretized-gaussian")
DESIGN_KINDS = ("without-replacement", "with-replacement", "bernoulli")
VARIANTS = ("real", "A2", "A3", "conv")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class ConfigError(Exception):
    """Configuration problem, with key and line info where available."""


# ---------------------------------------------------------------------------
# Config model: the dataclasses below are the only declaration of the schema.
# A field's metadata holds its rules (ge, gt, le, lt, choices; on a list they
# apply to every entry); a section's `_check` holds the rules that span
# several of its fields and reports them through fail(key, why).


def _key(default=MISSING, **rules):
    return field(default=default, metadata=rules)


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    points: int = _key(ge=2)
    scale: str = _key("log", choices=("log", "linear"))

    def build(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)

    def _check(self, fail) -> None:
        if not 0.0 < self.start < math.inf:
            fail("start", f"must be positive and finite on every scale, got {self.start}")
        if not self.start < self.stop < math.inf:
            fail("stop", f"must be finite and exceed start ({self.start}), got {self.stop}")


@dataclass(frozen=True)
class KernelConfig:
    name: str = _key("product", choices=KERNEL_NAMES)
    centered: bool = False
    sup_bound: float | None = _key(None, gt=0.0)
    dim: int = _key(2, ge=1)  # input dimension for vector-input kernels
    grid_points: int = _key(16, ge=2)  # codomain resolution of the indicator kernel
    arity: int = _key(2, ge=2)  # arguments of the product kernel

    def _check(self, fail) -> None:
        if self.arity != 2 and self.name != "product":
            fail("arity", f"only the product kernel takes an arity other than 2, not {self.name}")


# an atom or a data point: a number, or a list of numbers for vector laws
Point = float | tuple[float, ...]


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = _key("rademacher", choices=SAMPLER_KINDS)
    grid_points: int | None = _key(None, ge=2)
    dim: int | None = _key(None, ge=1)
    atoms: tuple[Point, ...] | None = None
    probs: tuple[float, ...] | None = None

    def _check(self, fail) -> None:
        if self.kind == "finite" and (self.atoms is None or self.probs is None):
            fail("kind", "finite sampler needs both 'atoms' and 'probs'")
        if self.kind == "uniform-grid" and self.grid_points is None:
            fail("kind", "uniform-grid sampler needs 'grid_points'")
        if self.kind == "discretized-gaussian" and self.dim is None:
            fail("kind", "discretized-gaussian sampler needs 'dim'")
        if not _same_width(self.atoms):
            fail("atoms", "entries must all be numbers or all be lists of one length")


@dataclass(frozen=True)
class DataConfig:
    values: tuple[Point, ...] | None = None
    draw: int | None = _key(None, ge=1)

    def _check(self, fail) -> None:
        if self.values is not None and self.draw is not None:
            fail("draw", "give either 'values' or 'draw', not both")
        if not _same_width(self.values):
            fail("values", "rows must all have the same width")


@dataclass(frozen=True)
class EnvelopeConfig:
    first: float = _key(1.0, ge=0.0)
    second: float = _key(0.0, ge=0.0)
    tail_scale: float = _key(1.0, gt=0.0)
    scale: float = _key(1.0, gt=0.0)


@dataclass(frozen=True)
class MartingaleConfig:
    generator: str = _key("bounded-signs", choices=GENERATORS)
    steps: int = _key(30, ge=1)
    dim: int = _key(1, ge=1)
    variants: tuple[str, ...] = _key(VARIANTS, choices=VARIANTS)
    x_grid: GridSpec = GridSpec(2.0, 20.0, 10, "linear")
    y_grid: GridSpec = GridSpec(11.0, 38.0, 10, "linear")
    t_grid: GridSpec = GridSpec(20.0, 400.0, 10, "log")

    def _check(self, fail) -> None:
        if "real" in self.variants and self.dim != 1:
            fail("dim", "the real-valued variant needs dim 1")


@dataclass(frozen=True)
class MatchingConfig:
    sample_size: int = _key(40, ge=2)
    size: int = _key(20, ge=1)
    replicas: int = _key(20000, ge=MIN_REPLICAS)
    # None: reuse the run's sampler
    sampler_kind: str | None = _key(None, choices=("rademacher", "discretized-gaussian"))

    def _check(self, fail) -> None:
        if self.size > self.sample_size:
            fail("size", "must not exceed the matching sample_size")


@dataclass(frozen=True)
class ScalingConfig:
    design_kind: str = _key("with-replacement", choices=DESIGN_KINDS)
    sizes: tuple[float, ...] = (100.0, 1000.0, 10000.0)  # selection sizes, or bernoulli rates
    sample_sizes: tuple[int, ...] = _key((20, 40), ge=1)
    matching: MatchingConfig | None = None

    def _check(self, fail) -> None:
        for s in self.sizes:
            if self.design_kind == "bernoulli":
                if not 0.0 < s <= 1.0:
                    fail("sizes", f"bernoulli rates must lie in (0, 1], got {s}")
            elif s < 1 or s != int(s):
                fail("sizes", f"selection sizes must be positive integers, got {s}")


@dataclass(frozen=True)
class ConfigFile:
    version: int = _key(choices=(1,))
    experiment: str = _key(choices=SUBCOMMANDS)
    output_dir: str = "out"
    seed: int = _key(0, ge=0, le=2**64 - 1)
    replicas: int = _key(10000, ge=MIN_REPLICAS)
    sample_size: int = _key(40, ge=1)
    degeneracy: int | None = _key(None, ge=1)
    beta_tolerance: float = _key(0.25, gt=0.0)
    ratio_bound: float = _key(5.0, ge=1.0)
    quantile: float = _key(0.9, gt=0.0, lt=1.0)
    identity_tolerance: float = _key(1e-10, gt=0.0)
    kernel: KernelConfig = KernelConfig()
    sampler: SamplerConfig = SamplerConfig()
    x_grid: GridSpec = GridSpec(0.2, 6.0, 24, "log")
    envelope: EnvelopeConfig | None = None
    data: DataConfig | None = None
    martingale: MartingaleConfig | None = None
    scaling: ScalingConfig | None = None

    def __post_init__(self) -> None:
        # the one place the experiments that need a section get its defaults
        if self.martingale is None and self.experiment == "martingale-verify":
            object.__setattr__(self, "martingale", MartingaleConfig())
        if self.scaling is None and self.experiment == "incomplete-compare":
            object.__setattr__(self, "scaling", ScalingConfig())


def _same_width(points) -> bool:
    """Whether the points are all numbers or all lists of one length."""
    return points is None or len({len(p) if isinstance(p, tuple) else None for p in points}) == 1


# ---------------------------------------------------------------------------
# Parsing with line diagnostics


def _key_lines(node) -> dict[tuple[str, ...], int]:
    lines: dict[tuple[str, ...], int] = {}

    def walk(n, path):
        if isinstance(n, yaml.MappingNode):
            for key_node, value_node in n.value:
                sub = path + (str(key_node.value),)
                line = key_node.start_mark.line + 1
                if sub in lines:
                    raise ConfigError(f"duplicate key '{'.'.join(sub)}' at lines {lines[sub]} and {line}")
                lines[sub] = line
                walk(value_node, sub)

    walk(node, ())
    return lines


class _Invalid(Exception):
    """A value that breaks its field's type or rules; the caller adds the key."""


_TYPE_NAMES = {bool: "true/false", int: "an integer", float: "a number", str: "a string"}


def _describe(tp) -> str:
    if isinstance(tp, UnionType):
        return " or ".join(_describe(t) for t in get_args(tp))
    if get_origin(tp) is tuple:
        return "a list"
    return _TYPE_NAMES.get(tp, "a mapping")


def _coerce(tp, raw):
    """The raw YAML value as a value of type tp (a dataclass is left to _load)."""
    if isinstance(tp, UnionType):
        for alt in get_args(tp):
            try:
                return _coerce(alt, raw)
            except _Invalid:
                pass
    elif get_origin(tp) is tuple:
        if isinstance(raw, list):
            return tuple(_coerce(get_args(tp)[0], v) for v in raw)
    elif is_dataclass(tp):
        if isinstance(raw, dict):
            return raw
    elif isinstance(raw, tp) and not (isinstance(raw, bool) and tp is not bool):
        return raw
    elif tp is float and isinstance(raw, int) and not isinstance(raw, bool):
        return float(raw)
    raise _Invalid(f"expected {_describe(tp)}, got {type(raw).__name__}")


_BOUNDS = (
    ("ge", operator.ge, "at least"),
    ("gt", operator.gt, "greater than"),
    ("le", operator.le, "at most"),
    ("lt", operator.lt, "less than"),
)


def _check_rules(value, rules: dict) -> None:
    for v in value if isinstance(value, tuple) else (value,):
        if "choices" in rules and v not in rules["choices"]:
            raise _Invalid(f"must be one of {sorted(rules['choices'])}, got {v!r}")
        for rule, holds, phrase in _BOUNDS:
            if rule in rules and not holds(v, rules[rule]):
                raise _Invalid(f"must be {phrase} {rules[rule]}, got {v}")


_hints = functools.cache(get_type_hints)


def _load(cls, mapping: dict, path: tuple[str, ...], lines: dict, base=None):
    """Build dataclass cls from one YAML mapping, naming key and line on any
    error. Keys the mapping leaves out keep their value in `base` (a
    section's default instance) or else the field default."""

    def fail(key: str, why: str):
        where = path + tuple(key.split("."))
        line = lines.get(where)
        raise ConfigError(f"'{'.'.join(where)}'{f' (line {line})' if line else ''}: {why}")

    names = [f.name for f in fields(cls)]
    for key in mapping:
        if str(key) not in names:
            line = lines.get(path + (str(key),))
            raise ConfigError(
                f"unknown key '{key}'{f' at line {line}' if line else ''} in "
                f"{'.'.join(path) or 'the top level'}; allowed keys: {', '.join(sorted(names))}"
            )
    values = {}
    for f in fields(cls):
        raw = mapping.get(f.name)
        if raw is None:
            if f.default is MISSING and base is None:
                raise ConfigError(f"missing required key '{'.'.join(path + (f.name,))}'")
            continue
        tp = _hints(cls)[f.name]
        if isinstance(tp, UnionType):  # X | None: a given value must be an X
            tp = get_args(tp)[0]
        try:
            value = _coerce(tp, raw)
            if isinstance(value, tuple) and not value:
                raise _Invalid("must not be empty")
            _check_rules(value, f.metadata)
        except _Invalid as exc:
            fail(f.name, str(exc))
        if is_dataclass(tp):
            value = _load(tp, value, path + (f.name,), lines, f.default or None)
        values[f.name] = value
    obj = replace(base, **values) if base is not None else cls(**values)
    if hasattr(obj, "_check"):
        obj._check(fail)
    return obj


def _dump(obj):
    """Plain YAML data: fields in declaration order, None omitted, tuples as lists."""
    if is_dataclass(obj):
        return {f.name: _dump(getattr(obj, f.name)) for f in fields(obj) if getattr(obj, f.name) is not None}
    if isinstance(obj, tuple):
        return [_dump(v) for v in obj]
    return obj


def parse_config_text(text: str) -> ConfigFile:
    # one composed node gives both the data and each key's line
    try:
        loader = yaml.SafeLoader(text)
        node = loader.get_single_node()
        data = loader.construct_document(node) if node is not None else None
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("the config must be a mapping at the top level")
    return _load(ConfigFile, data, (), _key_lines(node))


def parse_config(path: str) -> ConfigFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


# libyaml's emitter where PyYAML was built with it: the same text as the
# pure-Python SafeDumper, a few times faster
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def emit_config(cfg: ConfigFile) -> str:
    """Serialized form satisfying parse_config_text(emit_config(c)) == c."""
    return yaml.dump(_dump(cfg), Dumper=_DUMPER, sort_keys=False)


# ---------------------------------------------------------------------------
# Building runtime objects from config


def _build_sampler(cfg: ConfigFile) -> SamplerSpec:
    s = cfg.sampler
    dist = None
    if s.kind == "finite":
        try:
            dist = FiniteDistribution(atoms=np.array(s.atoms), probs=np.array(s.probs))
        except ValueError as exc:
            raise ConfigError(f"sampler: {exc}") from exc
    space = HilbertSpace.euclidean(s.dim) if s.kind == "discretized-gaussian" else None
    return SamplerSpec(
        kind=s.kind,
        seed_stream=cfg.seed,
        dist=dist,
        grid_points=s.grid_points,
        space=space,
    )


def _build_kernel(cfg: ConfigFile, sampler: SamplerSpec) -> KernelSpec:
    k = cfg.kernel
    if k.name == "gini":
        kernel = gini(sup_bound=k.sup_bound)
    elif k.name == "product":
        kernel = product(sup_bound=k.sup_bound, arity=k.arity)
    elif k.name == "coordinate":
        kernel = coordinate_kernel()
    elif k.name == "spatial-sign":
        kernel = spatial_sign(HilbertSpace.euclidean(k.dim))
    else:
        support = sampler.finite_support()
        if support is None:
            raise ConfigError("kernel: empirical-indicator needs a sampler with finite support")
        kernel = empirical_indicator_from(support, k.grid_points)
    if k.centered:
        support = sampler.finite_support()
        if support is None:
            raise ConfigError("kernel: centering needs a sampler with finite support")
        kernel = centered(kernel, support)
    return kernel


def _load_sample(cfg: ConfigFile, sampler: SamplerSpec, kernel: KernelSpec) -> np.ndarray:
    if cfg.data is not None and cfg.data.values is not None:
        sample = np.array(cfg.data.values, dtype=np.float64)
        if sample.ndim == 2 and sample.shape[1] == 1:
            sample = sample[:, 0]
        try:
            _tuple_count(kernel.arity, len(sample), cap=math.inf)
        except ValueError as exc:
            raise ConfigError(f"data.values: {exc}") from exc
        return sample
    n = cfg.data.draw if cfg.data is not None and cfg.data.draw is not None else cfg.sample_size
    return draw_iid(sampler, n, 0)


# ---------------------------------------------------------------------------
# Output files


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    return value


def _emit(cfg: ConfigFile, out_dir: str, started: str, tables, results, exit_status, raised) -> None:
    """Write each table as name.csv and as its gnuplot twin name.dat, each
    value formatted once for both, then the manifest with a checksum per file
    and the `raised` warnings' categories and messages, in the order raised."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = {}
    for name, (header, rows) in tables.items():
        cells = [[_fmt(v) for v in row] for row in rows]
        for ext, sep, lead in ((".csv", ",", ""), (".dat", " ", "# ")):
            lines = [lead + sep.join(header)] + [sep.join(row) for row in cells]
            text = "\n".join(lines) + "\n"
            _atomic_write(os.path.join(out_dir, name + ext), text)
            outputs[name + ext] = hashlib.sha256(text.encode()).hexdigest()
    manifest = {
        "artifact_version": __version__,
        "experiment": cfg.experiment,
        "config_sha256": hashlib.sha256(emit_config(cfg).encode()).hexdigest(),
        "master_seed": cfg.seed,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "outputs": outputs,
        "results": _jsonable(results),
        "exit_status": exit_status,
        "warnings": [{"category": w.category.__name__, "message": str(w.message)} for w in raised],
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _atomic_write(os.path.join(out_dir, "run_manifest.json"), text)


# ---------------------------------------------------------------------------
# Subcommand runners: each computes and returns (tables, results, violated),
# where tables maps a file name to (header, rows); `run` writes them.


def _run_estimate(cfg: ConfigFile, sampler: SamplerSpec, kernel: KernelSpec):
    sample = _load_sample(cfg, sampler, kernel)
    value = complete(kernel, sample)
    prefixes = running_max(kernel, sample)
    tables = {
        "estimate": (["coordinate", "value"], list(enumerate(value.coords))),
        "estimate-prefix-norms": (
            ["prefix_size", "norm"],
            [(kernel.arity + i, v) for i, v in enumerate(prefixes.prefix_norms)],
        ),
    }
    results = {
        "sample_size": np.shape(sample)[0],
        "arity": kernel.arity,
        "norm": row_norms(kernel.codomain, value.coords),
        "running_max_norm": prefixes.max_norm,
    }
    return tables, results, False


def _run_decompose(cfg: ConfigFile, sampler: SamplerSpec, kernel: KernelSpec):
    support = sampler.finite_support()
    if support is None:
        raise ConfigError("decompose needs a sampler with finite support")
    projections = _projections(kernel, support, kernel.arity)
    report = degeneracy_order(kernel, support, projections=projections)
    sample = _load_sample(cfg, sampler, kernel)
    check = decomposition_check(kernel, support, sample, projections=projections)
    violated = not check.within(cfg.identity_tolerance)
    rows = [(0, report.mean_norm), *enumerate(report.residuals, start=1)]
    results = {
        "degeneracy_order": report.order,
        "mean_norm": report.mean_norm,
        "fully_degenerate": report.fully_degenerate,
        "declared_matches": report.declared_matches,
        "decomposition_deviation": check.deviation,
        "decomposition_relative": check.relative,
        "identity_ok": not violated,
    }
    return {"decompose": (["order", "max_projection_norm"], rows)}, results, violated


def _experiment_config(cfg: ConfigFile, kernel, sampler) -> ExperimentConfig:
    return ExperimentConfig(
        kernel=kernel,
        sampler=sampler,
        sample_size=cfg.sample_size,
        replicas=cfg.replicas,
        x_grid=cfg.x_grid.build(),
    )


def _run_tailscan(cfg: ConfigFile, sampler: SamplerSpec, kernel: KernelSpec):
    e = cfg.envelope
    envelope = None
    if e is not None:
        envelope = functools.partial(
            BoundEnvelope,
            scale=e.scale,
            first_coefficient=e.first,
            second_coefficient=e.second,
            tail_scale=e.tail_scale,
        )
    scan = tail_scan(_experiment_config(cfg, kernel, sampler), degeneracy=cfg.degeneracy, envelope=envelope)
    rows = list(zip(scan.x_grid, scan.p_hat, scan.ci_lo, scan.ci_hi, scan.envelope))
    violated = scan.fit_available and abs(scan.beta - scan.target_exponent) > cfg.beta_tolerance
    results = {
        "degeneracy": scan.degeneracy,
        "normalization": scan.normalization,
        "beta": scan.beta,
        "target_exponent": scan.target_exponent,
        "beta_tolerance": cfg.beta_tolerance,
        "fit_points": scan.fit_points,
        "fit_available": scan.fit_available,
        "beta_in_window": not violated,
    }
    return {"tailscan": (["x", "p_hat", "ci_lo", "ci_hi", "envelope"], rows)}, results, violated


def _run_incomplete(cfg: ConfigFile, sampler: SamplerSpec, kernel: KernelSpec):
    scaling = cfg.scaling
    cells = []
    for n in scaling.sample_sizes:
        for s in scaling.sizes:
            if scaling.design_kind == "bernoulli":
                design = SamplingDesign(kind="bernoulli", rate=float(s))
            else:
                design = SamplingDesign(kind=scaling.design_kind, size=int(s))
            cells.append(ScalingCell(sample_size=n, design=design))
    report = incomplete_scaling_experiment(
        kernel,
        sampler,
        cells,
        replicas=cfg.replicas,
        quantile=cfg.quantile,
    )
    # one column per ScalingRow field, the interval bounds named ci_lo / ci_hi
    renamed = {"quantile_lo": "ci_lo", "quantile_hi": "ci_hi"}
    header = [renamed.get(f.name, f.name) for f in fields(ScalingRow)]
    unbias_ok = all(r.unbias_ok for r in report.rows)
    spread_ok = report.spread <= cfg.ratio_bound
    results: dict[str, Any] = {
        "degeneracy": report.degeneracy,
        "quantile_level": cfg.quantile,
        "spread": report.spread,
        "ratio_bound": cfg.ratio_bound,
        "spread_ok": spread_ok,
        "unbiasedness_ok": unbias_ok,
    }
    overlap_ok = True
    if scaling.matching is not None:
        m = scaling.matching
        if m.sampler_kind is not None:  # the matching law replaces the run's, in one dimension
            sampler = _build_sampler(replace(cfg, sampler=SamplerConfig(kind=m.sampler_kind, dim=1)))
        mp = matching_point_compare(
            sampler,
            sample_size=m.sample_size,
            size=m.size,
            replicas=m.replicas,
            quantile=cfg.quantile,
        )
        overlap_ok = mp.overlap
        results["matching"] = {
            "sample_size": mp.sample_size,
            "size": mp.size,
            "rate": mp.rate,
            "normalizer": mp.normalizer,
            "replacement_quantile": mp.replacement_quantile,
            "replacement_ci": [mp.replacement_lo, mp.replacement_hi],
            "bernoulli_quantile": mp.bernoulli_quantile,
            "bernoulli_ci": [mp.bernoulli_lo, mp.bernoulli_hi],
            "bernoulli_empty": mp.bernoulli_empty,
            "overlap": mp.overlap,
        }
    tables = {"incomplete-compare": (header, [astuple(r) for r in report.rows])}
    return tables, results, not (unbias_ok and spread_ok and overlap_ok)


def _run_decouple(cfg: ConfigFile, sampler: SamplerSpec, kernel: KernelSpec):
    report = decouple_compare(_experiment_config(cfg, kernel, sampler))
    rows = list(zip(report.x_grid, report.p_complete, report.p_decoupled, report.usable))
    results = {
        "fitted_constant": report.fitted_constant,
        "constant_defined": report.constant_defined,
        "usable_points": report.usable.sum(),
    }
    return {"decouple-compare": (["x", "p_complete", "p_decoupled", "usable"], rows)}, results, False


def _read_grid_file(path: str, columns: int) -> list[tuple[float, ...]]:
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != columns:
                    raise ConfigError(
                        f"grid file {path} line {lineno}: expected {columns} columns, got {len(parts)}"
                    )
                try:
                    row = tuple(float(p) for p in parts)
                except ValueError as exc:
                    raise ConfigError(f"grid file {path} line {lineno}: {exc}") from exc
                if not all(0.0 < v < math.inf for v in row):
                    raise ConfigError(
                        f"grid file {path} line {lineno}: grid values must be finite and positive, got {line}"
                    )
                rows.append(row)
    except OSError as exc:
        raise ConfigError(f"cannot read grid file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"grid file {path} holds no grid points")
    return rows


def _run_martingale(cfg: ConfigFile, variants: tuple[str, ...] | None, grid_file: str | None):
    mcfg = cfg.martingale
    chosen = variants if variants else mcfg.variants
    space = HilbertSpace.euclidean(mcfg.dim)
    _check_variants(chosen, space.dim == 1)
    pair_grid: list[tuple[float, float]] | None = None
    t_grid: list[float] | None = None
    if grid_file is not None:
        if chosen == ("conv",):
            t_grid = [row[0] for row in _read_grid_file(grid_file, 1)]
        else:
            pair_grid = [(row[0], row[1]) for row in _read_grid_file(grid_file, 2)]

    ensemble = simulate_ensemble(mcfg.generator, mcfg.steps, space, cfg.seed, cfg.replicas)
    tables = {}
    per_variant: dict[str, int] = {}
    for variant in chosen:
        if variant == "conv":
            report = verify_conv_grid(ensemble, t_grid if t_grid is not None else mcfg.t_grid.build())
        elif pair_grid is not None:
            report = verify_pairs(ensemble, pair_grid, variant)
        else:
            report = verify_grid(ensemble, mcfg.x_grid.build(), mcfg.y_grid.build(), variant)
        per_variant[variant] = report.violations
        tables[f"martingale-{variant}"] = (
            ["x", "y", "lhs", "lhs_ci_hi", "rhs", "rhs_ci_lo", "violated"],
            [(e.x, e.y, e.lhs, e.lhs_hi, e.rhs, e.rhs_lo, e.violated) for e in report.entries],
        )
    total = sum(per_variant.values())
    results = {
        "generator": mcfg.generator,
        "steps": mcfg.steps,
        "dim": mcfg.dim,
        "replicas": cfg.replicas,
        "violations": per_variant,
        "total_violations": total,
    }
    return tables, results, total > 0


_RUNNERS = {
    "estimate": _run_estimate,
    "decompose": _run_decompose,
    "tailscan": _run_tailscan,
    "incomplete-compare": _run_incomplete,
    "decouple-compare": _run_decouple,
}


def run(
    subcommand: str,
    cfg: ConfigFile,
    out_dir: str | None = None,
    threads: int | None = None,
    variants: tuple[str, ...] | None = None,
    grid_file: str | None = None,
) -> int:
    """Execute one subcommand against a parsed config; returns the exit status.

    Nothing is written until the computation has finished, so a run that raises
    leaves no files. Every warning raised while the runner computes is listed
    in the manifest, then emitted as it would have been. `threads` is ignored,
    since every subcommand runs on one thread; it is accepted because the
    benchmark's child process (bench/child.py) passes it, and
    `test_run_accepts_the_ignored_threads_keyword` keeps that so.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if cfg.experiment != subcommand:
        raise ConfigError(
            f"config is for experiment {cfg.experiment!r}, but the subcommand is {subcommand!r}"
        )
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with warnings.catch_warnings(record=True) as raised:
        warnings.simplefilter("always")  # every one, however often it was shown before
        if subcommand == "martingale-verify":
            tables, results, violated = _run_martingale(cfg, variants, grid_file)
        else:
            sampler = _build_sampler(cfg)
            tables, results, violated = _RUNNERS[subcommand](cfg, sampler, _build_kernel(cfg, sampler))
    for w in raised:  # the caller's filters decide what is shown
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    status = EXIT_VIOLATION if violated else EXIT_OK
    _emit(cfg, out_dir if out_dir is not None else cfg.output_dir, started, tables, results, status, raised)
    return status


# ---------------------------------------------------------------------------
# Argument handling


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage problems; the contract reserves 2 for
    invariant violations, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ustatlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    sub.required = True
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "martingale-verify":
            p.add_argument(
                "--variant",
                action="append",
                choices=VARIANTS,
                default=None,
                help="restrict to one variant (repeatable)",
            )
            p.add_argument(
                "--grid-file",
                default=None,
                help="whitespace-separated (x, y) grid, one pair per line; t values for conv",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must fit in 64 bits")
            cfg = replace(cfg, seed=args.seed)
        variants = tuple(args.variant) if getattr(args, "variant", None) else None
        grid_file = getattr(args, "grid_file", None)
        return run(
            args.subcommand,
            cfg,
            out_dir=args.out,
            variants=variants,
            grid_file=grid_file,
        )
    except (ConfigError, ValueError, EnumerationBudgetError) as exc:
        print(f"ustatlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
