"""Batch front door: config parsing, orchestration, and file emission.

One YAML config file drives one run. Every run writes CSV output, a
gnuplot-ready .dat twin, and a JSON manifest with the config hash, the
master seed, and a checksum per output file, so a run can be archived and
replayed byte for byte. Exit status 0 means the run completed clean, 1
means a usage or configuration problem, 2 means a verified invariant was
violated by the results (a failed inequality or identity check, never a crash).
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
from dataclasses import MISSING, astuple, dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone
from types import UnionType
from typing import Any, Callable, Sequence, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import __version__
from .distributions import FiniteDistribution, SamplerSpec, draw_iid
from .hilbert import HilbertSpace, row_norms
from .hoeffding import decomposition_check, degeneracy_order
from .kernels import (
    KernelSpec,
    _atom_table,
    centered,
    empirical_indicator_from,
    gini,
    product,
    spatial_sign,
)
from .martingale import (
    GENERATORS,
    simulate_summaries,
    verify_conv_grid,
    verify_pairs,
)
from .montecarlo import (
    BoundEnvelope,
    ExperimentConfig,
    ScalingCell,
    ScalingRow,
    coordinate_kernel,
    decouple_compare,
    envelope_eval,
    hk_tail_oracle,
    incomplete_scaling_experiment,
    matching_point_compare,
    tail_scan,
)
from .ustats import SamplingDesign, complete, running_max

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
        if self.scale == "log" and self.start <= 0:
            fail("start", f"must be greater than 0 on a log scale, got {self.start}")
        if self.stop <= self.start:
            fail("stop", f"must exceed start ({self.start}), got {self.stop}")


@dataclass(frozen=True)
class KernelConfig:
    name: str = _key("product", choices=KERNEL_NAMES)
    centered: bool = False
    sup_bound: float | None = _key(None, gt=0.0)
    dim: int = _key(2, ge=1)  # input dimension for vector-input kernels
    grid_points: int = _key(16, ge=2)  # codomain resolution of the indicator kernel


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
    replicas: int = _key(20000, ge=100)
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
    replicas: int = _key(10000, ge=100)
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

    def _check(self, fail) -> None:
        if self.x_grid.start <= 0:
            fail("x_grid.start", f"the tail grid must be positive, got {self.x_grid.start}")


def _same_width(points) -> bool:
    """Whether the points are all numbers or all lists of one length."""
    return points is None or len({len(p) if isinstance(p, tuple) else None for p in points}) == 1


# ---------------------------------------------------------------------------
# Parsing with line diagnostics


def _key_lines(text: str) -> dict[tuple[str, ...], int]:
    node = yaml.compose(text)
    lines: dict[tuple[str, ...], int] = {}

    def walk(n, path):
        if isinstance(n, yaml.MappingNode):
            for key_node, value_node in n.value:
                sub = path + (str(key_node.value),)
                lines[sub] = key_node.start_mark.line + 1
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
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("the config must be a mapping at the top level")
    return _load(ConfigFile, data, (), _key_lines(text))


def parse_config(path: str) -> ConfigFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def emit_config(cfg: ConfigFile) -> str:
    """Serialized form satisfying parse_config_text(emit_config(c)) == c."""
    return yaml.safe_dump(_dump(cfg), sort_keys=False)


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
        kernel = product(sup_bound=k.sup_bound)
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
        if sample.shape[0] < kernel.arity:
            raise ConfigError(
                f"data.values has {sample.shape[0]} points, kernel arity is {kernel.arity}"
            )
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


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


class _RunWriter:
    """Collects output files and finishes with the manifest."""

    def __init__(self, cfg: ConfigFile, out_dir: str):
        self.cfg = cfg
        self.out_dir = out_dir
        self.started = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self.paths: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def csv(self, name: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        """Write the table as name.csv and as its gnuplot twin name.dat, each
        value formatted once for both."""
        cells = [[_fmt(v) for v in row] for row in rows]
        for ext, sep, lead in ((".csv", ",", ""), (".dat", " ", "# ")):
            path = os.path.join(self.out_dir, name + ext)
            lines = [lead + sep.join(header)] + [sep.join(row) for row in cells]
            _atomic_write(path, "\n".join(lines) + "\n")
            self.paths.append(path)

    def finish(self, results: dict, exit_status: int) -> str:
        manifest = {
            "artifact_version": __version__,
            "experiment": self.cfg.experiment,
            "config_sha256": hashlib.sha256(emit_config(self.cfg).encode()).hexdigest(),
            "master_seed": self.cfg.seed,
            "started_utc": self.started,
            "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "outputs": {os.path.basename(p): _sha256(p) for p in self.paths},
            "results": results,
            "exit_status": exit_status,
        }
        path = os.path.join(self.out_dir, "run_manifest.json")
        _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path


def _jsonable(value):
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    return value


# ---------------------------------------------------------------------------
# Subcommand runners


def _run_estimate(cfg: ConfigFile, out_dir: str) -> int:
    sampler = _build_sampler(cfg)
    kernel = _build_kernel(cfg, sampler)
    sample = _load_sample(cfg, sampler, kernel)
    value = complete(kernel, sample)
    prefixes = running_max(kernel, sample)
    writer = _RunWriter(cfg, out_dir)
    writer.csv(
        "estimate",
        ["coordinate", "value"],
        [(i, v) for i, v in enumerate(value.coords)],
    )
    writer.csv(
        "estimate-prefix-norms",
        ["prefix_size", "norm"],
        [(kernel.arity + i, v) for i, v in enumerate(prefixes.prefix_norms)],
    )
    results = {
        "sample_size": int(np.shape(sample)[0]),
        "arity": kernel.arity,
        "norm": _jsonable(row_norms(kernel.codomain, value.coords)),
        "running_max_norm": _jsonable(prefixes.max_norm),
    }
    writer.finish(results, EXIT_OK)
    return EXIT_OK


def _run_decompose(cfg: ConfigFile, out_dir: str) -> int:
    sampler = _build_sampler(cfg)
    kernel = _build_kernel(cfg, sampler)
    support = sampler.finite_support()
    if support is None:
        raise ConfigError("decompose needs a sampler with finite support")
    table = _atom_table(kernel, support)
    report = degeneracy_order(kernel, support, table=table)
    sample = _load_sample(cfg, sampler, kernel)
    check = decomposition_check(kernel, support, sample, table=table)
    rel = check.deviation / max(check.lhs_norm, 1.0)
    violated = rel > cfg.identity_tolerance
    writer = _RunWriter(cfg, out_dir)
    rows = [(0, report.mean_norm)]
    rows.extend((k, r) for k, r in enumerate(report.residuals, start=1))
    writer.csv("decompose", ["order", "max_projection_norm"], rows)
    results = {
        "degeneracy_order": report.order,
        "mean_norm": _jsonable(report.mean_norm),
        "fully_degenerate": bool(report.fully_degenerate),
        "declared_matches": None if report.declared is None else bool(report.declared_matches),
        "decomposition_deviation": _jsonable(check.deviation),
        "decomposition_relative": _jsonable(rel),
        "identity_ok": not violated,
    }
    status = EXIT_VIOLATION if violated else EXIT_OK
    writer.finish(results, status)
    return status


def _experiment_config(cfg: ConfigFile, kernel, sampler) -> ExperimentConfig:
    return ExperimentConfig(
        kernel=kernel,
        sampler=sampler,
        sample_size=cfg.sample_size,
        replicas=cfg.replicas,
        master_seed=cfg.seed,
        x_grid=cfg.x_grid.build(),
    )


def _run_tailscan(cfg: ConfigFile, out_dir: str) -> int:
    sampler = _build_sampler(cfg)
    kernel = _build_kernel(cfg, sampler)
    scan = tail_scan(_experiment_config(cfg, kernel, sampler), degeneracy=cfg.degeneracy)

    envelope_col = [math.nan] * scan.x_grid.size
    if cfg.envelope is not None:
        e = cfg.envelope
        env = BoundEnvelope(
            arity=scan.degeneracy,
            scale=e.scale,
            first_coefficient=e.first,
            second_coefficient=e.second,
            tail_scale=e.tail_scale,
        )
        if e.second == 0.0:
            oracle: Callable[[float], float] = lambda t: 0.0
        else:
            support = sampler.finite_support()
            if support is None:
                raise ConfigError("envelope: the integral term needs a finite sampling law")
            oracle = hk_tail_oracle(kernel, support, scan.degeneracy)
        envelope_col = [envelope_eval(env, float(x), oracle).total for x in scan.x_grid]

    rows = list(zip(scan.x_grid, scan.p_hat, scan.ci_lo, scan.ci_hi, envelope_col))
    writer = _RunWriter(cfg, out_dir)
    writer.csv("tailscan", ["x", "p_hat", "ci_lo", "ci_hi", "envelope"], rows)
    violated = scan.fit_available and abs(scan.beta - scan.target_exponent) > cfg.beta_tolerance
    results = {
        "degeneracy": scan.degeneracy,
        "normalization": _jsonable(scan.normalization),
        "beta": None if scan.beta is None else _jsonable(scan.beta),
        "target_exponent": _jsonable(scan.target_exponent),
        "beta_tolerance": cfg.beta_tolerance,
        "fit_points": scan.fit_points,
        "fit_available": scan.fit_available,
        "beta_in_window": not violated,
    }
    status = EXIT_VIOLATION if violated else EXIT_OK
    writer.finish(results, status)
    return status


def _run_incomplete(cfg: ConfigFile, out_dir: str) -> int:
    sampler = _build_sampler(cfg)
    kernel = _build_kernel(cfg, sampler)
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
        master_seed=cfg.seed,
        quantile=cfg.quantile,
    )
    # one column per ScalingRow field, the interval bounds named ci_lo / ci_hi
    renamed = {"quantile_lo": "ci_lo", "quantile_hi": "ci_hi"}
    header = [renamed.get(f.name, f.name) for f in fields(ScalingRow)]
    writer = _RunWriter(cfg, out_dir)
    writer.csv("incomplete-compare", header, [astuple(r) for r in report.rows])
    unbias_ok = all(r.unbias_ok for r in report.rows)
    spread_ok = report.spread <= cfg.ratio_bound
    results: dict[str, Any] = {
        "degeneracy": report.degeneracy,
        "quantile_level": cfg.quantile,
        "spread": _jsonable(report.spread),
        "ratio_bound": cfg.ratio_bound,
        "spread_ok": bool(spread_ok),
        "unbiasedness_ok": bool(unbias_ok),
    }
    overlap_ok = True
    if scaling.matching is not None:
        m = scaling.matching
        msampler = sampler
        if m.sampler_kind == "rademacher":
            msampler = SamplerSpec(kind="rademacher", seed_stream=cfg.seed)
        elif m.sampler_kind == "discretized-gaussian":
            msampler = SamplerSpec(
                kind="discretized-gaussian", seed_stream=cfg.seed, space=HilbertSpace.euclidean(1)
            )
        mp = matching_point_compare(
            msampler,
            sample_size=m.sample_size,
            size=m.size,
            replicas=m.replicas,
            master_seed=cfg.seed,
            quantile=cfg.quantile,
        )
        overlap_ok = mp.overlap
        results["matching"] = {
            "sample_size": mp.sample_size,
            "size": mp.size,
            "rate": _jsonable(mp.rate),
            "normalizer": _jsonable(mp.normalizer),
            "replacement_quantile": _jsonable(mp.replacement_quantile),
            "replacement_ci": [_jsonable(mp.replacement_lo), _jsonable(mp.replacement_hi)],
            "bernoulli_quantile": _jsonable(mp.bernoulli_quantile),
            "bernoulli_ci": [_jsonable(mp.bernoulli_lo), _jsonable(mp.bernoulli_hi)],
            "bernoulli_empty": mp.bernoulli_empty,
            "overlap": bool(mp.overlap),
        }
    violated = not (unbias_ok and spread_ok and overlap_ok)
    status = EXIT_VIOLATION if violated else EXIT_OK
    writer.finish(results, status)
    return status


def _run_decouple(cfg: ConfigFile, out_dir: str) -> int:
    sampler = _build_sampler(cfg)
    kernel = _build_kernel(cfg, sampler)
    report = decouple_compare(_experiment_config(cfg, kernel, sampler))
    rows = list(zip(report.x_grid, report.p_complete, report.p_decoupled, report.usable))
    writer = _RunWriter(cfg, out_dir)
    writer.csv("decouple-compare", ["x", "p_complete", "p_decoupled", "usable"], rows)
    results = {
        "fitted_constant": None
        if report.fitted_constant is None
        else _jsonable(report.fitted_constant),
        "constant_defined": bool(report.constant_defined),
        "usable_points": int(report.usable.sum()),
    }
    writer.finish(results, EXIT_OK)
    return EXIT_OK


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
                    rows.append(tuple(float(p) for p in parts))
                except ValueError as exc:
                    raise ConfigError(f"grid file {path} line {lineno}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read grid file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"grid file {path} holds no grid points")
    return rows


def _run_martingale(
    cfg: ConfigFile,
    out_dir: str,
    variants: tuple[str, ...] | None,
    grid_file: str | None,
) -> int:
    mcfg = cfg.martingale
    chosen = variants if variants else mcfg.variants
    if "real" in chosen and mcfg.dim != 1:
        raise ConfigError("the real-valued variant needs martingale.dim 1")
    space = HilbertSpace.euclidean(mcfg.dim)
    ensemble = simulate_summaries(mcfg.generator, mcfg.steps, space, cfg.seed, cfg.replicas)

    pair_grid: list[tuple[float, float]] | None = None
    t_grid: list[float] | None = None
    if grid_file is not None:
        if chosen == ("conv",):
            t_grid = [row[0] for row in _read_grid_file(grid_file, 1)]
        else:
            pair_grid = [(row[0], row[1]) for row in _read_grid_file(grid_file, 2)]

    writer = _RunWriter(cfg, out_dir)
    header = ["x", "y", "lhs", "lhs_ci_hi", "rhs", "rhs_ci_lo", "violated"]
    per_variant: dict[str, int] = {}
    for variant in chosen:
        if variant == "conv":
            ts = t_grid if t_grid is not None else [float(t) for t in mcfg.t_grid.build()]
            report = verify_conv_grid(ensemble, ts)
        else:
            pairs = pair_grid if pair_grid is not None else [
                (float(x), float(y)) for x in mcfg.x_grid.build() for y in mcfg.y_grid.build()
            ]
            report = verify_pairs(ensemble, pairs, variant)
        per_variant[variant] = report.violations
        writer.csv(
            f"martingale-{variant}",
            header,
            [(e.x, e.y, e.lhs, e.lhs_hi, e.rhs, e.rhs_lo, e.violated) for e in report.entries],
        )
    total = sum(per_variant.values())
    results = {
        "generator": mcfg.generator,
        "steps": mcfg.steps,
        "dim": mcfg.dim,
        "replicas": cfg.replicas,
        "violations": {k: int(v) for k, v in per_variant.items()},
        "total_violations": int(total),
    }
    status = EXIT_VIOLATION if total > 0 else EXIT_OK
    writer.finish(results, status)
    return status


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

    `threads` is accepted for old callers and ignored: every subcommand runs
    on one thread.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if cfg.experiment != subcommand:
        raise ConfigError(
            f"config is for experiment {cfg.experiment!r}, but the subcommand is {subcommand!r}"
        )
    out = out_dir if out_dir is not None else cfg.output_dir
    if subcommand == "martingale-verify":
        return _run_martingale(cfg, out, variants, grid_file)
    return _RUNNERS[subcommand](cfg, out)


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
    except (ConfigError, ValueError) as exc:
        print(f"ustatlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
