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
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Sequence

import numpy as np
import yaml

from . import __version__
from .distributions import FiniteDistribution, SamplerSpec, draw_iid
from .hilbert import HilbertSpace, row_norms
from .hoeffding import decomposition_check, degeneracy_order
from .kernels import (
    KernelSpec,
    centered,
    empirical_indicator_from,
    gini,
    product,
    spatial_sign,
)
from .martingale import (
    GENERATORS,
    simulate_ensemble,
    summarize,
    verify_conv_grid,
    verify_pairs,
)
from .montecarlo import (
    BoundEnvelope,
    ExperimentConfig,
    ScalingCell,
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
# Config model


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    points: int
    scale: str = "log"

    def build(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class KernelConfig:
    name: str = "product"
    centered: bool = False
    sup_bound: float | None = None
    dim: int = 2  # input dimension for vector-input kernels
    grid_points: int = 16  # codomain resolution of the indicator kernel


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "rademacher"
    grid_points: int | None = None
    dim: int | None = None
    atoms: tuple | None = None
    probs: tuple[float, ...] | None = None


@dataclass(frozen=True)
class DesignConfig:
    kind: str
    size: int | None = None
    rate: float | None = None


@dataclass(frozen=True)
class DataConfig:
    values: tuple | None = None
    draw: int | None = None


@dataclass(frozen=True)
class EnvelopeConfig:
    first: float = 1.0
    second: float = 0.0
    tail_scale: float = 1.0
    scale: float = 1.0


@dataclass(frozen=True)
class MartingaleConfig:
    generator: str = "bounded-signs"
    steps: int = 30
    dim: int = 1
    variants: tuple[str, ...] = VARIANTS
    x_grid: GridSpec = GridSpec(2.0, 20.0, 10, "linear")
    y_grid: GridSpec = GridSpec(11.0, 38.0, 10, "linear")
    t_grid: GridSpec = GridSpec(20.0, 400.0, 10, "log")


@dataclass(frozen=True)
class MatchingConfig:
    sample_size: int = 40
    size: int = 20
    replicas: int = 20000
    sampler_kind: str | None = None  # None: reuse the run's sampler


@dataclass(frozen=True)
class ScalingConfig:
    design_kind: str = "with-replacement"
    sizes: tuple[float, ...] = (100, 1000, 10000)
    sample_sizes: tuple[int, ...] = (20, 40)
    matching: MatchingConfig | None = None


@dataclass(frozen=True)
class ConfigFile:
    version: int
    experiment: str
    output_dir: str = "out"
    seed: int = 0
    threads: int = 1
    replicas: int = 10000
    sample_size: int = 40
    degeneracy: int | None = None
    beta_tolerance: float = 0.25
    ratio_bound: float = 5.0
    quantile: float = 0.9
    identity_tolerance: float = 1e-10
    kernel: KernelConfig = KernelConfig()
    sampler: SamplerConfig = SamplerConfig()
    x_grid: GridSpec = GridSpec(0.2, 6.0, 24, "log")
    envelope: EnvelopeConfig | None = None
    design: DesignConfig | None = None
    data: DataConfig | None = None
    martingale: MartingaleConfig | None = None
    scaling: ScalingConfig | None = None


# ---------------------------------------------------------------------------
# Parsing with line diagnostics

_GRID_KEYS = {"start", "stop", "points", "scale"}
_SCHEMA: dict[tuple[str, ...], set[str]] = {
    (): {
        "version",
        "experiment",
        "output_dir",
        "seed",
        "threads",
        "replicas",
        "sample_size",
        "degeneracy",
        "beta_tolerance",
        "ratio_bound",
        "quantile",
        "identity_tolerance",
        "kernel",
        "sampler",
        "x_grid",
        "envelope",
        "design",
        "data",
        "martingale",
        "scaling",
    },
    ("kernel",): {"name", "centered", "sup_bound", "dim", "grid_points"},
    ("sampler",): {"kind", "grid_points", "dim", "atoms", "probs"},
    ("x_grid",): _GRID_KEYS,
    ("envelope",): {"first", "second", "tail_scale", "scale"},
    ("design",): {"kind", "size", "rate"},
    ("data",): {"values", "draw"},
    ("martingale",): {"generator", "steps", "dim", "variants", "x_grid", "y_grid", "t_grid"},
    ("martingale", "x_grid"): _GRID_KEYS,
    ("martingale", "y_grid"): _GRID_KEYS,
    ("martingale", "t_grid"): _GRID_KEYS,
    ("scaling",): {"design_kind", "sizes", "sample_sizes", "matching"},
    ("scaling", "matching"): {"sample_size", "size", "replicas", "sampler_kind"},
}


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


class _Section:
    """Typed access into one mapping, raising errors that name key and line."""

    def __init__(self, data: dict, lines: dict, path: tuple[str, ...]):
        self.data = data
        self.lines = lines
        self.path = path

    def _where(self, key: str) -> str:
        line = self.lines.get(self.path + (key,))
        dotted = ".".join(self.path + (key,))
        return f"'{dotted}' (line {line})" if line else f"'{dotted}'"

    def _fail(self, key: str, why: str):
        raise ConfigError(f"{self._where(key)}: {why}")

    def has(self, key: str) -> bool:
        return key in self.data and self.data[key] is not None

    def child(self, key: str) -> "_Section | None":
        if not self.has(key):
            return None
        value = self.data[key]
        if not isinstance(value, dict):
            self._fail(key, "expected a mapping")
        return _Section(value, self.lines, self.path + (key,))

    def get_int(self, key, default=None, minimum=None, maximum=None):
        if not self.has(key):
            if default is None and key not in self.data:
                return None
            return default
        v = self.data[key]
        if isinstance(v, bool) or not isinstance(v, int):
            self._fail(key, f"expected an integer, got {type(v).__name__}")
        if minimum is not None and v < minimum:
            self._fail(key, f"must be at least {minimum}, got {v}")
        if maximum is not None and v > maximum:
            self._fail(key, f"must be at most {maximum}, got {v}")
        return int(v)

    def get_float(self, key, default=None, minimum=None, maximum=None, exclusive_min=False):
        if not self.has(key):
            return default
        v = self.data[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self._fail(key, f"expected a number, got {type(v).__name__}")
        v = float(v)
        if minimum is not None and (v <= minimum if exclusive_min else v < minimum):
            bound = "greater than" if exclusive_min else "at least"
            self._fail(key, f"must be {bound} {minimum}, got {v}")
        if maximum is not None and v > maximum:
            self._fail(key, f"must be at most {maximum}, got {v}")
        return v

    def get_str(self, key, default=None, choices=None):
        if not self.has(key):
            return default
        v = self.data[key]
        if not isinstance(v, str):
            self._fail(key, f"expected a string, got {type(v).__name__}")
        if choices is not None and v not in choices:
            self._fail(key, f"must be one of {sorted(choices)}, got {v!r}")
        return v

    def get_bool(self, key, default=None):
        if not self.has(key):
            return default
        v = self.data[key]
        if not isinstance(v, bool):
            self._fail(key, f"expected true/false, got {type(v).__name__}")
        return v

    def get_list(self, key, default=None):
        if not self.has(key):
            return default
        v = self.data[key]
        if not isinstance(v, list):
            self._fail(key, f"expected a list, got {type(v).__name__}")
        return v


def _check_unknown_keys(data: dict, lines: dict) -> None:
    def walk(mapping: dict, path: tuple[str, ...]):
        allowed = _SCHEMA.get(path)
        if allowed is None:
            return
        for key, value in mapping.items():
            key = str(key)
            if key not in allowed:
                line = lines.get(path + (key,))
                where = f" at line {line}" if line else ""
                section = ".".join(path) if path else "the top level"
                raise ConfigError(
                    f"unknown key '{key}'{where} in {section}; "
                    f"allowed keys: {', '.join(sorted(allowed))}"
                )
            if isinstance(value, dict):
                walk(value, path + (key,))

    walk(data, ())


def _parse_grid(sec: _Section | None, default: GridSpec) -> GridSpec:
    if sec is None:
        return default
    scale = sec.get_str("scale", default.scale, choices=("log", "linear"))
    minimum = 0.0 if scale == "log" else None
    start = sec.get_float("start", default.start, minimum=minimum, exclusive_min=scale == "log")
    stop = sec.get_float("stop", default.stop)
    points = sec.get_int("points", default.points, minimum=2)
    if stop <= start:
        sec._fail("stop", f"must exceed start ({start}), got {stop}")
    return GridSpec(start=start, stop=stop, points=points, scale=scale)


def _parse_numbers(sec: _Section, key: str) -> tuple:
    raw = sec.get_list(key)
    out = []
    for item in raw:
        if isinstance(item, list):
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item):
                sec._fail(key, "nested entries must be numbers")
            out.append(tuple(float(v) for v in item))
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            out.append(float(item))
        else:
            sec._fail(key, f"entries must be numbers or lists of numbers, got {type(item).__name__}")
    return tuple(out)


def parse_config_text(text: str) -> ConfigFile:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("the config must be a mapping at the top level")
    lines = _key_lines(text)
    _check_unknown_keys(data, lines)
    top = _Section(data, lines, ())

    version = top.get_int("version")
    if version is None:
        raise ConfigError("missing required key 'version'")
    if version != 1:
        top._fail("version", f"only version 1 is supported, got {version}")
    experiment = top.get_str("experiment", choices=SUBCOMMANDS)
    if experiment is None:
        raise ConfigError(f"missing required key 'experiment' (one of {', '.join(SUBCOMMANDS)})")

    ksec = top.child("kernel")
    kernel = KernelConfig()
    if ksec is not None:
        kernel = KernelConfig(
            name=ksec.get_str("name", kernel.name, choices=KERNEL_NAMES),
            centered=ksec.get_bool("centered", kernel.centered),
            sup_bound=ksec.get_float("sup_bound", None, minimum=0.0, exclusive_min=True),
            dim=ksec.get_int("dim", kernel.dim, minimum=1),
            grid_points=ksec.get_int("grid_points", kernel.grid_points, minimum=2),
        )

    ssec = top.child("sampler")
    sampler = SamplerConfig()
    if ssec is not None:
        kind = ssec.get_str("kind", sampler.kind, choices=SAMPLER_KINDS)
        atoms = _parse_numbers(ssec, "atoms") if ssec.has("atoms") else None
        probs = _parse_numbers(ssec, "probs") if ssec.has("probs") else None
        if probs is not None and any(isinstance(p, tuple) for p in probs):
            ssec._fail("probs", "must be a flat list of numbers")
        grid_points = ssec.get_int("grid_points", None, minimum=2)
        dim = ssec.get_int("dim", None, minimum=1)
        if kind == "finite" and (atoms is None or probs is None):
            ssec._fail("kind", "finite sampler needs both 'atoms' and 'probs'")
        if kind == "uniform-grid" and grid_points is None:
            ssec._fail("kind", "uniform-grid sampler needs 'grid_points'")
        if kind == "discretized-gaussian" and dim is None:
            ssec._fail("kind", "discretized-gaussian sampler needs 'dim'")
        sampler = SamplerConfig(kind=kind, grid_points=grid_points, dim=dim, atoms=atoms, probs=probs)

    dsec = top.child("design")
    design = None
    if dsec is not None:
        kind = dsec.get_str("kind", choices=DESIGN_KINDS)
        if kind is None:
            dsec._fail("kind", "required for a design section")
        size = dsec.get_int("size", None, minimum=1)
        rate = dsec.get_float("rate", None)
        if kind == "bernoulli":
            if rate is None:
                dsec._fail("rate", "bernoulli design needs 'rate'")
            if not 0.0 < rate <= 1.0:
                dsec._fail("rate", f"must lie in (0, 1], got {rate}")
        elif size is None:
            dsec._fail("size", f"{kind} design needs 'size'")
        design = DesignConfig(kind=kind, size=size, rate=rate)

    datsec = top.child("data")
    data_cfg = None
    if datsec is not None:
        values = _parse_numbers(datsec, "values") if datsec.has("values") else None
        draw = datsec.get_int("draw", None, minimum=1)
        if values is not None and draw is not None:
            datsec._fail("draw", "give either 'values' or 'draw', not both")
        data_cfg = DataConfig(values=values, draw=draw)

    esec = top.child("envelope")
    envelope = None
    if esec is not None:
        envelope = EnvelopeConfig(
            first=esec.get_float("first", 1.0, minimum=0.0),
            second=esec.get_float("second", 0.0, minimum=0.0),
            tail_scale=esec.get_float("tail_scale", 1.0, minimum=0.0, exclusive_min=True),
            scale=esec.get_float("scale", 1.0, minimum=0.0, exclusive_min=True),
        )

    msec = top.child("martingale")
    martingale = None
    if msec is not None or experiment == "martingale-verify":
        base = MartingaleConfig()
        if msec is None:
            martingale = base
        else:
            raw_variants = msec.get_list("variants", list(base.variants))
            variants = []
            for v in raw_variants:
                if not isinstance(v, str) or v not in VARIANTS:
                    msec._fail("variants", f"entries must be among {VARIANTS}, got {v!r}")
                variants.append(v)
            martingale = MartingaleConfig(
                generator=msec.get_str("generator", base.generator, choices=GENERATORS),
                steps=msec.get_int("steps", base.steps, minimum=1),
                dim=msec.get_int("dim", base.dim, minimum=1),
                variants=tuple(variants),
                x_grid=_parse_grid(msec.child("x_grid"), base.x_grid),
                y_grid=_parse_grid(msec.child("y_grid"), base.y_grid),
                t_grid=_parse_grid(msec.child("t_grid"), base.t_grid),
            )
        if "real" in martingale.variants and martingale.dim != 1:
            (msec or top)._fail("martingale", "the real-valued variant needs dim 1")

    csec = top.child("scaling")
    scaling = None
    if csec is not None or experiment == "incomplete-compare":
        base = ScalingConfig()
        if csec is None:
            scaling = base
        else:
            sizes = _parse_numbers(csec, "sizes") if csec.has("sizes") else base.sizes
            sample_sizes_raw = csec.get_list("sample_sizes", list(base.sample_sizes))
            sample_sizes = []
            for v in sample_sizes_raw:
                if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                    csec._fail("sample_sizes", f"entries must be positive integers, got {v!r}")
                sample_sizes.append(v)
            design_kind = csec.get_str("design_kind", base.design_kind, choices=DESIGN_KINDS)
            if any(isinstance(s, tuple) for s in sizes):
                csec._fail("sizes", "must be a flat list of numbers")
            for s in sizes:
                if design_kind == "bernoulli":
                    if not 0.0 < s <= 1.0:
                        csec._fail("sizes", f"bernoulli rates must lie in (0, 1], got {s}")
                elif s < 1 or s != int(s):
                    csec._fail("sizes", f"selection sizes must be positive integers, got {s}")
            matching = None
            matsec = csec.child("matching")
            if matsec is not None:
                mbase = MatchingConfig()
                matching = MatchingConfig(
                    sample_size=matsec.get_int("sample_size", mbase.sample_size, minimum=2),
                    size=matsec.get_int("size", mbase.size, minimum=1),
                    replicas=matsec.get_int("replicas", mbase.replicas, minimum=100),
                    sampler_kind=matsec.get_str(
                        "sampler_kind", None, choices=("rademacher", "discretized-gaussian")
                    ),
                )
                if matching.size > matching.sample_size:
                    matsec._fail("size", "must not exceed the matching sample_size")
            scaling = ScalingConfig(
                design_kind=design_kind,
                sizes=tuple(sizes),
                sample_sizes=tuple(sample_sizes),
                matching=matching,
            )

    cfg = ConfigFile(
        version=version,
        experiment=experiment,
        output_dir=top.get_str("output_dir", "out"),
        seed=top.get_int("seed", 0, minimum=0, maximum=2**64 - 1),
        threads=top.get_int("threads", 1, minimum=1),
        replicas=top.get_int("replicas", 10000, minimum=100),
        sample_size=top.get_int("sample_size", 40, minimum=1),
        degeneracy=top.get_int("degeneracy", None, minimum=1),
        beta_tolerance=top.get_float("beta_tolerance", 0.25, minimum=0.0, exclusive_min=True),
        ratio_bound=top.get_float("ratio_bound", 5.0, minimum=1.0),
        quantile=top.get_float("quantile", 0.9),
        identity_tolerance=top.get_float("identity_tolerance", 1e-10, minimum=0.0, exclusive_min=True),
        kernel=kernel,
        sampler=sampler,
        x_grid=_parse_grid(top.child("x_grid"), GridSpec(0.2, 6.0, 24, "log")),
        envelope=envelope,
        design=design,
        data=data_cfg,
        martingale=martingale,
        scaling=scaling,
    )
    if not 0.0 < cfg.quantile < 1.0:
        top._fail("quantile", f"must lie strictly inside (0, 1), got {cfg.quantile}")
    return cfg


def parse_config(path: str) -> ConfigFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _grid_mapping(g: GridSpec) -> dict:
    return {"start": g.start, "stop": g.stop, "points": g.points, "scale": g.scale}


def _config_mapping(cfg: ConfigFile) -> dict:
    out: dict[str, Any] = {
        "version": cfg.version,
        "experiment": cfg.experiment,
        "output_dir": cfg.output_dir,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "replicas": cfg.replicas,
        "sample_size": cfg.sample_size,
        "beta_tolerance": cfg.beta_tolerance,
        "ratio_bound": cfg.ratio_bound,
        "quantile": cfg.quantile,
        "identity_tolerance": cfg.identity_tolerance,
        "kernel": {
            "name": cfg.kernel.name,
            "centered": cfg.kernel.centered,
            "dim": cfg.kernel.dim,
            "grid_points": cfg.kernel.grid_points,
        },
        "sampler": {"kind": cfg.sampler.kind},
        "x_grid": _grid_mapping(cfg.x_grid),
    }
    if cfg.degeneracy is not None:
        out["degeneracy"] = cfg.degeneracy
    if cfg.kernel.sup_bound is not None:
        out["kernel"]["sup_bound"] = cfg.kernel.sup_bound
    for key in ("grid_points", "dim"):
        value = getattr(cfg.sampler, key)
        if value is not None:
            out["sampler"][key] = value
    if cfg.sampler.atoms is not None:
        out["sampler"]["atoms"] = [list(a) if isinstance(a, tuple) else a for a in cfg.sampler.atoms]
    if cfg.sampler.probs is not None:
        out["sampler"]["probs"] = list(cfg.sampler.probs)
    if cfg.envelope is not None:
        e = cfg.envelope
        out["envelope"] = {
            "first": e.first,
            "second": e.second,
            "tail_scale": e.tail_scale,
            "scale": e.scale,
        }
    if cfg.design is not None:
        d = {"kind": cfg.design.kind}
        if cfg.design.size is not None:
            d["size"] = cfg.design.size
        if cfg.design.rate is not None:
            d["rate"] = cfg.design.rate
        out["design"] = d
    if cfg.data is not None:
        d = {}
        if cfg.data.values is not None:
            d["values"] = [list(v) if isinstance(v, tuple) else v for v in cfg.data.values]
        if cfg.data.draw is not None:
            d["draw"] = cfg.data.draw
        out["data"] = d
    if cfg.martingale is not None:
        m = cfg.martingale
        out["martingale"] = {
            "generator": m.generator,
            "steps": m.steps,
            "dim": m.dim,
            "variants": list(m.variants),
            "x_grid": _grid_mapping(m.x_grid),
            "y_grid": _grid_mapping(m.y_grid),
            "t_grid": _grid_mapping(m.t_grid),
        }
    if cfg.scaling is not None:
        s = cfg.scaling
        block: dict[str, Any] = {
            "design_kind": s.design_kind,
            "sizes": list(s.sizes),
            "sample_sizes": list(s.sample_sizes),
        }
        if s.matching is not None:
            mt = {
                "sample_size": s.matching.sample_size,
                "size": s.matching.size,
                "replicas": s.matching.replicas,
            }
            if s.matching.sampler_kind is not None:
                mt["sampler_kind"] = s.matching.sampler_kind
            block["matching"] = mt
        out["scaling"] = block
    return out


def emit_config(cfg: ConfigFile) -> str:
    """Serialized form satisfying parse_config_text(emit_config(c)) == c."""
    return yaml.safe_dump(_config_mapping(cfg), sort_keys=False)


# ---------------------------------------------------------------------------
# Building runtime objects from config


def _build_sampler(cfg: ConfigFile) -> SamplerSpec:
    s = cfg.sampler
    dist = None
    if s.kind == "finite":
        atoms = np.array(
            [list(a) if isinstance(a, tuple) else a for a in s.atoms], dtype=np.float64
        )
        try:
            dist = FiniteDistribution(atoms=atoms, probs=np.array(s.probs, dtype=np.float64))
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
        rows = [list(v) if isinstance(v, tuple) else [v] for v in cfg.data.values]
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ConfigError("data.values rows must all have the same width")
        sample = np.array(rows, dtype=np.float64)
        if sample.shape[1] == 1:
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


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_plot(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = ["# " + " ".join(header)]
    lines.extend(" ".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


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

    def csv(self, name: str, header, rows) -> None:
        path = os.path.join(self.out_dir, name + ".csv")
        _write_csv(path, header, rows)
        self.paths.append(path)
        plot = os.path.join(self.out_dir, name + ".dat")
        _write_plot(plot, header, rows)
        self.paths.append(plot)

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
    report = degeneracy_order(kernel, support)
    sample = _load_sample(cfg, sampler, kernel)
    check = decomposition_check(kernel, support, sample)
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


def _experiment_config(cfg: ConfigFile, kernel, sampler, threads: int) -> ExperimentConfig:
    return ExperimentConfig(
        kernel=kernel,
        sampler=sampler,
        sample_size=cfg.sample_size,
        replicas=cfg.replicas,
        master_seed=cfg.seed,
        x_grid=cfg.x_grid.build(),
        threads=threads,
    )


def _run_tailscan(cfg: ConfigFile, out_dir: str, threads: int) -> int:
    sampler = _build_sampler(cfg)
    kernel = _build_kernel(cfg, sampler)
    scan = tail_scan(_experiment_config(cfg, kernel, sampler, threads), degeneracy=cfg.degeneracy)

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
    scaling = cfg.scaling if cfg.scaling is not None else ScalingConfig()
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
    rows = [
        (
            r.sample_size,
            r.design_kind,
            r.design_param,
            r.replicas,
            r.used,
            r.empty_count,
            r.quantile,
            r.quantile_lo,
            r.quantile_hi,
            r.unbias_max_sigmas,
            r.unbias_ok,
        )
        for r in report.rows
    ]
    writer = _RunWriter(cfg, out_dir)
    writer.csv(
        "incomplete-compare",
        [
            "sample_size",
            "design_kind",
            "design_param",
            "replicas",
            "used",
            "empty_count",
            "quantile",
            "ci_lo",
            "ci_hi",
            "unbias_max_sigmas",
            "unbias_ok",
        ],
        rows,
    )
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


def _run_decouple(cfg: ConfigFile, out_dir: str, threads: int) -> int:
    sampler = _build_sampler(cfg)
    kernel = _build_kernel(cfg, sampler)
    report = decouple_compare(_experiment_config(cfg, kernel, sampler, threads))
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
    mcfg = cfg.martingale if cfg.martingale is not None else MartingaleConfig()
    chosen = variants if variants else mcfg.variants
    if "real" in chosen and mcfg.dim != 1:
        raise ConfigError("the real-valued variant needs martingale.dim 1")
    space = HilbertSpace.euclidean(mcfg.dim)
    ensemble = summarize(
        simulate_ensemble(mcfg.generator, mcfg.steps, space, cfg.seed, cfg.replicas)
    )

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


def run(
    subcommand: str,
    cfg: ConfigFile,
    out_dir: str | None = None,
    threads: int | None = None,
    variants: tuple[str, ...] | None = None,
    grid_file: str | None = None,
) -> int:
    """Execute one subcommand against a parsed config; returns the exit status."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if cfg.experiment != subcommand:
        raise ConfigError(
            f"config is for experiment {cfg.experiment!r}, but the subcommand is {subcommand!r}"
        )
    out = out_dir if out_dir is not None else cfg.output_dir
    workers = threads if threads is not None else cfg.threads
    if subcommand == "estimate":
        return _run_estimate(cfg, out)
    if subcommand == "decompose":
        return _run_decompose(cfg, out)
    if subcommand == "tailscan":
        return _run_tailscan(cfg, out, workers)
    if subcommand == "incomplete-compare":
        return _run_incomplete(cfg, out)
    if subcommand == "decouple-compare":
        return _run_decouple(cfg, out, workers)
    return _run_martingale(cfg, out, variants, grid_file)


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
        p.add_argument("--threads", type=int, default=None, help="override the worker count")
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
        threads = args.threads
        if threads is None:
            env = os.environ.get("USTATLAB_THREADS")
            if env is not None:
                try:
                    threads = int(env)
                except ValueError:
                    raise ConfigError(f"USTATLAB_THREADS must be an integer, got {env!r}")
        if threads is not None and threads < 1:
            raise ConfigError("threads must be positive")
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must fit in 64 bits")
            cfg = ConfigFile(**{**cfg.__dict__, "seed": args.seed})
        variants = tuple(args.variant) if getattr(args, "variant", None) else None
        grid_file = getattr(args, "grid_file", None)
        return run(
            args.subcommand,
            cfg,
            out_dir=args.out,
            threads=threads,
            variants=variants,
            grid_file=grid_file,
        )
    except ConfigError as exc:
        print(f"ustatlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"ustatlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
