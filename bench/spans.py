"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the ``ustatlab`` modules from outside
the package: no source file is edited. Several modules import helpers by
value (``from .distributions import substream``), so a wrapper is rebound
under every name in every loaded ``ustatlab`` module that refers to the
original function; patching only the defining module would miss those calls.

Each call records one span (name, parent span, start, end) in a per-thread
buffer, so worker threads never contend on shared state. A span's parent is
the innermost open span on the same thread. Self time is a span's duration
minus the durations of its child spans. Work counters are derived from the
arguments and results at the same boundary and are also kept per thread.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from array import array
from time import perf_counter

import numpy as np


# Work counters: (keys, function of (args, result) giving one value per key).
# Bytes are computed from array shapes, not measured.
_ROWS = (("rows",), lambda args, result: (int(np.size(result)),))
_BATCH = (
    ("rows", "bytes"),
    lambda args, result: (int(result.shape[0]), int(sum(c.nbytes for c in args[1]) + result.nbytes)),
)
_TUPLES = (("tuples",), lambda args, result: (math.comb(int(np.shape(args[1])[0]), args[0].arity),))
_SELECTED = (("selected",), lambda args, result: (result.selected,))
_TERMS = (("terms",), lambda args, result: (args[1].size ** args[2],))
_PATHS = (("paths",), lambda args, result: (len(result),))
_CELLS = (("cells",), lambda args, result: (len(args[1]),))

# (module, attribute, counter) for every traced boundary. The layers are the
# package modules; the functions are the public entry points whose cost an
# optimisation is expected to move.
TRACED = (
    ("cli", "parse_config", None),
    ("cli", "run", None),
    ("montecarlo", "replicate", None),
    ("montecarlo", "tail_scan", None),
    ("montecarlo", "incomplete_scaling_experiment", None),
    ("distributions", "substream", None),
    ("distributions", "draw_iid", None),
    ("distributions", "exact_expectation", _TERMS),
    ("ustats", "running_max", _TUPLES),
    ("ustats", "draw_design", _SELECTED),
    ("ustats", "complete", None),
    ("ustats", "decoupled", None),
    ("ustats", "incomplete", None),
    ("kernels", "batch_values", _BATCH),
    ("hilbert", "row_norms", _ROWS),
    ("hoeffding", "ProjectedKernel.eval", None),
    ("hoeffding", "decomposition_check", None),
    ("hoeffding", "degeneracy_order", None),
    ("martingale", "simulate_ensemble", _PATHS),
    ("martingale", "verify_pairs", _CELLS),
    ("martingale", "conv_pair_from_paths", None),
    ("confidence", "wilson_interval", None),
    ("confidence", "quantile_interval", None),
)

MODULES = tuple(dict.fromkeys(module for module, _, _ in TRACED))


class _Buffer:
    """Spans and counters recorded on one thread."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.generators: list = []


class Tracer:
    """Installs wrappers around the traced functions and derives per-layer metrics."""

    def __init__(self) -> None:
        self.names = [f"{module}.{attr}" for module, attr, _ in TRACED]
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, index: int, fn, counter):
        prefix = self.names[index]
        is_substream = prefix == "distributions.substream"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            span = len(buf.start)
            buf.name.append(index)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.stack.append(span)
            buf.end.append(0.0)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[span] = perf_counter()
                buf.stack.pop()
            if counter is not None:
                for key, value in zip(counter[0], counter[1](args, result)):
                    key = f"{prefix}.{key}"
                    buf.counts[key] = buf.counts.get(key, 0) + value
            if is_substream:
                # the Philox counters are read once the run is over
                buf.generators.append(result.bit_generator)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a ustatlab module refers to it."""
        loaded = [m for name, m in sys.modules.items() if name == "ustatlab" or name.startswith("ustatlab.")]
        for index, (module, attr, counter) in enumerate(TRACED):
            owner = sys.modules[f"ustatlab.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(index, getattr(cls, method), counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original, counter)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def metrics(self) -> dict[str, float | int]:
        """Calls, inclusive time, self time and counters per traced function,
        plus self time per module."""
        k = len(self.names)
        calls = np.zeros(k, dtype=np.int64)
        total = np.zeros(k)
        own = np.zeros(k)
        counts: dict[str, int] = {}
        words = 0
        for buf in self._buffers:
            if buf.stack:
                raise RuntimeError("a traced call was still open when metrics were read")
            name = np.frombuffer(buf.name, dtype=np.int32)
            parent = np.frombuffer(buf.parent, dtype=np.int64)
            duration = np.frombuffer(buf.end, dtype=np.float64) - np.frombuffer(buf.start, dtype=np.float64)
            child = np.zeros(duration.size)
            nested = parent >= 0
            np.add.at(child, parent[nested], duration[nested])
            calls += np.bincount(name, minlength=k)
            total += np.bincount(name, weights=duration, minlength=k)
            own += np.bincount(name, weights=duration - child, minlength=k)
            for key, value in buf.counts.items():
                counts[key] = counts.get(key, 0) + value
            for gen in buf.generators:
                state = gen.state
                # Philox4x64 hands out four 64-bit words per counter step
                words += 4 * int(state["state"]["counter"][0]) + int(state["buffer_pos"]) - 4

        out: dict[str, float | int] = {}
        for i, (prefix, (_, _, counter)) in enumerate(zip(self.names, TRACED)):
            out[f"{prefix}.calls"] = int(calls[i])
            for key in counter[0] if counter is not None else ():
                out[f"{prefix}.{key}"] = counts.get(f"{prefix}.{key}", 0)
            out[f"{prefix}.s"] = float(total[i])
            out[f"{prefix}.self_s"] = float(own[i])
        for module in MODULES:
            out[f"{module}.self_s"] = float(
                sum(own[i] for i, (m, _, _) in enumerate(TRACED) if m == module)
            )
        out["distributions.draws"] = words
        out["distributions.draws_per_substream"] = _ratio(words, out["distributions.substream.calls"])
        out["hoeffding.exact_terms_per_eval"] = _ratio(
            out["distributions.exact_expectation.terms"], out["hoeffding.ProjectedKernel.eval.calls"]
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
