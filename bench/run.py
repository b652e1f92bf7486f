"""Benchmark of the ustatlab CLI: end-to-end timings and a traced per-layer run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --selftest
    python3 bench/run.py --record

Run from anywhere; the package is imported from this checkout's ``src``
(it need not be installed). Each measured run is a fresh child interpreter
that imports ``ustatlab.cli``, parses a YAML config generated from the
workload definition and the seed, and calls ``ustatlab.cli.run``. Children
start until ``--seconds`` of measuring is used up (at least three, or one
untraced/traced pair with ``--trace 1``), and every metric is the median over
them. The benchmark and its children are pinned to the first CPUs of the
affinity set, one per workload thread.

The host's speed drifts by tens of percent over minutes, so every time
reported is normalised: the calibration in ``calibrate.py`` runs in this
process before the first child and after each one, and a child's times are
divided by its host factor, the mean of the calibrations around it over
``calibrate.REFERENCE_S``. With ``--trace 0`` the line before the environment
holds the raw medians, as measured, and the median host factor.

Every run first repeats the workload at a reduced size on its pinned seed and
compares the output digests with ``reference.json``, recorded at the commit
that introduced this benchmark. Every measured child must exit with status 0,
keep the workload's output invariants, and produce the same digests as the
first child (and as ``reference.json`` when the seed is the pinned one). A
child that breaks any of these counts as failed.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of the traced
children, whose digests must equal those of the untraced children run
alongside them. The line before it records the environment.

``--selftest`` runs every workload at the reduced size in both modes, checks
that every metric named in BENCHMARK.json is printed with its unit, and shows
that a corrupted reference digest is counted as a failure. ``--record``
rewrites ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import yaml

from calibrate import REFERENCE_S, calibrate
from spans import MODULES
from workloads import DOMINANT, HELD_OUT_SEED, PREDICTIONS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference.json")
WORK = os.path.join(BENCH, ".work")

DEFAULT_SECONDS = 30
MIN_RUNS = 3  # untraced children per run, whatever --seconds says
MIN_SETUPS = 4  # set-up samples behind setup_s (every child gives one); set-up-only children fill the gap
CHILD_TIMEOUT = 60  # seconds; a measured child takes about 10 s at most
HARD_LIMIT = 110  # seconds of measuring after which no child starts, so a run ends within 180 s
CPUS = sorted(os.sched_getaffinity(0))  # a workload with k threads is pinned to the first k

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "work_per_s": "units/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = list(
    dict.fromkeys(
        [name for p in PREDICTIONS for name in p["layer"]]
        + [f"{module}.self_s" for module in MODULES]
        + ["trace.overhead_frac"]
    )
)


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_frac", "_per_substream", "_per_eval")):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("USTATLAB_THREADS", None)
    return env


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Spawns children for one workload inside a private work directory.

    A calibration runs before the first child and after every child; each
    record's ``host`` factor is the mean of the two around it over
    ``REFERENCE_S``.
    """

    def __init__(self, workload, work_dir: str):
        self.w = workload
        self.dir = work_dir
        self.env = child_env()
        self.spawned = 0
        self.calibration = calibrate()

    def write_config(self, cfg: dict) -> str:
        path = os.path.join(self.dir, f"config-{self.spawned}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)
        return path

    def spawn(self, cfg: dict, mode: str, expected: dict | None = None) -> dict:
        """One child; returns its timings, host factor, output digests and broken checks.

        ``expected`` holds the output digests the child must reproduce.
        """
        record = self.run_child(cfg, mode, expected)
        after = calibrate()
        record["host"] = (self.calibration + after) / (2.0 * REFERENCE_S)
        self.calibration = after
        return record

    def run_child(self, cfg: dict, mode: str, expected: dict | None) -> dict:
        index = self.spawned
        self.spawned += 1
        config = self.write_config(cfg)
        out_dir = os.path.join(self.dir, f"out-{index}")
        result_path = os.path.join(self.dir, f"result-{index}.json")
        args = [sys.executable, CHILD, config, self.w.subcommand, out_dir, str(self.w.threads), result_path, mode]
        record: dict = {"mode": mode, "problems": [], "digests": None}
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                args, env=self.env, cwd=self.dir, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            record["problems"].append(f"child timed out after {CHILD_TIMEOUT} s")
            return record
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            record["problems"].append(f"exit status {proc.returncode}, expected 0: {' | '.join(tail)}")
        try:
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, ValueError) as exc:
            record["problems"].append(f"no result from the child: {exc}")
            return record
        record["setup_s"] = result["ready"] - spawned_at
        if mode == "setup":
            return record
        record.update({k: result[k] for k in ("run_s", "cpu_s", "peak_rss_mb")})
        record["layers"] = result.get("layers")
        try:
            record["problems"] += self.check_outputs(out_dir, cfg, proc.returncode, record)
        except Exception as exc:  # a malformed output is a failed run, not a crash of the benchmark
            record["problems"].append(f"output check raised {type(exc).__name__}: {exc}")
        shutil.rmtree(out_dir, ignore_errors=True)
        if expected is not None and record["digests"] != expected:
            record["problems"].append("output digests differ from the reference")
        return record

    def check_outputs(self, out_dir: str, cfg: dict, status: int, record: dict) -> list[str]:
        """Broken invariants of one run's outputs; stores their digests and size in ``record``."""
        with open(os.path.join(out_dir, "run_manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        files = sorted(f for f in os.listdir(out_dir) if f.endswith((".csv", ".dat")))
        record["digests"] = {f: sha256(os.path.join(out_dir, f)) for f in files}
        record["output_bytes"] = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
        problems = []
        if manifest["outputs"] != record["digests"]:
            problems.append("manifest digests differ from the files written")
        if manifest["exit_status"] != status or manifest["master_seed"] != cfg["seed"]:
            problems.append("manifest exit status or seed differs from the run")
        return problems + self.w.check(out_dir, manifest, cfg)


def measure(workload, seed: int, seconds: float, trace: bool, reduced: bool, reference: dict) -> list[dict]:
    """Reference check, then measured children until the time is used up."""
    os.makedirs(WORK, exist_ok=True)
    os.sched_setaffinity(0, CPUS[: workload.threads])  # children inherit it
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        runner = Runner(workload, work_dir)
        ref = reference.get(workload.name, {})
        records = [runner.spawn(workload.config(workload.seed, True), "run", ref.get("reduced"))]
        records[0]["role"] = "reference"

        cfg = workload.config(seed, reduced)
        expected = ref.get("reduced" if reduced else "full") if seed == workload.seed else None
        modes = ("run", "trace") if trace else ("run",)
        deadline = time.monotonic() + seconds
        hard_stop = time.monotonic() + HARD_LIMIT
        measured: list[dict] = []
        longest = 0.0
        while True:
            started = time.monotonic()
            for mode in modes:
                record = runner.spawn(cfg, mode, expected)
                if expected is None and record["digests"] is not None:
                    expected = record["digests"]  # later children must match the first
                measured.append(record)
            longest = max(longest, time.monotonic() - started)
            enough = len(measured) >= (2 if trace else MIN_RUNS)
            if (enough and time.monotonic() + longest > deadline) or time.monotonic() > hard_stop:
                break
        records += measured
        setups = sum(1 for r in records if "setup_s" in r)
        for _ in range(max(0, MIN_SETUPS - setups)):
            if time.monotonic() > hard_stop:
                break
            records.append(runner.spawn(cfg, "setup"))
        return records
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def end_to_end_metrics(workload, cfg: dict, records: list[dict], normalised: bool = True) -> dict:
    """Medians over the children; times divided by each child's host factor unless not ``normalised``."""
    runs = [r for r in records if r["mode"] == "run" and r.get("role") != "reference" and "run_s" in r]
    failed = sum(1 for r in records if r["problems"])
    units = workload.work(cfg)
    med = statistics.median

    def host(r: dict) -> float:
        return r["host"] if normalised else 1.0

    return {
        "setup_s": med(r["setup_s"] / host(r) for r in records if "setup_s" in r),
        "run_s": med(r["run_s"] / host(r) for r in runs),
        "cpu_s": med(r["cpu_s"] / host(r) for r in runs),
        "work_per_s": med(units * host(r) / r["run_s"] for r in runs),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        "ok_frac": (len(records) - failed) / len(records),
    }


def per_layer_metrics(records: list[dict]) -> dict:
    runs = [r for r in records if r["mode"] == "run" and r.get("role") != "reference" and "run_s" in r]
    traced = [r for r in records if r["mode"] == "trace" and r.get("layers")]
    out = {}
    for name in PER_LAYER[:-1]:
        if name == "cli.output_bytes":
            out[name] = traced[0]["output_bytes"]
        elif layer_unit(name) == "s":
            out[name] = statistics.median(r["layers"][name] / r["host"] for r in traced)
        else:
            out[name] = traced[0]["layers"][name]
    out["trace.overhead_frac"] = (
        statistics.median(r["run_s"] / r["host"] for r in traced)
        / statistics.median(r["run_s"] / r["host"] for r in runs)
        - 1.0
    )
    return out


def check_trace(records: list[dict]) -> None:
    """Per-layer counts must repeat exactly between traced children.

    That traced outputs equal untraced ones is already enforced: every
    measured child must reproduce the digests of the first, untraced, one.
    """
    traced = [r for r in records if r["mode"] == "trace"]
    if any(not r.get("layers") for r in traced):
        for r in traced:
            r["problems"].append("traced run produced no layer metrics")
        return
    counts = {k: v for k, v in traced[0]["layers"].items() if layer_unit(k) not in ("s", "ratio")}
    for r in traced:
        if any(r["layers"][k] != v for k, v in counts.items()):
            r["problems"].append("per-layer counts differ between traced runs")


def layer_shares(records: list[dict]) -> dict:
    traced = [r["layers"] for r in records if r["mode"] == "trace" and r.get("layers")]
    own = {m: statistics.median(t[f"{m}.self_s"] for t in traced) for m in MODULES}
    total = sum(own.values()) or 1.0
    return {m: round(v / total, 4) for m, v in sorted(own.items(), key=lambda kv: -kv[1])}


def environment(workload) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": CPUS[: workload.threads],
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("PyYAML"),
        "commit": git_commit(),
        "workload": workload.name,
        "threads": workload.threads,
        "work_unit": workload.unit,
        "threads_per_workload": {w.name: w.threads for w in WORKLOADS.values()},
        "pinned_seed": workload.seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload, seed: int, seconds: float, trace: bool, reduced: bool, reference: dict) -> dict:
    cfg = workload.config(seed, reduced)
    records = measure(workload, seed, seconds, trace, reduced, reference)
    if trace:
        check_trace(records)
    for r in records:
        for problem in r["problems"]:
            print(f"FAIL {workload.name} ({r['mode']}): {problem}", file=sys.stderr)
    if not any(r["mode"] == ("trace" if trace else "run") and r.get("role") != "reference" and "run_s" in r
               for r in records):
        raise SystemExit(f"error: no {workload.name} run finished; no metrics to report")
    if trace:
        metrics, units = per_layer_metrics(records), {n: layer_unit(n) for n in PER_LAYER}
        print(json.dumps({"layer_shares": layer_shares(records), "predicted_dominant": DOMINANT[workload.name]}))
    else:
        metrics, units = end_to_end_metrics(workload, cfg, records), END_TO_END
        raw = end_to_end_metrics(workload, cfg, records, normalised=False)
        hosts = [r["host"] for r in records if "host" in r]
        print(json.dumps({"raw": raw, "host_factor": statistics.median(hosts), "children": len(hosts)}))
    failed = sum(1 for r in records if r["problems"])
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def record_reference() -> int:
    reference = {}
    for w in WORKLOADS.values():
        work_dir = tempfile.mkdtemp(prefix="record-", dir=WORK)
        try:
            runner = Runner(w, work_dir)
            entry = {"seed": w.seed}
            for size, reduced in (("reduced", True), ("full", False)):
                record = runner.spawn(w.config(w.seed, reduced), "run")
                if record["problems"] or record["digests"] is None:
                    print(f"{w.name} ({size}): {record['problems']}", file=sys.stderr)
                    return 1
                entry[size] = record["digests"]
            reference[w.name] = entry
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def selftest() -> int:
    """Reduced-size run of every workload in both modes, plus a corrupted-reference check."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from the metrics printed")
    if {m["name"]: m["unit"] for m in declared["per_layer"]} != {n: layer_unit(n) for n in PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from the metrics printed")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the workloads defined")
    for p in PREDICTIONS:
        if not set(p["moves"]) <= set(END_TO_END) or not set(p["on"]) <= set(WORKLOADS):
            problems.append(f"prediction names an unknown metric or workload: {p}")

    reference = load_reference()
    for w in WORKLOADS.values():
        for trace, expected in ((False, END_TO_END), (True, {n: layer_unit(n) for n in PER_LAYER})):
            result = run_workload(w, w.seed, 0, trace, True, reference)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            ok = result["correct"] and printed == expected
            print(f"{'ok  ' if ok else 'FAIL'} {w.name} trace={int(trace)}: {len(printed)} metrics, "
                  f"{result['attempted']} runs, {result['failed']} failed")
            if not ok:
                problems.append(f"{w.name} trace={int(trace)}: correct={result['correct']}, metrics {sorted(printed)}")

    # the digest gate must be able to fail
    print("corrupting one reference digest; the failures reported next are expected")
    w = WORKLOADS["exact-decompose"]
    corrupted = json.loads(json.dumps(reference))
    name = sorted(corrupted[w.name]["reduced"])[0]
    corrupted[w.name]["reduced"][name] = "0" * 64
    result = run_workload(w, w.seed, 0, False, True, corrupted)
    caught = result["failed"] >= 1 and not result["correct"]
    print(f"{'ok  ' if caught else 'FAIL'} corrupted reference digest counted as {result['failed']} failure(s)")
    if not caught:
        problems.append("a corrupted reference digest was not counted as a failure")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json from this code")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ustatlab", "cli.py")):
        print(f"error: no ustatlab sources under {SRC}", file=sys.stderr)
        return 1
    if args.record:
        os.makedirs(WORK, exist_ok=True)
        return record_reference()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed
    if not 0 <= seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    result = run_workload(workload, seed, args.seconds, bool(args.trace), False, load_reference())
    print(json.dumps({"environment": environment(workload)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
