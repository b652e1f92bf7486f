"""One run of the ustatlab CLI in a fresh interpreter.

    python3 child.py CONFIG SUBCOMMAND OUT_DIR THREADS RESULT_JSON MODE

MODE is ``setup`` (import and parse only), ``run`` or ``trace`` (run with the
span tracer installed). The package is imported from PYTHONPATH, which the
caller points at the checkout's ``src``. The result file holds CLOCK_MONOTONIC
at the end of set-up, so the caller can time set-up from the moment it
spawned this process, plus the run's wall and CPU time, peak RSS, exit status
and, when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    config_path, subcommand, out_dir, threads, result_path, mode = argv
    from ustatlab import cli

    cfg = cli.parse_config(config_path)
    result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    status = 0
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            cfg = cli.parse_config(config_path)  # traced, for cli.parse_config.s
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        status = cli.run(subcommand, cfg, out_dir=out_dir, threads=int(threads))
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["status"] = status
        if tracer is not None:
            result["layers"] = tracer.metrics()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
