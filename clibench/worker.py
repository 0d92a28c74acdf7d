"""One operation in a fresh interpreter: import chainomaly, run one config
through the CLI front door, and write the timings to a result file.

    python3 worker.py SRC_DIR RESULT_JSON [--trace] [CONFIG OUT_DIR]

Without a config it only imports, which warms the bytecode cache. The
result's `ready` is a CLOCK_MONOTONIC stamp, comparable with the parent's.
"""

import json
import resource
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    src, result_path = argv[0], argv[1]
    trace = "--trace" in argv
    rest = [a for a in argv[2:] if a != "--trace"]
    sys.path.insert(0, src)
    t_import = _clock()
    import chainomaly.cli as cli

    ready = _clock()
    if not cli.__file__.startswith(src):
        raise SystemExit(f"chainomaly was imported from {cli.__file__}, not from {src}")
    result = {"ready": ready, "import_s": ready - t_import, "exit_code": 0}
    if rest:
        config, out_dir = rest
        recorder = None
        if trace:
            import spans

            recorder = spans.install()
        t0, c0 = time.perf_counter(), time.process_time()
        result["exit_code"] = cli.main(["run", config, "--out", out_dir])
        result["solve_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        if recorder is not None:
            result["layers"] = recorder.layer_totals()
            recorder.write(f"{out_dir}/spans.jsonl")
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
