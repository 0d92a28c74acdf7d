"""Cold-start CLI benchmark for chainomaly.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 clibench/run.py --workload NAME --seed N --dump-configs DIR

Each operation is one generated YAML config run through the CLI front door,
`chainomaly.cli.main(["run", CONFIG, "--out", DIR])`, in a fresh worker
process, so no operation reuses a result an earlier one cached. One client
runs one operation at a time (a closed loop). A run repeats whole rounds of
the workload's operations while another round still fits in `--seconds`
(at least one round), checks every report against the oracles, and prints
one JSON object as the last line of standard output. With `--trace 1` it then runs one more round with every
public function wrapped in a span and prints per-layer metrics instead.
Run it from the root of a checkout; the program is imported from `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from workloads import WORKLOADS, Op, read_report, round_order

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".clibench_runs"
WORKER = HERE / "worker.py"

# One BLAS/OpenMP thread per worker: on a small shared machine the default
# thread pool made the dense N=10 eigensolve range over a factor of two.
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
OP_TIMEOUT_S = 150
# Import-only workers started before the timed rounds, so that set-up time
# is a median over at least this many cold starts even when a round has few
# operations.
SETUP_SAMPLES = 10

TRACED_FUNCTIONS = (
    "cli.parse_config",
    "cli.run",
    "cli.emit_report",
    "anomaly.anomaly_class",
    "anomaly.verify_action",
    "anomaly.stack_neutralize",
    "anomaly.omega_cocycle",
    "anomaly.omega_from_vtable",
    "anomaly.lsm_pipeline",
    "anomaly.projective_cocycle",
    "qca.balance_shifts",
    "qca.gnvw_numeric",
    "qca.apply",
    "qca.action_distance_on_units",
    "opwin.product",
    "grpcoh.cohomology",
    "grpcoh.class_of",
    "grpcoh.slant_z",
    "spectra.build_hamiltonian",
    "spectra.lowest_eigs",
    "spectra.symmetry_charge",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run an operation."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn_worker(args: list[str], out_dir: Path, env) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and spawn time."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / "result.json"
    cmd = [sys.executable, str(WORKER), str(SRC), str(result_path), *args]
    with open(out_dir / "stdout.txt", "w") as fo, open(out_dir / "stderr.txt", "w") as fe:
        spawned = _clock()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{out_dir.name}: worker exceeded {OP_TIMEOUT_S} s")
    if code != 0 or not result_path.exists():
        tail = (out_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"{out_dir.name}: worker ended with code {code}\n{tail}")
    return json.loads(result_path.read_text()), spawned


def measure_setup(out_dir: Path, env) -> float:
    """Seconds from spawning a worker to chainomaly being imported in it."""
    res, spawned = spawn_worker([], out_dir, env)
    return res["ready"] - spawned


def run_op(op: Op, config: Path, out_dir: Path, env, traced: bool) -> dict:
    args = (["--trace"] if traced else []) + [str(config), str(out_dir)]
    res, spawned = spawn_worker(args, out_dir, env)
    res["name"] = op.name
    res["setup_s"] = res["ready"] - spawned
    res["errors"] = []
    res["report"] = None
    code = res["exit_code"]
    if code != 0:
        stderr = (out_dir / "stderr.txt").read_text(errors="replace").strip()
        errors = [f"exit code {code}: {stderr[-500:]}"]
    else:
        try:
            res["report"] = read_report(out_dir)
            rows = res["report"].get("rows", [])
            errors = [f"spectra row error: {r['error']}" for r in rows if "error" in r]
            errors += op.check(res["report"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors = [f"report lacks the expected form: {type(exc).__name__}: {exc}"]
    res["failed"] = bool(errors)
    if not (errors and op.known_fault and all(re.match(op.known_fault, e, re.S) for e in errors)):
        res["errors"] = errors
    return res


def run_round(ops: list[Op], configs: dict[str, Path], round_dir: Path, env, traced: bool) -> list[dict]:
    results = [run_op(op, configs[op.name], round_dir / op.name, env, traced) for op in ops]
    reports = {r["name"]: r["report"] for r in results}
    for op, r in zip(ops, results):
        ref = reports.get(op.same_class_as)
        if r["report"] is not None and ref is not None and r["report"]["class"] != ref["class"]:
            r["failed"] = True
            r["errors"].append(
                f"class {r['report']['class']} differs from {op.same_class_as}'s {ref['class']}"
            )
    for r in results:
        status = "FAILED" if r["failed"] else "ok"
        print(
            f"{r['name']:24s} exit={r['exit_code']} {status:6s} setup={r['setup_s']:.3f}s "
            f"solve={r['solve_s']:.3f}s rss={r['peak_rss_mb']:.0f}MB",
            file=sys.stderr,
        )
        for e in r["errors"]:
            print(f"  disagreement: {e}", file=sys.stderr)
    return results


class _PlainDumper(yaml.SafeDumper):
    """Writes shared subtrees out in full rather than as YAML aliases."""

    def ignore_aliases(self, data):
        return True


def write_configs(ops: list[Op], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        path = directory / f"{op.name}.yaml"
        path.write_text(yaml.dump(op.config, Dumper=_PlainDumper, sort_keys=False, default_flow_style=None))
        paths[op.name] = path
    return paths


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[list[dict]], setups: list[float]) -> dict:
    ops = [r for rnd in rounds for r in rnd]
    per_op: dict[str, list[float]] = {}
    for r in ops:
        per_op.setdefault(r["name"], []).append(r["solve_s"])
    return {
        "setup_s": metric(statistics.median(setups + [r["setup_s"] for r in ops]), "s"),
        # one round solves the whole config set once, failed operations included
        "solve_s": metric(statistics.median(sum(r["solve_s"] for r in rnd) for rnd in rounds), "s"),
        # each operation counts once, with its median over rounds; a geometric
        # mean, because the median of single samples of operations whose
        # costs differ a hundredfold jumps between neighbouring operations
        "op_geomean_s": metric(statistics.geometric_mean(statistics.median(v) for v in per_op.values()), "s"),
        "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in ops), "MB"),
    }


def per_layer(rounds: list[list[dict]], traced: list[dict]) -> dict:
    totals: dict[str, list[float]] = {}
    for r in traced:
        for name, (self_s, calls) in r["layers"].items():
            t = totals.setdefault(name, [0.0, 0])
            t[0] += self_s
            t[1] += calls
    out = {}
    for name in TRACED_FUNCTIONS:
        self_s, calls = totals.get(name, [0.0, 0])
        out[f"{name}.self_s"] = metric(self_s, "s")
        out[f"{name}.calls"] = metric(calls, "count")
    untraced = statistics.median(sum(r["solve_s"] for r in rnd) for rnd in rounds)
    out["trace.overhead_s"] = metric(sum(r["solve_s"] for r in traced) - untraced, "s")
    ops = [r for rnd in rounds for r in rnd]
    out["setup.import_s"] = metric(statistics.median(r["import_s"] for r in ops), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-configs", metavar="DIR", help="write the configs and exit")
    args = parser.parse_args(argv)

    ops = round_order(WORKLOADS[args.workload](args.seed), args.seed)
    if args.dump_configs:
        write_configs(ops, Path(args.dump_configs))
        return 0
    if not (SRC / "chainomaly" / "cli.py").is_file():
        print(f"error: no chainomaly sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = RUNS / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    configs = write_configs(ops, run_dir / "configs")
    env = worker_env()
    try:
        spawn_worker([], run_dir / "warmup", env)  # bytecode and page cache
        probes = max(0, SETUP_SAMPLES - len(ops))
        setups = [measure_setup(run_dir / f"setup{i}", env) for i in range(probes)]
        rounds = []
        start = _clock()
        longest = 0.0
        # whole rounds only, and no round that would end past the deadline
        while not rounds or _clock() - start + longest <= args.seconds:
            began = _clock()
            rounds.append(run_round(ops, configs, run_dir / f"round{len(rounds)}", env, False))
            longest = max(longest, _clock() - began)
        traced = run_round(ops, configs, run_dir / "traced", env, True) if args.trace else []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = [r for rnd in rounds for r in rnd] + traced
    correct = not any(r["errors"] for r in results)
    metrics = per_layer(rounds, traced) if args.trace else end_to_end(rounds, setups)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
