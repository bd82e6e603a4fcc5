"""Benchmark of the orderpv library: one workload per run, closed loop, one thread.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload combine-cold --seed 1 --seconds 12 --trace 0

With --trace 0 it reports the end-to-end metrics of the workload; with
--trace 1 the per-layer metrics of a separate traced run.  Every op's output
is checked.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A record with the seed,
commit, machine and output digest is written under perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("combine-cold", "validate-n10", "subsample-ranksum", "bcmc-chain")
SETUP_CHILDREN = 2  # plus the measuring process itself: setup_s is a median of 3
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
UNITS = {
    "throughput": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER_UNITS = {
    "correction.solve_ms": "ms",
    "combine.order_statistic_us": "us",
    "correction.apply_us": "us",
    "binom.upper_tail_us": "us",
    "binom.tail_derivative_us.n_le_500": "us",
    "binom.tail_derivative_us.n_gt_500": "us",
    "correction.solve_cache_hits": "count",
    "validity.kernel_ns_per_rep": "ns",
    "validity.kernel_calls": "count/op",
    "validity.kernel_bytes_per_rep": "B",
    "correction.apply_ns_per_rep": "ns",
    "binom.upper_tail_ns_per_value": "ns",
    "validity.self_ns_per_rep": "ns",
    "subsample.test_us": "us",
    "subsample.test_calls": "count/op",
    "subsample.self_us_per_rep": "us",
    "rngs.stream_us": "us",
    "bcmc.statistic_us": "us",
    "bcmc.statistic_evals_per_step": "1/step",
    "bcmc.chain_self_ns_per_step": "ns",
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    "tracing.overhead": "ratio",
}
WORK_UNIT = {
    "combine-cold": "p-value vectors combined",
    "validate-n10": "validity replications",
    "subsample-ranksum": "subsample repetitions",
    "bcmc-chain": "chain steps",
}


class BenchError(Exception):
    pass


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def run_child(args, env, deadline):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args[:2])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_record(root):
    """The commit if the checkout is a git work tree, and a digest of src/orderpv."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "orderpv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == root.resolve():
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def end_to_end(args, env, deadline):
    setups = [run_child(["setup", args.workload], env, deadline) for _ in range(SETUP_CHILDREN)]
    res = run_child(["run", args.workload, "--seed", args.seed, "--seconds", args.seconds],
                    env, deadline)
    setups.append(res)
    setup_samples = [s["import_s"] + s["warmup_s"] for s in setups]
    run = res["run"]
    metrics = {
        "throughput": run["throughput"],
        "op_p50_ms": run["op_p50_ms"],
        "op_p90_ms": run["op_p90_ms"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": res["peak_rss_mb"],
        "success_rate": 1.0 - run["failed"] / run["ops"],
    }
    record = {
        "setup_samples_s": setup_samples,
        "import_samples_s": [s["import_s"] for s in setups],
        "run": run,
        "error_rate": run["failed"] / run["ops"],
        "environment": res["environment"],
    }
    correct = run["failed"] == 0 and run["run_error"] is None
    return metrics, record, correct, run["ops"], run["failed"]


def traced(args, env, deadline, out):
    res = run_child(["trace", args.workload, "--seed", args.seed, "--seconds", args.seconds,
                     "--out", out], env, deadline)
    passes = res["passes"].values()
    correct = all(p["failed"] == 0 and p["run_error"] is None for p in passes)
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {"passes": res["passes"], "environment": res["environment"]}
    return res["per_layer"], record, correct, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "orderpv" / "__init__.py").is_file():
        print(f"error: {src / 'orderpv'} not found; run from the root of an orderpv checkout",
              file=sys.stderr)
        return 2
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    env = child_env(src)

    try:
        if args.trace:
            metrics, record, correct, attempted, failed = traced(args, env, deadline, out)
        else:
            metrics, record, correct, attempted, failed = end_to_end(args, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record.update({
        "workload": args.workload,
        "work_unit": WORK_UNIT[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **source_record(root),
        "metrics": metrics,
        "correct": correct,
    })
    record_path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    units = {**UNITS, **PER_LAYER_UNITS}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{args.workload} error_rate = {record['error_rate']:.6g} "
              f"({failed} of {attempted} ops); latency samples = "
              f"{record['run']['latency_samples']}; digest = {record['run']['digest'][:16]}")
        unscaled = record["run"]["unscaled"]
        print(f"{args.workload} unscaled: " + ", ".join(
            f"{k} = {v:.6g} {units[k]}" for k, v in unscaled.items())
            + f"; mean probe = {record['run']['probe_ns_mean'] / 1e3:.4g} us")
    print(f"record: {record_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
