"""One workload process of the benchmark; `run.py` starts it, never a user.

    worker.py setup WORKLOAD            import + warm-up only, for setup_s
    worker.py run   WORKLOAD --seed S --seconds T
    worker.py trace WORKLOAD --seed S --seconds T --out DIR

Prints one JSON object on stdout.  `orderpv` must be importable (run.py puts
the checkout's `src` on PYTHONPATH and pins thread pools to one thread).
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

from run import THREAD_VARS

MIN_OPS = 100  # per end-to-end run: at least 10 latency samples beyond p90
# The host runs the same code in speed modes up to about 1.7x apart; a mode
# lasts from well under a second to longer than a run.  So a fixed probe that
# never calls orderpv is timed between ops, at most every PROBE_INTERVAL_NS,
# and each op's time is scaled by NOMINAL_PROBE_NS / (mean time of the
# PROBE_SIDE probes before the op and the PROBE_SIDE after it).  Reported
# times are thus those on a host where one probe takes NOMINAL_PROBE_NS.
PROBE_INTERVAL_NS = 50_000_000
PROBE_SIDE = 3
NOMINAL_PROBE_NS = 400_000
TRACE_MIN_OPS = 20  # per traced pass
SIDE_SECONDS = 1.0  # traced pass of each workload other than the one named

_clock = time.perf_counter_ns


def probe_ns():
    """Time a fixed pure-Python loop that never calls orderpv.

    Its time tracks the host's speed and not the commit.  Its few bytes of
    code and data are cache-resident after the first iterations, so unlike
    numpy or scipy work its time does not depend on what the op before it
    left in the caches.
    """
    t0 = _clock()
    s = 0
    for i in range(6000):
        s += i * i
    return _clock() - t0


def prepare(name, seed):
    """Import orderpv and run one warm-up op: the set-up every CLI call pays."""
    t0 = time.perf_counter()
    import orderpv  # noqa: F401  (timed: numpy, scipy.stats and the package)

    t1 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name](seed)
    w.warmup()
    t2 = time.perf_counter()
    return w, t1 - t0, t2 - t1


class Pass:
    """Outcome of one timed loop over a workload's ops.

    With a recorder every op is traced, or with `interleave` every second
    one, so that traced and untraced ops share the host's speed swings.
    """

    def __init__(self, w, seconds, min_ops, rec=None, interleave=False):
        w.start()
        self.units_per_op = w.units_per_op
        self.latency_ns = {False: [], True: []}  # keyed by "op was traced"
        self.probes_before = {False: [], True: []}  # probes taken before each op
        self.probe_ns = []
        next_probe = 0
        self.failed = 0
        i = 0
        deadline = time.perf_counter() + seconds
        while i < min_ops or time.perf_counter() < deadline:
            inp = w.make_input(i)
            traced = rec is not None and (i % 2 == 1 or not interleave)
            try:
                if traced:
                    rec.op = i
                    sid = rec.enter("op")
                    try:
                        out = w.traced_call(inp, rec)
                    finally:
                        rec.exit(sid)
                    self.probes_before[True].append(len(self.probe_ns))
                    self.latency_ns[True].append(rec.spans[sid][2] - rec.spans[sid][1])
                    w.probe(inp, out, rec)
                else:
                    t0 = _clock()
                    out = w.call(inp)
                    self.latency_ns[False].append(_clock() - t0)
                    self.probes_before[False].append(len(self.probe_ns))
                w.check(inp, out)
                w.digest(out)
            except Exception:  # a failed op is counted and the run goes on
                self.failed += 1
                if self.failed == 1:
                    traceback.print_exc()
            if _clock() >= next_probe:
                self.probe_ns.append(probe_ns())
                next_probe = _clock() + PROBE_INTERVAL_NS
            i += 1
        self.ops = i
        try:
            w.finish()
            self.run_error = None
        except Exception as exc:  # noqa: BLE001  (reported, not raised)
            traceback.print_exc()
            self.run_error = f"{type(exc).__name__}: {exc}"
        self.digest = w.hexdigest()
        self.counters = w.counters()

    def throughput(self, traced):
        lat = self.latency_ns[traced]
        return len(lat) * self.units_per_op / (sum(lat) / 1e9)

    def summary(self):
        import numpy as np

        traced = not self.latency_ns[False]
        lat = np.array(self.latency_ns[traced]) / 1e6
        before = np.array(self.probes_before[traced])
        probes = np.array(self.probe_ns, dtype=float)
        # The first op is always followed by a probe, so every window holds one.
        cum = np.concatenate([[0.0], np.cumsum(probes)])
        lo = np.maximum(before - PROBE_SIDE, 0)
        hi = np.minimum(before + PROBE_SIDE, probes.size)
        scaled = lat * NOMINAL_PROBE_NS * (hi - lo) / (cum[hi] - cum[lo])
        p50, p90 = np.percentile(scaled, [50, 90])
        raw_p50, raw_p90 = np.percentile(lat, [50, 90])
        return {
            "ops": self.ops,
            "failed": self.failed,
            "run_error": self.run_error,
            "throughput": lat.size * self.units_per_op / (scaled.sum() / 1e3),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "unscaled": {"throughput": self.throughput(traced),
                         "op_p50_ms": raw_p50, "op_p90_ms": raw_p90},
            "probe_ns_mean": probes.mean(),
            "probes": probes.size,
            "latency_samples": lat.size,
            "digest": self.digest,
            "counters": self.counters,
        }


def environment():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def trace(args, w, import_s, warmup_s):
    from spans import Recorder
    from workloads import WORKLOADS

    passes = {}
    per_layer = {"setup.import_s": import_s, "setup.warmup_s": warmup_s}
    # The named workload runs first, on the state its own warm-up left.
    for name in [args.workload] + [n for n in WORKLOADS if n != args.workload]:
        cls = WORKLOADS[name]
        rec = Recorder()
        if name == args.workload:
            p = Pass(w, args.seconds, TRACE_MIN_OPS, rec, interleave=True)
            per_layer["tracing.overhead"] = p.throughput(False) / p.throughput(True) - 1.0
        else:
            other = cls(args.seed)
            other.warmup()
            p = Pass(other, SIDE_SECONDS, TRACE_MIN_OPS, rec)
        passes[name] = p.summary()
        totals = rec.totals()
        per_layer.update(cls.layer_metrics(totals, rec, totals["op"][0], p.counters))
        rec.write(os.path.join(args.out, f"{args.workload}-seed{args.seed}-spans-{name}.csv.gz"))
    return {"per_layer": per_layer, "passes": passes}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", default=".")
    args = ap.parse_args(argv)

    w, import_s, warmup_s = prepare(args.workload, args.seed)
    result = {"import_s": import_s, "warmup_s": warmup_s}
    if args.mode == "run":
        result["run"] = Pass(w, args.seconds, MIN_OPS).summary()
    elif args.mode == "trace":
        result.update(trace(args, w, import_s, warmup_s))
    if args.mode != "setup":
        result["environment"] = environment()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
