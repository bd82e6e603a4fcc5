"""Shows that the benchmark's output checks can fail.

    PYTHONPATH=src python3 perfbench/selftest.py

Feeds each check a correct output and a deliberately broken one: a
0.9-shrunk correction, an off-lattice serial p-value, a moved knee, a
changed summary and changed margins.  Exits 0 only if every correct output
passes and every broken one is rejected.
"""

import dataclasses
import sys

import numpy as np

import workloads as wl
from orderpv import CombinerSpec, SimConfig, check_validity, combine_pvalues


def verdict(check, *args):
    try:
        check(*args)
    except wl.CheckError:
        return "rejected"
    return "passed"


def main():
    cases = []  # (what, expected, got)

    slope = CombinerSpec.solve(1000, 500).slope
    cases.append(("slope(1000, 500)", "passed", verdict(wl.check_reference_slope, slope)))
    cases.append(("0.9-shrunk slope(1000, 500)", "rejected",
                  verdict(wl.check_reference_slope, 0.9 * slope)))

    values = np.random.default_rng(1).random(1001)
    res = combine_pvalues(values)
    cases.append(("combine n=1001", "passed", verdict(wl.check_combine, values, res)))
    moved = dataclasses.replace(res, knee=res.knee + 0.01)
    cases.append(("combine with knee moved by 0.01", "rejected",
                  verdict(wl.check_combine, values, moved)))

    good, shrunk = wl.ValidateN10(1), wl.ValidateN10(1)
    good.start()
    shrunk.start()
    for _ in range(2):
        seed = good.make_input(0)
        cfg = SimConfig(n=good.N, k=good.K, reps=good.REPS, seed=seed)
        cases.append(("validity op", "passed", verdict(good.check, seed, good.call(seed))))
        bad = check_validity(cfg, lambda u: 0.9 * shrunk.spec.apply(u), shrunk.kernel)
        cases.append(("validity op, 0.9-shrunk correction", "rejected",
                      verdict(shrunk.check, seed, bad)))
    cases.append(("validity, pooled", "passed", verdict(good.finish)))

    sub = wl.SubsampleRanksum(1)
    sub.start()
    inp = sub.make_input(0)
    out = sub.call(inp)
    cases.append(("pipeline", "passed", verdict(sub.check, inp, out)))
    cases.append(("pipeline with summary x 0.9", "rejected",
                  verdict(sub.check, inp, dataclasses.replace(out, summary=0.9 * out.summary))))

    chain = wl.BcmcChain(1)
    chain.start()
    inp = chain.make_input(0)
    p = chain.call(inp)
    cases.append(("serial p-value", "passed", verdict(chain.check, inp, p)))
    cases.append(("off-lattice serial p-value", "rejected",
                  verdict(chain.check, inp, p - 0.5 / chain.LENGTH)))
    flipped = np.array(inp[0].entries)
    flipped[0, :] = 1 - flipped[0, :]
    cases.append(("matrix with changed margins", "rejected",
                  verdict(chain.check, (flipped, inp[1]), p)))

    ok = True
    for what, expected, got in cases:
        ok &= expected == got
        print(f"{'ok  ' if expected == got else 'FAIL'} {what}: {got} (expected {expected})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
