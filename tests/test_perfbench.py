"""The benchmark's own self-test, run as part of the suite.

`perfbench/selftest.py` feeds every workload check a correct output and a
broken one; running it here means an API change that breaks the
benchmark's imports or checks fails the tests, not only the benchmark.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_perfbench_trace_reports_every_layer_metric(tmp_path):
    # the traced pass wraps the library's callbacks (kernel, map, base test,
    # statistic); no other test runs those wrappers
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "trace", "validate-n10",
         "--seconds", "0.5", "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(names) == 23
    per_layer = result["per_layer"]
    assert set(names) <= set(per_layer)
    assert all(math.isfinite(per_layer[name]) for name in names), per_layer
    for name, summary in result["passes"].items():
        assert summary["failed"] == 0 and summary["run_error"] is None, (name, proc.stderr)
