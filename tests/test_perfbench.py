"""The benchmark's own self-test, run as part of the suite.

`perfbench/selftest.py` feeds every workload check a correct output and a
broken one; running it here means an API change that breaks the
benchmark's imports or checks fails the tests, not only the benchmark.
"""

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
