"""Every demos/ script and every Python block of the README run against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # the blocks build on each other, so they share one namespace; the quick
    # start reads pvalues.txt from the working directory
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        flags=re.S | re.M)
    assert len(blocks) >= 3
    (tmp_path / "pvalues.txt").write_text("\n".join(str(i / 20) for i in range(1, 20)) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
