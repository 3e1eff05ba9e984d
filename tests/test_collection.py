"""A bare ``pytest`` collects every test directory.

pytest's default ``norecursedirs`` skips any directory named ``dist``, so
``tests/dist/`` — the parallel mark/refine/migrate suite — once dropped
out of every run without a word.  ``pyproject.toml`` lists the defaults
minus ``dist``; this test collects ``tests`` as a bare run does and fails
if no ``tests/dist/`` id comes back.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tests_dist_is_collected():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    dist = [ln for ln in done.stdout.splitlines()
            if ln.startswith("tests/dist/")]
    assert dist, "pytest collected nothing under tests/dist/"
