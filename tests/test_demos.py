"""Each demo runs to completion against the package in ``src``."""

import glob
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted(glob.glob(os.path.join(REPO_ROOT, "demos", "*.py")))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, path], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
