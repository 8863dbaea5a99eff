"""Smoke test: the demos run to completion against the package's public API.

Demos 02 (about 37 s) and 05 (about 1 min) are left out to keep the suite's
wall time down; the three run here take a few seconds together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("demo", [
    "01_polar_orthonormalization.py",
    "03_federated_saddle.py",
    "04_auc_maximization.py",
])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(BLAS_THREADS, "1"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
