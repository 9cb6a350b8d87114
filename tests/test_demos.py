"""Smoke test: the demos run to completion, each in a fresh working
directory (demo 04 writes sweep_output/ there)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# each demo with the files it writes
DEMOS = {
    "01_split_step_basics.py": [],
    "02_linear_approximations.py": [],
    "03_lemma_and_predictions.py": [],
    "04_scaling_sweep.py": ["sweep_output/crossings.csv", "sweep_output/betas.csv"],
}


@pytest.mark.parametrize("name, outputs", DEMOS.items(), ids=list(DEMOS))
def test_demo_runs(name, outputs, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for out in outputs:
        assert (tmp_path / out).is_file()
