"""Smoke test: the demos run to completion against the sources in ``src``.
``04_method_shootout.py`` runs a benchmark grid of about 3.5 seconds
(2-vCPU Xeon, `fractions` backend)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_inverting_a_map.py",
    "02_trees_and_weights.py",
    "03_deformation_and_flow.py",
    "04_method_shootout.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
