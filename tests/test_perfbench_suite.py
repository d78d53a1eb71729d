"""The benchmark's own tests, run as part of the library's suite.

``perfbench/tracing.py`` and ``perfbench/workloads.py`` look library
functions and methods up by name, so a refactor that drops or renames one
of them breaks the benchmark; its tests catch that.  They run in a child
process because ``run.import_forminv`` re-imports the package, which the
separate process keeps apart from the modules these tests hold.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
