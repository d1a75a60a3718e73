"""Smoke test of the benchmark itself: ``pytest bench/test_smoke.py``.

Runs every workload for a handful of operations, timed and traced, and fails
when a metric named in BENCHMARK.json is missing or an output check fails.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_passes():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")
