"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_demos.py", ["--theta-steps", "1"]),
        ("rank_ceiling_experiment.py", ["--seeds", "1", "--sweep-count", "2"]),
        ("lp_oracle_agreement.py", ["--seeds", "1", "--count", "6"]),
        ("pool_digest.py", ["--seeds", "1", "--count", "3"]),
        ("density_stages.py", ["--count", "2", "--repeats", "1"]),
        ("ladder.py", ["--max-n", "6"]),
    ],
)
def test_script_exits_zero(script, args):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
