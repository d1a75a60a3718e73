"""The experiment scripts run end to end on small inputs."""

import json
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
        ("pool_digest.py", ["--seeds", "1", "--count", "2", "--dump", "{tmp}/pool.jsonl",
                            "--against", "{tmp}/pool.jsonl", "--atol", "0"]),
    ],
)
def test_script_exits_zero(script, args, tmp_path):
    r = run_script(script, [a.format(tmp=tmp_path) for a in args])
    assert r.returncode == 0, r.stderr


def run_script(script, args):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env,
    )


def test_pool_digest_against_flags_a_moved_float(tmp_path):
    """A probability moved by 1e-12 passes ``--atol 1e-11`` and fails ``--atol 1e-13``."""
    dump = tmp_path / "pool.jsonl"
    scope = ["--seeds", "1", "--count", "1"]
    assert run_script("pool_digest.py", [*scope, "--dump", str(dump)]).returncode == 0
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    records[0]["certify"]["per_outcome"][0]["probability"] += 1e-12
    dump.write_text("".join(json.dumps(r) + "\n" for r in records))
    loose = run_script("pool_digest.py", [*scope, "--against", str(dump), "--atol", "1e-11"])
    assert loose.returncode == 0, loose.stdout
    strict = run_script("pool_digest.py", [*scope, "--against", str(dump), "--atol", "1e-13"])
    assert strict.returncode == 1
    assert "per_outcome[].probability" in strict.stdout
    records[0]["certify"]["verdict"] = "NO_PARADOX_PURITY"
    dump.write_text("".join(json.dumps(r) + "\n" for r in records))
    changed = run_script("pool_digest.py", [*scope, "--against", str(dump), "--atol", "1e-11"])
    assert changed.returncode == 1
    assert "certify.verdict" in changed.stdout
