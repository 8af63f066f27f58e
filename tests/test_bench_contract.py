"""The benchmark's tracer patches bome's functions by name and checks its
oracle-call counts against the per-step formula. Running its self-test here
makes a refactor that removes a patch point or changes that formula fail the
test suite, not only the benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_tracer_selftest_reports_no_problems(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "worker.py"), "selftest", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == [], result
