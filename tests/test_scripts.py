"""Smoke test for the experiment scripts: they are entry points of their own
that import the library's public names, so run them end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _written(stdout: str) -> list[Path]:
    """The files a script reports as ``wrote <path>[, <name>...]``; names after
    the first path live in its directory."""
    paths = []
    for line in stdout.splitlines():
        if line.startswith("wrote "):
            first, *rest = line[len("wrote "):].split(", ")
            paths.append(Path(first))
            paths += [Path(first).parent / name for name in rest]
    return paths


@pytest.mark.parametrize("script, runs", [
    ("reproduce_toy_runs.py", 10),
    ("hyperclean_experiment.py", 1),
])
def test_script_runs_and_writes_its_outputs(tmp_path, script, runs):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    written = _written(proc.stdout)
    assert tmp_path / "summary.json" in written
    for path in written:
        assert path.exists(), path
    assert len(json.loads((tmp_path / "summary.json").read_text())) == runs
