"""Smoke test for the experiment scripts and the README's library quick
start: they are entry points of their own that import the library's public
names, so run them end to end."""

import json
import os
import re
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


def test_readme_quick_start_runs_to_its_tolerance():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    # the block prints the final theta, then the final stationarity score
    assert float(proc.stdout.split()[-1]) < 1e-4
