"""Smoke test for the experiment scripts, the output digest and the README's
library quick start: they are entry points of their own that import the
library's public names, so run them end to end."""

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


def test_output_digest_repeats_on_one_tree():
    # one invocation runs the workload and the bare lls document twice each,
    # each run in its own bome process
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "output_digest.py"), str(REPO / "src"),
         "--workload", "minimax-curve", "--problem", "lls", "--seed", "0", "--seed", "0"],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and lines[0] == lines[1] and lines[2] == lines[3]
    assert re.fullmatch(r"[0-9a-f]{64}  minimax-curve seed=0", lines[0])
    assert re.fullmatch(r"[0-9a-f]{64}  problem=lls seed=0", lines[2])


def test_output_digest_calls_repeat_on_one_tree():
    # cProfile's call counts are deterministic: two invocations print the
    # same count for each of the three fixed configs
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "output_digest.py"), str(REPO / "src"),
             "--calls"],
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 3
    assert all(re.fullmatch(r"\d+\.\d+  (minimax|coreset) .+", line) for line in lines)
