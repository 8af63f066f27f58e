"""Digest what the benchmark workloads and the built-in problems write, so that
two source trees can be compared for identical outputs with one ``diff``.

    python scripts/output_digest.py SRC_DIR [--workload W ...] [--problem P ...]
                                            [--seed S ...]

With neither ``--workload`` nor ``--problem``, every workload of
``perfbench/workloads.py`` and every built-in problem is digested; given
either flag, only what the flags name. Each seed is 0 and 7 by default. A
workload's config is made with the ``bome`` package in ``SRC_DIR`` and run as
``python -m bome`` with ``PYTHONPATH=SRC_DIR`` in a temporary directory. A
problem is run the same way, as ``bome run`` on the bare document
``{"problem": P, "solver": {"seed": S}}``. One line is printed per input and
seed: a sha256 over the config, the exit code, stdout and stderr (with the
temporary directory masked), every trace CSV without its ``wall_us`` column,
and every summary without ``total_wall_us``. The config is hashed because
hyper-cleaning's pretrained start is computed by the tree.

To compare a change with its parent commit:

    mkdir -p /tmp/parent && git archive HEAD src | tar -x -C /tmp/parent
    python scripts/output_digest.py /tmp/parent/src > parent.txt
    python scripts/output_digest.py src > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

REPO = Path(__file__).resolve().parent.parent
MASK = "<tmp>"
SEEDS = (0, 7)


def _wall_free_csv(text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    col = rows[0].index("wall_us")
    return "\n".join(",".join(row[:col] + row[col + 1:]) for row in rows)


def _wall_free_summary(text: str) -> str:
    entries = json.loads(text)
    for entry in entries:
        entry.pop("total_wall_us")
    return json.dumps(entries)


def _bare(problem: str):
    """A workload that runs the document naming only ``problem`` and the seed."""
    return SimpleNamespace(
        command="run", make_config=lambda seed, tmp: {"problem": problem, "solver": {"seed": seed}})


def digest(src: Path, workload, seed: int) -> str:
    """The sha256 of one workload run at ``seed`` with the tree in ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = json.dumps(workload.make_config(seed, tmp))
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(config, encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "BOME_OUTPUT_DIR"}
        env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "bome", workload.command, str(cfg_path)],
            cwd=tmp, env=env, capture_output=True, text=True, check=False,
        )
        parts = [config, str(proc.returncode), proc.stdout, proc.stderr]
        for path in sorted(Path(tmp).rglob("*")):
            if path.name.endswith(".summary.json"):
                parts += [path.name, _wall_free_summary(path.read_text(encoding="utf-8"))]
            elif path.suffix == ".csv":
                parts += [path.name, _wall_free_csv(path.read_text(encoding="utf-8"))]
        text = "\0".join(parts).replace(tmp, MASK)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="a source tree's src directory")
    parser.add_argument("--workload", action="append", default=[],
                        help="default: every workload, unless --problem is given")
    parser.add_argument("--problem", action="append", default=[],
                        help="a built-in problem, run from its bare document; default: every "
                             "problem, unless --workload is given")
    parser.add_argument("--seed", action="append", type=int, help="default: 0 and 7")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    # the workloads import bome to make their configs: the tree under test's
    sys.path[:0] = [str(src), str(REPO / "perfbench")]
    import workloads

    from bome.cli import PROBLEMS

    names, problems = args.workload, args.problem
    if not names and not problems:
        names, problems = sorted(workloads.WORKLOADS), sorted(PROBLEMS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    unknown = sorted(set(problems) - set(PROBLEMS))
    if unknown:
        parser.error(f"unknown problem(s): {', '.join(unknown)}")
    inputs = [(name, workloads.WORKLOADS[name]) for name in names]
    inputs += [(f"problem={name}", _bare(name)) for name in problems]
    for label, workload in inputs:
        for seed in args.seed or SEEDS:
            print(f"{digest(src, workload, seed)}  {label} seed={seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
