"""Digest what the benchmark workloads and the built-in problems write, so that
two source trees can be compared for identical outputs with one ``diff``.

    python scripts/output_digest.py SRC_DIR [--workload W ...] [--problem P ...]
                                            [--seed S ...]
    python scripts/output_digest.py SRC_DIR --calls

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

``--calls`` prints, instead, cProfile's total calls per outer iteration of
``run()`` for each of the fixed configs of ``CALL_CONFIGS``, each run for
``CALL_ITERS`` iterations in a fresh ``python`` with ``PYTHONPATH=SRC_DIR``;
imports and building the oracle are not counted. The count is deterministic,
but it does not see numpy operators or ufunc calls, so a change that only
removes temporaries shows in wall time alone.

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

CALL_ITERS = 2000
# label: (problem, start (v, theta), SolverConfig keywords) of each --calls run
CALL_CONFIGS = {
    "minimax T=0 kkt_every=1000000": (
        "minimax", ([1.0], [1.0]),
        {"outer_step_xi": 0.05, "inner_iters_T": 0, "kkt_eval_every": 10**6}),
    "minimax T=10 kkt_every=1": (
        "minimax", ([1.0], [1.0]),
        {"outer_step_xi": 0.05, "inner_iters_T": 10, "kkt_eval_every": 1}),
    "coreset quick-start kkt_every=50 start1": (
        "coreset", ([0.0] * 4, [0.0, 3.0]),
        {"outer_step_xi": 0.002, "inner_step_alpha": 0.25, "inner_iters_T": 10, "xi_v": 1.0,
         "xi_theta": 0.002, "momentum_beta": 0.9, "kkt_eval_every": 50}),
}
# run as ``python -c`` with the JSON of (problem, start, keywords, iterations)
_COUNT_CALLS = """\
import cProfile, json, pstats, sys
import bome
problem, (v, theta), solver, iters = json.loads(sys.argv[1])
oracle, start = getattr(bome, problem + "_oracle")(), bome.JointPoint(v, theta)
cfg = bome.SolverConfig(max_outer_iters_K=iters, **solver)
profile = cProfile.Profile()
profile.runcall(bome.run, oracle, start, cfg)
print(pstats.Stats(profile).total_calls / iters)
"""


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


def calls_per_iteration(src: Path) -> dict[str, str]:
    """cProfile's calls per outer iteration of ``run()`` with the tree in
    ``src``, by label of ``CALL_CONFIGS``; the configs run side by side."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    procs = {
        label: subprocess.Popen(
            [sys.executable, "-c", _COUNT_CALLS, json.dumps([*config, CALL_ITERS])],
            env=env, stdout=subprocess.PIPE, text=True)
        for label, config in CALL_CONFIGS.items()
    }
    counts = {label: proc.communicate()[0].strip() for label, proc in procs.items()}
    failed = [label for label, proc in procs.items() if proc.returncode]
    if failed:
        raise RuntimeError(f"counting failed: {', '.join(failed)}")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="a source tree's src directory")
    parser.add_argument("--workload", action="append", default=[],
                        help="default: every workload, unless --problem is given")
    parser.add_argument("--problem", action="append", default=[],
                        help="a built-in problem, run from its bare document; default: every "
                             "problem, unless --workload is given")
    parser.add_argument("--seed", action="append", type=int, help="default: 0 and 7")
    parser.add_argument("--calls", action="store_true",
                        help="print the calls per outer iteration of the fixed configs instead")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.calls:
        if args.workload or args.problem or args.seed:
            parser.error("--calls takes no --workload, --problem or --seed")
        for label, count in calls_per_iteration(src).items():
            print(f"{count}  {label}")
        return 0
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
