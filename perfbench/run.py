"""Benchmark for bome: time to solution end to end, and a traced per-layer
breakdown.

    python3 perfbench/run.py --workload coreset-sweep --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Each repetition runs in a fresh process (``worker.py``), one at a
time. The run makes its input from the seed, then repeats the workload's
``bome`` command until ``--seconds`` would be exceeded (at least once), checks
every command's outputs, and reports medians.

``--trace 0`` reports the end-to-end metrics, untraced. ``--trace 1`` runs the
tracer self-test, then alternates untraced and traced repetitions: it reports
the per-layer metrics of the traced ones and the tracing overhead as their
median wall time over the untraced one's, and leaves the last traced run's
spans in ``.perfbench_out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
the worker processes started; ``failed`` those that crashed or whose outputs
failed the workload's gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
# A run must end within 180 s; workers still running at this point are killed.
DEADLINE_S = 170

END_TO_END = {"wall_s": "s", "iters_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():  # a bare checkout must not pick up an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class Runs:
    """Starts worker processes one at a time and tallies the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, *args) -> dict:
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.deadline - time.monotonic(), 1.0))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            proc, result = None, None
            print(f"worker {args[0]}: {exc}", file=sys.stderr)
        if result is None:
            if proc is not None:
                print(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
            self.failed += 1
            return {"problems": ["worker failed"]}
        if result.get("problems"):
            print(f"worker {args[0]}: {'; '.join(result['problems'])}", file=sys.stderr)
            self.failed += 1
        return result


def repeat(seconds: float, once) -> list:
    """Call ``once`` until another call would end past ``seconds``; at least once."""
    out = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(once())
        took = time.perf_counter() - t0
        if time.perf_counter() - begin + took > seconds:
            return out


def _median(results: list, key: str) -> float:
    values = [r[key] for r in results if key in r]
    if not values:
        raise RuntimeError(f"no repetition produced {key!r}")
    return statistics.median(values)


def end_to_end(runs: Runs, workload: str, seed: int, config: Path, seconds: float) -> dict:
    setup = [runs.worker("setup", config) for _ in range(SETUP_PROBES)]
    reps = repeat(seconds, lambda: runs.worker("run", workload, seed, config))
    for r in reps:
        if "wall_s" in r:
            r["iters_per_s"] = r["iters"] / r["wall_s"]
            print(f"rep: wall_s={r['wall_s']:.4f} iters={r['iters']} cpu_s={r['cpu_s']:.4f} "
                  f"peak_rss_mb={r['peak_rss_mb']:.1f}")
    return {
        "wall_s": _median(reps, "wall_s"),
        "iters_per_s": _median(reps, "iters_per_s"),
        "setup_s": _median(setup, "setup_s"),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
    }


def per_layer(runs: Runs, workload: str, seed: int, config: Path, seconds: float) -> dict:
    selftest = runs.worker("selftest", config.parent)
    print(f"selftest: {json.dumps(selftest.get('counts'))}")
    spans = OUT / f"spans-{workload}.npz"

    def pair():
        return (runs.worker("run", workload, seed, config),
                runs.worker("run", workload, seed, config, spans))

    pairs = repeat(seconds, pair)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs if "layers" in p[1]]
    if not traced:
        raise RuntimeError("no traced repetition succeeded")
    counts = [t["counts"] for t in traced]
    if any(c != counts[0] for c in counts):
        print("span counts differ between traced repetitions", file=sys.stderr)
        runs.failed += 1
    for t in traced:
        print(f"traced rep: wall_s={t['wall_s']:.4f} counts={json.dumps(t['counts'])}")
    metrics = {name: statistics.median(t["layers"][name] for t in traced)
               for name in tracing.UNITS if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = _median(traced, "wall_s") / _median(plain, "wall_s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bome" / "__init__.py").is_file():
        print(f"no bome sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    runs = Runs()
    print("machine: " + json.dumps(machine()))
    outdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        config = outdir / "config.json"
        make = workloads.WORKLOADS[args.workload].make_config
        config.write_text(json.dumps(make(args.seed, str(outdir))), encoding="utf-8")
        measure = per_layer if args.trace else end_to_end
        values = measure(runs, args.workload, args.seed, config, args.seconds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    units = tracing.UNITS if args.trace else END_TO_END
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_runs = {runs.failed} of {runs.attempted} runs")
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
