"""One measured repetition, in a fresh process so that import time and peak
memory belong to that repetition alone.

    python3 perfbench/worker.py setup CONFIG
    python3 perfbench/worker.py run WORKLOAD SEED CONFIG [SPANS]
    python3 perfbench/worker.py selftest OUTDIR

``setup`` times import, ``parse_config`` and ``build_experiment``. ``run``
times one ``bome`` command through ``bome.cli.main`` and checks its outputs;
given SPANS it runs traced and writes the spans there. ``selftest`` checks
the tracer's call counts on a short coreset sweep. Each mode prints one JSON
object as its last line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def setup(config_path: str) -> dict:
    text = Path(config_path).read_text(encoding="utf-8")
    t0 = time.perf_counter()
    from bome import cli

    cli.build_experiment(cli.parse_config(text))
    return {"setup_s": time.perf_counter() - t0}


def _outputs(config: dict, cells: int) -> tuple[Path, list[Path]]:
    """The summary and trace CSV paths that ``bome run``/``sweep`` write."""
    out = Path(config["output_path"])
    if not config.get("sweep"):
        return out.with_suffix(".summary.json"), [out]
    return out.with_suffix(".summary.json"), [
        out.with_name(f"{out.stem}_{i:03d}{out.suffix}") for i in range(cells)
    ]


def run(workload: str, seed: int, config_path: str, spans_path: str | None) -> dict:
    from bome import cli
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    config = json.loads(Path(config_path).read_text(encoding="utf-8"))
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracer.install()
    # Keep each run's Trace for the gate: the summary JSON has no final point.
    traces = []
    inner_run = cli.run

    def keep_trace(*args, **kwargs):
        trace = inner_run(*args, **kwargs)
        traces.append(trace)
        return trace

    cli.run = keep_trace
    argv = [wl.command, config_path]
    if wl.command == "sweep":
        argv += ["--jobs", str(nproc())]

    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is not None:
            exit_code = tracer.command(cli.main, argv)
            wall, cpu = tracer.wall_s, tracer.cpu_s
        else:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            exit_code = cli.main(argv)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary_path, csv_paths = _outputs(config, len(traces))
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    csv_rows = [cli.read_trace_csv(p) for p in csv_paths]
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    for entry, rows, path in zip(summary, csv_rows, csv_paths):
        if len(rows) != entry["iterations"]:
            problems.append(f"{path.name}: {len(rows)} rows for {entry['iterations']} iterations")
    outcome = workloads.Outcome(seed, summary, traces, csv_rows)
    problems += wl.check(outcome)
    iters = sum(entry["iterations"] for entry in summary)
    rows = sum(len(r) for r in csv_rows)
    result = {
        "problems": problems, "wall_s": wall, "cpu_s": cpu, "iters": iters,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(iters, rows)
        result["counts"] = tracer.counts()
        tracer.save(spans_path)
    return result


def selftest(outdir: str) -> dict:
    """Check the tracer's oracle-call counts against the per-step formula on
    two short coreset runs: T=10 never exits inner descent early, T=100
    always does.

    Each BOME step makes (steps_taken + early exit) x grad_g_theta (an early
    exit evaluates one more gradient, the one found stationary),
    (1 + [steps_taken > 0]) x eval_g, 2 x grad_g, 1 x grad_f and 1 x eval_f;
    each exact score adds 1 x grad_f, 2 x grad_g, 2 x eval_g and
    1 x exact_inner_opt. Each run ends with one more eval_f and one more score
    at its final point.
    """
    from bome import cli
    import tracing

    config = {
        "problem": "coreset", "start": "start1", "output_path": f"{outdir}/selftest.csv",
        "solver": {"xi": 0.002, "alpha": 0.25, "T": 10, "xi_v": 1.0, "xi_theta": 0.002,
                   "momentum": 0.9, "iters": 300, "kkt_every": 10},
        "sweep": {"T": [10, 100]},
    }
    path = Path(outdir) / "selftest.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tracer = tracing.Tracer()
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = tracer.command(cli.main, ["sweep", str(path)])
    counts = tracer.counts()
    steps, T = tracer.inner_calls()
    n = counts["barrier_step.bome_step"]
    scores = counts["metrics.kkt_exact"]
    expected = {
        "problems.grad_g_theta": int(steps.sum() + (steps < T).sum()),
        "problems.eval_g": int(steps.size + (steps > 0).sum()) + 2 * scores,
        "problems.grad_g": 2 * n + 2 * scores,
        "problems.grad_f": n + scores,
        "problems.eval_f": n + counts["runner.run"],
        "problems.exact_inner_opt": scores,
        # per run: every 10th of 300 iterations, the last one, and the end
        "metrics.kkt_exact": 2 * (300 // 10 + 2),
        "inner_loop.inner_descent": n,
    }
    problems = [f"exit code {exit_code}"] if exit_code else []
    problems += [f"{k}: counted {counts.get(k, 0)}, expected {v}"
                 for k, v in expected.items() if counts.get(k, 0) != v]
    if n != 600:
        problems.append(f"{n} steps, expected 600")
    if not 0 < (steps < T).sum() < steps.size:
        problems.append("the runs did not cover inner descent with and without early exit")
    spans = tracer.spans()
    child = spans["parent"] >= 0
    parent = spans["parent"][child]
    nested = (spans["start"][child] >= spans["start"][parent]) & (spans["end"][child] <= spans["end"][parent])
    if not nested.all() or spans["self"].min() < 0:
        problems.append("a span lies outside its parent or has negative self time")
    return {"problems": problems, "counts": {k: counts.get(k, 0) for k in expected},
            "expected": expected, "early_exits": int((steps < T).sum()),
            "spans": int(spans["dur"].size)}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        result = setup(argv[1])
    elif mode == "run":
        result = run(argv[1], int(argv[2]), argv[3], argv[4] if len(argv) > 4 else None)
    elif mode == "selftest":
        result = selftest(argv[1])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
