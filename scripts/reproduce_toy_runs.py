#!/usr/bin/env python3
"""Run the three desk-scale toy problems and write traces + a summary.

Coreset runs are emitted twice: once at the uniform reference step
xi = alpha = 0.05 (which stalls a visually-small distance from the hull
vertex; see README), and once with the damped configuration (small theta
step, large v step, heavy-ball) that drives the stationarity score below
1e-4.

Usage: python scripts/reproduce_toy_runs.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from bome import Method, SolverConfig, run
from bome.cli import ExperimentConfig, build_experiment, emit_summary_json, emit_trace_csv


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out/toy")
    outdir.mkdir(parents=True, exist_ok=True)
    traces = []

    for name in ("start1", "start2", "start3"):
        # the CLI's named start, on the default geometry
        coreset = ExperimentConfig("coreset", start=name)
        ref_cfg = SolverConfig(
            outer_step_xi=0.05, inner_iters_T=10, max_outer_iters_K=5000, kkt_eval_every=10
        )
        trace = run(*build_experiment(coreset), ref_cfg)
        emit_trace_csv(trace, outdir / f"coreset_{name}_uniform.csv")
        traces.append(trace)
        print(
            f"coreset {name} (uniform step): theta={trace.final_point.theta}, "
            f"stationarity={trace.final_kkt.total:.3e}"
        )

        damped_cfg = SolverConfig(
            outer_step_xi=0.002,
            inner_step_alpha=0.25,
            inner_iters_T=10,
            xi_v=1.0,
            xi_theta=0.002,
            momentum_beta=0.9,
            max_outer_iters_K=20000,
            kkt_eval_every=50,
            stop_kkt_tol=1e-4,
        )
        trace = run(*build_experiment(coreset), damped_cfg)
        emit_trace_csv(trace, outdir / f"coreset_{name}_damped.csv")
        traces.append(trace)
        print(
            f"coreset {name} (damped): theta={trace.final_point.theta}, "
            f"stationarity={trace.final_kkt.total:.3e}"
        )

    mm_cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=2000, kkt_eval_every=50)
    for method in (Method.BOME, Method.NAIVE_GDA, Method.OPTIMISTIC_GD):
        cfg = mm_cfg if method is not Method.OPTIMISTIC_GD else SolverConfig(
            outer_step_xi=0.05, max_outer_iters_K=6000, kkt_eval_every=200
        )
        trace = run(*build_experiment(ExperimentConfig("minimax")), cfg, method)
        emit_trace_csv(trace, outdir / f"minimax_{method.value}.csv")
        traces.append(trace)
        fp = trace.final_point
        print(f"minimax {method.value}: |(v, theta)| = {np.hypot(fp.v[0], fp.theta[0]):.3e}")

    lls_cfg = SolverConfig(
        outer_step_xi=0.5, inner_iters_T=10, max_outer_iters_K=2000, kkt_eval_every=50
    )
    lls, lls_start = build_experiment(ExperimentConfig("lls"))
    trace = run(lls, lls_start, lls_cfg)
    emit_trace_csv(trace, outdir / "lls_bome.csv")
    traces.append(trace)
    fp = trace.final_point
    print(f"lls: f={lls.eval_f(fp):.2e}, theta={fp.theta}, v={fp.v}")

    emit_summary_json(traces, outdir / "summary.json")
    print(f"wrote {outdir}/summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
