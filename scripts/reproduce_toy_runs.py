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

from bome import JointPoint, Method, SolverConfig, coreset_oracle, lls_oracle, minimax_oracle, run
from bome.cli import emit_summary_json, emit_trace_csv

CORESET_STARTS = {
    "start1": np.array([0.0, 3.0]),
    "start2": np.array([-3.0, 1.0]),
    "start3": np.array([3.5, 1.0]),
}


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out/toy")
    outdir.mkdir(parents=True, exist_ok=True)
    traces = []

    for name, theta0 in CORESET_STARTS.items():
        ref_cfg = SolverConfig(
            outer_step_xi=0.05, inner_iters_T=10, max_outer_iters_K=5000, kkt_eval_every=10
        )
        trace = run(coreset_oracle(), JointPoint(np.zeros(4), theta0), ref_cfg)
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
        trace = run(coreset_oracle(), JointPoint(np.zeros(4), theta0), damped_cfg)
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
        trace = run(minimax_oracle(), JointPoint([1.0], [1.0]), cfg, method)
        emit_trace_csv(trace, outdir / f"minimax_{method.value}.csv")
        traces.append(trace)
        fp = trace.final_point
        print(f"minimax {method.value}: |(v, theta)| = {np.hypot(fp.v[0], fp.theta[0]):.3e}")

    lls_cfg = SolverConfig(
        outer_step_xi=0.5, inner_iters_T=10, max_outer_iters_K=2000, kkt_eval_every=50
    )
    trace = run(lls_oracle(), JointPoint([0.0], [0.0, 3.0]), lls_cfg)
    emit_trace_csv(trace, outdir / "lls_bome.csv")
    traces.append(trace)
    fp = trace.final_point
    print(
        f"lls: f={lls_oracle().eval_f(fp):.2e}, theta={fp.theta}, v={fp.v}"
    )

    emit_summary_json(traces, outdir / "summary.json")
    print(f"wrote {outdir}/summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
