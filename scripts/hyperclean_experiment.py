#!/usr/bin/env python3
"""Desk-scale data-reweighting experiment on synthetic corrupted labels.

Pretrains a logistic model at uniform weights on the corrupted training set,
then runs the barrier solver with heavy-ball momentum and a large v-step.
Reports the learned-weight separation between clean and corrupted samples
and the validation-loss trajectory; exports the dataset and trace as CSV.

Usage: python scripts/hyperclean_experiment.py [outdir] [seed]
"""

import sys
from pathlib import Path

import numpy as np

from bome import (
    JointPoint,
    SolverConfig,
    export_dataset_csv,
    hyperclean_oracle,
    inner_descent,
    make_synthetic_hyperclean,
    run,
)
from bome.cli import emit_summary_json, emit_trace_csv


def main() -> int:
    outdir = Path(sys.argv[1] if len(sys.argv) > 1 else "out/hyperclean")
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    outdir.mkdir(parents=True, exist_ok=True)

    prob = make_synthetic_hyperclean(seed=seed, m_tr=300, m_val=100, p=10, corrupt_frac=0.3)
    export_dataset_csv(prob, outdir / "train.csv", split="train")
    export_dataset_csv(prob, outdir / "val.csv", split="val")
    oracle = hyperclean_oracle(prob)

    v0 = 0.5 * np.ones(prob.n_train)
    pretrained = inner_descent(oracle, v0, np.zeros(prob.theta_dim), 200, 1e-3)
    start = JointPoint(v0, pretrained.theta_T)
    f0 = oracle.eval_f(start)

    cfg = SolverConfig(
        outer_step_xi=1e-3,
        inner_step_alpha=1e-3,
        inner_iters_T=10,
        xi_v=3.0,
        xi_theta=1e-3,
        momentum_beta=0.9,
        max_outer_iters_K=500,
        kkt_eval_every=50,
    )
    trace = run(oracle, start, cfg)
    emit_trace_csv(trace, outdir / "trace.csv")
    emit_summary_json([trace], outdir / "summary.json")

    weights = np.clip(trace.final_point.v, 0.0, 1.0)
    clean = weights[~prob.corruption_mask].mean()
    corrupt = weights[prob.corruption_mask].mean()
    print(f"validation loss: {f0:.4f} -> {oracle.eval_f(trace.final_point):.4f}")
    print(f"mean weight on clean samples:     {clean:.3f}")
    print(f"mean weight on corrupted samples: {corrupt:.3f}")
    print(f"separation: {clean - corrupt:+.3f}")
    print(f"wrote {outdir}/trace.csv, train.csv, val.csv, summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
