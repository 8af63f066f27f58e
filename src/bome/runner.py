"""The outer loop: drive the barrier solver (or a mini-max baseline) for K
iterations, collect per-step diagnostics, periodically score stationarity,
and apply the stopping rules.
"""

from __future__ import annotations

import enum
import math
import operator
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BilevelOracle,
    JointGradient,
    JointPoint,
    NumericalError,
    SolverConfig,
    StepDiagnostics,
    validate_config,
)
from .barrier_step import BarrierSolution, bome_step
from .baselines import baseline_direction, gda_step, ogd_step
from .metrics import KktReport, kkt_exact, kkt_proxy


# The float quantities of a step record, checked finite before it is kept; the
# stationarity score is checked by _score.
_step_floats = operator.attrgetter(
    "f_value", "q_hat", "lambda_k", "phi_k", "delta_norm", "grad_qhat_norm"
)


class Method(enum.Enum):
    BOME = "bome"
    NAIVE_GDA = "gda"
    OPTIMISTIC_GD = "ogd"


class Termination(enum.Enum):
    MAX_ITERS = "max_iters"
    KKT_TOL = "kkt_tol"
    NUMERICAL_ERROR = "numerical_error"


@dataclass
class Trace:
    """Everything one run produced.

    ``records[k]`` holds the quantities of the step taken at iterate k (the
    stationarity column is scored at that same iterate). ``final_kkt`` scores
    the point the run ended at, which for a completed run is one step past
    the last record. ``warnings`` are the step-size warnings
    :func:`validate_config` gave for the config against the problem's declared
    constants.
    """

    records: list[StepDiagnostics]
    config_snapshot: SolverConfig
    problem_name: str
    termination: Termination
    final_point: Optional[JointPoint] = None
    final_kkt: Optional[KktReport] = None
    final_f: Optional[float] = None
    dist_to_known_opt: Optional[float] = None
    kkt_variant: str = ""
    method: Method = Method.BOME
    warnings: list[str] = field(default_factory=list)


def _score(
    oracle: BilevelOracle,
    point: JointPoint,
    cfg: SolverConfig,
    step: Optional[BarrierSolution] = None,
) -> KktReport:
    """Score ``point``; ``step`` is the BOME step taken there, if any, whose
    plug-in quantities a proxy score reuses."""
    if oracle.exact_inner_opt is not None:
        report = kkt_exact(oracle, point)
    else:
        report = kkt_proxy(oracle, point, cfg, step=step)
    if not math.isfinite(report.total):
        raise NumericalError("non-finite stationarity score")
    return report


def run(
    oracle: BilevelOracle,
    start: JointPoint,
    cfg: SolverConfig,
    method: Method = Method.BOME,
) -> Trace:
    """Execute ``method`` from ``start`` for up to ``cfg.max_outer_iters_K``
    iterations.

    Stationarity is scored with the exact variant whenever the oracle
    supports it, otherwise with the plug-in proxy, every
    ``cfg.kkt_eval_every`` iterations and on the last record. If
    ``cfg.stop_kkt_tol`` is set the run stops at the first scored iterate
    meeting it, without applying that iterate's step. A numerical failure
    (a non-finite iterate, step quantity or score) ends the run with the
    trace retained up to the failing iterate; a final f or score that fails is
    ``None``.
    """
    warnings = validate_config(cfg, oracle.metadata)
    if isinstance(method, str):
        method = Method(method)
    point = start.copy()
    records: list[StepDiagnostics] = []
    # bome_step ignores the velocity when momentum is off
    velocity = JointGradient(np.zeros(point.m), np.zeros(point.n))
    prev_grads: Optional[JointGradient] = None
    termination = Termination.MAX_ITERS
    K = cfg.max_outer_iters_K
    sol: Optional[BarrierSolution] = None

    for k in range(K):
        t0 = time.perf_counter()
        try:
            if method is Method.BOME:
                new_point, sol = bome_step(oracle, point, cfg, velocity)
                velocity = sol.velocity
                step = (sol.q_hat, sol.lam, sol.phi, sol.delta.norm(), sol.grad_qhat_norm)
            else:
                if method is Method.NAIVE_GDA:
                    new_point = gda_step(oracle, point, cfg.outer_step_xi)
                else:
                    new_point, prev_grads = ogd_step(
                        oracle, point, prev_grads, cfg.outer_step_xi
                    )
                direction = baseline_direction(point, new_point, cfg.outer_step_xi)
                # no constraint: q_hat, lambda, phi and the grad q_hat norm are 0
                step = (0.0, 0.0, 0.0, direction.norm(), 0.0)
            diag = StepDiagnostics(k, float(oracle.eval_f(point)), *step)
            if not all(map(math.isfinite, _step_floats(diag))):
                raise NumericalError("non-finite step quantity")
            if k % cfg.kkt_eval_every == 0 or k == K - 1:
                diag.kkt_value = _score(oracle, point, cfg, sol).total
        except NumericalError:
            termination = Termination.NUMERICAL_ERROR
            break

        diag.wall_time_micros = int((time.perf_counter() - t0) * 1e6)
        records.append(diag)

        if (
            cfg.stop_kkt_tol is not None
            and diag.kkt_value is not None
            and diag.kkt_value < cfg.stop_kkt_tol
        ):
            termination = Termination.KKT_TOL
            break
        point = new_point

    final_f = float(oracle.eval_f(point))
    trace = Trace(
        records=records,
        config_snapshot=cfg,
        problem_name=oracle.name,
        termination=termination,
        final_point=point,
        final_f=final_f if math.isfinite(final_f) else None,
        method=method,
        warnings=warnings,
        kkt_variant="exact" if oracle.exact_inner_opt is not None else "proxy",
    )
    try:
        trace.final_kkt = _score(oracle, point, cfg)
    except NumericalError:
        trace.final_kkt = None
    meta = oracle.metadata
    if meta is not None and meta.known_optimum is not None:
        opt = meta.known_optimum
        gap = JointGradient._trusted(point.v - opt.v, point.theta - opt.theta)
        trace.dist_to_known_opt = gap.norm()
    return trace


def running_min_kkt(trace: Trace) -> list[tuple[int, float]]:
    """Running minimum of the scored stationarity values over a trace."""
    out: list[tuple[int, float]] = []
    best = float("inf")
    for rec in trace.records:
        if rec.kkt_value is not None:
            best = min(best, rec.kkt_value)
            out.append((rec.iter_k, best))
    if not out:
        raise ValueError("trace contains no stationarity evaluations")
    return out
