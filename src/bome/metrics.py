"""Stationarity measures for bilevel iterates.

The score is min_{lambda >= 0} ||grad f + lambda * grad q||^2 + q, the sum of
a local-improvement term (how far grad f is from being blockable by the
constraint gradient) and a feasibility term (the inner suboptimality q).
Both variants assemble it from one ``barrier_step.Constraint`` record:
q = g(v, theta) - g(v, theta_ref), its stop-gradient derivative and their
reductions, formed by the BOME step's constraint function against different
reference inner points theta_ref. Neither takes an outer step:

* exact -- a closed-form inner minimizer theta*(v);
* proxy -- theta^(T), the end of the step's own T-step inner descent. On a
           multimodal g it is basin-local: theta^(T) descends into the basin
           of the current theta and, at long T, reaches that basin's minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BilevelOracle,
    JointPoint,
    MissingOracleCapability,
    SolverConfig,
    joint_axpy,
    joint_dot,
)
from .barrier_step import Constraint, _barrier_multiplier, _constraint, inner_descent


@dataclass
class KktReport:
    """Decomposition of the stationarity score at one point. The report is
    named by the function that made it (:func:`kkt_exact` or
    :func:`kkt_proxy`), and a run's score by its trace. The feasibility term
    is q = g(v, theta) - g(v, theta_ref), and ``g_scale`` is
    |g(v, theta)| + |g(v, theta_ref)|, the size of the two values it
    subtracts, against which its round-off is judged."""

    local_improvement: float
    feasibility: float
    total: float
    lambda_star: float
    g_scale: float


def _assemble_report(c: Constraint) -> KktReport:
    # the multiplier minimizing ||grad_f + lambda * grad_q||^2 over lambda >= 0
    # is the barrier multiplier with phi = 0, from ||grad_q||^2 and <grad_f, grad_q>
    lam = _barrier_multiplier(c.grad_qhat_sq, c.grad_f_dot_qhat, 0.0)
    residual = joint_axpy(c.grad_f, lam, c.grad_qhat)
    local = joint_dot(residual, residual)
    return KktReport(
        local_improvement=local,
        feasibility=c.q_hat,
        total=local + c.q_hat,
        lambda_star=lam,
        g_scale=abs(c.g_here) + abs(c.g_ref),
    )


def kkt_exact(oracle: BilevelOracle, point: JointPoint) -> KktReport:
    """Stationarity report against the oracle's closed-form inner minimizer.

    The v-block of grad q is grad_v g(v, theta) minus the partial v-gradient
    of g at (v, theta*(v)): the value-function gradient for any minimizer
    theta*(v), with no derivative of theta*. Raises
    :class:`MissingOracleCapability` without ``exact_inner_opt``.
    """
    if oracle.exact_inner_opt is None:
        raise MissingOracleCapability("exact stationarity needs exact_inner_opt")
    theta_star = np.asarray(oracle.exact_inner_opt(point.v), dtype=float)
    here = float(oracle.eval_g(point))
    ref = float(oracle.eval_g(JointPoint._trusted(point.v, theta_star)))
    return _assemble_report(_constraint(oracle, point, theta_star, here, ref))


def kkt_proxy(
    oracle: BilevelOracle,
    point: JointPoint,
    cfg: SolverConfig,
    step: Optional[Constraint] = None,
) -> KktReport:
    """Stationarity report from the plug-in estimate.

    The report is assembled from the :class:`Constraint` against theta^(T)
    that the BOME step at ``point`` with ``cfg`` forms, so the monitored
    quantity is what the solver sees there. Given that step, makes no oracle
    call. Without it, runs the step's inner descent and constraint, with the
    same oracle calls in the same order, but no update: no outer step,
    barrier or momentum setting is read.
    """
    if step is None:
        inner = inner_descent(oracle, point.v, point.theta, cfg.inner_iters_T,
                              cfg.inner_step_alpha)
        step = _constraint(oracle, point, inner.theta_T, inner.g_before, inner.g_after)
    return _assemble_report(step)
