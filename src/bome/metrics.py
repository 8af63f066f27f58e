"""Stationarity measures for bilevel iterates.

The score is min_{lambda >= 0} ||grad f + lambda * grad q||^2 + q, the sum of
a local-improvement term (how far grad f is from being blockable by the
constraint gradient) and a feasibility term (the inner suboptimality q).
The variants take q = g(v, theta) - g(v, theta_ref) and its stop-gradient
derivative (:func:`q_hat_value`, :func:`grad_q_hat`) against different
reference inner points theta_ref:

* exact      -- a closed-form inner minimizer theta*(v);
* proxy      -- theta^(T), the same T-step plug-in estimate the solver uses;
* attraction -- the basin-local minimum reached by running inner gradient
                descent to convergence from the current theta.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BilevelOracle,
    JointGradient,
    JointPoint,
    MissingOracleCapability,
    SolverConfig,
    joint_axpy,
    joint_dot,
)
from .barrier_step import (
    BarrierSolution, _barrier_multiplier, compute_lambda, grad_q_hat, q_hat_value,
)
from .inner_loop import (
    DEFAULT_ATTRACTION_GRAD_TOL,
    DEFAULT_ATTRACTION_MAX_ITERS,
    attraction_point,
    inner_descent,
)


class KktVariant(enum.Enum):
    EXACT = "exact"
    PROXY = "proxy"
    ATTRACTION = "attraction"


@dataclass
class KktReport:
    """Decomposition of the stationarity score at one point."""

    local_improvement: float
    feasibility: float
    total: float
    lambda_star: float
    variant: KktVariant


def _assemble_report(
    grad_f: JointGradient, grad_q: JointGradient, q: float, variant: KktVariant,
    lam: Optional[float] = None,
) -> KktReport:
    # the multiplier minimizing ||grad_f + lambda * grad_q||^2 over lambda >= 0
    # is the barrier multiplier with phi = 0, passed as ``lam`` if known
    if lam is None:
        lam = compute_lambda(grad_f, grad_q, 0.0)
    residual = joint_axpy(grad_f, lam, grad_q)
    local = joint_dot(residual, residual)
    return KktReport(
        local_improvement=local,
        feasibility=q,
        total=local + q,
        lambda_star=lam,
        variant=variant,
    )


def _score_against(
    oracle: BilevelOracle, point: JointPoint, theta_ref: np.ndarray, variant: KktVariant
) -> KktReport:
    q = q_hat_value(oracle, point.v, point.theta, theta_ref)
    grad_q = grad_q_hat(oracle, point.v, point.theta, theta_ref)
    return _assemble_report(oracle.grad_f(point), grad_q, q, variant)


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
    return _score_against(oracle, point, theta_star, KktVariant.EXACT)


def kkt_proxy(
    oracle: BilevelOracle,
    point: JointPoint,
    cfg: SolverConfig,
    step: Optional[BarrierSolution] = None,
) -> KktReport:
    """Stationarity report from the plug-in estimate.

    Given ``step``, the :func:`bome_step` taken at ``point`` with ``cfg``,
    the report is assembled from that step's grad f, grad q_hat, q_hat and
    reductions and makes no oracle call; those are exactly the quantities the
    standalone path would compute again. Without it, runs its own inner descent with the run's
    (T, alpha) so the monitored quantity matches what the solver sees at this
    point; q_hat comes from that descent's own g evaluations, as in
    :func:`bome_step`.
    """
    if step is not None:
        lam = _barrier_multiplier(step.grad_qhat_sq, step.grad_f_dot_qhat, 0.0)
        return _assemble_report(step.grad_f, step.grad_qhat, step.q_hat, KktVariant.PROXY, lam)
    inner = inner_descent(
        oracle, point.v, point.theta, cfg.inner_iters_T, cfg.inner_step_alpha
    )
    q = inner.g_before - inner.g_after
    grad_q = grad_q_hat(oracle, point.v, point.theta, inner.theta_T)
    return _assemble_report(oracle.grad_f(point), grad_q, q, KktVariant.PROXY)


def kkt_attraction(
    oracle: BilevelOracle,
    point: JointPoint,
    alpha: float,
    tol: float = DEFAULT_ATTRACTION_GRAD_TOL,
    max_iters: int = DEFAULT_ATTRACTION_MAX_ITERS,
) -> KktReport:
    """Stationarity report against the attraction point of (v, theta).

    Feasibility is measured within the basin that inner gradient descent
    reaches from theta, so on multimodal inner objectives the score reflects
    the local rather than the global minimum. Raises
    :class:`NotConvergedError` if inner descent does not reach the
    attraction point within ``max_iters`` iterations.
    """
    target = attraction_point(oracle, point.v, point.theta, alpha, tol, max_iters)
    return _score_against(oracle, point, target, KktVariant.ATTRACTION)
