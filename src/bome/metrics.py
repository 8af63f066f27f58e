"""Stationarity measures for bilevel iterates.

The score is min_{lambda >= 0} ||grad f + lambda * grad q||^2 + q, the sum of
a local-improvement term (how far grad f is from being blockable by the
constraint gradient) and a feasibility term (the inner suboptimality q).
Three variants differ only in how q and grad q are obtained:

* exact      -- from the closed-form inner optimum or exact value function;
* proxy      -- from the same T-step plug-in estimate the solver uses;
* attraction -- against the basin-local minimum reached by running inner
                gradient descent to convergence from the current theta.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    BilevelOracle,
    JointGradient,
    JointPoint,
    MissingOracleCapability,
    NotConvergedError,
    SolverConfig,
    joint_axpy,
    joint_dot,
)
from .barrier_step import compute_lambda, grad_q_hat, q_hat_value
from .inner_loop import (
    DEFAULT_ATTRACTION_GRAD_TOL,
    DEFAULT_ATTRACTION_MAX_ITERS,
    NotConverged,
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
    grad_f: JointGradient, grad_q: JointGradient, q: float, variant: KktVariant
) -> KktReport:
    # the multiplier minimizing ||grad_f + lambda * grad_q||^2 over lambda >= 0
    # is the barrier multiplier with phi = 0
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


def kkt_exact(oracle: BilevelOracle, point: JointPoint) -> KktReport:
    """Stationarity report using the oracle's exact inner-optimum knowledge.

    With ``exact_inner_opt``, q = g(v, theta) - g(v, theta*(v)) and the
    v-block of grad q is grad_v g(v, theta) minus the partial v-gradient of g
    at (v, theta*(v)) (the value-function gradient needs no derivative of
    theta*). Problems with a non-unique minimizer may instead supply
    ``exact_value`` and ``exact_value_grad``.
    """
    if oracle.exact_inner_opt is not None:
        theta_star = np.asarray(oracle.exact_inner_opt(point.v), dtype=float)
        at_star = JointPoint._trusted(point.v, theta_star)
        g_at_star = oracle.grad_g(at_star)
        q = float(oracle.eval_g(point) - oracle.eval_g(at_star))
        value_grad = g_at_star.dv
    elif oracle.exact_value is not None and oracle.exact_value_grad is not None:
        q = float(oracle.eval_g(point) - oracle.exact_value(point.v))
        value_grad = np.asarray(oracle.exact_value_grad(point.v), dtype=float)
    else:
        raise MissingOracleCapability(
            "exact stationarity needs exact_inner_opt or an exact value function"
        )
    g_here = oracle.grad_g(point)
    grad_q = JointGradient(dv=g_here.dv - value_grad, dtheta=g_here.dtheta)
    return _assemble_report(oracle.grad_f(point), grad_q, q, KktVariant.EXACT)


def kkt_proxy(oracle: BilevelOracle, point: JointPoint, cfg: SolverConfig) -> KktReport:
    """Stationarity report from the plug-in estimate.

    Runs its own inner descent with the run's (T, alpha) so the monitored
    quantity matches what the solver sees at this point; q_hat comes from
    that descent's own g evaluations, as in :func:`bome_step`.
    """
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
    the local rather than the global minimum.
    """
    target = attraction_point(oracle, point.v, point.theta, alpha, tol, max_iters)
    if isinstance(target, NotConverged):
        raise NotConvergedError(
            f"attraction point not reached within {target.iters} iterations "
            f"(last gradient norm {target.grad_norm:.3g})",
            marker=target,
        )
    q = q_hat_value(oracle, point.v, point.theta, target)
    grad_q = grad_q_hat(oracle, point.v, point.theta, target)
    return _assemble_report(oracle.grad_f(point), grad_q, q, KktVariant.ATTRACTION)
