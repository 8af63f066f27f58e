"""One outer step of the dynamic-barrier bilevel update.

Each step (1) warm-starts T inner gradient-descent steps from the current
theta to get theta^(T), (2) forms the plug-in constraint estimate
q_hat = g(v, theta) - g(v, theta^(T)) and its stop-gradient derivative, and
(3) moves (v, theta) along delta = grad f + lambda * grad q_hat, where the
closed-form multiplier lambda is the smallest nonnegative value making
<grad q_hat, delta> >= phi for the chosen barrier phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BarrierKind,
    BilevelOracle,
    JointGradient,
    JointPoint,
    SolverConfig,
    joint_axpy,
    joint_dot,
)
from .inner_loop import InnerResult, inner_descent

# Squared gradient norms at or below this floor are treated as exactly zero;
# the multiplier is 0 there (a vanishing constraint gradient means the
# constraint estimate itself vanishes, so no correction is needed).
ZERO_GRAD_SQ_FLOOR = 1e-24


@dataclass
class BarrierSolution:
    """The multiplier, barrier, and combined direction of one outer step.

    ``delta`` is the raw direction grad_f + lambda * grad_qhat before any
    momentum smoothing, so the barrier constraint <grad_qhat, delta> >= phi
    holds for it whenever grad_qhat is nonzero. ``velocity`` is the direction
    the step applied: the heavy-ball velocity beta * velocity + delta under
    momentum, otherwise delta itself. ``grad_f``, ``grad_qhat``, ``q_hat`` and
    the reductions ``grad_qhat_sq`` = ||grad_qhat||^2 and ``grad_f_dot_qhat``
    = <grad_f, grad_qhat> belong to the point the step was taken from, which
    is all a proxy stationarity score there needs.
    """

    lam: float
    phi: float
    delta: JointGradient
    grad_f: JointGradient
    grad_qhat: JointGradient
    q_hat: float
    inner_result: InnerResult
    grad_qhat_norm: float
    velocity: JointGradient
    grad_qhat_sq: float
    grad_f_dot_qhat: float


def q_hat_value(oracle: BilevelOracle, v, theta, theta_T) -> float:
    """Plug-in constraint estimate g(v, theta) - g(v, theta_T).

    Nonnegative whenever the inner loop descended monotonically; tiny negative
    round-off values are reported as-is (only the barrier clamps them).
    """
    v = np.asarray(v, dtype=float)
    here = oracle.eval_g(JointPoint._trusted(v, theta))
    ref = oracle.eval_g(JointPoint._trusted(v, theta_T))
    return float(here - ref)


def grad_q_hat(oracle: BilevelOracle, v, theta, theta_T) -> JointGradient:
    """Stop-gradient derivative of the plug-in estimate.

    theta_T is treated as a constant: the v-block is the difference of the
    partial v-gradients of g at (v, theta) and (v, theta_T), and the
    theta-block is grad_theta g(v, theta). No derivative flows through the
    inner-loop iterates.
    """
    v = np.asarray(v, dtype=float)
    g_here = oracle.grad_g(JointPoint._trusted(v, theta))
    g_at_T = oracle.grad_g(JointPoint._trusted(v, theta_T))
    return JointGradient._trusted(g_here.dv - g_at_T.dv, g_here.dtheta)


def compute_phi(kind: BarrierKind, eta: float, q_hat: float, grad_qhat_norm: float) -> float:
    """Dynamic barrier value for the current step.

    GRAD_NORM_SQ gives eta * ||grad q_hat||^2 (the default); VALUE gives
    eta * max(q_hat, 0). The clamp only protects against round-off: with a
    monotone inner loop q_hat is analytically nonnegative.
    """
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if kind == BarrierKind.GRAD_NORM_SQ:
        return eta * grad_qhat_norm * grad_qhat_norm
    return eta * max(q_hat, 0.0)


def compute_lambda(grad_f: JointGradient, grad_qhat: JointGradient, phi: float) -> float:
    """Closed-form barrier multiplier.

    Solves min_delta ||grad_f - delta||^2 s.t. <grad_qhat, delta> >= phi:
    the optimum is delta = grad_f + lambda * grad_qhat with
    lambda = max((phi - <grad_f, grad_qhat>) / ||grad_qhat||^2, 0), and
    lambda = 0 when grad_qhat vanishes.
    """
    return _barrier_multiplier(joint_dot(grad_qhat, grad_qhat), joint_dot(grad_f, grad_qhat), phi)


def _barrier_multiplier(sq: float, gfq: float, phi: float) -> float:
    # lambda from sq = ||grad_qhat||^2 and gfq = <grad_f, grad_qhat>
    if sq <= ZERO_GRAD_SQ_FLOOR:
        return 0.0
    return max((phi - gfq) / sq, 0.0)


def bome_step(
    oracle: BilevelOracle,
    point: JointPoint,
    cfg: SolverConfig,
    velocity: Optional[JointGradient] = None,
) -> tuple[JointPoint, BarrierSolution]:
    """Apply one full outer iteration at ``point``.

    Returns the updated point together with the step's diagnostics. When
    ``cfg.momentum_beta > 0`` and the caller passes the previous step's
    ``velocity``, the step moves along the heavy-ball velocity
    beta * velocity + delta and reports it as ``solution.velocity`` for the
    next step; the reported ``delta`` is always the raw direction.
    """
    inner = inner_descent(
        oracle, point.v, point.theta, cfg.inner_iters_T, cfg.inner_step_alpha
    )
    # q_hat = g(v, theta) - g(v, theta_T); both evaluations were already done
    # by the warm-started inner loop.
    q_hat = inner.g_before - inner.g_after
    gq = grad_q_hat(oracle, point.v, point.theta, inner.theta_T)
    gf = oracle.grad_f(point)
    sq = joint_dot(gq, gq)
    gfq = joint_dot(gf, gq)
    gq_norm = math.sqrt(sq)  # gq.norm(), from the sum already formed
    phi = compute_phi(cfg.barrier_kind, cfg.eta, q_hat, gq_norm)
    lam = _barrier_multiplier(sq, gfq, phi)
    delta = joint_axpy(gf, lam, gq)

    if cfg.momentum_beta > 0.0 and velocity is not None:
        velocity = joint_axpy(delta, cfg.momentum_beta, velocity)
    else:
        velocity = delta
    new_point = JointPoint._checked(
        point.v - cfg.xi_v * velocity.dv, point.theta - cfg.xi_theta * velocity.dtheta
    )
    solution = BarrierSolution(
        lam=lam,
        phi=phi,
        delta=delta,
        grad_f=gf,
        grad_qhat=gq,
        q_hat=q_hat,
        inner_result=inner,
        grad_qhat_norm=gq_norm,
        velocity=velocity,
        grad_qhat_sq=sq,
        grad_f_dot_qhat=gfq,
    )
    return new_point, solution
