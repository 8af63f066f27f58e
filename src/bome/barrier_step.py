"""One outer step of the dynamic-barrier bilevel update.

Each step (1) warm-starts T inner gradient-descent steps from the current
theta to get theta^(T) (:func:`inner_descent`), (2) forms the plug-in
constraint q_hat = g(v, theta) - g(v, theta^(T)), its stop-gradient
derivative and their reductions as one :class:`Constraint` record
(:func:`_constraint`, which the exact stationarity score shares with a
closed-form theta* in place of theta^(T)), and (3) moves (v, theta) along
delta = grad f + lambda * grad q_hat, where the closed-form multiplier lambda
is the smallest nonnegative value making <grad q_hat, delta> >= phi for the
chosen barrier phi. The step's :class:`BarrierSolution` is that record,
which the step fills in with lambda, phi and delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BarrierKind,
    BilevelOracle,
    JointGradient,
    JointPoint,
    NumericalError,
    SolverConfig,
    joint_axpy,
    joint_dot,
)

# Gradient norms below this are treated as exactly stationary; the inner loop
# exits early instead of burning oracle calls on zero updates.
STATIONARY_GRAD_TOL = 1e-14

# Squared gradient norms at or below this floor are treated as exactly zero;
# the multiplier is 0 there (a vanishing constraint gradient means the
# constraint estimate itself vanishes, so no correction is needed).
ZERO_GRAD_SQ_FLOOR = 1e-24


@dataclass
class InnerResult:
    """Outcome of a T-step inner descent at fixed v."""

    theta_T: np.ndarray
    g_before: float
    g_after: float
    steps_taken: int


def inner_descent(
    oracle: BilevelOracle,
    v: np.ndarray,
    theta0: np.ndarray,
    T: int,
    alpha: float,
) -> InnerResult:
    """Run T plain gradient-descent steps on g(v, .) starting from theta0.

    The recursion is theta^(t+1) = theta^(t) - alpha * grad_theta g(v, theta^(t))
    with v held fixed, the gradient from ``grad_g_theta``, or from the theta
    block of ``grad_g`` when the oracle has none. Exits early once the
    gradient norm falls below :data:`STATIONARY_GRAD_TOL`; ``steps_taken``
    counts the steps applied. A gradient raises :class:`NumericalError` only
    when an entry is not finite: finite entries beyond ~1e154 overflow its
    sum of squares and are stepped on.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta0, dtype=float).copy()
    g_before = float(oracle.eval_g(JointPoint._trusted(v, theta)))
    sq_tol = STATIONARY_GRAD_TOL * STATIONARY_GRAD_TOL
    grad_theta_g = oracle.grad_g_theta or (
        lambda v, theta: oracle.grad_g(JointPoint(v, theta)).dtheta)
    steps = 0
    for _ in range(T):
        grad = grad_theta_g(v, theta)
        sq = grad.dot(grad)
        if not sq_tol <= sq < math.inf:
            if sq < sq_tol:
                break
            if not np.isfinite(grad).all():
                raise NumericalError("non-finite inner gradient during inner descent")
        theta = theta - alpha * grad
        steps += 1
    g_after = float(oracle.eval_g(JointPoint._trusted(v, theta))) if steps > 0 else g_before
    return InnerResult(theta_T=theta, g_before=g_before, g_after=g_after, steps_taken=steps)


@dataclass
class Constraint:
    """The constraint q = g(v, theta) - g(v, theta_ref) at one point, as
    :func:`_constraint` forms it: ``grad_f``, the stop-gradient derivative
    ``grad_qhat`` of q, ``q_hat`` = q, the reductions ``grad_qhat_sq`` =
    ||grad_qhat||^2 and ``grad_f_dot_qhat`` = <grad_f, grad_qhat>, and the
    two values q subtracts, ``g_here`` = g(v, theta) and ``g_ref`` =
    g(v, theta_ref). It is all a stationarity score needs."""

    grad_f: JointGradient
    grad_qhat: JointGradient
    q_hat: float
    grad_qhat_sq: float
    grad_f_dot_qhat: float
    g_here: float
    g_ref: float


@dataclass
class BarrierSolution(Constraint):
    """One outer step: the :class:`Constraint` at the point it was taken
    from, against theta_ref = theta^(T), on which :func:`bome_step` sets the
    multiplier, barrier and direction built from it: the six fields below.

    ``delta`` is the raw direction grad_f + lambda * grad_qhat before any
    momentum smoothing, so the barrier constraint <grad_qhat, delta> >= phi
    holds for it whenever grad_qhat is nonzero. ``velocity`` is the direction
    the step applied: the heavy-ball velocity beta * velocity + delta under
    momentum, otherwise delta itself.
    """

    lam: float = field(init=False)
    phi: float = field(init=False)
    delta: JointGradient = field(init=False)
    velocity: JointGradient = field(init=False)
    grad_qhat_norm: float = field(init=False)
    inner_result: InnerResult = field(init=False)


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


def _constraint(oracle: BilevelOracle, point: JointPoint, theta_ref, here: float,
                ref: float, record: type[Constraint] = Constraint) -> Constraint:
    """The :class:`Constraint` q = here - ref at ``point``, for ``here`` =
    g(v, theta) and ``ref`` = g(v, theta_ref), made as a ``record`` (the step
    passes :class:`BarrierSolution`); grad q is the stop-gradient
    :func:`grad_q_hat`, formed before grad f."""
    gq = grad_q_hat(oracle, point.v, point.theta, theta_ref)
    gf = oracle.grad_f(point)
    return record(gf, gq, here - ref, joint_dot(gq, gq), joint_dot(gf, gq), here, ref)


def compute_phi(kind: BarrierKind, eta: float, q_hat: float, grad_qhat_norm: float) -> float:
    """Dynamic barrier value for the current step.

    GRAD_NORM_SQ gives eta * ||grad q_hat||^2 (the default); VALUE gives
    eta * max(q_hat, 0); any other kind, a barrier name included, is a
    ValueError. The clamp only protects against round-off: with a monotone
    inner loop q_hat is analytically nonnegative.
    """
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if kind == BarrierKind.GRAD_NORM_SQ:
        return eta * grad_qhat_norm * grad_qhat_norm
    if kind == BarrierKind.VALUE:
        return eta * max(q_hat, 0.0)
    raise ValueError(f"unknown barrier kind {kind!r}")


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
    inner = inner_descent(oracle, point.v, point.theta, cfg.inner_iters_T, cfg.inner_step_alpha)
    # both g values of q_hat were already evaluated by the warm-started inner loop
    sol = _constraint(oracle, point, inner.theta_T, inner.g_before, inner.g_after, BarrierSolution)
    sol.inner_result = inner
    sol.grad_qhat_norm = gq_norm = math.sqrt(sol.grad_qhat_sq)  # grad_qhat.norm(), from its sum
    sol.phi = phi = compute_phi(cfg.barrier_kind, cfg.eta, sol.q_hat, gq_norm)
    sol.lam = lam = _barrier_multiplier(sol.grad_qhat_sq, sol.grad_f_dot_qhat, phi)
    sol.delta = delta = joint_axpy(sol.grad_f, lam, sol.grad_qhat)

    if cfg.momentum_beta > 0.0 and velocity is not None:
        sol.velocity = velocity = joint_axpy(delta, cfg.momentum_beta, velocity)
    else:
        sol.velocity = velocity = delta
    new_point = JointPoint._checked(
        point.v - cfg.xi_v * velocity.dv, point.theta - cfg.xi_theta * velocity.dtheta
    )
    return new_point, sol
