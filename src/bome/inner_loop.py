"""Inner-variable gradient descent: the T-step loop that produces theta^(T),
and a run-to-convergence variant that finds the attraction point of a start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BilevelOracle, JointPoint, NotConvergedError, NumericalError

# Gradient norms below this are treated as exactly stationary; the loop exits
# early instead of burning oracle calls on zero updates.
STATIONARY_GRAD_TOL = 1e-14

DEFAULT_ATTRACTION_GRAD_TOL = 1e-10
DEFAULT_ATTRACTION_MAX_ITERS = 100_000


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
    with v held fixed. Exits early once the gradient norm falls below
    ``STATIONARY_GRAD_TOL``; the number of steps actually applied is reported
    in ``steps_taken``.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta0, dtype=float).copy()
    g_before = float(oracle.eval_g(JointPoint._trusted(v, theta)))
    sq_tol = STATIONARY_GRAD_TOL * STATIONARY_GRAD_TOL
    inner_grad = oracle.grad_g_theta or oracle.inner_grad
    steps = 0
    for _ in range(T):
        grad = inner_grad(v, theta)
        sq = float(grad.dot(grad))
        if not math.isfinite(sq):
            raise NumericalError("non-finite inner gradient during inner descent")
        if sq < sq_tol:
            break
        theta = theta - alpha * grad
        steps += 1
    g_after = float(oracle.eval_g(JointPoint._trusted(v, theta))) if steps > 0 else g_before
    return InnerResult(theta_T=theta, g_before=g_before, g_after=g_after, steps_taken=steps)


def attraction_point(
    oracle: BilevelOracle,
    v: np.ndarray,
    theta0: np.ndarray,
    alpha: float,
    grad_tol: float = DEFAULT_ATTRACTION_GRAD_TOL,
    max_iters: int = DEFAULT_ATTRACTION_MAX_ITERS,
) -> np.ndarray:
    """Iterate the inner recursion until the gradient (nearly) vanishes.

    Returns the final iterate. Raises :class:`NotConvergedError`, carrying
    the last iterate, its gradient norm and ``max_iters``, if the budget is
    exhausted first.
    """
    if not grad_tol > 0:
        raise ValueError(f"grad_tol must be > 0, got {grad_tol}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta0, dtype=float).copy()
    grad = oracle.inner_grad(v, theta)
    for _ in range(max_iters):
        if not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite inner gradient while seeking attraction point")
        if float(np.linalg.norm(grad)) < grad_tol:
            return theta
        theta = theta - alpha * grad
        grad = oracle.inner_grad(v, theta)
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm < grad_tol:
        return theta
    raise NotConvergedError(
        f"attraction point not reached within {max_iters} iterations "
        f"(last gradient norm {grad_norm:.3g})",
        last_theta=theta,
        grad_norm=grad_norm,
        iters=max_iters,
    )
