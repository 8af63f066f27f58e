"""First-order reference methods for mini-max problems.

Both steps read the payoff through ``grad_f`` and apply descent on v and
ascent on theta. They exist to reproduce the classic contrast on the bilinear
game: simultaneous gradient descent-ascent spirals outward while the
optimistic variant (which extrapolates with the previous gradient) converges.
"""

from __future__ import annotations

from typing import Optional

from .core import BilevelOracle, JointGradient, JointPoint


def gda_step(oracle: BilevelOracle, point: JointPoint, xi: float) -> JointPoint:
    """Simultaneous update v -= xi * df/dv, theta += xi * df/dtheta."""
    g = oracle.grad_f(point)
    return JointPoint._checked(point.v - xi * g.dv, point.theta + xi * g.dtheta)


def ogd_step(
    oracle: BilevelOracle,
    point: JointPoint,
    prev_grads: Optional[JointGradient],
    xi: float,
) -> tuple[JointPoint, JointGradient]:
    """Optimistic update with two-step gradient memory.

    w_{k+1} = w_k - 2 xi G_k + xi G_{k-1}, with the ascent sign on the theta
    block; the first step (no history) uses G_{-1} = G_0 and so reduces to a
    plain descent-ascent step. Returns the new point and the payoff gradient
    G_k to pass as ``prev_grads`` to the next step.
    """
    g = oracle.grad_f(point)
    g = JointGradient(g.dv.copy(), g.dtheta.copy())
    if prev_grads is None:
        prev_grads = g
    new_v = point.v - 2.0 * xi * g.dv + xi * prev_grads.dv
    new_theta = point.theta + 2.0 * xi * g.dtheta - xi * prev_grads.dtheta
    return JointPoint._checked(new_v, new_theta), g


def baseline_direction(point: JointPoint, new_point: JointPoint, xi: float) -> JointGradient:
    """Effective descent direction implied by one baseline update."""
    return JointGradient(
        (point.v - new_point.v) / xi, (point.theta - new_point.theta) / xi
    )
