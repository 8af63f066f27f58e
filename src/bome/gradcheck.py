"""Finite-difference verification of analytic gradients and of the T-step
plug-in approximation to the exact constraint gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import BilevelOracle, JointGradient, JointPoint, MissingOracleCapability, joint_axpy
from .barrier_step import grad_q_hat, inner_descent

DEFAULT_STEP_H = 1e-5
DEFAULT_REL_TOL = 1e-5
_EPS = float(np.finfo(float).eps)


@dataclass
class GradCheckReport:
    """Result of comparing an analytic gradient against central differences."""

    max_rel_error: float
    worst_coordinate: int
    points_checked: int
    passed: bool
    nonfinite_evals: int = 0

    def to_text(self) -> str:
        rows = [
            ("points checked", str(self.points_checked)),
            ("max relative error", f"{self.max_rel_error:.3e}"),
            ("worst coordinate", str(self.worst_coordinate)),
            ("non-finite evaluations", str(self.nonfinite_evals)),
            ("passed", "yes" if self.passed else "no"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def check_gradient(
    fn: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    points: Sequence[np.ndarray],
    h: float = DEFAULT_STEP_H,
    rel_tol: float = DEFAULT_REL_TOL,
    coords: Optional[Sequence[int]] = None,
) -> GradCheckReport:
    """Compare an analytic gradient with central finite differences in the
    coordinates ``coords`` (default: all).

    The difference quotient (f(x+h) - f(x-h)) / (2h) carries the round-off of
    its two values. Each is f's exact value times (1 + d), |d| <= eps, so the
    quotient is off by at most eps * (|f(x+h)| + |f(x-h)|) / (2h) beyond its
    truncation error: a bound that grows as h shrinks and is large beside a
    small entry of a gradient whose f is large. That bound is not counted as
    error: the per-coordinate relative error is the gap |analytic - numeric|
    less the bound, floored at 0, over max(|analytic|, |numeric|, 1e-8). A
    non-finite function evaluation at a probe point is recorded (and fails
    the check) rather than raising.
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h}")
    max_err = 0.0
    worst = -1
    nonfinite = 0
    for x in points:
        x = np.asarray(x, dtype=float)
        analytic = np.asarray(grad(x), dtype=float)
        for i in range(x.size) if coords is None else coords:
            e = np.zeros_like(x)
            e[i] = h
            fp, fm = fn(x + e), fn(x - e)
            if not (np.isfinite(fp) and np.isfinite(fm)):
                nonfinite += 1
                max_err = np.inf
                worst = i
                continue
            numeric = (fp - fm) / (2.0 * h)
            roundoff = _EPS * (abs(fp) + abs(fm)) / (2.0 * h)
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            err = max(abs(analytic[i] - numeric) - roundoff, 0.0) / denom
            if err > max_err or worst < 0:
                max_err = err
                worst = i
    return GradCheckReport(
        max_rel_error=float(max_err),
        worst_coordinate=worst,
        points_checked=len(points),
        passed=bool(max_err < rel_tol),
        nonfinite_evals=nonfinite,
    )


def _flattened(value_fn, grad_fn, m: int):
    """``value_fn`` and ``grad_fn`` of a JointPoint as functions of one flat
    vector (v, theta) whose first ``m`` entries are v."""

    def fn(x):
        return value_fn(JointPoint(x[:m], x[m:]))

    def grad(x):
        jg = grad_fn(JointPoint(x[:m], x[m:]))
        return np.concatenate([jg.dv, jg.dtheta])

    return fn, grad


def check_oracle_gradients(
    oracle: BilevelOracle,
    points: Sequence[JointPoint],
    h: float = DEFAULT_STEP_H,
    rel_tol: float = DEFAULT_REL_TOL,
) -> dict[str, GradCheckReport]:
    """Run check_gradient over both objectives of an oracle, flattening the
    joint variable into a single vector (v, theta) per probe point. When the
    oracle sets ``grad_g_theta``, the ``g_theta`` report checks it against
    ``eval_g`` in the theta coordinates, with v held fixed."""
    m, n = points[0].m, points[0].n
    checks = {"f": (oracle.eval_f, oracle.grad_f, None),
              "g": (oracle.eval_g, oracle.grad_g, None)}
    if oracle.grad_g_theta is not None:
        def grad_g_theta(p: JointPoint) -> JointGradient:
            # no v-block: only the theta coordinates are probed
            return JointGradient(np.zeros(p.m), oracle.grad_g_theta(p.v, p.theta))

        checks["g_theta"] = (oracle.eval_g, grad_g_theta, range(m, m + n))
    flat_points = [np.concatenate([p.v, p.theta]) for p in points]
    return {label: check_gradient(*_flattened(value_fn, grad_fn, m), flat_points,
                                  h=h, rel_tol=rel_tol, coords=coords)
            for label, (value_fn, grad_fn, coords) in checks.items()}


def check_plug_in_estimator(
    oracle: BilevelOracle,
    points: Sequence[JointPoint],
    T_values: Sequence[int],
    alpha: float,
) -> dict[int, float]:
    """Mean distance between the plug-in constraint gradient and the exact one.

    For each T, runs the T-step inner loop at every probe point and averages
    the joint-norm error against the gradient built from the closed-form
    inner optimum, which is formed once per point. Requires
    ``exact_inner_opt``.
    """
    if oracle.exact_inner_opt is None:
        raise MissingOracleCapability("plug-in estimator check needs exact_inner_opt")
    exact = [grad_q_hat(oracle, p.v, p.theta, oracle.exact_inner_opt(p.v)) for p in points]
    errors: dict[int, float] = {}
    for T in T_values:
        total = 0.0
        for p, exact_p in zip(points, exact):
            inner = inner_descent(oracle, p.v, p.theta, T, alpha)
            approx = grad_q_hat(oracle, p.v, p.theta, inner.theta_T)
            total += joint_axpy(approx, -1.0, exact_p).norm()
        errors[int(T)] = total / len(points)
    return errors


def plug_in_table_text(errors: dict[int, float]) -> str:
    lines = ["T      mean ||grad error||"]
    for T in sorted(errors):
        lines.append(f"{T:<6d} {errors[T]:.6e}")
    return "\n".join(lines)
