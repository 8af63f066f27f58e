"""Finite-difference verification of analytic gradients and of the T-step
plug-in approximation to the exact constraint gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import BilevelOracle, JointPoint, MissingOracleCapability, joint_axpy
from .barrier_step import grad_q_hat
from .inner_loop import inner_descent

DEFAULT_STEP_H = 1e-5
DEFAULT_REL_TOL = 1e-5


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
) -> GradCheckReport:
    """Compare an analytic gradient with central finite differences.

    The per-coordinate relative error uses max(|analytic|, |numeric|, 1e-8)
    as the denominator. A non-finite function evaluation at a probe point is
    recorded (and fails the check) rather than raising.
    """
    if not h > 0:
        raise ValueError(f"h must be > 0, got {h}")
    max_err = 0.0
    worst = -1
    nonfinite = 0
    for x in points:
        x = np.asarray(x, dtype=float)
        analytic = np.asarray(grad(x), dtype=float)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fp, fm = fn(x + e), fn(x - e)
            if not (np.isfinite(fp) and np.isfinite(fm)):
                nonfinite += 1
                max_err = np.inf
                worst = i
                continue
            numeric = (fp - fm) / (2.0 * h)
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            err = abs(analytic[i] - numeric) / denom
            if err > max_err:
                max_err = err
                worst = i
    return GradCheckReport(
        max_rel_error=float(max_err),
        worst_coordinate=worst,
        points_checked=len(points),
        passed=bool(max_err < rel_tol),
        nonfinite_evals=nonfinite,
    )


def check_oracle_gradients(
    oracle: BilevelOracle,
    points: Sequence[JointPoint],
    h: float = DEFAULT_STEP_H,
    rel_tol: float = DEFAULT_REL_TOL,
) -> dict[str, GradCheckReport]:
    """Run check_gradient over both objectives of an oracle, flattening the
    joint variable into a single vector per probe point."""

    def split(p: JointPoint, x: np.ndarray) -> JointPoint:
        return JointPoint(x[: p.m], x[p.m:])

    reports = {}
    for label, value_fn, grad_fn in (
        ("f", oracle.eval_f, oracle.grad_f),
        ("g", oracle.eval_g, oracle.grad_g),
    ):
        flat_points = [np.concatenate([p.v, p.theta]) for p in points]

        def fn(x, p0=points[0], value_fn=value_fn):
            return value_fn(split(p0, x))

        def grad(x, p0=points[0], grad_fn=grad_fn):
            jg = grad_fn(split(p0, x))
            return np.concatenate([jg.dv, jg.dtheta])

        reports[label] = check_gradient(fn, grad, flat_points, h=h, rel_tol=rel_tol)
    return reports


def check_plug_in_estimator(
    oracle: BilevelOracle,
    points: Sequence[JointPoint],
    T_values: Sequence[int],
    alpha: float,
) -> dict[int, float]:
    """Mean distance between the plug-in constraint gradient and the exact one.

    For each T, runs the T-step inner loop at every probe point and averages
    the joint-norm error against the gradient built from the closed-form
    inner optimum. Requires ``exact_inner_opt``.
    """
    if oracle.exact_inner_opt is None:
        raise MissingOracleCapability("plug-in estimator check needs exact_inner_opt")
    errors: dict[int, float] = {}
    for T in T_values:
        total = 0.0
        for p in points:
            inner = inner_descent(oracle, p.v, p.theta, T, alpha)
            approx = grad_q_hat(oracle, p.v, p.theta, inner.theta_T)
            theta_star = oracle.exact_inner_opt(p.v)
            exact = grad_q_hat(oracle, p.v, p.theta, theta_star)
            total += joint_axpy(approx, -1.0, exact).norm()
        errors[int(T)] = total / len(points)
    return errors


def plug_in_table_text(errors: dict[int, float]) -> str:
    lines = ["T      mean ||grad error||"]
    for T in sorted(errors):
        lines.append(f"{T:<6d} {errors[T]:.6e}")
    return "\n".join(lines)
