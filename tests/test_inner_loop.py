import numpy as np
import pytest

from bome import (
    JointPoint,
    NumericalError,
    inner_descent,
    minimax_oracle,
)
from conftest import (
    ANISO_SCALES,
    QUAD_A,
    anisotropic_quadratic_oracle,
    double_well_oracle,
    quadratic_pl_oracle,
)


class TestInnerDescent:
    def test_isotropic_quadratic_three_steps(self, rng):
        # theta^(t+1) = c + (1 - 2*alpha)(theta^(t) - c) on g = ||theta - c||^2
        oracle = quadratic_pl_oracle()
        v = rng.standard_normal(2)
        c = QUAD_A @ v
        theta0 = rng.standard_normal(2)
        res = inner_descent(oracle, v, theta0, T=3, alpha=0.25)
        expected = c + 0.125 * (theta0 - c)
        np.testing.assert_allclose(res.theta_T, expected, rtol=1e-12)
        assert res.steps_taken == 3

    def test_zero_steps_identity(self):
        oracle = quadratic_pl_oracle()
        theta0 = np.array([5.0, -1.0])
        res = inner_descent(oracle, np.zeros(2), theta0, T=0, alpha=0.1)
        np.testing.assert_array_equal(res.theta_T, theta0)
        assert res.steps_taken == 0
        assert res.g_after == res.g_before

    def test_stationary_start_is_fixed_point(self):
        oracle = quadratic_pl_oracle()
        v = np.array([1.0, -1.0])
        theta_star = QUAD_A @ v
        res = inner_descent(oracle, v, theta_star, T=50, alpha=0.2)
        np.testing.assert_array_equal(res.theta_T, theta_star)
        assert res.steps_taken == 0  # early exit on vanished gradient

    def test_monotone_descent_along_trajectory(self, rng):
        oracle = anisotropic_quadratic_oracle()
        L = oracle.metadata.smoothness_L
        alpha = 1.0 / L
        v = rng.standard_normal(2)
        theta = rng.standard_normal(2) * 3.0
        values = [oracle.eval_g(JointPoint(v, theta))]
        for _ in range(40):
            theta = inner_descent(oracle, v, theta, T=1, alpha=alpha).theta_T
            values.append(oracle.eval_g(JointPoint(v, theta)))
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_geometric_decay_bound(self, rng):
        # q(v, theta^(t)) <= (1 - (alpha - L*alpha^2/2)*kappa)^t * q(v, theta0)
        oracle = anisotropic_quadratic_oracle()
        L = oracle.metadata.smoothness_L
        kappa = oracle.metadata.pl_constant_kappa
        alpha = 0.2
        assert alpha <= 1.0 / L
        rate = 1.0 - (alpha - L * alpha * alpha / 2.0) * kappa
        v = rng.standard_normal(2)
        theta0 = rng.standard_normal(2) * 2.0
        g_star = oracle.eval_g(JointPoint(v, QUAD_A @ v))
        q0 = oracle.eval_g(JointPoint(v, theta0)) - g_star
        theta = theta0
        for t in range(1, 30):
            theta = inner_descent(oracle, v, theta, T=1, alpha=alpha).theta_T
            q_t = oracle.eval_g(JointPoint(v, theta)) - g_star
            assert q_t / q0 <= rate**t + 1e-12

    def test_deterministic(self, rng):
        oracle = quadratic_pl_oracle()
        v = rng.standard_normal(2)
        theta0 = rng.standard_normal(2)
        a = inner_descent(oracle, v, theta0, T=17, alpha=0.07)
        b = inner_descent(oracle, v, theta0, T=17, alpha=0.07)
        assert np.array_equal(a.theta_T, b.theta_T)
        assert a.g_after == b.g_after

    def test_overflowing_gradient_is_stepped_on(self):
        # the gradient -v is finite, but its sum of squares overflows
        oracle = minimax_oracle()
        v, theta0, alpha = np.array([1e200]), np.array([1.0]), 1e-200
        with np.errstate(over="ignore"):
            res = inner_descent(oracle, v, theta0, T=1, alpha=alpha)
        assert res.steps_taken == 1
        np.testing.assert_array_equal(res.theta_T, theta0 - alpha * (-v))

    def test_non_finite_gradient_raises(self):
        with pytest.raises(NumericalError):
            inner_descent(minimax_oracle(), np.array([np.nan]), np.array([1.0]), T=1, alpha=0.1)

    def test_invalid_arguments(self):
        oracle = quadratic_pl_oracle()
        with pytest.raises(ValueError):
            inner_descent(oracle, np.zeros(2), np.zeros(2), T=-1, alpha=0.1)
        with pytest.raises(ValueError):
            inner_descent(oracle, np.zeros(2), np.zeros(2), T=1, alpha=0.0)


class TestAttractionPoint:
    """At long T inner descent stops at the attraction point of its start:
    the minimum of the basin that gradient descent from theta0 reaches."""

    def test_strongly_convex_reaches_minimizer(self, rng):
        oracle = quadratic_pl_oracle()
        v = rng.standard_normal(2)
        target = QUAD_A @ v
        for _ in range(5):
            theta0 = rng.standard_normal(2) * 4.0
            res = inner_descent(oracle, v, theta0, T=100_000, alpha=0.2)
            assert res.steps_taken < 100_000
            assert np.linalg.norm(res.theta_T - target) < 1e-9

    def test_double_well_right_basin(self):
        # from 0.5 the descent lands on the minimum at +1, not the one at -1
        oracle = double_well_oracle()
        res = inner_descent(oracle, np.zeros(1), np.array([0.5]), T=100_000, alpha=0.01)
        # independent plain loop, run to a tighter tolerance
        t = 0.5
        for _ in range(10**6):
            g = 4.0 * t * (t * t - 1.0)
            if abs(g) < 1e-12:
                break
            t -= 0.01 * g
        assert abs(t - 1.0) < 1e-9
        assert abs(res.theta_T[0] - 1.0) < 1e-6

    def test_matches_plain_recursion(self, rng):
        # an independent theta <- theta - alpha * grad g loop, stopped at the
        # first gradient whose squared norm is below STATIONARY_GRAD_TOL**2
        oracle = anisotropic_quadratic_oracle()
        v = rng.standard_normal(2)
        theta0 = rng.standard_normal(2) * 3.0
        theta = theta0.copy()
        steps = 0
        for _ in range(10_000):
            grad = 2.0 * ANISO_SCALES * (theta - QUAD_A @ v)
            if grad.dot(grad) < 1e-28:
                break
            theta = theta - 0.1 * grad
            steps += 1
        res = inner_descent(oracle, v, theta0, T=10_000, alpha=0.1)
        assert steps < 10_000 and res.steps_taken == steps
        np.testing.assert_array_equal(res.theta_T, theta)
