import dataclasses

import numpy as np
import pytest

from bome import (
    JointPoint,
    MissingOracleCapability,
    check_gradient,
    check_oracle_gradients,
    check_plug_in_estimator,
    coreset_oracle,
    make_synthetic_ridge,
    minimax_oracle,
    ridge_oracle,
)
from bome import cli


class TestCheckGradient:
    def test_quadratic_is_exact_under_central_differences(self, rng):
        pts = [rng.standard_normal(4) for _ in range(10)]
        report = check_gradient(lambda x: float(x @ x), lambda x: 2.0 * x, pts, h=1e-5)
        assert report.passed
        assert report.max_rel_error < 1e-9
        assert report.points_checked == 10

    def test_constant_function(self):
        report = check_gradient(
            lambda x: 3.5, lambda x: np.zeros_like(x), [np.ones(3)], h=1e-5
        )
        assert report.passed and report.max_rel_error == 0.0

    def test_worst_coordinate_is_first_checked_when_no_error(self):
        report = check_gradient(
            lambda x: 3.5, lambda x: np.zeros_like(x), [np.ones(3)], coords=[1, 2]
        )
        assert report.max_rel_error == 0.0 and report.worst_coordinate == 1

    def test_wrong_gradient_fails_and_locates_coordinate(self, rng):
        def grad(x):
            g = 2.0 * x
            g[2] += 1.0  # corrupt one coordinate
            return g

        report = check_gradient(lambda x: float(x @ x), grad, [rng.standard_normal(5) + 3.0])
        assert not report.passed
        assert report.worst_coordinate == 2

    def test_richardson_consistency_on_smooth_function(self):
        # halving h shrinks the truncation error about fourfold on a smooth
        # non-quadratic function
        def fn(x):
            return float(np.exp(x).sum())

        pts = [np.array([0.3, -0.2])]
        big = check_gradient(fn, np.exp, pts, h=1e-3)
        small = check_gradient(fn, np.exp, pts, h=5e-4)
        # errors of the numeric estimate against the true gradient e^x
        assert big.max_rel_error > 0.0
        ratio = big.max_rel_error / max(small.max_rel_error, 1e-18)
        assert 2.0 < ratio < 8.0

    def test_nonfinite_evaluation_reported_not_raised(self):
        def fn(x):
            return float("nan") if x[0] > 1.0 else float(x @ x)

        report = check_gradient(fn, lambda x: 2.0 * x, [np.array([1.0, 0.0])], h=0.5)
        assert not report.passed
        assert report.nonfinite_evals > 0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            check_gradient(lambda x: 0.0, lambda x: x, [np.zeros(2)], h=0.0)


class TestOracleGradients:
    def test_wrong_grad_g_theta_fails_only_g_theta(self, rng):
        # the inner loop's gradient; grad_g itself is right
        oracle = coreset_oracle()
        right = oracle.grad_g_theta
        oracle = dataclasses.replace(oracle, grad_g_theta=lambda v, theta: 3.0 * right(v, theta))
        pts = [JointPoint(rng.standard_normal(4), rng.standard_normal(2)) for _ in range(5)]
        reports = check_oracle_gradients(oracle, pts)
        assert reports["f"].passed and reports["g"].passed
        assert not reports["g_theta"].passed
        assert reports["g_theta"].worst_coordinate >= 4  # a theta coordinate

    @pytest.mark.parametrize("problem", sorted(cli.PROBLEMS))
    def test_builtin_problems_pass_g_theta(self, rng, problem):
        oracle, start = cli.build_experiment(cli.ExperimentConfig(problem))
        # hyperclean weights stay inside (0, 1), away from the clip kinks
        pts = [JointPoint(rng.uniform(0.2, 0.8, start.m) if problem == "hyperclean"
                          else start.v + 0.5 * rng.standard_normal(start.m),
                          start.theta + 0.5 * rng.standard_normal(start.n))
               for _ in range(3)]
        report = check_oracle_gradients(oracle, pts)["g_theta"]
        assert report.passed and report.points_checked == 3


class TestPlugInEstimator:
    def test_requires_exact_inner_opt(self):
        with pytest.raises(MissingOracleCapability):
            check_plug_in_estimator(minimax_oracle(), [JointPoint([1.0], [1.0])], [1], 0.1)

    def test_ridge_errors_decay_geometrically(self, rng):
        oracle = ridge_oracle(make_synthetic_ridge(seed=0))
        alpha = 1.0 / (2.0 * oracle.metadata.smoothness_L)
        pts = [
            JointPoint(0.3 * rng.standard_normal(5), rng.standard_normal(5))
            for _ in range(20)
        ]
        errors = check_plug_in_estimator(oracle, pts, [1, 2, 4, 8, 16], alpha)
        seq = [errors[T] for T in (1, 2, 4, 8, 16)]
        assert all(b <= a for a, b in zip(seq, seq[1:]))  # non-increasing
        assert all(b < 0.9 * a for a, b in zip(seq, seq[1:]))

    def test_long_horizon_error_vanishes(self, rng):
        oracle = ridge_oracle(make_synthetic_ridge(seed=0))
        alpha = 1.0 / (2.0 * oracle.metadata.smoothness_L)
        pts = [JointPoint(0.3 * rng.standard_normal(5), rng.standard_normal(5))]
        errors = check_plug_in_estimator(oracle, pts, [200], alpha)
        assert errors[200] < 1e-8

    def test_zero_error_when_started_at_optimum(self, rng):
        oracle = ridge_oracle(make_synthetic_ridge(seed=0))
        v = 0.2 * rng.standard_normal(5)
        pts = [JointPoint(v, oracle.exact_inner_opt(v))]
        errors = check_plug_in_estimator(oracle, pts, [1, 5, 50], alpha=1e-3)
        assert all(err == 0.0 for err in errors.values())

    def test_exact_side_formed_once_per_point(self, rng):
        oracle = ridge_oracle(make_synthetic_ridge(seed=0))
        calls = []

        def exact_inner_opt(v):
            calls.append(v)
            return oracle.exact_inner_opt(v)

        counted = dataclasses.replace(oracle, exact_inner_opt=exact_inner_opt)
        pts = [JointPoint(0.3 * rng.standard_normal(5), rng.standard_normal(5))
               for _ in range(3)]
        errors = check_plug_in_estimator(counted, pts, [1, 2, 4], alpha=1e-2)
        assert len(calls) == len(pts) and len(errors) == 3
