import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bome import (
    BarrierKind,
    BilevelOracle,
    JointGradient,
    JointPoint,
    NumericalError,
    SolverConfig,
    bome_step,
    compute_lambda,
    compute_phi,
    coreset_oracle,
    grad_q_hat,
    inner_descent,
    make_synthetic_ridge,
    minimax_oracle,
    q_hat_value,
    ridge_oracle,
)
from bome.cli import PROBLEMS
from bome.core import joint_dot
from conftest import (
    QUAD_A,
    assert_barrier_invariants,
    brute_barrier_lambda,
    quadratic_pl_oracle,
)

finite_floats = st.floats(-10.0, 10.0, allow_nan=False)


def vec_strategy(dim):
    return st.lists(finite_floats, min_size=dim, max_size=dim).map(np.array)


class TestQHatValue:
    def test_zero_when_theta_equals_theta_T(self, rng):
        oracle = quadratic_pl_oracle()
        theta = rng.standard_normal(2)
        assert q_hat_value(oracle, rng.standard_normal(2), theta, theta) == 0.0

    def test_isotropic_one_step(self):
        # g = ||theta - c||^2, theta0 - c = (1, 0), alpha = 0.25, T = 1:
        # g drops from 1 to 0.25, so q_hat = 0.75
        oracle = quadratic_pl_oracle()
        v = np.array([1.0, 0.5])
        c = QUAD_A @ v
        theta0 = c + np.array([1.0, 0.0])
        res = inner_descent(oracle, v, theta0, T=1, alpha=0.25)
        assert q_hat_value(oracle, v, theta0, res.theta_T) == pytest.approx(0.75, rel=1e-12)

    def test_coreset_start1_matches_scalar_recursion(self):
        # independent recursion: theta* = X sigma(0), contraction 0.9 per step
        oracle = coreset_oracle()
        v = np.zeros(4)
        theta0 = np.array([0.0, 3.0])
        res = inner_descent(oracle, v, theta0, T=10, alpha=0.05)
        got = q_hat_value(oracle, v, theta0, res.theta_T)

        target = np.array([-0.25, 2.0])
        cur = theta0.copy()
        for _ in range(10):
            cur = cur - 0.05 * 2.0 * (cur - target)
        expect = float((theta0 - target) @ (theta0 - target) - (cur - target) @ (cur - target))
        assert got == pytest.approx(expect, rel=1e-14)
        assert got == pytest.approx(0.9333248044975201, rel=1e-14)


class TestGradQHat:
    def test_v_independent_inner_objective(self, rng):
        from conftest import double_well_oracle

        oracle = double_well_oracle()
        v = rng.standard_normal(1)
        theta = np.array([0.4])
        theta_T = inner_descent(oracle, v, theta, 5, 0.01).theta_T
        g = grad_q_hat(oracle, v, theta, theta_T)
        np.testing.assert_array_equal(g.dv, np.zeros(1))
        np.testing.assert_allclose(g.dtheta, oracle.inner_grad(v, theta), rtol=1e-14)

    def test_identical_points_zero_dv(self, rng):
        oracle = quadratic_pl_oracle()
        v = rng.standard_normal(2)
        theta = rng.standard_normal(2)
        g = grad_q_hat(oracle, v, theta, theta)
        np.testing.assert_array_equal(g.dv, np.zeros(2))

    def test_theta_block_is_inner_gradient(self, rng):
        oracle = quadratic_pl_oracle()
        v = rng.standard_normal(2)
        theta = rng.standard_normal(2)
        theta_T = inner_descent(oracle, v, theta, 3, 0.2).theta_T
        g = grad_q_hat(oracle, v, theta, theta_T)
        np.testing.assert_allclose(g.dtheta, oracle.inner_grad(v, theta), rtol=1e-14)

    def test_stop_gradient_matches_frozen_finite_difference(self, rng):
        # central differences of v -> g(v,theta) - g(v,theta_T) with theta_T
        # held constant must reproduce the dv block
        oracle = coreset_oracle()
        v = rng.standard_normal(4) * 0.5
        theta = rng.standard_normal(2)
        theta_T = inner_descent(oracle, v, theta, 10, 0.05).theta_T
        g = grad_q_hat(oracle, v, theta, theta_T)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fp = q_hat_value(oracle, v + e, theta, theta_T)
            fm = q_hat_value(oracle, v - e, theta, theta_T)
            numeric = (fp - fm) / (2.0 * h)
            denom = max(abs(numeric), abs(g.dv[i]), 1e-8)
            assert abs(numeric - g.dv[i]) / denom < 1e-5

    def test_error_vs_exact_shrinks_geometrically_in_T(self, rng):
        oracle = ridge_oracle(make_synthetic_ridge(seed=2))
        v = 0.2 * rng.standard_normal(5)
        theta = rng.standard_normal(5)
        theta_star = oracle.exact_inner_opt(v)
        exact = grad_q_hat(oracle, v, theta, theta_star)
        alpha = 1.0 / oracle.metadata.smoothness_L
        errs = []
        for T in (1, 2, 4, 8, 16):
            approx = grad_q_hat(oracle, v, theta, inner_descent(oracle, v, theta, T, alpha).theta_T)
            diff = JointGradient(approx.dv - exact.dv, approx.dtheta - exact.dtheta)
            errs.append(diff.norm())
        assert all(b < 0.9 * a for a, b in zip(errs, errs[1:]))


class TestComputePhi:
    def test_grad_norm_branch(self):
        assert compute_phi(BarrierKind.GRAD_NORM_SQ, 0.5, q_hat=123.0, grad_qhat_norm=2.0) == 2.0

    def test_value_branch(self):
        assert compute_phi(BarrierKind.VALUE, 0.5, q_hat=0.75, grad_qhat_norm=9.0) == 0.375

    def test_value_branch_clamps_roundoff(self):
        assert compute_phi(BarrierKind.VALUE, 0.5, q_hat=-1e-12, grad_qhat_norm=1.0) == 0.0

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            compute_phi(BarrierKind.VALUE, 0.0, 1.0, 1.0)


class TestComputeLambda:
    def test_aligned_gradients_need_no_correction(self, rng):
        u = rng.standard_normal(6)
        gf = JointGradient(u[:3], u[3:])
        phi = 0.5 * float(u @ u)
        assert compute_lambda(gf, JointGradient(u[:3], u[3:]), phi) == 0.0

    def test_opposed_unit_gradients(self):
        gf = JointGradient(np.array([0.0]), np.array([-1.0]))
        gq = JointGradient(np.array([0.0]), np.array([1.0]))
        assert compute_lambda(gf, gq, phi=0.5) == pytest.approx(1.5, rel=1e-15)

    def test_zero_constraint_gradient(self):
        gf = JointGradient(np.ones(2), np.ones(2))
        gq = JointGradient(np.zeros(2), np.zeros(2))
        assert compute_lambda(gf, gq, phi=1.0) == 0.0

    def test_matches_brute_force_dual_search(self, rng):
        for _ in range(50):
            gf = JointGradient(rng.standard_normal(5), rng.standard_normal(5))
            gq = JointGradient(rng.standard_normal(5), rng.standard_normal(5))
            phi = float(abs(rng.standard_normal()))
            lam = compute_lambda(gf, gq, phi)
            ref = brute_barrier_lambda(gf, gq, phi)
            assert lam == pytest.approx(ref, abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(
        fv=vec_strategy(3),
        ft=vec_strategy(3),
        qv=vec_strategy(3),
        qt=vec_strategy(3),
        c=st.floats(0.01, 100.0),
        phi=st.floats(0.0, 10.0),
    )
    def test_formula_under_objective_scaling(self, fv, ft, qv, qt, c, phi):
        # lambda(c*grad_f, grad_q, phi) obeys the same closed form: verify
        # against the independent bisection oracle
        gf = JointGradient(c * fv, c * ft)
        gq = JointGradient(qv, qt)
        lam = compute_lambda(gf, gq, phi)
        ref = brute_barrier_lambda(gf, gq, phi)
        assert lam == pytest.approx(ref, abs=1e-6 * (1.0 + ref))


class TestBomeStep:
    def test_stationary_point_is_fixed(self):
        # grad f = 0 and grad q_hat = 0: the update must not move
        v = np.array([0.5, 0.5])  # equals the v-target
        theta_star = QUAD_A @ v
        base = quadratic_pl_oracle()
        # shift f's theta-target onto theta_star so both gradients vanish
        def grad_f(p):
            return JointGradient(2.0 * (p.v - v), 2.0 * (p.theta - theta_star))
        def eval_f(p):
            dv = p.v - v
            dt = p.theta - theta_star
            return float(dv @ dv + dt @ dt)
        base.eval_f = eval_f
        base.grad_f = grad_f
        point = JointPoint(v, theta_star)
        new, sol = bome_step(base, point, SolverConfig(outer_step_xi=0.1))
        np.testing.assert_array_equal(new.v, point.v)
        np.testing.assert_array_equal(new.theta, point.theta)
        assert sol.lam == 0.0 and sol.q_hat == 0.0

    def test_minimax_single_step_transcript(self):
        # hand-executed step at (1, 1), defaults xi = alpha = 0.05, T = 10:
        # theta^(10) = 1.5, q_hat = 0.5, grad_qhat = (0.5, -1), grad_f = (1, 1)
        # phi = 0.5*1.25 = 0.625, lam = (0.625+0.5)/1.25 = 0.9
        # delta = (1.45, 0.1), new point = (0.9275, 0.995)
        oracle = minimax_oracle()
        cfg = SolverConfig(outer_step_xi=0.05)
        new, sol = bome_step(oracle, JointPoint([1.0], [1.0]), cfg)
        assert sol.inner_result.theta_T[0] == pytest.approx(1.5, rel=1e-14)
        assert sol.q_hat == pytest.approx(0.5, rel=1e-12)
        assert sol.phi == pytest.approx(0.625, rel=1e-12)
        assert sol.lam == pytest.approx(0.9, rel=1e-12)
        np.testing.assert_allclose(sol.delta.dv, [1.45], rtol=1e-12)
        np.testing.assert_allclose(sol.delta.dtheta, [0.1], rtol=1e-11)
        assert new.v[0] == pytest.approx(0.9275, rel=1e-12)
        assert new.theta[0] == pytest.approx(0.995, rel=1e-12)

    def test_coreset_first_step_transcript(self):
        # independent transcript values at start 1 (v=0, theta=(0,3)):
        # the outer gradient already satisfies the barrier, so lam = 0 and
        # delta = grad_f with norm 2*sqrt(34)
        oracle = coreset_oracle()
        cfg = SolverConfig(outer_step_xi=0.05, inner_iters_T=10)
        _, sol = bome_step(oracle, JointPoint(np.zeros(4), [0.0, 3.0]), cfg)
        assert sol.q_hat == pytest.approx(0.9333248044975201, rel=1e-14)
        assert sol.lam == 0.0
        assert sol.delta.norm() == pytest.approx(2.0 * np.sqrt(34.0), rel=1e-14)

    def test_invariants_hold_along_runs(self):
        for oracle, start in (
            (quadratic_pl_oracle(), JointPoint([2.0, -1.0], [3.0, 3.0])),
            (coreset_oracle(), JointPoint(np.zeros(4), [0.0, 3.0])),
            (minimax_oracle(), JointPoint([1.0], [1.0])),
        ):
            cfg = SolverConfig(outer_step_xi=0.02)
            point = start
            for _ in range(200):
                point, sol = bome_step(oracle, point, cfg)
                assert_barrier_invariants(sol)

    def test_delta_equals_grad_f_when_multiplier_inactive(self):
        oracle = coreset_oracle()
        cfg = SolverConfig(outer_step_xi=0.05)
        point = JointPoint(np.zeros(4), [0.0, 3.0])
        gf = oracle.grad_f(point)
        _, sol = bome_step(oracle, point, cfg)
        assert sol.lam == 0.0
        np.testing.assert_array_equal(sol.delta.dv, gf.dv)
        np.testing.assert_array_equal(sol.delta.dtheta, gf.dtheta)

    def test_qhat_never_jumps_up_more_than_step_bound(self):
        # along a run with xi, alpha <= 1/L the per-step increase of q_hat is
        # bounded by 10 * xi^2 * M^2 with M from the declared metadata
        oracle = quadratic_pl_oracle()
        L = oracle.metadata.smoothness_L
        M = oracle.metadata.bound_M
        xi = 1.0 / L
        cfg = SolverConfig(outer_step_xi=xi, inner_iters_T=10)
        point = JointPoint([2.0, -1.0], [3.0, 3.0])
        prev_qhat = None
        for _ in range(300):
            point, sol = bome_step(oracle, point, cfg)
            if prev_qhat is not None:
                assert sol.q_hat <= prev_qhat + 10.0 * xi * xi * M * M
            prev_qhat = sol.q_hat

    def test_momentum_accumulates_heavy_ball_velocity(self):
        oracle = quadratic_pl_oracle()
        beta = 0.9
        cfg = SolverConfig(outer_step_xi=0.01, momentum_beta=beta)
        velocity = JointGradient(np.zeros(2), np.zeros(2))
        p0 = JointPoint([2.0, -1.0], [3.0, 3.0])
        p1, s1 = bome_step(oracle, p0, cfg, velocity)
        v1 = (s1.delta.dv.copy(), s1.delta.dtheta.copy())
        p2, s2 = bome_step(oracle, p1, cfg, s1.velocity)
        state = s2.velocity
        # velocity after two steps: beta * delta_1 + delta_2
        np.testing.assert_allclose(state.dv, beta * v1[0] + s2.delta.dv, rtol=1e-12)
        np.testing.assert_allclose(state.dtheta, beta * v1[1] + s2.delta.dtheta, rtol=1e-12)
        # and the applied update used the accumulated velocity
        np.testing.assert_allclose(p2.v, p1.v - cfg.outer_step_xi * state.dv, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_iterate_whose_sum_of_squares_overflows_is_kept(self):
        # zero gradients leave the point where it is; its squared norm
        # overflows, but every entry is finite, so the step must not fail
        def zeros(p):
            return JointGradient(np.zeros(p.v.size), np.zeros(p.theta.size))

        oracle = BilevelOracle(
            eval_f=lambda p: 0.0, grad_f=zeros, eval_g=lambda p: 0.0, grad_g=zeros,
            grad_g_theta=lambda v, theta: np.zeros(theta.size),
        )
        cfg = SolverConfig(outer_step_xi=0.05)
        v, theta = np.full(2, 1e200), np.full(3, -1e200)
        new, _ = bome_step(oracle, JointPoint(v, theta), cfg)
        np.testing.assert_array_equal(new.v, v)
        np.testing.assert_array_equal(new.theta, theta)
        theta[1] = np.inf
        with pytest.raises(NumericalError, match="non-finite iterate"):
            bome_step(oracle, JointPoint._trusted(v, theta), cfg)

    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_lambda_has_one_formula(self, problem):
        # the reductions the step carries, and its multiplier, are the ones
        # joint_dot and compute_lambda give for its gradients, to the bit
        oracle, presets = PROBLEMS[problem][1]({}, 0)
        start = JointPoint(*presets["default"])
        for kind in BarrierKind:
            for beta in (0.0, 0.9):
                cfg = SolverConfig(outer_step_xi=0.01, barrier_kind=kind, momentum_beta=beta)
                point, velocity = start, JointGradient(np.zeros(start.m), np.zeros(start.n))
                for _ in range(5):
                    point, sol = bome_step(oracle, point, cfg, velocity)
                    velocity = sol.velocity
                    gf, gq = sol.grad_f, sol.grad_qhat
                    assert sol.grad_qhat_sq == joint_dot(gq, gq)
                    assert sol.grad_f_dot_qhat == joint_dot(gf, gq)
                    assert sol.grad_qhat_norm == gq.norm()
                    assert compute_lambda(gf, gq, sol.phi) == sol.lam
