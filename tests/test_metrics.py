import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bome.barrier_step
import bome.metrics
from bome import (
    BarrierKind,
    JointGradient,
    JointPoint,
    KktReport,
    Method,
    MissingOracleCapability,
    SolverConfig,
    StepDiagnostics,
    Termination,
    bome_step,
    compute_lambda,
    coreset_oracle,
    hyperclean_oracle,
    kkt_exact,
    kkt_proxy,
    lls_oracle,
    make_synthetic_hyperclean,
    make_synthetic_ridge,
    minimax_oracle,
    ridge_oracle,
    run,
)
from bome.cli import PROBLEMS
from conftest import (
    brute_lambda_star,
    double_well_oracle,
    quadratic_pl_oracle,
)

finite_floats = st.floats(-10.0, 10.0, allow_nan=False)
vec2 = st.lists(finite_floats, min_size=2, max_size=2).map(np.array)


class TestClosedFormLambdaStar:
    """The score's lambda* is the barrier multiplier with phi = 0."""

    def test_orthogonal_gradients(self):
        gf = JointGradient(np.array([1.0, 0.0]), np.zeros(1))
        gq = JointGradient(np.array([0.0, 1.0]), np.zeros(1))
        assert compute_lambda(gf, gq, 0.0) == 0.0

    def test_exact_cancellation(self):
        gq = JointGradient(np.array([0.6]), np.array([0.8]))
        gf = JointGradient(-2.0 * gq.dv, -2.0 * gq.dtheta)
        lam = compute_lambda(gf, gq, 0.0)
        assert lam == pytest.approx(2.0, rel=1e-14)
        resid = np.concatenate([gf.dv + lam * gq.dv, gf.dtheta + lam * gq.dtheta])
        assert np.linalg.norm(resid) < 1e-14

    def test_zero_constraint_gradient(self):
        gf = JointGradient(np.ones(3), np.ones(2))
        gq = JointGradient(np.zeros(3), np.zeros(2))
        assert compute_lambda(gf, gq, 0.0) == 0.0

    def test_matches_grid_search(self, rng):
        for _ in range(30):
            gf = JointGradient(rng.standard_normal(5), rng.standard_normal(5))
            gq = JointGradient(rng.standard_normal(5), rng.standard_normal(5))
            assert compute_lambda(gf, gq, 0.0) == pytest.approx(
                brute_lambda_star(gf, gq), abs=1e-8
            )

    @settings(max_examples=80, deadline=None)
    @given(fv=vec2, ft=vec2, qv=vec2, qt=vec2, c=st.floats(0.01, 50.0))
    def test_scale_consistency(self, fv, ft, qv, qt, c):
        # replacing grad_q by c*grad_q divides lambda* by c and leaves the
        # residual norm unchanged
        gf = JointGradient(fv, ft)
        gq = JointGradient(qv, qt)
        lam = compute_lambda(gf, gq, 0.0)
        lam_scaled = compute_lambda(gf, JointGradient(c * qv, c * qt), 0.0)
        assert lam_scaled * c == pytest.approx(lam, rel=1e-9, abs=1e-12)
        r1 = np.concatenate([gf.dv + lam * qv, gf.dtheta + lam * qt])
        r2 = np.concatenate([gf.dv + lam_scaled * c * qv, gf.dtheta + lam_scaled * c * qt])
        assert np.linalg.norm(r1) == pytest.approx(np.linalg.norm(r2), rel=1e-9, abs=1e-12)


class TestKktExact:
    def test_requires_capability(self):
        with pytest.raises(MissingOracleCapability):
            kkt_exact(minimax_oracle(), JointPoint([1.0], [1.0]))

    def test_feasibility_zero_at_inner_optimum(self, rng):
        oracle = quadratic_pl_oracle()
        v = rng.standard_normal(2)
        report = kkt_exact(oracle, JointPoint(v, oracle.exact_inner_opt(v)))
        assert report.feasibility == 0.0
        assert report.total == report.local_improvement

    def test_local_improvement_bounded_by_grad_f(self, rng):
        oracle = quadratic_pl_oracle()
        for _ in range(20):
            p = JointPoint(rng.standard_normal(2), rng.standard_normal(2))
            report = kkt_exact(oracle, p)
            gf = oracle.grad_f(p)
            assert 0.0 <= report.local_improvement <= gf.norm() ** 2 + 1e-12
            assert report.total == pytest.approx(
                report.local_improvement + report.feasibility
            )

    def test_converged_coreset_iterate_scores_small(self):
        # a converged run (separate outer steps damp the boundary chatter)
        oracle = coreset_oracle()
        cfg = SolverConfig(
            outer_step_xi=0.002,
            inner_step_alpha=0.25,
            inner_iters_T=10,
            xi_v=1.0,
            xi_theta=0.002,
            momentum_beta=0.9,
            max_outer_iters_K=20000,
            kkt_eval_every=25,
            stop_kkt_tol=5e-5,
        )
        trace = run(oracle, JointPoint(np.zeros(4), [0.0, 3.0]), cfg)
        assert trace.final_kkt.total < 1e-4

    def test_lls_uses_exact_value_function(self):
        oracle = lls_oracle()
        p = JointPoint([0.5], [0.9, 2.0])
        report = kkt_exact(oracle, p)
        # q = g - 0 and the value-function gradient is identically zero
        assert report.feasibility == pytest.approx((0.9 - 0.5) ** 2, rel=1e-14)

    def test_lls_score_independent_of_chosen_minimizer(self, rng):
        # every point (v, c) of the minimizer line serves as theta*(v): g is 0
        # there and its v-gradient is the value-function gradient, 0
        oracle = lls_oracle()
        points = [JointPoint(rng.standard_normal(1), rng.standard_normal(2)) for _ in range(20)]
        points += [JointPoint(p.v, [p.v[0], p.theta[1]]) for p in points[:5]]
        for p in points:
            report = kkt_exact(oracle, p)
            assert report.feasibility == (p.theta[0] - p.v[0]) ** 2
            for c in (-2.5, 1.0, 7.0, 1e3):
                other = dataclasses.replace(
                    oracle, exact_inner_opt=lambda v, c=c: np.array([v[0], c])
                )
                assert kkt_exact(other, p) == report


class TestKktProxy:
    def test_zero_at_joint_stationary_point(self):
        oracle = quadratic_pl_oracle()
        v = np.array([0.5, 0.5])
        theta_star = np.asarray(oracle.exact_inner_opt(v), dtype=float)

        def grad_f(p):
            return JointGradient(2.0 * (p.v - v), 2.0 * (p.theta - theta_star))

        oracle.grad_f = grad_f
        report = kkt_proxy(oracle, JointPoint(v, theta_star), SolverConfig())
        assert report.total == 0.0

    def test_T_zero_reduces_to_local_improvement(self, rng):
        oracle = quadratic_pl_oracle()
        p = JointPoint(rng.standard_normal(2), rng.standard_normal(2))
        cfg = SolverConfig(inner_iters_T=0)
        report = kkt_proxy(oracle, p, cfg)
        assert report.feasibility == 0.0
        assert report.total == report.local_improvement

    def test_gap_to_exact_shrinks_geometrically_in_T(self, rng):
        oracle = quadratic_pl_oracle()
        p = JointPoint(rng.standard_normal(2), rng.standard_normal(2) * 2.0)
        exact = kkt_exact(oracle, p).total
        gaps = []
        for T in (1, 2, 4, 8, 16):
            cfg = SolverConfig(outer_step_xi=0.2, inner_iters_T=T)
            gaps.append(abs(kkt_proxy(oracle, p, cfg).total - exact))
        assert all(b < 0.9 * a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3 * gaps[0]


    @pytest.mark.parametrize("make_oracle, point", [
        (minimax_oracle, JointPoint([1.0], [1.0])),
        (minimax_oracle, JointPoint([-0.3], [2.5])),
        (coreset_oracle, JointPoint(np.zeros(4), [0.0, 3.0])),
        (coreset_oracle, JointPoint([0.5, -1.0, 0.2, 0.0], [-3.0, 1.0])),
    ])
    def test_feasibility_is_the_step_q_hat(self, make_oracle, point):
        # one q_hat: the proxy score and the step read it from the same
        # inner descent, so they agree exactly
        oracle = make_oracle()
        for cfg in (SolverConfig(), SolverConfig(inner_step_alpha=0.25, inner_iters_T=3)):
            _, sol = bome_step(oracle, point, cfg)
            assert kkt_proxy(oracle, point, cfg).feasibility == sol.q_hat


def _minimax_case(barrier, beta):
    cfg = SolverConfig(barrier_kind=barrier, momentum_beta=beta)
    return minimax_oracle(), JointPoint([1.0], [1.0]), cfg


def _hyperclean_case():
    prob = make_synthetic_hyperclean(seed=3, m_tr=40, m_val=16, p=4, corrupt_frac=0.3)
    start = JointPoint(0.5 * np.ones(prob.n_train), np.zeros(prob.theta_dim))
    return hyperclean_oracle(prob), start, SolverConfig(outer_step_xi=0.002)


def _coreset_case():
    # the quick-start steps, momentum included
    cfg = SolverConfig(outer_step_xi=0.002, inner_step_alpha=0.25, xi_v=1.0, xi_theta=0.002,
                       momentum_beta=0.9)
    return coreset_oracle(), JointPoint(np.zeros(4), [0.0, 3.0]), cfg


def _lls_case():
    return lls_oracle(), JointPoint([0.0], [0.0, 3.0]), SolverConfig(outer_step_xi=0.02)


def _ridge_case():
    oracle = ridge_oracle(make_synthetic_ridge(seed=0, m_tr=50, m_val=30, p=5, noise=0.1))
    # half of 1/L: below both step-size warnings
    step = 0.5 / oracle.metadata.smoothness_L
    start = JointPoint(np.zeros(5), np.zeros(5))
    return oracle, start, SolverConfig(outer_step_xi=step, inner_step_alpha=step)


class TestKktProxyFromStep:
    """A proxy score at a BOME iterate reuses that step's plug-in quantities
    and equals the standalone score there exactly; with an exact capability
    run() scores every iterate, and the end point, by the standalone exact
    score instead."""

    @pytest.mark.parametrize("case", [
        lambda: _minimax_case(BarrierKind.GRAD_NORM_SQ, 0.0),
        lambda: _minimax_case(BarrierKind.GRAD_NORM_SQ, 0.5),
        lambda: _minimax_case(BarrierKind.VALUE, 0.0),
        lambda: _minimax_case(BarrierKind.VALUE, 0.5),
        _hyperclean_case,
        _lls_case,
        _ridge_case,
    ], ids=["minimax-gradnorm", "minimax-gradnorm-momentum", "minimax-value",
            "minimax-value-momentum", "hyperclean", "lls", "ridge"])
    def test_run_scores_equal_standalone_proxy(self, case):
        oracle, start, cfg = case()
        # without an exact capability run() scores every iterate by proxy
        oracle = dataclasses.replace(oracle, exact_inner_opt=None)
        cfg = dataclasses.replace(cfg, max_outer_iters_K=30, kkt_eval_every=1)
        trace = run(oracle, start, cfg)
        assert trace.kkt_variant == "proxy" and len(trace.records) == 30

        point = start.copy()
        velocity = JointGradient(np.zeros(point.m), np.zeros(point.n))
        for rec in trace.records:
            standalone = kkt_proxy(oracle, point, cfg)
            new_point, sol = bome_step(oracle, point, cfg, velocity)
            assert kkt_proxy(oracle, point, cfg, step=sol) == standalone
            assert rec.kkt_value == standalone.total
            point, velocity = new_point, sol.velocity
        assert np.array_equal(point.v, trace.final_point.v)
        assert np.array_equal(point.theta, trace.final_point.theta)

    @pytest.mark.parametrize("case", [_coreset_case, _lls_case, _ridge_case],
                             ids=["coreset", "lls", "ridge"])
    def test_run_scores_equal_standalone_exact(self, case):
        oracle, start, cfg = case()
        cfg = dataclasses.replace(cfg, max_outer_iters_K=30, kkt_eval_every=1)
        trace = run(oracle, start, cfg)
        assert trace.kkt_variant == "exact" and len(trace.records) == 30

        point = start.copy()
        velocity = JointGradient(np.zeros(point.m), np.zeros(point.n))
        for rec in trace.records:
            assert rec.kkt_value == kkt_exact(oracle, point).total
            point, sol = bome_step(oracle, point, cfg, velocity)
            velocity = sol.velocity
        assert np.array_equal(point.v, trace.final_point.v)
        assert np.array_equal(point.theta, trace.final_point.theta)
        assert trace.final_kkt.total == kkt_exact(oracle, point).total


class TestOneConstraint:
    """Both scores form their report from the constraint function the step
    uses, so the exact score against the step's own inner end point as
    theta* is the proxy score, field for field and bit for bit."""

    @pytest.mark.parametrize("case", [
        _coreset_case,
        lambda: _minimax_case(BarrierKind.GRAD_NORM_SQ, 0.0),
        _hyperclean_case,
    ], ids=["coreset", "minimax", "hyperclean"])
    def test_exact_at_theta_T_is_the_proxy(self, case):
        oracle, point, cfg = case()
        for _ in range(3):
            new_point, step = bome_step(oracle, point, cfg)
            theta_T = step.inner_result.theta_T
            # minimax and hyper-cleaning gain the capability here
            pinned = dataclasses.replace(oracle, exact_inner_opt=lambda v: theta_T)
            exact = kkt_exact(pinned, point)
            proxy = kkt_proxy(oracle, point, cfg, step=step)
            assert [getattr(exact, f.name).hex() for f in dataclasses.fields(KktReport)] == \
                [getattr(proxy, f.name).hex() for f in dataclasses.fields(KktReport)]
            point = new_point


    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_g_scale_is_the_size_of_the_two_g_values(self, problem):
        # every score judges its round-off against |g(v, theta)| + |g(v, theta_ref)|,
        # to the bit, for theta_ref = theta* and theta_ref = theta^(T)
        oracle, presets = PROBLEMS[problem][1]({}, 0)
        point, cfg = JointPoint(*presets["default"]), SolverConfig(outer_step_xi=0.01)

        def scale(theta_ref):
            ref = JointPoint(point.v, np.asarray(theta_ref, dtype=float))
            return abs(float(oracle.eval_g(point))) + abs(float(oracle.eval_g(ref)))

        for _ in range(3):
            new_point, sol = bome_step(oracle, point, cfg)
            theta_T = sol.inner_result.theta_T
            assert kkt_proxy(oracle, point, cfg, step=sol).g_scale == scale(theta_T)
            assert kkt_proxy(oracle, point, cfg).g_scale == scale(theta_T)
            exact = oracle if oracle.exact_inner_opt else \
                dataclasses.replace(oracle, exact_inner_opt=lambda v: theta_T)
            assert kkt_exact(exact, point).g_scale == scale(exact.exact_inner_opt(point.v))
            point = new_point


def _hex_fields(report: KktReport) -> list[str]:
    return [getattr(report, f.name).hex() for f in dataclasses.fields(KktReport)]


# minimax far from its optimum, where one outer step at these sizes overflows
FAR = JointPoint([100.0], [100.0])
HUGE_STEPS = {"xi_v": 1e308, "xi_theta": 1e308}


def _far_cfg(**changes) -> SolverConfig:
    return SolverConfig(max_outer_iters_K=50, kkt_eval_every=10, **changes)


class TestProxyTakesNoUpdate:
    """A proxy score without a step runs the step's inner descent and
    constraint and nothing after them, so no outer step, barrier or momentum
    setting reaches it and an update that would overflow cannot fail it."""

    def test_runs_inner_descent_and_no_step(self, monkeypatch):
        calls = {"inner_descent": 0, "bome_step": 0}

        def counted(kind, fn):
            def wrapped(*args, **kwargs):
                calls[kind] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(bome.metrics, "inner_descent",
                            counted("inner_descent", bome.barrier_step.inner_descent))
        monkeypatch.setattr(bome.barrier_step, "bome_step",
                            counted("bome_step", bome.barrier_step.bome_step))
        monkeypatch.setattr(bome.metrics, "bome_step",
                            counted("bome_step", bome.barrier_step.bome_step), raising=False)
        kkt_proxy(minimax_oracle(), FAR, SolverConfig())
        assert calls == {"inner_descent": 1, "bome_step": 0}

    def test_metrics_imports_no_step(self):
        assert not hasattr(bome.metrics, "bome_step")
        assert not hasattr(bome.metrics, "BarrierSolution")

    @pytest.mark.parametrize("changes", [
        HUGE_STEPS,
        {**HUGE_STEPS, "momentum_beta": 0.9},
        {**HUGE_STEPS, "eta": 0.05},
        {**HUGE_STEPS, "barrier_kind": BarrierKind.VALUE},
        {"xi_v": 1e308},
        {"xi_theta": 1e308},
    ], ids=["steps", "momentum", "eta", "barrier", "xi_v", "xi_theta"])
    def test_report_ignores_the_update_settings(self, changes):
        oracle = minimax_oracle()
        report = kkt_proxy(oracle, FAR, _far_cfg(**changes))
        assert _hex_fields(report) == _hex_fields(kkt_proxy(oracle, FAR, _far_cfg()))

    @pytest.mark.parametrize("method", [Method.NAIVE_GDA, Method.OPTIMISTIC_GD])
    def test_baselines_read_no_bome_step_size(self, method):
        # GDA and OGD never read xi_v or xi_theta, so neither may their scores
        oracle = minimax_oracle()
        huge = run(oracle, FAR, _far_cfg(**HUGE_STEPS), method)
        default = run(oracle, FAR, _far_cfg(), method)
        assert huge.termination is default.termination is Termination.MAX_ITERS
        names = [f.name for f in dataclasses.fields(StepDiagnostics)
                 if f.name != "wall_time_micros"]
        assert list(huge.records.rows(names)) == list(default.records.rows(names))
        assert len(huge.records) == 50
        assert np.array_equal(huge.final_point.v, default.final_point.v)
        assert np.array_equal(huge.final_point.theta, default.final_point.theta)
        assert _hex_fields(huge.final_kkt) == _hex_fields(default.final_kkt)

    def test_bome_run_that_overflows_keeps_its_final_score(self):
        # the first update overflows, yet the end point, the start, scores:
        # a final score is None only when it is not finite or a call raised
        oracle = minimax_oracle()
        trace = run(oracle, FAR, _far_cfg(**HUGE_STEPS))
        assert trace.termination is Termination.NUMERICAL_ERROR
        assert len(trace.records) == 0
        assert _hex_fields(trace.final_kkt) == \
            _hex_fields(kkt_proxy(oracle, FAR, _far_cfg(**HUGE_STEPS)))


def _long_T(alpha: float) -> SolverConfig:
    return SolverConfig(inner_step_alpha=alpha, inner_iters_T=100_000)


class TestKktAttraction:
    """The attraction score is the proxy at long T: its reference theta^(T)
    is the minimum of the basin that inner descent reaches from theta."""

    def test_unimodal_matches_exact(self, rng):
        oracle = quadratic_pl_oracle()
        p = JointPoint(rng.standard_normal(2), rng.standard_normal(2))
        att = kkt_proxy(oracle, p, _long_T(0.2))
        exact = kkt_exact(oracle, p)
        assert att.total == pytest.approx(exact.total, rel=1e-6, abs=1e-9)

    def test_double_well_scores_against_local_basin(self):
        # tilted double well: distinct minima near +0.96 (local) and -1.04
        # (global); from theta = 0.5 feasibility must reference the right one
        tilt = 0.3
        oracle = double_well_oracle(tilt=tilt)
        p = JointPoint([0.0], [0.5])
        report = kkt_proxy(oracle, p, _long_T(0.01))

        def g(t):
            return (t * t - 1.0) ** 2 + tilt * t

        roots = np.roots([4.0, 0.0, -4.0, tilt])
        real = np.sort(roots.real[np.abs(roots.imag) < 1e-12])
        right_min, global_min = real[2], real[0]
        assert report.feasibility == pytest.approx(g(0.5) - g(right_min), abs=1e-8)
        assert report.feasibility != pytest.approx(g(0.5) - g(global_min), abs=1e-3)

    def test_zero_feasibility_at_local_minimum(self):
        tilt = 0.3
        oracle = double_well_oracle(tilt=tilt)
        roots = np.roots([4.0, 0.0, -4.0, tilt])
        right_min = np.sort(roots.real[np.abs(roots.imag) < 1e-12])[2]
        report = kkt_proxy(oracle, JointPoint([0.0], [right_min]), _long_T(0.01))
        assert abs(report.feasibility) < 1e-15


class TestMinimaxOptimumScoresZero:
    """At the game's solution (0, 0) every available stationarity variant
    vanishes; the exact variant is deliberately unavailable (the inner
    problem has no minimum for v != 0)."""

    def test_proxy_zero(self):
        oracle = minimax_oracle()
        origin = JointPoint([0.0], [0.0])
        assert kkt_proxy(oracle, origin, SolverConfig()).total == 0.0

    def test_exact_unsupported(self):
        assert minimax_oracle().exact_inner_opt is None
