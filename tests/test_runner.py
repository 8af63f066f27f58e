import dataclasses
import math

import numpy as np
import pytest

from bome import (
    JointPoint,
    Method,
    NumericalError,
    SolverConfig,
    Termination,
    coreset_oracle,
    lls_oracle,
    minimax_oracle,
    run,
    running_min_kkt,
)
from conftest import brute_simplex_projection, quadratic_pl_oracle


class TestRun:
    def test_single_iteration_trace(self):
        oracle = quadratic_pl_oracle()
        cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=1)
        start = JointPoint([2.0, -1.0], [3.0, 3.0])
        trace = run(oracle, start, cfg)
        assert len(trace.records) == 1
        rec = trace.records[0]
        assert rec.iter_k == 0
        # with a uniform step the move is exactly xi * ||delta_0||
        moved = np.linalg.norm(
            np.concatenate(
                [trace.final_point.v - start.v, trace.final_point.theta - start.theta]
            )
        )
        assert moved <= cfg.outer_step_xi * rec.delta_norm * (1.0 + 1e-12)
        assert trace.termination is Termination.MAX_ITERS

    def test_record_iters_strictly_increasing(self):
        oracle = quadratic_pl_oracle()
        trace = run(oracle, JointPoint([1.0, 1.0], [0.0, 0.0]), SolverConfig(max_outer_iters_K=25))
        ks = [r.iter_k for r in trace.records]
        assert ks == sorted(set(ks))

    def test_minimax_bome_converges(self):
        oracle = minimax_oracle()
        cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=2000, kkt_eval_every=100)
        trace = run(oracle, JointPoint([1.0], [1.0]), cfg)
        fp = trace.final_point
        assert np.hypot(fp.v[0], fp.theta[0]) < 1e-2
        assert trace.final_kkt.total < 1e-3
        assert trace.kkt_variant == "proxy"
        assert trace.dist_to_known_opt < 1e-2

    def test_known_optimum_distance_is_the_joint_norm(self):
        # math.sqrt of the blockwise sum of squares, as JointGradient.norm; at
        # this K a numpy ** 0.5 of the same sum is one ulp away
        cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=452)
        trace = run(minimax_oracle(), JointPoint([1.0], [1.0]), cfg)
        v, theta = trace.final_point.v[0], trace.final_point.theta[0]
        assert trace.dist_to_known_opt == math.sqrt(v * v + theta * theta)

    def test_coreset_reaches_brute_force_optimum(self):
        oracle = coreset_oracle()
        cfg = SolverConfig(
            outer_step_xi=0.002,
            inner_step_alpha=0.05,
            inner_iters_T=10,
            xi_v=1.0,
            xi_theta=0.002,
            momentum_beta=0.9,
            max_outer_iters_K=5000,
            kkt_eval_every=25,
        )
        trace = run(oracle, JointPoint(np.zeros(4), [0.0, 3.0]), cfg)
        theta_opt, _ = brute_simplex_projection(
            np.array([3.0, -2.0]), np.array([[1.0, 3.0, -2.0, -3.0], [3.0, 1.0, 2.0, 2.0]])
        )
        assert np.linalg.norm(trace.final_point.theta - theta_opt) < 1e-2

    def test_coreset_uniform_step_distance_floor(self):
        # at a uniform step xi the multiplier is capped near 1/xi - 1, so the
        # iterate stalls about xi * ||x0 - theta*|| from the hull-vertex
        # optimum (README, "Boundary optima and step sizes")
        x0 = np.array([3.0, -2.0])
        theta_opt, _ = brute_simplex_projection(
            x0, np.array([[1.0, 3.0, -2.0, -3.0], [3.0, 1.0, 2.0, 2.0]])
        )
        xi = 0.05
        floor = xi * np.linalg.norm(x0 - theta_opt)
        for theta0 in ([0.0, 3.0], [-3.0, 1.0], [3.5, 1.0]):
            cfg = SolverConfig(
                outer_step_xi=xi,
                inner_step_alpha=xi,
                inner_iters_T=10,
                eta=0.5,
                max_outer_iters_K=1000,
                kkt_eval_every=1000,
            )
            trace = run(coreset_oracle(), JointPoint(np.zeros(4), theta0), cfg)
            dist = np.linalg.norm(trace.final_point.theta - theta_opt)
            assert abs(dist - floor) < 0.1 * floor, (theta0, dist, floor)

    def test_kkt_eval_cadence(self):
        oracle = quadratic_pl_oracle()
        cfg = SolverConfig(outer_step_xi=0.01, max_outer_iters_K=25, kkt_eval_every=10)
        trace = run(oracle, JointPoint([1.0, 1.0], [2.0, 2.0]), cfg)
        evaluated = [r.iter_k for r in trace.records if r.kkt_value is not None]
        assert evaluated == [0, 10, 20, 24]  # every 10 plus the final record

    def test_exact_variant_preferred(self):
        oracle = quadratic_pl_oracle()
        trace = run(oracle, JointPoint([1.0, 1.0], [2.0, 2.0]), SolverConfig(max_outer_iters_K=5))
        assert trace.kkt_variant == "exact"

    def test_lls_uses_exact_value_variant(self):
        trace = run(lls_oracle(), JointPoint([0.0], [0.0, 3.0]), SolverConfig(max_outer_iters_K=5))
        assert trace.kkt_variant == "exact"

    def test_lls_generic_start_converges_below_critical_step(self):
        # the theta_1 - v mode contracts by |1 - 4*xi| per iteration, so any
        # xi < 0.5 converges from starts with theta_1 != v (at exactly 0.5
        # that mode only oscillates; the acceptance run starts on the mode's
        # zero set instead)
        oracle = lls_oracle()
        cfg = SolverConfig(
            outer_step_xi=0.4, inner_step_alpha=0.4, inner_iters_T=10,
            max_outer_iters_K=300, kkt_eval_every=100,
        )
        trace = run(oracle, JointPoint([0.0], [2.0, 3.0]), cfg)
        fp = trace.final_point
        assert oracle.eval_f(fp) < 1e-8
        assert abs(fp.theta[0] - fp.v[0]) < 1e-6
        assert abs(fp.theta[1] - 1.0) < 1e-6
        assert trace.final_kkt.total < 1e-3
        mins = [v for _, v in running_min_kkt(trace)]
        assert all(b <= a for a, b in zip(mins, mins[1:]))

    def test_early_stop_on_kkt_tolerance(self):
        oracle = minimax_oracle()
        cfg = SolverConfig(
            outer_step_xi=0.05, max_outer_iters_K=5000, kkt_eval_every=10, stop_kkt_tol=1e-6
        )
        trace = run(oracle, JointPoint([1.0], [1.0]), cfg)
        assert trace.termination is Termination.KKT_TOL
        assert len(trace.records) < 5000
        assert trace.records[-1].kkt_value < 1e-6
        assert trace.final_kkt.total < 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_blowup_keeps_partial_trace(self):
        oracle = quadratic_pl_oracle()
        cfg = SolverConfig(outer_step_xi=1e3, max_outer_iters_K=2000, kkt_eval_every=500)
        trace = run(oracle, JointPoint([1.0, 1.0], [2.0, 2.0]), cfg)
        assert trace.termination is Termination.NUMERICAL_ERROR
        assert 0 < len(trace.records) < 2000
        assert np.all(np.isfinite(trace.final_point.v))

    def test_deterministic_traces(self):
        def go():
            oracle = coreset_oracle()
            cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=200, kkt_eval_every=20)
            return run(oracle, JointPoint(np.zeros(4), [0.0, 3.0]), cfg)

        a, b = go(), go()
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.f_value == rb.f_value
            assert ra.q_hat == rb.q_hat
            assert ra.lambda_k == rb.lambda_k
            assert ra.phi_k == rb.phi_k
            assert ra.delta_norm == rb.delta_norm
            assert ra.kkt_value == rb.kkt_value
        assert np.array_equal(a.final_point.theta, b.final_point.theta)

    def test_baseline_methods_run(self):
        oracle = minimax_oracle()
        cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=600, kkt_eval_every=200)
        gda = run(oracle, JointPoint([1.0], [1.0]), cfg, Method.NAIVE_GDA)
        ogd = run(oracle, JointPoint([1.0], [1.0]), cfg, Method.OPTIMISTIC_GD)
        assert len(gda.records) == len(ogd.records) == 600
        assert gda.method is Method.NAIVE_GDA
        # GDA spirals out, OGD heads in
        start_norm = np.sqrt(2.0)
        assert np.hypot(gda.final_point.v[0], gda.final_point.theta[0]) > start_norm
        assert np.hypot(ogd.final_point.v[0], ogd.final_point.theta[0]) < start_norm

    def test_method_accepts_string(self):
        oracle = minimax_oracle()
        cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=3)
        trace = run(oracle, JointPoint([1.0], [1.0]), cfg, "gda")
        assert trace.method is Method.NAIVE_GDA


class TestOracleCalls:
    @pytest.mark.parametrize("K", [1, 40])
    def test_proxy_scored_bome_run_call_formula(self, K):
        # each step runs T inner steps and scores its own iterate from the
        # step's plug-in quantities; only the final score runs its own inner
        # descent (minimax never exits inner descent early from (1, 1))
        calls = dict.fromkeys(["eval_f", "grad_f", "eval_g", "grad_g", "grad_g_theta"], 0)

        def counted(kind, fn):
            def wrapped(*args):
                calls[kind] += 1
                return fn(*args)
            return wrapped

        oracle = minimax_oracle()
        oracle = dataclasses.replace(
            oracle, **{kind: counted(kind, getattr(oracle, kind)) for kind in calls}
        )
        cfg = SolverConfig(inner_iters_T=10, max_outer_iters_K=K, kkt_eval_every=1)
        trace = run(oracle, JointPoint([1.0], [1.0]), cfg)
        assert len(trace.records) == K
        assert all(r.kkt_value is not None for r in trace.records)
        assert calls == {
            "eval_f": K + 1,
            "grad_f": K + 1,
            "eval_g": 2 * (K + 1),
            "grad_g": 2 * (K + 1),
            "grad_g_theta": 10 * (K + 1),
        }

    def test_proxy_scored_gda_run_call_formula(self):
        # K = 3 GDA steps, each scored: per scored iterate one BOME step's
        # calls (10 grad_g_theta, 2 eval_g, 2 grad_g, 1 grad_f) plus GDA's own
        # grad_f and eval_f; the final point adds one score and one eval_f
        calls = dict.fromkeys(["eval_f", "grad_f", "eval_g", "grad_g", "grad_g_theta"], 0)

        def counted(kind, fn):
            def wrapped(*args):
                calls[kind] += 1
                return fn(*args)
            return wrapped

        oracle = minimax_oracle()
        oracle = dataclasses.replace(
            oracle, **{kind: counted(kind, getattr(oracle, kind)) for kind in calls}
        )
        cfg = SolverConfig(inner_iters_T=10, max_outer_iters_K=3, kkt_eval_every=1)
        trace = run(oracle, JointPoint([1.0], [1.0]), cfg, Method.NAIVE_GDA)
        assert all(r.kkt_value is not None for r in trace.records)
        assert trace.final_kkt is not None and len(trace.records) == 3
        assert calls == {"eval_f": 4, "grad_f": 7, "eval_g": 8, "grad_g": 8, "grad_g_theta": 40}


def fail_from_call(fn, first_bad_call, fault):
    """Wrap ``fn`` so that its calls from ``first_bad_call`` on raise a
    NumericalError (``fault="raise"``) or return NaN (``fault="nan"``)."""
    calls = 0

    def wrapped(*args):
        nonlocal calls
        calls += 1
        out = fn(*args)
        if calls < first_bad_call:
            return out
        if fault == "raise":
            raise NumericalError("injected failure")
        return np.full_like(np.asarray(out, dtype=float), np.nan)

    return wrapped


class TestFailuresEndTheRun:
    """A failure ends the run as NUMERICAL_ERROR and keeps the trace up to the
    failing iterate; no non-finite value reaches a record."""

    START = JointPoint(np.zeros(4), [0.0, 3.0])

    @pytest.mark.parametrize("fault", ["raise", "nan"])
    def test_failing_score_mid_run(self, fault):
        # the scores at iterates 0 and 10 succeed, the one at 20 fails
        oracle = coreset_oracle()
        oracle = dataclasses.replace(
            oracle, exact_inner_opt=fail_from_call(oracle.exact_inner_opt, 3, fault)
        )
        cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=100, kkt_eval_every=10)
        trace = run(oracle, self.START, cfg)
        assert trace.termination is Termination.NUMERICAL_ERROR
        assert [r.iter_k for r in trace.records] == list(range(20))
        scored = [r for r in trace.records if r.kkt_value is not None]
        assert [r.iter_k for r in scored] == [0, 10]
        assert all(np.isfinite(r.kkt_value) for r in scored)
        assert trace.final_kkt is None

    def test_non_finite_f_mid_run(self):
        oracle = coreset_oracle()
        oracle = dataclasses.replace(oracle, eval_f=fail_from_call(oracle.eval_f, 6, "nan"))
        cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=100, kkt_eval_every=10)
        trace = run(oracle, self.START, cfg)
        assert trace.termination is Termination.NUMERICAL_ERROR
        assert len(trace.records) == 5
        assert all(np.isfinite(r.f_value) for r in trace.records)
        assert trace.final_f is None

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_non_finite_grad_f_mid_run(self, momentum):
        # grad_f turns NaN in its v block from step 5 on (one grad_f call per
        # minimax step); the NaN direction makes the new iterate non-finite
        oracle = minimax_oracle()
        clean_grad_f, calls = oracle.grad_f, 0

        def grad_f(p):
            nonlocal calls
            calls += 1
            g = clean_grad_f(p)
            if calls > 5:
                g.dv[:] = np.nan
            return g

        oracle = dataclasses.replace(oracle, grad_f=grad_f)
        cfg = SolverConfig(outer_step_xi=0.05, momentum_beta=momentum,
                           max_outer_iters_K=50, kkt_eval_every=100)
        trace = run(oracle, JointPoint([1.0], [1.0]), cfg)
        assert trace.termination is Termination.NUMERICAL_ERROR
        assert [r.iter_k for r in trace.records] == list(range(5))
        assert all(np.isfinite(r.delta_norm) for r in trace.records)
        assert np.isfinite(trace.final_point.v).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_norm_mid_run(self):
        # GDA's iterate norm grows until the direction norm overflows while f
        # is still finite; sparse scoring leaves no score to fail first
        cfg = SolverConfig(outer_step_xi=0.5, max_outer_iters_K=8000, kkt_eval_every=8000)
        trace = run(minimax_oracle(), JointPoint([1.0], [1.0]), cfg, Method.NAIVE_GDA)
        assert trace.termination is Termination.NUMERICAL_ERROR
        floats = ("f_value", "q_hat", "lambda_k", "phi_k", "delta_norm", "grad_qhat_norm")
        assert all(np.isfinite(getattr(r, name)) for r in trace.records for name in floats)


class TestRunningMinKkt:
    def test_non_increasing(self):
        oracle = quadratic_pl_oracle()
        cfg = SolverConfig(outer_step_xi=0.02, max_outer_iters_K=200, kkt_eval_every=10)
        trace = run(oracle, JointPoint([2.0, -1.0], [3.0, 3.0]), cfg)
        mins = running_min_kkt(trace)
        vals = [v for _, v in mins]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert len(mins) >= 2

    def test_singleton(self):
        oracle = quadratic_pl_oracle()
        cfg = SolverConfig(outer_step_xi=0.02, max_outer_iters_K=1, kkt_eval_every=1)
        trace = run(oracle, JointPoint([1.0, 0.0], [1.0, 1.0]), cfg)
        mins = running_min_kkt(trace)
        assert len(mins) == 1

    def test_empty_evaluations_error(self):
        oracle = quadratic_pl_oracle()
        cfg = SolverConfig(outer_step_xi=0.02, max_outer_iters_K=3, kkt_eval_every=1)
        trace = run(oracle, JointPoint([1.0, 0.0], [1.0, 1.0]), cfg)
        for rec in trace.records:
            rec.kkt_value = None
        with pytest.raises(ValueError):
            running_min_kkt(trace)
