import numpy as np
import pytest

from bome import (
    BarrierKind,
    ConfigurationError,
    JointPoint,
    ProblemMetadata,
    SolverConfig,
    coreset_oracle,
    make_synthetic_ridge,
    minimax_oracle,
    ridge_oracle,
    run,
    validate_config,
)
from conftest import quadratic_pl_oracle


class TestJointPoint:
    def test_dims(self):
        p = JointPoint([1.0, 2.0], [3.0])
        assert p.m == 2 and p.n == 1

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            JointPoint([np.nan], [1.0])
        with pytest.raises(ValueError):
            JointPoint([1.0], [np.inf, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            JointPoint(np.zeros(0), [1.0])

    def test_copy_is_independent(self):
        p = JointPoint([1.0], [2.0])
        q = p.copy()
        q.v[0] = 7.0
        assert p.v[0] == 1.0


class TestSolverConfigDefaults:
    def test_recommended_defaults(self):
        cfg = SolverConfig()
        assert cfg.eta == 0.5
        assert cfg.inner_iters_T == 10
        assert cfg.barrier_kind is BarrierKind.GRAD_NORM_SQ
        assert cfg.momentum_beta == 0.0

    def test_alpha_defaults_to_xi(self):
        cfg = SolverConfig(outer_step_xi=0.123)
        assert cfg.inner_step_alpha == 0.123

    def test_separate_steps(self):
        cfg = SolverConfig(outer_step_xi=0.3, xi_v=1.0)
        assert cfg.xi_v == 1.0 and cfg.xi_theta == cfg.outer_step_xi == 0.3


class TestValidateConfig:
    def test_steps_within_theory_bound_no_warnings(self):
        cfg = SolverConfig(outer_step_xi=0.05, inner_step_alpha=0.05)
        assert validate_config(cfg, ProblemMetadata(smoothness_L=2.0)) == []

    def test_no_metadata_no_warnings(self):
        assert validate_config(SolverConfig()) == []

    def test_xi_above_bound_warns(self):
        cfg = SolverConfig(outer_step_xi=1.0, inner_step_alpha=0.1)
        warnings = validate_config(cfg, ProblemMetadata(smoothness_L=4.0))
        assert len(warnings) == 1
        assert "xi > 1/L" in warnings[0]

    def test_alpha_above_bound_warns(self):
        cfg = SolverConfig(outer_step_xi=0.1, inner_step_alpha=1.0)
        warnings = validate_config(cfg, ProblemMetadata(smoothness_L=4.0))
        assert any("alpha > 1/L" in w for w in warnings)

    def test_negative_xi_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_config(SolverConfig(outer_step_xi=-0.1))

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ConfigurationError, match="eta"):
            validate_config(SolverConfig(eta=0.0))

    def test_all_violations_reported(self):
        cfg = SolverConfig(outer_step_xi=-1.0, eta=-2.0, inner_iters_T=-3)
        with pytest.raises(ConfigurationError) as exc:
            validate_config(cfg)
        msg = str(exc.value)
        assert "outer_step_xi" in msg and "eta" in msg and "inner_iters_T" in msg

    def test_momentum_range(self):
        with pytest.raises(ConfigurationError):
            validate_config(SolverConfig(momentum_beta=1.0))

    @pytest.mark.parametrize("barrier", [None, 3, ["gradnorm"]], ids=["None", "int", "list"])
    def test_unknown_barrier_rejected(self, barrier):
        # not silently the value barrier: validation, and so run(), refuse it
        cfg = SolverConfig(barrier_kind=barrier)
        with pytest.raises(ConfigurationError, match="barrier must be 'gradnorm' or 'value'"):
            validate_config(cfg)
        with pytest.raises(ConfigurationError, match="barrier"):
            run(minimax_oracle(), JointPoint([1.0], [1.0]), cfg)


class TestMetadata:
    def test_positive_constants_enforced(self):
        with pytest.raises(ValueError):
            ProblemMetadata(smoothness_L=-1.0)
        with pytest.raises(ValueError):
            ProblemMetadata(pl_constant_kappa=0.0)


class TestDeclaredInnerOptimum:
    """Oracles exposing a closed-form inner minimizer must actually be
    stationary there: ||grad_theta g(v, theta*(v))|| < 1e-8 on random draws."""

    @pytest.mark.parametrize(
        "make,m",
        [
            (coreset_oracle, 4),
            (quadratic_pl_oracle, 2),
            (lambda: ridge_oracle(make_synthetic_ridge(seed=3)), 5),
        ],
        ids=["coreset", "quadratic", "ridge"],
    )
    def test_stationarity_of_exact_inner_opt(self, make, m, rng):
        oracle = make()
        for _ in range(100):
            v = rng.standard_normal(m) * 0.5
            theta_star = np.asarray(oracle.exact_inner_opt(v), dtype=float)
            grad = oracle.inner_grad(v, theta_star)
            assert np.linalg.norm(grad) < 1e-8
