import dataclasses
import inspect
import itertools
import math
import struct

import numpy as np
import pytest

from bome import (
    BarrierKind,
    ConfigurationError,
    JointPoint,
    ProblemMetadata,
    SolverConfig,
    StepDiagnostics,
    StepRecords,
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


def _bits(row: StepDiagnostics) -> tuple:
    # floats by their bytes, so -0.0 and 0.0 differ; ints and None as they are
    return tuple(struct.pack("<d", x) if isinstance(x, float) else (type(x), x)
                 for x in dataclasses.astuple(row))


class TestStepRecords:
    EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1)
    WALLS = (2**53 + 1, 10**18, 0, 2**31, 7)

    def rows(self):
        out = []
        for i, (x, wall) in enumerate(zip(self.EXTREMES, self.WALLS)):
            for kkt in (x, None):
                out.append(StepDiagnostics(
                    iter_k=2 * i + (kkt is None), f_value=x, q_hat=-x, lambda_k=x,
                    phi_k=x / 3.0, delta_norm=abs(x), grad_qhat_norm=x, kkt_value=kkt,
                    wall_time_micros=wall))
        return out

    def store(self, rows):
        records = StepRecords()
        for row in rows:
            records.append(*dataclasses.astuple(row))
        return records

    def test_rows_round_trip_bit_for_bit(self):
        rows = self.rows()
        records = self.store(rows)
        assert len(records) == len(rows) == 10
        want = [_bits(row) for row in rows]
        assert [_bits(records[k]) for k in range(len(rows))] == want
        assert [_bits(records[k - len(rows)]) for k in range(len(rows))] == want
        assert [_bits(row) for row in records] == want
        assert [_bits(row) for row in records[2:7]] == want[2:7]
        assert [type(records[k].kkt_value) for k in (0, 1)] == [float, type(None)]
        with pytest.raises(IndexError):
            records[len(rows)]

    def test_append_takes_the_fields_in_order(self):
        # append spells the fields out, as it runs once a step
        params = list(inspect.signature(StepRecords.append).parameters)
        assert params == ["self"] + [f.name for f in dataclasses.fields(StepDiagnostics)]

    def test_columns_read_as_rows_do(self):
        rows = self.rows()
        records = self.store(rows)
        names = ("wall_time_micros", "kkt_value", "iter_k")
        assert list(records.rows(names)) == [tuple(getattr(r, n) for n in names) for r in rows]
        assert list(records.column("kkt_value")) == [r.kkt_value for r in rows]
        assert list(StepRecords().rows()) == []

    def test_reads_between_appends_see_every_step(self):
        # reads on both sides of the 256-step read block, and appends after them
        records, want = StepRecords(), []
        for k in range(700):
            row = (k, k / 7.0, -k, 0.5, 0.25, k * 1e300, 1e-310 * k, None if k % 3 else -k / 3.0,
                   2**62 + k)
            records.append(*row)
            want.append(StepDiagnostics(*row))
            if k in (0, 254, 255, 256, 300, 699):
                assert len(records) == k + 1
                assert records[-1] == want[-1] and records[k // 2] == want[k // 2]
        assert list(records) == want
        assert list(records.column("iter_k")) == list(range(700))

    def test_live_readers_do_not_block_an_append(self):
        # readers partly consumed, still referenced, across more than one block
        rows = self.rows() * 300
        records = self.store(rows)
        reader, kkts = records.rows(), records.column("kkt_value")
        assert list(itertools.islice(reader, 1000)) == [dataclasses.astuple(r) for r in rows[:1000]]
        assert list(itertools.islice(kkts, 3)) == [r.kkt_value for r in rows[:3]]
        records.append(*dataclasses.astuple(rows[5]))
        assert len(records) == len(rows) + 1
        assert [_bits(row) for row in records] == [_bits(row) for row in rows + rows[5:6]]
        assert next(reader) == dataclasses.astuple(rows[1000]) and next(kkts) == rows[3].kkt_value

    def test_reading_a_row_twice_gives_equal_independent_copies(self):
        records = self.store(self.rows())
        first, second = records[3], records[3]
        assert first == second and first is not second
        first.f_value = 42.0
        first.kkt_value = 1.0
        assert records[3] == second and records[3].kkt_value is None


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

    @pytest.mark.parametrize("name", [
        "outer_step_xi", "inner_step_alpha", "xi_v", "xi_theta", "eta", "stop_kkt_tol"])
    def test_infinite_value_rejected(self, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be a finite number > 0"):
            validate_config(SolverConfig(**{name: math.inf}))

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
        for name in ("smoothness_L", "pl_constant_kappa", "bound_M"):
            with pytest.raises(ValueError):
                ProblemMetadata(**{name: math.inf})


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
            grad = oracle.grad_g_theta(v, theta_star)
            assert np.linalg.norm(grad) < 1e-8
