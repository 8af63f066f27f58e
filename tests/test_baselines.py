import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bome import JointGradient, JointPoint, gda_step, minimax_oracle, ogd_step


def exact_gda_map(v, th, xi):
    # independent 2-D linear map for the bilinear payoff
    return v - xi * th, th + xi * v


def exact_ogd_recursion(v, th, xi, steps):
    pv, pt = None, None
    for _ in range(steps):
        gv, gt = th, v
        if pv is None:
            pv, pt = gv, gt
        v, th, pv, pt = v - 2 * xi * gv + xi * pv, th + 2 * xi * gt - xi * pt, gv, gt
    return v, th


class TestGdaStep:
    def test_single_step(self):
        new = gda_step(minimax_oracle(), JointPoint([1.0], [1.0]), xi=0.1)
        assert new.v[0] == pytest.approx(0.9, rel=1e-15)
        assert new.theta[0] == pytest.approx(1.1, rel=1e-15)

    def test_origin_fixed(self):
        new = gda_step(minimax_oracle(), JointPoint([0.0], [0.0]), xi=0.1)
        assert new.v[0] == 0.0 and new.theta[0] == 0.0

    def test_matches_exact_linear_map_and_diverges(self):
        oracle = minimax_oracle()
        pt = JointPoint([1.0], [1.0])
        ev, et = 1.0, 1.0
        norms = [np.hypot(ev, et)]
        for _ in range(500):
            pt = gda_step(oracle, pt, xi=0.05)
            ev, et = exact_gda_map(ev, et, 0.05)
            assert pt.v[0] == ev and pt.theta[0] == et
            norms.append(np.hypot(ev, et))
        assert all(b > a for a, b in zip(norms, norms[1:]))
        assert norms[-1] > norms[0]

    @settings(max_examples=40, deadline=None)
    @given(
        v0=st.floats(-5.0, 5.0, allow_nan=False),
        t0=st.floats(-5.0, 5.0, allow_nan=False),
    )
    def test_norm_strictly_increases_from_any_nonzero_start(self, v0, t0):
        if abs(v0) < 1e-6 and abs(t0) < 1e-6:
            return
        oracle = minimax_oracle()
        pt = JointPoint([v0], [t0])
        prev = np.hypot(v0, t0)
        for _ in range(50):
            pt = gda_step(oracle, pt, xi=0.05)
            cur = np.hypot(pt.v[0], pt.theta[0])
            assert cur > prev
            prev = cur


class TestOgdStep:
    def test_equal_history_reduces_to_gda(self):
        oracle = minimax_oracle()
        pt = JointPoint([2.0], [-1.0])
        g = oracle.grad_f(pt)
        hist = JointGradient(g.dv.copy(), g.dtheta.copy())
        new, _ = ogd_step(oracle, pt, hist, xi=0.1)
        ref = gda_step(oracle, pt, xi=0.1)
        assert new.v[0] == ref.v[0] and new.theta[0] == ref.theta[0]

    def test_origin_with_no_history_fixed(self):
        new, _ = ogd_step(minimax_oracle(), JointPoint([0.0], [0.0]), None, xi=0.1)
        assert new.v[0] == 0.0 and new.theta[0] == 0.0

    def test_matches_exact_recursion(self):
        oracle = minimax_oracle()
        pt = JointPoint([1.0], [1.0])
        hist = None
        for _ in range(200):
            pt, hist = ogd_step(oracle, pt, hist, xi=0.05)
        ev, et = exact_ogd_recursion(1.0, 1.0, 0.05, 200)
        assert pt.v[0] == ev and pt.theta[0] == et

    def test_converges_to_origin(self):
        # the exact recursion contracts at roughly (1 - xi^2) per step, so
        # 6000 steps at xi = 0.05 land well inside the 1e-2 ball
        oracle = minimax_oracle()
        pt = JointPoint([1.0], [1.0])
        hist = None
        for _ in range(6000):
            pt, hist = ogd_step(oracle, pt, hist, xi=0.05)
        assert np.hypot(pt.v[0], pt.theta[0]) < 1e-2


class TestContrast:
    def test_gda_out_ogd_in(self):
        # the headline qualitative contrast on the bilinear game
        oracle = minimax_oracle()
        gda_pt = JointPoint([1.0], [1.0])
        ogd_pt = JointPoint([1.0], [1.0])
        hist = None
        for _ in range(3000):
            gda_pt = gda_step(oracle, gda_pt, xi=0.05)
        for _ in range(6000):
            ogd_pt, hist = ogd_step(oracle, ogd_pt, hist, xi=0.05)
        assert np.hypot(gda_pt.v[0], gda_pt.theta[0]) > np.sqrt(2.0)
        assert np.hypot(ogd_pt.v[0], ogd_pt.theta[0]) < 1e-2
