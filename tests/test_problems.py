import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bome import (
    BilevelOracle,
    JointPoint,
    coreset_oracle,
    CoresetProblem,
    HypercleanProblem,
    export_dataset_csv,
    hyperclean_oracle,
    inner_descent,
    lls_oracle,
    make_synthetic_hyperclean,
    make_synthetic_ridge,
    minimax_oracle,
    RidgeRegProblem,
    ridge_oracle,
    run,
    softmax,
    softmax_jacobian,
    SolverConfig,
    StepDiagnostics,
)
from bome.cli import PROBLEMS
from bome.gradcheck import check_oracle_gradients
from bome.problems import _keyed_memo
from conftest import brute_simplex_projection

vec4 = st.lists(st.floats(-30.0, 30.0, allow_nan=False), min_size=4, max_size=4).map(np.array)


class TestSoftmax:
    def test_uniform_on_zeros(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), 0.25 * np.ones(4), rtol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(v=vec4, t=st.floats(-500.0, 500.0, allow_nan=False))
    def test_shift_invariance_and_simplex(self, v, t):
        s = softmax(v)
        assert s.min() > 0.0
        assert s.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(softmax(v + t), s, rtol=1e-9, atol=1e-15)

    def test_one_hot_matches_high_precision_reference(self):
        # mpmath at 50 digits: exp(1)/(exp(1)+3) and 1/(exp(1)+3)
        s = softmax(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            s,
            [
                0.4753668864186717,
                0.17487770452710943,
                0.17487770452710943,
                0.17487770452710943,
            ],
            rtol=1e-15,
        )

    def test_jacobian_rows_sum_to_zero(self, rng):
        s = softmax(rng.standard_normal(4))
        J = softmax_jacobian(s)
        np.testing.assert_allclose(J.sum(axis=1), np.zeros(4), atol=1e-15)
        np.testing.assert_allclose(J, J.T, atol=0)

    def test_jacobian_bits_match_diag_minus_outer(self, rng):
        for n in (1, 2, 4, 7):
            for _ in range(500):
                s = softmax(3.0 * rng.standard_normal(n))
                want = np.diag(s) - np.outer(s, s)
                assert softmax_jacobian(s).tobytes() == want.tobytes()


class TestCoreset:
    def test_default_geometry(self):
        prob = CoresetProblem()
        np.testing.assert_array_equal(prob.target_x0, [3.0, -2.0])
        np.testing.assert_array_equal(
            prob.vertices_X, np.array([[1.0, 3.0, -2.0, -3.0], [3.0, 1.0, 2.0, 2.0]])
        )

    def test_inner_opt_at_zero_is_vertex_mean(self):
        oracle = coreset_oracle()
        np.testing.assert_allclose(oracle.exact_inner_opt(np.zeros(4)), [-0.25, 2.0], rtol=1e-15)

    def test_gradcheck(self, rng):
        oracle = coreset_oracle()
        pts = [JointPoint(rng.standard_normal(4), rng.standard_normal(2)) for _ in range(20)]
        reports = check_oracle_gradients(oracle, pts)
        assert reports["f"].passed and reports["g"].passed

    @settings(max_examples=50, deadline=None)
    @given(v=vec4)
    def test_inner_opt_stays_in_hull(self, v):
        # X sigma(v) is a strict convex combination of the vertices
        oracle = coreset_oracle()
        s = softmax(v)
        target = oracle.exact_inner_opt(v)
        np.testing.assert_allclose(target, CoresetProblem().vertices_X @ s, rtol=1e-12)
        assert s.min() > 0.0 and s.sum() == pytest.approx(1.0, abs=1e-12)

    def test_brute_force_projection_is_the_near_vertex(self):
        # independent oracle: dense simplex grid plus pairwise refinement
        prob = CoresetProblem()
        theta_opt, weights = brute_simplex_projection(prob.target_x0, prob.vertices_X)
        np.testing.assert_allclose(theta_opt, [3.0, 1.0], atol=1e-9)
        assert weights[1] == pytest.approx(1.0, abs=1e-9)


class TestMinimax:
    def test_values(self):
        oracle = minimax_oracle()
        p = JointPoint([1.0], [2.0])
        assert oracle.eval_f(p) == 2.0
        assert oracle.eval_g(p) == -2.0

    def test_grad_f_at_origin(self):
        g = minimax_oracle().grad_f(JointPoint([0.0], [0.0]))
        assert g.norm() == 0.0

    def test_gradcheck(self, rng):
        oracle = minimax_oracle()
        pts = [JointPoint(rng.standard_normal(1), rng.standard_normal(1)) for _ in range(20)]
        reports = check_oracle_gradients(oracle, pts, rel_tol=1e-6)
        assert reports["f"].passed and reports["g"].passed


class TestDegenerateLLS:
    def test_f_zero_at_reported_solution(self):
        oracle = lls_oracle()
        assert oracle.eval_f(JointPoint([1.0], [1.0, 1.0])) == 0.0

    def test_inner_zero_on_minimizer_line(self, rng):
        oracle = lls_oracle()
        for _ in range(10):
            v = rng.standard_normal(1)
            theta = np.array([v[0], rng.standard_normal()])
            assert oracle.eval_g(JointPoint(v, theta)) == 0.0

    def test_exact_value_function(self, rng):
        # the exact inner minimizer lies on the line theta_1 = v, where the
        # value function g and its v-gradient both vanish
        oracle = lls_oracle()
        for v in [np.array([2.0])] + [rng.standard_normal(1) for _ in range(5)]:
            theta_star = oracle.exact_inner_opt(v)
            assert theta_star[0] == v[0]
            at_star = JointPoint(v, theta_star)
            assert oracle.eval_g(at_star) == 0.0
            np.testing.assert_array_equal(oracle.grad_g(at_star).dv, np.zeros(1))

    def test_gradcheck(self, rng):
        oracle = lls_oracle()
        pts = [JointPoint(rng.standard_normal(1), rng.standard_normal(2)) for _ in range(20)]
        reports = check_oracle_gradients(oracle, pts, rel_tol=1e-6)
        assert reports["f"].passed and reports["g"].passed


class TestHyperclean:
    def test_generator_shapes_and_balance(self):
        prob = make_synthetic_hyperclean(seed=0, m_tr=40, m_val=20, p=6, corrupt_frac=0.25)
        assert prob.train_features.shape == (40, 6)
        assert prob.val_features.shape == (20, 6)
        assert prob.corruption_mask.sum() == 10
        # balanced before corruption: flipping keeps both classes present
        assert set(np.unique(prob.train_labels)) == {0, 1}

    def test_generator_deterministic(self):
        a = make_synthetic_hyperclean(seed=7, m_tr=30, m_val=10, p=4, corrupt_frac=0.3)
        b = make_synthetic_hyperclean(seed=7, m_tr=30, m_val=10, p=4, corrupt_frac=0.3)
        assert np.array_equal(a.train_features, b.train_features)
        assert np.array_equal(a.train_labels, b.train_labels)
        assert np.array_equal(a.corruption_mask, b.corruption_mask)
        c = make_synthetic_hyperclean(seed=8, m_tr=30, m_val=10, p=4, corrupt_frac=0.3)
        assert not np.array_equal(a.train_features, c.train_features)

    def test_corrupted_labels_really_differ(self):
        prob = make_synthetic_hyperclean(seed=1, m_tr=50, m_val=20, p=4, corrupt_frac=0.4)
        clean = make_synthetic_hyperclean(seed=1, m_tr=50, m_val=20, p=4, corrupt_frac=0.0)
        flipped = prob.train_labels != clean.train_labels
        assert np.array_equal(flipped, prob.corruption_mask)

    def test_full_weights_no_ridge_equals_plain_sum(self, rng):
        prob = make_synthetic_hyperclean(seed=2, m_tr=20, m_val=10, p=3, corrupt_frac=0.2)
        prob.ridge_c = 0.0
        oracle = hyperclean_oracle(prob)
        theta = 0.1 * rng.standard_normal(prob.theta_dim)
        v_ones = np.ones(prob.n_train)
        g_weighted = oracle.eval_g(JointPoint(v_ones, theta))
        # independent unweighted sum of per-sample cross-entropies
        X = np.hstack([prob.train_features, np.ones((20, 1))])
        scores = X @ theta.reshape(-1, prob.n_classes)
        shifted = scores - scores.max(axis=1, keepdims=True)
        losses = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(20), prob.train_labels]
        assert g_weighted == pytest.approx(float(losses.sum()), rel=1e-12)

    def test_clip_subgradient_zero_at_exact_boundaries(self, rng):
        # derivative convention: indicator of v_i strictly inside (0, 1)
        prob = make_synthetic_hyperclean(seed=3, m_tr=20, m_val=10, p=3, corrupt_frac=0.2)
        oracle = hyperclean_oracle(prob)
        theta = 0.2 * rng.standard_normal(prob.theta_dim)
        v = np.full(20, 0.5)
        v[0], v[1] = 0.0, 1.0  # exactly at the kinks
        g = oracle.grad_g(JointPoint(v, theta))
        assert g.dv[0] == 0.0 and g.dv[1] == 0.0
        assert np.all(g.dv[2:] != 0.0)

    def test_weights_clipped_out_leaves_only_ridge(self, rng):
        prob = make_synthetic_hyperclean(seed=3, m_tr=20, m_val=10, p=3, corrupt_frac=0.2)
        oracle = hyperclean_oracle(prob)
        theta = rng.standard_normal(prob.theta_dim)
        v_neg = -np.abs(rng.standard_normal(prob.n_train)) - 0.1
        g = oracle.grad_g(JointPoint(v_neg, theta))
        np.testing.assert_allclose(g.dtheta, 2.0 * prob.ridge_c * theta, rtol=1e-12)
        np.testing.assert_array_equal(g.dv, np.zeros(prob.n_train))

    def test_gradcheck_inside_clip_interval(self, rng):
        prob = make_synthetic_hyperclean(seed=4, m_tr=20, m_val=12, p=3, corrupt_frac=0.2)
        oracle = hyperclean_oracle(prob)
        pts = [
            JointPoint(rng.uniform(0.2, 0.8, 20), 0.3 * rng.standard_normal(prob.theta_dim))
            for _ in range(6)
        ]
        reports = check_oracle_gradients(oracle, pts, h=1e-6)
        assert reports["f"].passed and reports["g"].passed

    def test_inner_descent_monotone(self, rng):
        prob = make_synthetic_hyperclean(seed=5, m_tr=30, m_val=10, p=4, corrupt_frac=0.3)
        oracle = hyperclean_oracle(prob)
        v = 0.5 * np.ones(30)
        theta = np.zeros(prob.theta_dim)
        values = [oracle.eval_g(JointPoint(v, theta))]
        for _ in range(30):
            theta = inner_descent(oracle, v, theta, 1, 1e-2).theta_T
            values.append(oracle.eval_g(JointPoint(v, theta)))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_degenerate_split_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            make_synthetic_hyperclean(seed=0, m_tr=2, m_val=2, p=2, corrupt_frac=0.5)

    @pytest.mark.parametrize("n_classes", [2, 3, 7, 8, 11])
    def test_oracle_matches_row_reduction_formula_bit_for_bit(self, rng, n_classes):
        # the oracle reduces the class axis column by column; the reference is
        # the plain row-reduction formula, and every output must keep its bits
        def split(m):
            return rng.standard_normal((m, 4)), rng.permutation(np.arange(m) % n_classes)

        (x_tr, y_tr), (x_val, y_val) = split(60), split(40)
        prob = HypercleanProblem(x_tr, y_tr, x_val, y_val, ridge_c=0.01)
        oracle = hyperclean_oracle(prob)
        xa_tr = np.hstack([x_tr, np.ones((60, 1))])
        xa_val = np.hstack([x_val, np.ones((40, 1))])
        onehot_tr, onehot_val = np.eye(n_classes)[y_tr], np.eye(n_classes)[y_val]

        def logistic_losses(x_aug, labels, theta_mat):
            scores = x_aug @ theta_mat
            scores = scores - scores.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(scores).sum(axis=1))
            losses = log_z - scores[np.arange(labels.size), labels]
            probs = np.exp(scores - log_z[:, None])
            return losses, probs

        for scale in (0.01, 1.0, 30.0):
            for _ in range(5):
                v = rng.uniform(-0.5, 1.5, 60)
                theta = scale * rng.standard_normal(prob.theta_dim)
                theta_mat = theta.reshape(5, n_classes)
                w = np.clip(v, 0.0, 1.0)
                p = JointPoint(v, theta)
                val_losses, val_probs = logistic_losses(xa_val, y_val, theta_mat)
                tr_losses, tr_probs = logistic_losses(xa_tr, y_tr, theta_mat)
                g_theta = (xa_tr.T @ (w[:, None] * (tr_probs - onehot_tr))).ravel() + 0.02 * theta
                assert oracle.eval_f(p) == float(val_losses.mean())
                assert np.array_equal(oracle.grad_f(p).dtheta,
                                      (xa_val.T @ (val_probs - onehot_val) / 40).ravel())
                assert oracle.eval_g(p) == float(w @ tr_losses + 0.01 * (theta @ theta))
                g = oracle.grad_g(p)
                assert np.array_equal(g.dv, np.where((v > 0.0) & (v < 1.0), tr_losses, 0.0))
                assert np.array_equal(g.dtheta, g_theta)
                assert np.array_equal(oracle.grad_g_theta(v, theta), g_theta)

    def test_oracle_bits_at_benchmark_size(self, rng):
        # BLAS blocks a 3000-row product differently than a 60-row one, so the
        # bits are pinned again at the hyperclean-large size (C = 2)
        prob = make_synthetic_hyperclean(seed=0, m_tr=3000, m_val=300, p=10, corrupt_frac=0.3)
        oracle = hyperclean_oracle(prob)
        xa_tr = np.hstack([prob.train_features, np.ones((3000, 1))])
        xa_val = np.hstack([prob.val_features, np.ones((300, 1))])

        def logistic_losses(x_aug, labels, theta_mat):
            # sample-major reference: scores (m, C), reduced along each row
            scores = x_aug @ theta_mat
            scores = scores - scores.max(axis=1, keepdims=True)
            log_z = np.log(np.exp(scores).sum(axis=1))
            losses = log_z - scores[np.arange(labels.size), labels]
            residual = np.exp(scores - log_z[:, None]) - np.eye(2)[labels]
            return losses, residual

        for scale in (0.01, 1.0, 30.0):
            v = rng.uniform(-0.5, 1.5, 3000)
            theta = scale * rng.standard_normal(prob.theta_dim)
            theta_mat = theta.reshape(11, 2)
            w = np.clip(v, 0.0, 1.0)
            p = JointPoint(v, theta)
            val_losses, val_resid = logistic_losses(xa_val, prob.val_labels, theta_mat)
            tr_losses, tr_resid = logistic_losses(xa_tr, prob.train_labels, theta_mat)
            g_theta = (xa_tr.T @ (w[:, None] * tr_resid)).ravel() + 2.0 * prob.ridge_c * theta
            assert oracle.eval_f(p) == float(val_losses.mean())
            assert np.array_equal(oracle.grad_f(p).dtheta, (xa_val.T @ val_resid / 300).ravel())
            assert oracle.eval_g(p) == float(w @ tr_losses + prob.ridge_c * (theta @ theta))
            g = oracle.grad_g(p)
            assert np.array_equal(g.dv, np.where((v > 0.0) & (v < 1.0), tr_losses, 0.0))
            assert np.array_equal(g.dtheta, g_theta)
            assert np.array_equal(oracle.grad_g_theta(v, theta), g_theta)

    @pytest.mark.parametrize("train_x, train_y, val_x, val_y, match", [
        (np.zeros((5, 2)), [0, 1, 0, 1], np.zeros((4, 2)), [0, 1, 0, 1], "one label per"),
        (np.zeros((4, 2)), [0, 1, 0, 1], np.zeros((4, 2)), [0, 1, 0], "one label per"),
        (np.zeros((4, 2)), [[0, 1, 0, 1]], np.zeros((4, 2)), [0, 1, 0, 1], "one label per"),
        (np.zeros((4, 2)), [0, 1, 0, 1], np.zeros((4, 3)), [0, 1, 0, 1], "feature count"),
        (np.zeros(4), [0, 1, 0, 1], np.zeros(4), [0, 1, 0, 1], "2-D"),
        (np.zeros((4, 2, 1)), [0, 1, 0, 1], np.zeros((4, 2)), [0, 1, 0, 1], "2-D"),
        (np.zeros((4, 2)), [0, 1, 0, -1], np.zeros((4, 2)), [0, 1, 0, -1], "integers >= 0"),
        (np.zeros((4, 2)), [0, 1, 0, 1], np.zeros((4, 2)), [0.0, 1.5, 0.0, 1.0], "integers"),
        (np.zeros((0, 2)), np.zeros(0, int), np.zeros((4, 2)), [0, 1, 0, 1], "train split is empty"),
        (np.zeros((4, 2)), [0, 1, 0, 1], np.zeros((0, 2)), np.zeros(0, int), "val split is empty"),
        (np.full((4, 2), np.nan), [0, 1, 0, 1], np.zeros((4, 2)), [0, 1, 0, 1],
         "train features contain non-finite"),
        (np.zeros((4, 2)), [0, 1, 0, 1], np.full((4, 2), -np.inf), [0, 1, 0, 1],
         "val features contain non-finite"),
    ], ids=["train-rows", "val-labels", "labels-2d", "feature-count", "features-1d",
            "features-3d", "negative-label", "fractional-label", "train-empty", "val-empty",
            "train-nan", "val-inf"])
    def test_malformed_split_rejected(self, train_x, train_y, val_x, val_y, match):
        with pytest.raises(ValueError, match=match):
            HypercleanProblem(train_x, train_y, val_x, val_y)

    def test_corruption_mask_needs_one_flag_per_training_label(self):
        with pytest.raises(ValueError, match="corruption_mask"):
            HypercleanProblem(np.zeros((4, 2)), [0, 1, 0, 1], np.zeros((4, 2)), [0, 1, 0, 1],
                              corruption_mask=[True, False])

    @pytest.mark.parametrize("p", [0, -1])
    def test_generator_rejects_empty_feature_dimension(self, p):
        with pytest.raises(ValueError, match="p must be >= 1"):
            make_synthetic_hyperclean(seed=0, m_tr=10, m_val=6, p=p, corrupt_frac=0.2)


def _fresh_per_call(prob: HypercleanProblem) -> BilevelOracle:
    """The hyper-cleaning oracle with no memo state: every call builds a new
    oracle and forwards to it."""
    def forward(kind):
        return lambda *args: getattr(hyperclean_oracle(prob), kind)(*args)

    kinds = ("eval_f", "grad_f", "eval_g", "grad_g", "grad_g_theta")
    return BilevelOracle(**{kind: forward(kind) for kind in kinds}, name="hyperclean")


def _assert_same_bits(got, want):
    if isinstance(want, float):
        assert got == want
    elif isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:  # a JointGradient
        assert np.array_equal(got.dv, want.dv) and np.array_equal(got.dtheta, want.dtheta)


class TestHypercleanMemo:
    """The oracle's per-point memos never change a result: every call matches,
    bit for bit, the same call on an oracle that has made no call before."""

    KINDS = ("eval_f", "grad_f", "eval_g", "grad_g", "grad_g_theta")

    @staticmethod
    def problem(rng, n_classes):
        def split(m):
            labels = rng.permutation(np.arange(m) % n_classes)
            return rng.standard_normal((m, 3)) + 0.5 * labels[:, None], labels

        (x_tr, y_tr), (x_val, y_val) = split(48), split(32)
        return HypercleanProblem(x_tr, y_tr, x_val, y_val, ridge_c=0.01)

    @staticmethod
    def checked_call(memo, fresh, kind, v, theta):
        args = (v, theta) if kind == "grad_g_theta" else (JointPoint._trusted(v, theta),)
        want = getattr(fresh, kind)(*args)
        got = getattr(memo, kind)(*args)
        _assert_same_bits(got, want)
        return got

    @pytest.mark.parametrize("n_classes", [2, 3, 8])
    def test_random_interleavings_match_a_fresh_oracle(self, rng, n_classes):
        prob = self.problem(rng, n_classes)
        memo, fresh = hyperclean_oracle(prob), _fresh_per_call(prob)
        # a small pool of points, so calls repeat; some weights sit exactly on
        # the clip's kinks or outside [0, 1]
        vs = [rng.uniform(-0.5, 1.5, prob.n_train) for _ in range(3)]
        vs[0][:4] = [0.0, 1.0, -0.0, 1.0]
        thetas = [0.3 * rng.standard_normal(prob.theta_dim) for _ in range(4)]
        v, theta, last = vs[0], thetas[0], None
        for _ in range(400):
            op = rng.integers(10)
            if op == 0:  # mutate the last call's v or theta in place, then
                # call every kind at the new point the same arrays now hold
                (v if rng.integers(2) else theta)[rng.integers(3)] += 0.25
                for kind in rng.permutation(self.KINDS):
                    self.checked_call(memo, fresh, kind, v, theta)
            elif op == 1 and last is not None:  # mutate the last output, then
                # repeat the call that returned it
                got, kind = last
                out = got if isinstance(got, np.ndarray) else got.dtheta
                out[:] = 7.0
                if not isinstance(got, np.ndarray):
                    got.dv[:] = -7.0
                self.checked_call(memo, fresh, kind, v, theta)
            else:
                kind = self.KINDS[rng.integers(len(self.KINDS))]
                v, theta = vs[rng.integers(len(vs))], thetas[rng.integers(len(thetas))]
                got = self.checked_call(memo, fresh, kind, v, theta)
                last = None if isinstance(got, float) else (got, kind)

    @pytest.mark.parametrize("n_classes", [2, 3, 8])
    def test_bome_call_order_matches_a_fresh_oracle(self, rng, n_classes):
        prob = self.problem(rng, n_classes)
        memo, fresh = hyperclean_oracle(prob), _fresh_per_call(prob)
        v = rng.uniform(0.0, 1.0, prob.n_train)
        theta = 0.3 * rng.standard_normal(prob.theta_dim)
        for step in range(6):
            call = lambda kind, th: self.checked_call(memo, fresh, kind, v, th)  # noqa: E731
            call("eval_g", theta)
            theta_t = theta.copy()
            for _ in range(3):
                theta_t = theta_t - 0.01 * call("grad_g_theta", theta_t)
            call("eval_g", theta_t)
            gq = call("grad_g", theta)
            call("grad_g", theta_t)
            gq.dtheta *= 3.0  # the caller owns what it was handed
            call("grad_g_theta", theta)
            call("grad_f", theta)
            call("eval_f", theta)
            if step % 2 == 0:  # the next step keeps v, as with lambda = 0
                theta -= 0.05 * gq.dtheta  # in place: the same array, a new point
            else:  # or moves v in place, keeping theta
                v += 0.02 * rng.standard_normal(v.size)

    def test_criterion_10_size_run_matches_a_fresh_oracle_per_call(self):
        prob = make_synthetic_hyperclean(seed=0, m_tr=300, m_val=100, p=10, corrupt_frac=0.3)
        v0 = 0.5 * np.ones(prob.n_train)
        pre = inner_descent(hyperclean_oracle(prob), v0, np.zeros(prob.theta_dim), 50, 1e-3)
        cfg = SolverConfig(outer_step_xi=1e-3, inner_iters_T=10, xi_v=3.0, momentum_beta=0.9,
                           max_outer_iters_K=30, kkt_eval_every=1)
        runs = [run(oracle, JointPoint(v0, pre.theta_T), cfg)
                for oracle in (hyperclean_oracle(prob), _fresh_per_call(prob))]
        got, want = runs
        # every field of every row but the wall time
        fields = [f.name for f in dataclasses.fields(StepDiagnostics)
                  if f.name != "wall_time_micros"]
        assert len(got.records) == len(want.records) == 30
        assert list(got.records.rows(fields)) == list(want.records.rows(fields))
        assert np.array_equal(got.final_point.v, want.final_point.v)
        assert np.array_equal(got.final_point.theta, want.final_point.theta)
        assert got.final_f == want.final_f and got.final_kkt.total == want.final_kkt.total


def test_keyed_memo_is_freed_by_reference_counting():
    # the hyper-cleaning oracle drops an evicted training pass together with
    # its theta-block memo; a memo in a reference cycle would keep the pass's
    # arrays alive until the cyclic collector runs
    gc.disable()
    try:
        memo = _keyed_memo(np.copy)
        memo.peek(np.zeros(3))
        memo(np.zeros(3))
        ref = weakref.ref(memo)
        del memo
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("fill", ["eval_g", "grad_g"])
def test_hyperclean_memo_outlives_the_callers_theta(rng, fill):
    # a kept training pass forms its theta block lazily, for each new v; the
    # caller may have overwritten the theta array that filled it by then
    prob = TestHypercleanMemo.problem(rng, 3)
    memo = hyperclean_oracle(prob)
    v, theta = rng.uniform(0.0, 1.0, prob.n_train), 0.3 * rng.standard_normal(prob.theta_dim)
    point = theta.copy()
    getattr(memo, fill)(JointPoint._trusted(v, theta))
    theta += 1.0
    for v_next in (v, rng.uniform(0.0, 1.0, prob.n_train)):
        _assert_same_bits(memo.grad_g_theta(v_next, point),
                          hyperclean_oracle(prob).grad_g_theta(v_next, point))


class TestCoresetMemo:
    """The coreset oracle's per-v memo never changes a result: every call on
    one long-lived oracle matches, bit for bit, the same call on an oracle
    that has made no call before."""

    KINDS = ("eval_f", "grad_f", "eval_g", "grad_g", "grad_g_theta", "exact_inner_opt")

    @staticmethod
    def checked_call(prob, memo, kind, v, theta):
        if kind == "grad_g_theta":
            args = (v, theta)
        elif kind == "exact_inner_opt":
            args = (v,)
        else:
            args = (JointPoint._trusted(v, theta),)
        want = getattr(coreset_oracle(prob), kind)(*args)
        got = getattr(memo, kind)(*args)
        _assert_same_bits(got, want)
        return got

    @pytest.mark.parametrize("shape", [None, (3, 5)])
    def test_random_interleavings_match_a_fresh_oracle(self, rng, shape):
        # None: the default geometry; else a random (dim, n_vertices) instance
        prob = CoresetProblem() if shape is None else CoresetProblem(
            rng.standard_normal(shape[0]), rng.standard_normal(shape))
        memo = coreset_oracle(prob)
        dim, n_vert = prob.vertices_X.shape
        vs = [rng.standard_normal(n_vert) for _ in range(3)]
        thetas = [rng.standard_normal(dim) for _ in range(3)]
        v, theta, last = vs[0], thetas[0], None
        for _ in range(600):
            op = rng.integers(10)
            if op == 0:  # mutate the last call's v or theta in place, then
                # call every kind at the new point the same arrays now hold
                (v if rng.integers(2) else theta)[rng.integers(2)] += 0.25
                for kind in rng.permutation(self.KINDS):
                    self.checked_call(prob, memo, kind, v, theta)
            elif op == 1 and last is not None:  # mutate the last output, then
                # repeat the call that returned it
                got, kind = last
                out = got if isinstance(got, np.ndarray) else got.dtheta
                out[:] = 7.0
                if not isinstance(got, np.ndarray):
                    got.dv[:] = -7.0
                self.checked_call(prob, memo, kind, v, theta)
            else:
                kind = self.KINDS[rng.integers(len(self.KINDS))]
                v, theta = vs[rng.integers(len(vs))], thetas[rng.integers(len(thetas))]
                got = self.checked_call(prob, memo, kind, v, theta)
                last = None if isinstance(got, float) else (got, kind)


class TestRidge:
    def test_unregularized_limit(self):
        prob = make_synthetic_ridge(seed=0)
        oracle = ridge_oracle(prob)
        theta_off = oracle.exact_inner_opt(-20.0 * np.ones(5))
        ols = np.linalg.solve(prob.train_A.T @ prob.train_A, prob.train_A.T @ prob.train_y)
        np.testing.assert_allclose(theta_off, ols, atol=1e-6)

    def test_dominant_penalty_limit(self):
        oracle = ridge_oracle(make_synthetic_ridge(seed=0))
        theta_on = oracle.exact_inner_opt(20.0 * np.ones(5))
        assert np.linalg.norm(theta_on) < 1e-10

    def test_inner_opt_stationary(self, rng):
        oracle = ridge_oracle(make_synthetic_ridge(seed=1))
        for _ in range(10):
            v = 0.5 * rng.standard_normal(5)
            theta_star = oracle.exact_inner_opt(v)
            assert np.linalg.norm(oracle.inner_grad(v, theta_star)) < 1e-8

    def test_gradcheck(self, rng):
        # theta coordinates bounded away from zero: the penalty gradient
        # scales with theta_i^2 and would otherwise sink below the central
        # difference noise floor
        oracle = ridge_oracle(make_synthetic_ridge(seed=2))
        pts = [
            JointPoint(
                0.3 * rng.standard_normal(5),
                rng.uniform(0.3, 1.5, 5) * rng.choice([-1.0, 1.0], 5),
            )
            for _ in range(20)
        ]
        reports = check_oracle_gradients(oracle, pts)
        assert reports["f"].passed and reports["g"].passed

    @pytest.mark.parametrize("p", [0, -1])
    def test_generator_rejects_empty_feature_dimension(self, p):
        with pytest.raises(ValueError, match="p must be >= 1"):
            make_synthetic_ridge(seed=0, p=p)

    @pytest.mark.parametrize("m_tr, m_val", [(0, 30), (50, 0), (-1, 30)])
    def test_generator_rejects_empty_split(self, m_tr, m_val):
        with pytest.raises(ValueError, match="at least one sample per split"):
            make_synthetic_ridge(seed=0, m_tr=m_tr, m_val=m_val)

    @pytest.mark.parametrize("train_A, train_y, val_A, val_y, match", [
        (np.zeros((4, 2)), np.zeros(5), np.zeros((3, 2)), np.zeros(3), "one target per"),
        (np.zeros((4, 2)), np.zeros(4), np.zeros((3, 2)), np.zeros((3, 1)), "one target per"),
        (np.zeros(4), np.zeros(4), np.zeros((3, 2)), np.zeros(3), "2-D"),
        (np.zeros((0, 2)), np.zeros(0), np.zeros((3, 2)), np.zeros(3), "train split is empty"),
        (np.zeros((4, 2)), np.zeros(4), np.zeros((0, 2)), np.zeros(0), "val split is empty"),
        (np.zeros((4, 2)), np.zeros(4), np.zeros((3, 3)), np.zeros(3), "feature dimension"),
        (np.full((4, 2), np.inf), np.zeros(4), np.zeros((3, 2)), np.zeros(3),
         "train features contain non-finite"),
        (np.zeros((4, 2)), np.zeros(4), np.zeros((3, 2)), [0.0, np.nan, 0.0],
         "val targets contain non-finite"),
    ], ids=["train-targets", "val-targets-2d", "design-1d", "train-empty", "val-empty",
            "feature-count", "train-design-inf", "val-targets-nan"])
    def test_malformed_split_rejected(self, train_A, train_y, val_A, val_y, match):
        with pytest.raises(ValueError, match=match):
            RidgeRegProblem(train_A, train_y, val_A, val_y)

    def test_generator_deterministic(self):
        a = make_synthetic_ridge(seed=11)
        b = make_synthetic_ridge(seed=11)
        assert np.array_equal(a.train_A, b.train_A) and np.array_equal(a.val_y, b.val_y)


class TestDatasetExport:
    def test_schema_and_roundtrip(self, tmp_path):
        prob = make_synthetic_hyperclean(seed=6, m_tr=12, m_val=8, p=3, corrupt_frac=0.25)
        path = tmp_path / "train.csv"
        export_dataset_csv(prob, path, split="train")
        lines = path.read_text().splitlines()
        assert lines[0] == "feature_0,feature_1,feature_2,label,is_corrupted"
        assert len(lines) == 13
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            feats = np.array([float(c) for c in cells[:3]])
            assert np.array_equal(feats, prob.train_features[i])  # bit-exact
            assert int(cells[3]) == prob.train_labels[i]
            assert int(cells[4]) == int(prob.corruption_mask[i])

    def test_val_split_never_corrupted(self, tmp_path):
        prob = make_synthetic_hyperclean(seed=6, m_tr=12, m_val=8, p=3, corrupt_frac=0.25)
        path = tmp_path / "val.csv"
        export_dataset_csv(prob, path, split="val")
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        assert all(line.endswith(",0") for line in lines[1:])

    def test_identical_seeds_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_dataset_csv(make_synthetic_hyperclean(9, 10, 6, 2, 0.3), a)
        export_dataset_csv(make_synthetic_hyperclean(9, 10, 6, 2, 0.3), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_split_rejected(self, tmp_path):
        prob = make_synthetic_hyperclean(seed=6, m_tr=12, m_val=8, p=3, corrupt_frac=0.25)
        with pytest.raises(ValueError):
            export_dataset_csv(prob, tmp_path / "x.csv", split="test")


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_grad_g_theta_block_is_inner_gradient_bit_for_bit(rng, problem):
    # the inner loop's first gradient grad_g_theta(v, theta) may stand in for
    # the theta block of grad_g at the same point only if the bits agree
    oracle, presets = PROBLEMS[problem][1]({}, 0)
    v0, theta0 = presets["default"]
    for _ in range(200):
        v = rng.uniform(-0.5, 1.5, v0.size)
        theta = theta0 + rng.standard_normal(theta0.size)
        assert np.array_equal(oracle.grad_g(JointPoint(v, theta)).dtheta,
                              oracle.grad_g_theta(v, theta))
