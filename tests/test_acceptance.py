"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.

Criterion 1 runs the coreset problem at the steps the README prescribes for
boundary optima (xi_v = 1.0, xi_theta = 0.002, alpha = 0.25, heavy-ball
momentum 0.9, stopping once the exact score drops below 1e-4), the same
configuration as the quick start and criterion 9. A uniform step
xi = alpha = 0.05 cannot meet the criterion's targets on this problem: the
optimum sits on the hull boundary, so the multiplier must grow like 1/gap
while stability caps it at 1/xi - 1, and the iterate stalls at a distance of
about xi * ||x0 - theta*|| = 0.15 from the optimum with exact score ~0.92
(see "Boundary optima and step sizes" in the README). That floor is pinned
by `test_coreset_uniform_step_distance_floor` in tests/test_runner.py.
"""

import multiprocessing as mp
import time
from types import SimpleNamespace

import numpy as np

from bome import (
    BarrierKind,
    JointGradient,
    JointPoint,
    SolverConfig,
    bome_step,
    check_plug_in_estimator,
    compute_lambda,
    coreset_oracle,
    gda_step,
    hyperclean_oracle,
    inner_descent,
    lls_oracle,
    make_synthetic_hyperclean,
    make_synthetic_ridge,
    minimax_oracle,
    ogd_step,
    ridge_oracle,
    run,
    running_min_kkt,
)
from bome.cli import emit_trace_csv, read_trace_csv
from bome.gradcheck import check_oracle_gradients
from conftest import (
    assert_barrier_invariants,
    brute_barrier_lambda,
    brute_simplex_projection,
)

CORESET_X0 = np.array([3.0, -2.0])
CORESET_X = np.array([[1.0, 3.0, -2.0, -3.0], [3.0, 1.0, 2.0, 2.0]])


def report(num: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{suffix}")
    return ok


def test_criterion_01_coreset_convergence_at_reference_steps():
    """Coreset runs from the three starts at eta=0.5, T=10, with the README's
    boundary-optimum steps; the elapsed time is time to solution."""
    theta_opt, _ = brute_simplex_projection(CORESET_X0, CORESET_X)
    results = []
    for theta0 in ([0.0, 3.0], [-3.0, 1.0], [3.5, 1.0]):
        oracle = coreset_oracle()
        cfg = SolverConfig(
            outer_step_xi=0.002,
            inner_step_alpha=0.25,
            inner_iters_T=10,
            eta=0.5,
            xi_v=1.0,
            xi_theta=0.002,
            momentum_beta=0.9,
            max_outer_iters_K=5000,
            kkt_eval_every=10,
            stop_kkt_tol=1e-4,
        )
        t0 = time.perf_counter()
        trace = run(oracle, JointPoint(np.zeros(4), theta0), cfg)
        elapsed = time.perf_counter() - t0
        dist = float(np.linalg.norm(trace.final_point.theta - theta_opt))
        results.append((theta0, dist, trace.final_kkt.total, elapsed))

    ok = all(d < 1e-2 and k < 1e-3 and t < 1.0 for _, d, k, t in results)
    detail = "; ".join(
        f"start{i+1}: dist={d:.3f}, K={k:.1e}, {t:.2f}s" for i, (_, d, k, t) in enumerate(results)
    )
    report(1, "coreset convergence", ok, detail)
    assert ok, f"coreset runs missed dist < 1e-2, K < 1e-3 or 1 s: {detail}"


def test_criterion_02_minimax_contrast():
    t0 = time.perf_counter()
    oracle = minimax_oracle()
    cfg = SolverConfig(outer_step_xi=0.05, max_outer_iters_K=2000, kkt_eval_every=100)
    trace = run(oracle, JointPoint([1.0], [1.0]), cfg)
    bome_dist = float(np.hypot(trace.final_point.v[0], trace.final_point.theta[0]))

    pt = JointPoint([1.0], [1.0])
    norms = [np.hypot(1.0, 1.0)]
    for _ in range(500):
        pt = gda_step(oracle, pt, xi=0.05)
        norms.append(float(np.hypot(pt.v[0], pt.theta[0])))
    gda_increasing = all(b > a for a, b in zip(norms, norms[1:]))

    pt, hist = JointPoint([1.0], [1.0]), None
    for _ in range(6000):
        pt, hist = ogd_step(oracle, pt, hist, xi=0.05)
    ogd_dist = float(np.hypot(pt.v[0], pt.theta[0]))
    elapsed = time.perf_counter() - t0

    ok = bome_dist < 1e-2 and gda_increasing and ogd_dist < 1e-2 and elapsed < 1.0
    report(
        2,
        "minimax contrast",
        ok,
        f"bome={bome_dist:.2e}, gda increasing={gda_increasing}, "
        f"ogd={ogd_dist:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_03_degenerate_lls():
    oracle = lls_oracle()
    cfg = SolverConfig(
        outer_step_xi=0.5, inner_step_alpha=0.5, inner_iters_T=10,
        max_outer_iters_K=2000, kkt_eval_every=100,
    )
    trace = run(oracle, JointPoint([0.0], [0.0, 3.0]), cfg)
    fp = trace.final_point
    f = oracle.eval_f(fp)
    q = oracle.eval_g(fp)  # exact q: the optimal inner value is 0
    t2 = abs(fp.theta[1] - 1.0)
    gap = abs(fp.theta[0] - fp.v[0])
    ok = f < 1e-4 and q < 1e-6 and t2 < 1e-2 and gap < 1e-2
    report(3, "degenerate LLS", ok, f"f={f:.2e}, q={q:.2e}, |th2-1|={t2:.2e}, |th1-v|={gap:.2e}")
    assert ok


def test_criterion_04_barrier_algebra():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        gf = JointGradient(rng.standard_normal(5), rng.standard_normal(5))
        gq = JointGradient(rng.standard_normal(5), rng.standard_normal(5))
        phi = float(abs(rng.standard_normal())) if i % 5 else 0.0
        lam = compute_lambda(gf, gq, phi)
        ref = brute_barrier_lambda(gf, gq, phi)
        worst = max(worst, abs(lam - ref))
        # delta invariants exactly as stated on the solution type
        delta = JointGradient(gf.dv + lam * gq.dv, gf.dtheta + lam * gq.dtheta)
        sol = SimpleNamespace(lam=lam, phi=phi, delta=delta, grad_qhat=gq)
        assert_barrier_invariants(sol)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    report(4, "barrier-solution algebra", ok, f"max |lam - brute| = {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_05_plug_in_estimator_decay():
    t0 = time.perf_counter()
    oracle = ridge_oracle(make_synthetic_ridge(seed=0))
    alpha = 1.0 / (2.0 * oracle.metadata.smoothness_L)
    rng = np.random.default_rng(1)
    pts = [
        JointPoint(0.3 * rng.standard_normal(5), rng.standard_normal(5)) for _ in range(20)
    ]
    errors = check_plug_in_estimator(oracle, pts, [1, 2, 4, 8, 16, 200], alpha)
    seq = [errors[T] for T in (1, 2, 4, 8, 16)]
    ratios_ok = all(b < 0.9 * a for a, b in zip(seq, seq[1:]))
    tail_ok = errors[200] < 1e-8
    elapsed = time.perf_counter() - t0
    ok = ratios_ok and tail_ok and elapsed < 2.0
    report(
        5,
        "plug-in estimator decay",
        ok,
        f"ratios={[f'{b/a:.2f}' for a, b in zip(seq, seq[1:])]}, "
        f"err(200)={errors[200]:.1e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_06_q_decay_to_floor():
    t0 = time.perf_counter()
    oracle = ridge_oracle(make_synthetic_ridge(seed=0))
    L = oracle.metadata.smoothness_L
    xi = 1.0 / L
    cfg = SolverConfig(outer_step_xi=xi, inner_iters_T=10, max_outer_iters_K=400, kkt_eval_every=400)
    start = JointPoint(np.zeros(5), np.zeros(5))

    # measured inner-loop residual: fraction of inner suboptimality left
    # after T steps from the start point
    inner = inner_descent(oracle, start.v, start.theta, cfg.inner_iters_T, cfg.inner_step_alpha)
    g_star = oracle.eval_g(JointPoint(start.v, oracle.exact_inner_opt(start.v)))
    rho = (inner.g_after - g_star) / max(inner.g_before - g_star, 1e-300)
    floor = 10.0 * (xi + rho)

    qs = []
    point = start
    for _ in range(400):
        theta_star = oracle.exact_inner_opt(point.v)
        qs.append(
            oracle.eval_g(point) - oracle.eval_g(JointPoint(point.v, theta_star))
        )
        point, _ = bome_step(oracle, point, cfg)
    qs = np.array(qs)
    q0 = qs[0]

    # fit the largest decay rate consistent with every iterate above the floor
    cs = [
        -np.log((qs[k] - floor) / q0) / k
        for k in range(1, len(qs))
        if qs[k] > floor
    ]
    c = min(cs) if cs else 1.0
    bound_ok = bool(np.all(qs[1:] <= np.exp(-c * np.arange(1, len(qs))) * q0 + floor + 1e-12))
    elapsed = time.perf_counter() - t0
    ok = c > 0 and bound_ok and elapsed < 2.0
    report(
        6,
        "q decay to floor",
        ok,
        f"c={c:.4f}, floor={floor:.3f} (rho={rho:.1e}), q0={q0:.1f}, "
        f"min q={qs.min():.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_07_rate_trends():
    t0 = time.perf_counter()
    oracle = ridge_oracle(make_synthetic_ridge(seed=0))
    L = oracle.metadata.smoothness_L

    # horizon trend: xi proportional to 1/sqrt(K), T = 10
    start = JointPoint(np.zeros(5), np.zeros(5))
    k_mins = []
    for K in (100, 400, 1600):
        cfg = SolverConfig(
            outer_step_xi=0.05 / np.sqrt(K), inner_iters_T=10,
            max_outer_iters_K=K, kkt_eval_every=5,
        )
        k_mins.append(running_min_kkt(run(oracle, start, cfg))[-1][1])
    k_trend_ok = all(b <= a for a, b in zip(k_mins, k_mins[1:]))

    # inner-horizon trend at fixed K = 1600, from a far start so that the
    # run is still inner-accuracy-limited at the horizon
    far = JointPoint(0.5 * np.ones(5), 3.0 * np.ones(5))
    t_mins = {}
    for T in (1, 2, 4, 8, 16):
        cfg = SolverConfig(
            outer_step_xi=0.2 / L, inner_step_alpha=0.5 / L, inner_iters_T=T,
            max_outer_iters_K=1600, kkt_eval_every=5,
        )
        t_mins[T] = running_min_kkt(run(oracle, far, cfg))[-1][1]
    t_trend_ok = all(t_mins[a] >= t_mins[b] for a, b in [(1, 2), (2, 4), (4, 8)])
    diminishing_ok = (t_mins[8] - t_mins[16]) < (t_mins[1] - t_mins[2])
    elapsed = time.perf_counter() - t0

    ok = k_trend_ok and t_trend_ok and diminishing_ok and elapsed < 10.0
    report(
        7,
        "rate trends",
        ok,
        f"K-mins={[f'{v:.1e}' for v in k_mins]}, "
        f"T-mins={[f'{t_mins[T]:.2e}' for T in (1, 2, 4, 8)]}, "
        f"gaps {t_mins[1]-t_mins[2]:.1e} vs {t_mins[8]-t_mins[16]:.1e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_08_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    hc = make_synthetic_hyperclean(seed=0, m_tr=20, m_val=12, p=3, corrupt_frac=0.25)
    cases = {
        "coreset": (coreset_oracle(), lambda: (rng.standard_normal(4), rng.standard_normal(2))),
        "minimax": (minimax_oracle(), lambda: (rng.standard_normal(1), rng.standard_normal(1))),
        "lls": (lls_oracle(), lambda: (rng.standard_normal(1), rng.standard_normal(2))),
        "hyperclean": (
            hyperclean_oracle(hc),
            lambda: (rng.uniform(0.2, 0.8, 20), 0.3 * rng.standard_normal(hc.theta_dim)),
        ),
        "ridge": (
            ridge_oracle(make_synthetic_ridge(seed=5)),
            lambda: (
                0.3 * rng.standard_normal(5),
                rng.uniform(0.3, 1.5, 5) * rng.choice([-1.0, 1.0], 5),
            ),
        ),
    }
    failures = []
    for name, (oracle, draw) in cases.items():
        pts = [JointPoint(*draw()) for _ in range(20)]
        reports = check_oracle_gradients(oracle, pts, rel_tol=1e-5)
        if not (reports["f"].passed and reports["g"].passed):
            failures.append((name, reports["f"].max_rel_error, reports["g"].max_rel_error))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    report(8, "gradient correctness", ok, f"failures={failures}, {elapsed:.2f}s")
    assert ok


def _robustness_cell(args):
    barrier, eta, T = args
    oracle = coreset_oracle()
    cfg = SolverConfig(
        outer_step_xi=0.002,
        inner_step_alpha=0.25,
        inner_iters_T=T,
        eta=eta,
        barrier_kind=BarrierKind(barrier),
        xi_v=1.0,
        xi_theta=0.002,
        momentum_beta=0.9,
        max_outer_iters_K=40000,
        kkt_eval_every=50,
        stop_kkt_tol=1e-4,
    )
    trace = run(oracle, JointPoint(np.zeros(4), [0.0, 3.0]), cfg)
    return barrier, eta, T, trace.final_kkt.total


def test_criterion_09_robustness_sweep():
    t0 = time.perf_counter()
    cells = [
        (barrier, eta, T)
        for barrier in ("gradnorm", "value")
        for eta in (0.1, 0.5, 0.9)
        for T in (1, 10, 100)
    ]
    workers = min(mp.cpu_count(), 4)
    if workers > 1:
        with mp.get_context("fork").Pool(workers) as pool:
            results = pool.map(_robustness_cell, cells)
    else:
        results = [_robustness_cell(c) for c in cells]
    elapsed = time.perf_counter() - t0
    worst = max(r[3] for r in results)
    bad = [(b, e, T, f"{k:.1e}") for b, e, T, k in results if k >= 1e-3]
    ok = worst < 1e-3 and elapsed < 10.0
    report(9, "robustness sweep", ok, f"worst K={worst:.2e}, cells failing={bad}, {elapsed:.1f}s")
    assert ok


def test_criterion_10_hyperclean_structure():
    t0 = time.perf_counter()
    prob = make_synthetic_hyperclean(seed=0, m_tr=300, m_val=100, p=10, corrupt_frac=0.3)
    oracle = hyperclean_oracle(prob)
    v0 = 0.5 * np.ones(prob.n_train)
    # pretrain the model on the (corrupted) training set at uniform weights
    pre = inner_descent(oracle, v0, np.zeros(prob.theta_dim), 200, 1e-3)
    start = JointPoint(v0, pre.theta_T)
    f0 = oracle.eval_f(start)
    cfg = SolverConfig(
        outer_step_xi=1e-3,
        inner_step_alpha=1e-3,
        inner_iters_T=10,
        xi_v=3.0,
        xi_theta=1e-3,
        momentum_beta=0.9,
        max_outer_iters_K=500,
        kkt_eval_every=250,
    )
    trace = run(oracle, start, cfg)
    fp = trace.final_point
    weights = np.clip(fp.v, 0.0, 1.0)
    gap = float(
        weights[~prob.corruption_mask].mean() - weights[prob.corruption_mask].mean()
    )
    f_final = oracle.eval_f(fp)
    elapsed = time.perf_counter() - t0
    ok = gap >= 0.2 and f_final < f0 and elapsed < 5.0
    report(
        10,
        "hyperclean structure",
        ok,
        f"weight gap={gap:.3f}, val loss {f0:.3f} -> {f_final:.3f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_11_determinism_and_io(tmp_path):
    def one_trace():
        oracle = coreset_oracle()
        cfg = SolverConfig(
            outer_step_xi=0.01, inner_iters_T=5, max_outer_iters_K=100, kkt_eval_every=10
        )
        return run(oracle, JointPoint(np.zeros(4), [0.0, 3.0]), cfg)

    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        emit_trace_csv(one_trace(), path)
        paths.append(path)

    def strip_wall(path):
        return ["," .join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

    identical = strip_wall(paths[0]) == strip_wall(paths[1])

    trace = one_trace()
    emit_trace_csv(trace, tmp_path / "c.csv")
    rows = read_trace_csv(tmp_path / "c.csv")
    roundtrip = all(
        row["f"] == rec.f_value
        and row["q_hat"] == rec.q_hat
        and row["lambda"] == rec.lambda_k
        and row["phi"] == rec.phi_k
        and row["delta_norm"] == rec.delta_norm
        and row["grad_qhat_norm"] == rec.grad_qhat_norm
        and (row["kkt"] == rec.kkt_value or (row["kkt"] is None and rec.kkt_value is None))
        for row, rec in zip(rows, trace.records)
    )
    ok = identical and roundtrip
    report(11, "determinism and io", ok, f"identical={identical}, roundtrip={roundtrip}")
    assert ok
