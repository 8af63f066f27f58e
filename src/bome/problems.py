"""Built-in benchmark problems with analytic gradients.

Three small closed-form problems (coreset selection over a convex hull, a
scalar bilinear mini-max game, and a least-squares problem whose inner
minimizer is a whole line) plus two desk-scale learning problems on seeded
synthetic data (training-sample reweighting against label corruption, and
per-coefficient ridge regularization with a learnable log-scale).

Every oracle returns analytic gradients that the gradcheck module verifies by
finite differences; where the inner problem has a closed-form minimizer it is
exposed so exact stationarity reports are available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    BilevelOracle,
    JointGradient,
    JointPoint,
    NumericalError,
    ProblemMetadata,
    _is_int,
)


def softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax: exp(v - max v) normalized to sum 1."""
    v = np.asarray(v, dtype=float)
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()


def softmax_jacobian(sigma: np.ndarray) -> np.ndarray:
    """Jacobian of softmax expressed through its output: diag(s) - s s^T."""
    sigma = np.asarray(sigma, dtype=float)
    jac = np.eye(sigma.size) * sigma
    jac -= np.multiply.outer(sigma, sigma)
    return jac


# ---------------------------------------------------------------------------
# Coreset: pull theta toward a target while the inner problem pins it to a
# softmax-weighted combination of fixed vertices (i.e. to their convex hull).
# ---------------------------------------------------------------------------

_DEFAULT_X0 = (3.0, -2.0)
_DEFAULT_VERTICES = ((1.0, 3.0), (3.0, 1.0), (-2.0, 2.0), (-3.0, 2.0))


@dataclass
class CoresetProblem:
    """f = ||theta - x0||^2, g = ||theta - X softmax(v)||^2."""

    target_x0: np.ndarray = field(default_factory=lambda: np.array(_DEFAULT_X0))
    vertices_X: np.ndarray = field(
        default_factory=lambda: np.array(_DEFAULT_VERTICES).T
    )

    def __post_init__(self):
        self.target_x0 = np.asarray(self.target_x0, dtype=float)
        self.vertices_X = np.asarray(self.vertices_X, dtype=float)
        if self.target_x0.ndim != 1:
            raise ValueError(f"x0 must be a vector, got shape {self.target_x0.shape}")
        if self.vertices_X.ndim != 2 or self.vertices_X.shape[0] != self.target_x0.size:
            raise ValueError("vertices_X must be (dim, n_vertices) with dim matching x0")
        if not (np.isfinite(self.target_x0).all() and np.isfinite(self.vertices_X).all()):
            raise ValueError("x0 and vertices_X must hold only finite values")


def _keyed_memo(fill, size: int = 1):
    """Keep ``fill(x)`` for the last ``size`` distinct x, newest first, keyed
    by the bytes of x. Calling the memo returns the kept result for x, filling
    it on a miss and dropping the oldest entry beyond ``size``; ``memo.peek(x)``
    returns the kept result or None and never fills. A hit does not reorder
    the entries. Results are shared: a caller copies any kept array it returns.
    """
    entries: list = []  # (key, result), newest first

    def memo(x: np.ndarray):
        key = x.tobytes()
        for kept, result in entries:
            if kept == key:
                return result
        result = fill(x)
        entries[:] = [(key, result), *entries[: size - 1]]
        return result

    # peek does not refer to memo: a reference cycle would keep evicted
    # entries alive until the cyclic garbage collector runs
    def peek(x: np.ndarray):
        key = x.tobytes()
        for kept, result in entries:
            if kept == key:
                return result
        return None

    memo.peek = peek
    return memo


def coreset_oracle(prob: Optional[CoresetProblem] = None) -> BilevelOracle:
    """Oracle for the coreset problem; the inner optimum is X softmax(v)."""
    if prob is None:
        prob = CoresetProblem()
    x0, X = prob.target_x0, prob.vertices_X
    n_vert = X.shape[1]

    def solve(v: np.ndarray) -> tuple:
        sigma = softmax(v)
        return X @ sigma, softmax_jacobian(sigma)

    # one entry per v: the inner loop evaluates many thetas at a fixed v, so
    # the inner optimum X softmax(v) and the softmax Jacobian are computed once
    # per v (every step and exact score takes grad_g at its v, so the Jacobian
    # is built eagerly)
    inner = _keyed_memo(solve)

    def eval_f(p: JointPoint) -> float:
        d = p.theta - x0
        return float(d @ d)

    def grad_f(p: JointPoint) -> JointGradient:
        return JointGradient(np.zeros(n_vert), 2.0 * (p.theta - x0))

    def inner_target(v: np.ndarray) -> np.ndarray:
        return inner(np.asarray(v, dtype=float))[0].copy()

    def eval_g(p: JointPoint) -> float:
        d = p.theta - inner(p.v)[0]
        return float(d @ d)

    def grad_g(p: JointPoint) -> JointGradient:
        target, jac = inner(p.v)
        d = p.theta - target
        return JointGradient._trusted(-2.0 * jac @ (X.T @ d), 2.0 * d)

    def grad_g_theta(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return 2.0 * (theta - inner(np.asarray(v, dtype=float))[0])

    return BilevelOracle(
        eval_f=eval_f,
        grad_f=grad_f,
        eval_g=eval_g,
        grad_g=grad_g,
        exact_inner_opt=inner_target,
        grad_g_theta=grad_g_theta,
        name="coreset",
    )


# ---------------------------------------------------------------------------
# Mini-max: min_v v*theta with theta maximizing v*theta. The inner argmax is
# rewritten as argmin of -v*theta so the uniform minimization contract holds.
# ---------------------------------------------------------------------------


def minimax_oracle() -> BilevelOracle:
    """Oracle for the scalar game, whose unique solution is the origin. No
    exact inner optimum exists: the inner objective is unbounded below for
    v != 0."""

    def eval_f(p: JointPoint) -> float:
        return float(p.v[0] * p.theta[0])

    def grad_f(p: JointPoint) -> JointGradient:
        return JointGradient._trusted(p.theta.copy(), p.v.copy())

    def eval_g(p: JointPoint) -> float:
        return -float(p.v[0] * p.theta[0])

    def grad_g(p: JointPoint) -> JointGradient:
        return JointGradient._trusted(-p.theta, -p.v)

    def grad_g_theta(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return -v

    meta = ProblemMetadata(known_optimum=JointPoint(np.zeros(1), np.zeros(1)))
    return BilevelOracle(
        eval_f=eval_f,
        grad_f=grad_f,
        eval_g=eval_g,
        grad_g=grad_g,
        grad_g_theta=grad_g_theta,
        metadata=meta,
        name="minimax",
    )


# ---------------------------------------------------------------------------
# Degenerate linear least squares: the inner minimizers form the line
# theta_1 = v. Any point on it serves as the exact inner minimizer, so exact
# stationarity reports stay available without a singleton minimizer.
# ---------------------------------------------------------------------------


def lls_oracle() -> BilevelOracle:
    """Oracle for f = ||theta - (v, 1)||^2, g = (theta_1 - v)^2."""

    def eval_f(p: JointPoint) -> float:
        a = p.theta[0] - p.v[0]
        b = p.theta[1] - 1.0
        return float(a * a + b * b)

    def grad_f(p: JointPoint) -> JointGradient:
        a = p.theta[0] - p.v[0]
        b = p.theta[1] - 1.0
        return JointGradient(np.array([-2.0 * a]), np.array([2.0 * a, 2.0 * b]))

    def eval_g(p: JointPoint) -> float:
        a = p.theta[0] - p.v[0]
        return float(a * a)

    def grad_g(p: JointPoint) -> JointGradient:
        a = p.theta[0] - p.v[0]
        return JointGradient(np.array([-2.0 * a]), np.array([2.0 * a, 0.0]))

    def grad_g_theta(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return np.array([2.0 * (theta[0] - v[0]), 0.0])

    return BilevelOracle(
        eval_f=eval_f,
        grad_f=grad_f,
        eval_g=eval_g,
        grad_g=grad_g,
        grad_g_theta=grad_g_theta,
        exact_inner_opt=lambda v: np.array([v[0], 0.0]),
        name="lls",
    )


# ---------------------------------------------------------------------------
# Training-sample reweighting ("hyper-cleaning"): learn per-sample weights
# clip(v_i, [0,1]) on a corrupted training set so that a multinomial logistic
# model trained on the weighted set performs well on a clean validation set.
# ---------------------------------------------------------------------------


def _require_int(**sizes) -> None:
    """Raise ValueError naming the first size that is not an integer."""
    for name, size in sizes.items():
        if not _is_int(size):
            raise ValueError(f"{name} must be an integer, got {size!r}")


def _split_rows(features, split: str) -> np.ndarray:
    """One split's features (or design) as a finite float (m, p) array with
    m >= 1; raises ValueError otherwise."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(
            f"{split} features must be 2-D (samples, features), got shape {features.shape}"
        )
    if features.shape[0] < 1:
        raise ValueError(f"{split} split is empty: it needs at least one sample")
    if not np.isfinite(features).all():
        raise ValueError(f"{split} features contain non-finite values")
    return features


def _classification_split(features, labels, split: str):
    """One split's features as a float (m, p) array with m >= 1 and its
    labels as m non-negative integers; raises ValueError for any other shape
    or value."""
    features = _split_rows(features, split)
    labels = np.asarray(labels)
    if labels.shape != (features.shape[0],):
        raise ValueError(
            f"{split} split needs one label per feature row: got labels of shape "
            f"{labels.shape} for {features.shape[0]} rows"
        )
    if labels.dtype.kind not in "iu" or (labels < 0).any():
        raise ValueError(f"{split} labels must be integers >= 0")
    return features, labels.astype(int)


@dataclass
class HypercleanProblem:
    """Synthetic corrupted-label classification instance.

    Features are stored one sample per row. ``corruption_mask`` is ground
    truth (which training labels were flipped) and is used only by tests and
    reporting, never by the oracle.
    """

    train_features: np.ndarray
    train_labels: np.ndarray
    val_features: np.ndarray
    val_labels: np.ndarray
    ridge_c: float = 0.001
    corruption_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        self.train_features, self.train_labels = _classification_split(
            self.train_features, self.train_labels, "train"
        )
        self.val_features, self.val_labels = _classification_split(
            self.val_features, self.val_labels, "val"
        )
        if self.val_features.shape[1] != self.train_features.shape[1]:
            raise ValueError(
                f"train and val features must share the feature count, got "
                f"{self.train_features.shape[1]} and {self.val_features.shape[1]}"
            )
        if not 0 <= self.ridge_c < np.inf:  # also rejects NaN
            raise ValueError(f"ridge_c must be a finite number >= 0, got {self.ridge_c}")
        if self.corruption_mask is None:
            self.corruption_mask = np.zeros(self.train_labels.size, dtype=bool)
        self.corruption_mask = np.asarray(self.corruption_mask, dtype=bool)
        if self.corruption_mask.shape != self.train_labels.shape:
            raise ValueError("corruption_mask must hold one flag per training label")
        # A set check: np.unique would import numpy.ma (over 1 MB resident).
        missing = set(self.train_labels.tolist()) ^ set(self.val_labels.tolist())
        if missing:
            raise ValueError(
                f"degenerate split: class {min(missing)} missing from train or val"
            )

    @property
    def n_features(self) -> int:
        return self.train_features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(max(self.train_labels.max(), self.val_labels.max())) + 1

    @property
    def n_train(self) -> int:
        return self.train_labels.size

    @property
    def theta_dim(self) -> int:
        # weights plus a bias row per class
        return (self.n_features + 1) * self.n_classes


def make_synthetic_hyperclean(
    seed: int, m_tr: int = 300, m_val: int = 100, p: int = 10, corrupt_frac: float = 0.3,
    ridge_c: float = HypercleanProblem.ridge_c,
) -> HypercleanProblem:
    """Two Gaussian clusters (one per class), balanced splits, with a fraction
    of training labels flipped to the wrong class.

    Flipping (rather than resampling uniformly over all classes) makes the
    corruption mask exact: every marked sample really carries a wrong label.
    Identical seeds yield bit-identical datasets.
    """
    if not 0.0 <= corrupt_frac < 1.0:
        raise ValueError(f"corrupt_frac must lie in [0, 1), got {corrupt_frac}")
    _require_int(m_tr=m_tr, m_val=m_val, p=p)
    if m_tr < 2 or m_val < 2:
        raise ValueError("need at least two samples per split")
    if p < 1:
        raise ValueError(f"feature dimension p must be >= 1, got {p}")
    rng = np.random.default_rng(seed)
    mu = 1.5 / np.sqrt(p) * np.ones(p)

    def draw(m: int):
        labels = np.arange(m) % 2  # class-balanced
        feats = rng.standard_normal((m, p)) + np.where(labels[:, None] == 1, mu, -mu)
        perm = rng.permutation(m)
        return feats[perm], labels[perm]

    train_x, train_y = draw(m_tr)
    val_x, val_y = draw(m_val)
    n_corrupt = int(round(corrupt_frac * m_tr))
    corrupted = rng.choice(m_tr, size=n_corrupt, replace=False)
    train_y = train_y.copy()
    train_y[corrupted] = 1 - train_y[corrupted]
    mask = np.zeros(m_tr, dtype=bool)
    mask[corrupted] = True
    return HypercleanProblem(
        train_features=train_x,
        train_labels=train_y,
        val_features=val_x,
        val_labels=val_y,
        ridge_c=float(ridge_c),
        corruption_mask=mask,
    )


def _augment(features: np.ndarray) -> np.ndarray:
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _shifted_scores(x_t: np.ndarray, theta_mat: np.ndarray):
    """Class scores shifted by their sample's max, and the log-partition sums.

    ``x_t`` holds the augmented features one sample per column, shape
    ``(p+1, m)``, and ``theta_mat`` is ``(p+1, C)``. Returns
    ``(scores, log_z)``: the scores are stored class-major, so
    ``scores[k, i]`` is sample i's score for class k minus the largest of
    its scores, and ``log_z[i]`` is ``log(sum_k exp(scores[k, i]))``.
    Sample i's cross-entropy for label y is then ``log_z[i] - scores[y, i]``,
    and its class probabilities are ``exp(scores[:, i] - log_z[i])``.
    ``scores`` is a fresh array the caller may overwrite.

    With the C classes as rows, the max and the sum over classes run over
    contiguous length-m rows. The max is exact in any order. Below 8 terms
    numpy's sum over a length-C row adds in plain order, and so does its
    sum down the C rows, so the two match bit for bit. From 8 terms on the
    row sum keeps eight partial sums, so it runs on a contiguous (m, C) copy.
    """
    scores = theta_mat.T @ x_t
    n_classes = scores.shape[0]
    scores -= scores.max(axis=0)
    e = np.exp(scores)
    if n_classes < 8:
        total = e.sum(axis=0)
    else:
        total = np.ascontiguousarray(e.T).sum(axis=1)
    return scores, np.log(total, out=total)


def _label_onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Class-major one-hot labels: ``out[k, i]`` is 1 where sample i has label k."""
    out = np.zeros((n_classes, labels.size))
    out[labels, np.arange(labels.size)] = 1.0
    return out


def hyperclean_oracle(prob: HypercleanProblem) -> BilevelOracle:
    """Oracle for the reweighting problem.

    f is the mean validation cross-entropy (unweighted); g is the weighted
    training loss sum_i clip(v_i, [0,1]) * loss_i plus c * ||theta||^2. The
    clip's derivative is taken as the indicator of v_i in the open interval
    (0, 1): zero at and outside the boundary.

    Scores and residuals are class-major ``(C, m)`` arrays (see
    ``_shifted_scores``), but the gradient product takes the sample-major
    features: ``x_aug.T @ r.T`` keeps the bits of the product with an
    ``(m, C)`` residual, where ``x_t @ r.T`` differs in the last bit.

    The oracle keeps per-point memos, so a repeated point costs no second
    score pass: the last two training passes that ``eval_g`` or ``grad_g``
    made (in a BOME step, at the start point and at theta^(T)), each with the
    theta block of grad g for the last v, the last validation pass, and
    ``clip(v)`` with its open-interval mask for the last v. ``grad_g_theta``
    reads the training memo but does not fill it, so the inner iterates never
    evict the start point. Keys are the bytes of the inputs and every hit
    returns fresh arrays, so a caller may mutate its inputs and outputs
    freely. The memos make the oracle stateful: one oracle object must not be
    shared across threads.
    """
    x_tr = _augment(prob.train_features)
    x_val = _augment(prob.val_features)
    xt_tr = np.ascontiguousarray(x_tr.T)
    xt_val = np.ascontiguousarray(x_val.T)
    n_classes = prob.n_classes
    c = prob.ridge_c
    y_tr_onehot = _label_onehot(prob.train_labels, n_classes)
    y_val_onehot = _label_onehot(prob.val_labels, n_classes)
    # flat index of each sample's own-label score in a C-contiguous (C, m)
    # score matrix
    pick_tr = prob.train_labels * prob.n_train + np.arange(prob.n_train)
    pick_val = prob.val_labels * prob.val_labels.size + np.arange(prob.val_labels.size)
    theta_shape = (x_tr.shape[1], n_classes)

    def score(x_t: np.ndarray, theta: np.ndarray):
        return _shifted_scores(x_t, theta.reshape(theta_shape))

    def residuals(scores: np.ndarray, log_z: np.ndarray, onehot: np.ndarray) -> np.ndarray:
        # softmax probabilities minus the one-hot labels, formed in place
        scores -= log_z
        np.exp(scores, out=scores)
        scores -= onehot
        return scores

    def score_pass(x_t, theta, pick, onehot) -> tuple:
        scores, log_z = score(x_t, theta)
        # the losses are gathered before the residual overwrites the scores
        return log_z - scores.ravel()[pick], residuals(scores, log_z, onehot)

    # clip(v, [0, 1]) and the open-interval mask
    weights = _keyed_memo(lambda v: (np.clip(v, 0.0, 1.0), (v > 0.0) & (v < 1.0)))
    val_pass = _keyed_memo(lambda theta: score_pass(xt_val, theta, pick_val, y_val_onehot))

    def train_fill(theta: np.ndarray) -> tuple:
        # the losses and the theta block of grad g, formed once per v; the
        # block keeps a copy of theta, as the caller may mutate its own
        loss, residual = score_pass(xt_tr, theta, pick_tr, y_tr_onehot)
        theta = theta.copy()
        block = _keyed_memo(
            lambda v: (x_tr.T @ (residual * weights(v)[0]).T).ravel() + 2.0 * c * theta
        )
        return loss, block

    train_pass = _keyed_memo(train_fill, size=2)

    def eval_f(p: JointPoint) -> float:
        return float(val_pass(p.theta)[0].mean())

    def grad_f(p: JointPoint) -> JointGradient:
        grad_mat = x_val.T @ val_pass(p.theta)[1].T / x_val.shape[0]
        return JointGradient(np.zeros(prob.n_train), grad_mat.ravel())

    def eval_g(p: JointPoint) -> float:
        return float(weights(p.v)[0] @ train_pass(p.theta)[0] + c * (p.theta @ p.theta))

    def grad_g(p: JointPoint) -> JointGradient:
        loss, block = train_pass(p.theta)
        dv = np.where(weights(p.v)[1], loss, 0.0)
        return JointGradient(dv, block(p.v).copy())

    def grad_g_theta(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        kept = train_pass.peek(theta)
        if kept is not None:
            return kept[1](v).copy()
        # an inner iterate: one pass whose scores become the weighted
        # residual in place, and nothing kept
        scores, log_z = score(xt_tr, theta)
        r = residuals(scores, log_z, y_tr_onehot)
        r *= weights(v)[0]
        return (x_tr.T @ r.T).ravel() + 2.0 * c * theta

    return BilevelOracle(
        eval_f=eval_f,
        grad_f=grad_f,
        eval_g=eval_g,
        grad_g=grad_g,
        grad_g_theta=grad_g_theta,
        name="hyperclean",
    )


# ---------------------------------------------------------------------------
# Learnable per-coefficient ridge: the inner objective is the training sum of
# squares plus ||diag(exp(v)) theta||^2, strictly convex in theta for every v,
# with the closed-form normal-equations minimizer exposed.
# ---------------------------------------------------------------------------


def _regression_split(design, targets, split: str):
    """One split's design as a finite float (m, p) array with m >= 1 and its
    targets as m finite floats; raises ValueError otherwise."""
    design = _split_rows(design, split)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (design.shape[0],):
        raise ValueError(
            f"{split} split needs one target per design row: got targets of shape "
            f"{targets.shape} for {design.shape[0]} rows"
        )
    if not np.isfinite(targets).all():
        raise ValueError(f"{split} targets contain non-finite values")
    return design, targets


@dataclass
class RidgeRegProblem:
    """Regression splits for the learnable-regularization problem."""

    train_A: np.ndarray
    train_y: np.ndarray
    val_A: np.ndarray
    val_y: np.ndarray

    def __post_init__(self):
        self.train_A, self.train_y = _regression_split(self.train_A, self.train_y, "train")
        self.val_A, self.val_y = _regression_split(self.val_A, self.val_y, "val")
        if self.train_A.shape[1] != self.val_A.shape[1]:
            raise ValueError("train and val designs must share the feature dimension")

    @property
    def dim(self) -> int:
        return self.train_A.shape[1]


def make_synthetic_ridge(
    seed: int, m_tr: int = 50, m_val: int = 30, p: int = 5, noise: float = 0.1
) -> RidgeRegProblem:
    """Random Gaussian design with linear-model targets plus noise."""
    _require_int(m_tr=m_tr, m_val=m_val, p=p)
    if m_tr < 1 or m_val < 1:
        raise ValueError(f"need at least one sample per split, got m_tr={m_tr}, m_val={m_val}")
    if p < 1:
        raise ValueError(f"feature dimension p must be >= 1, got {p}")
    rng = np.random.default_rng(seed)
    theta_true = rng.standard_normal(p)
    train_A = rng.standard_normal((m_tr, p))
    val_A = rng.standard_normal((m_val, p))
    train_y = train_A @ theta_true + noise * rng.standard_normal(m_tr)
    val_y = val_A @ theta_true + noise * rng.standard_normal(m_val)
    return RidgeRegProblem(train_A, train_y, val_A, val_y)


def ridge_oracle(prob: RidgeRegProblem) -> BilevelOracle:
    """Oracle for the learnable-ridge problem.

    Declared smoothness and gradient-dominance constants describe the inner
    problem for v in roughly [-0.5, 0.5]; they are metadata for tests and
    step-size validation only.
    """
    A, y = prob.train_A, prob.train_y
    Av, yv = prob.val_A, prob.val_y
    gram = A.T @ A
    aty = A.T @ y
    eigs = np.linalg.eigvalsh(gram)
    meta = ProblemMetadata(
        smoothness_L=2.0 * (eigs[-1] + np.exp(1.0)),
        pl_constant_kappa=4.0 * (eigs[0] + np.exp(-1.0)),
    )

    def eval_f(p: JointPoint) -> float:
        r = Av @ p.theta - yv
        return float(r @ r)

    def grad_f(p: JointPoint) -> JointGradient:
        r = Av @ p.theta - yv
        return JointGradient(np.zeros(prob.dim), 2.0 * (Av.T @ r))

    def eval_g(p: JointPoint) -> float:
        r = A @ p.theta - y
        pen = np.exp(2.0 * p.v) @ (p.theta * p.theta)
        return float(r @ r + pen)

    def grad_g(p: JointPoint) -> JointGradient:
        r = A @ p.theta - y
        scale = np.exp(2.0 * p.v)
        dv = 2.0 * scale * p.theta * p.theta
        dtheta = 2.0 * (A.T @ r) + 2.0 * scale * p.theta
        return JointGradient(dv, dtheta)

    def grad_g_theta(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return 2.0 * (A @ theta - y) @ A + 2.0 * np.exp(2.0 * v) * theta

    def exact_inner_opt(v: np.ndarray) -> np.ndarray:
        system = gram + np.diag(np.exp(2.0 * np.asarray(v, dtype=float)))
        try:
            return np.linalg.solve(system, aty)
        except np.linalg.LinAlgError as exc:  # unreachable for finite v
            raise NumericalError(f"inner normal-equations solve failed: {exc}") from exc

    return BilevelOracle(
        eval_f=eval_f,
        grad_f=grad_f,
        eval_g=eval_g,
        grad_g=grad_g,
        grad_g_theta=grad_g_theta,
        exact_inner_opt=exact_inner_opt,
        metadata=meta,
        name="ridge",
    )


def export_dataset_csv(prob: HypercleanProblem, path, split: str = "train") -> None:
    """Write a synthetic classification split as CSV.

    Columns are feature_0..feature_{p-1}, label, is_corrupted (0/1; always 0
    for the validation split). Floats carry 17 significant digits so the file
    round-trips bit-exactly.
    """
    if split == "train":
        feats, labels = prob.train_features, prob.train_labels
        mask = prob.corruption_mask
    elif split == "val":
        feats, labels = prob.val_features, prob.val_labels
        mask = np.zeros(labels.size, dtype=bool)
    else:
        raise ValueError(f"split must be 'train' or 'val', got {split!r}")
    header = [f"feature_{j}" for j in range(feats.shape[1])] + ["label", "is_corrupted"]
    np.savetxt(path, np.column_stack([feats, labels, mask]), delimiter=",",
               fmt=["%.17g"] * feats.shape[1] + ["%d", "%d"], header=",".join(header),
               comments="")
