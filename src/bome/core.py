"""Domain types shared by the solver: joint points, gradients, the bilevel
oracle contract, solver configuration, and per-step diagnostics.

A bilevel problem is

    min_{v, theta} f(v, theta)   s.t.   theta in argmin_{theta'} g(v, theta')

with outer variable ``v`` (length m) and inner variable ``theta`` (length n).
Problems are supplied as a :class:`BilevelOracle` of analytic evaluators; the
solver never differentiates anything itself.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np


class BilevelError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(BilevelError):
    """A solver or experiment configuration violates a hard precondition."""


class NumericalError(BilevelError):
    """A non-finite value appeared where a finite one is required."""


class MissingOracleCapability(BilevelError):
    """An operation needs an optional oracle capability that is absent."""


_FLOAT = np.dtype(float)


def _float_array(x) -> np.ndarray:
    # x itself when it already is a 1-D float64 array
    if type(x) is np.ndarray and x.dtype == _FLOAT and x.ndim == 1:
        return x
    return np.atleast_1d(np.asarray(x, dtype=float))


def _as_vector(x, name: str) -> np.ndarray:
    x = _float_array(x)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"{name} must be a 1-D vector with at least one entry")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite values")
    return x


@dataclass
class JointPoint:
    """A pair (v, theta) of outer and inner variables.

    Both vectors are dense float64 and must be finite and non-empty.
    """

    v: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.v = _as_vector(self.v, "v")
        self.theta = _as_vector(self.theta, "theta")

    @classmethod
    def _trusted(cls, v: np.ndarray, theta: np.ndarray) -> "JointPoint":
        # fast path for hot loops: caller guarantees validated float vectors
        obj = object.__new__(cls)
        obj.v = v
        obj.theta = theta
        return obj

    @classmethod
    def _checked(cls, v: np.ndarray, theta: np.ndarray) -> "JointPoint":
        # a solver's new iterate: a finite sum of squares means finite entries,
        # which are checked one by one only when it is not (huge ones overflow it)
        if not math.isfinite(float(v.dot(v)) + float(theta.dot(theta))):
            if not (np.isfinite(v).all() and np.isfinite(theta).all()):
                raise NumericalError("non-finite iterate after update")
        return cls._trusted(v, theta)

    @property
    def m(self) -> int:
        return self.v.size

    @property
    def n(self) -> int:
        return self.theta.size

    def copy(self) -> "JointPoint":
        return JointPoint(self.v.copy(), self.theta.copy())


@dataclass
class JointGradient:
    """A gradient over the joint variable (v, theta), stored blockwise."""

    dv: np.ndarray
    dtheta: np.ndarray

    def __post_init__(self):
        self.dv = _float_array(self.dv)
        self.dtheta = _float_array(self.dtheta)

    @classmethod
    def _trusted(cls, dv: np.ndarray, dtheta: np.ndarray) -> "JointGradient":
        # fast path for hot loops: caller guarantees 1-D float64 arrays
        obj = object.__new__(cls)
        obj.dv = dv
        obj.dtheta = dtheta
        return obj

    def norm(self) -> float:
        # math.sqrt is correctly rounded, as np.sqrt is
        return math.sqrt(joint_dot(self, self))


def joint_dot(a: JointGradient, b: JointGradient) -> float:
    """Inner product of two joint gradients."""
    return float(a.dv.dot(b.dv)) + float(a.dtheta.dot(b.dtheta))


def joint_axpy(a: JointGradient, scale: float, b: JointGradient) -> JointGradient:
    """Return a + scale * b, blockwise."""
    return JointGradient._trusted(a.dv + scale * b.dv, a.dtheta + scale * b.dtheta)


@dataclass
class ProblemMetadata:
    """Optional problem constants used only by tests and config validation.

    The solver's update rule never reads these; they exist so that step-size
    warnings and convergence-rate checks can be stated for problems whose
    constants are known.

    Attributes:
        smoothness_L: Lipschitz constant of the joint gradients of f and g.
        pl_constant_kappa: gradient-dominance constant of g(v, .):
            ||grad_theta g||^2 >= kappa * (g - min_theta g).
        bound_M: uniform bound on |f|, |g| and the gradient norms over the
            region a run visits.
        known_optimum: the bilevel optimum when available in closed form.
    """

    smoothness_L: Optional[float] = None
    pl_constant_kappa: Optional[float] = None
    bound_M: Optional[float] = None
    known_optimum: Optional[JointPoint] = None

    def __post_init__(self):
        for name in ("smoothness_L", "pl_constant_kappa", "bound_M"):
            val = getattr(self, name)
            if val is not None and not 0 < val < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite, got {val}")


@dataclass
class BilevelOracle:
    """User-supplied evaluators for a bilevel problem.

    Required callables take a :class:`JointPoint` and return a float
    (``eval_f``, ``eval_g``) or a :class:`JointGradient` (``grad_f``,
    ``grad_g``) dimensionally consistent with the input point.

    Optional capabilities:
        exact_inner_opt: v -> theta*(v), a closed-form inner minimizer (any
            one, when they are not unique). That suffices for exact
            stationarity: g(v, theta*(v)) is the optimal inner value, and the
            partial v-gradient of g there is the value-function gradient, for
            every minimizer.
        grad_g_theta: (v, theta) -> grad_theta g, a fast path for the inner
            loop that skips assembling the full joint gradient. Without it,
            inner descent takes the theta block of ``grad_g``.
    """

    eval_f: Callable[[JointPoint], float]
    grad_f: Callable[[JointPoint], JointGradient]
    eval_g: Callable[[JointPoint], float]
    grad_g: Callable[[JointPoint], JointGradient]
    exact_inner_opt: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_g_theta: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    metadata: Optional[ProblemMetadata] = None
    name: str = ""


class BarrierKind(enum.Enum):
    """Choice of the dynamic barrier phi_k."""

    GRAD_NORM_SQ = "gradnorm"  # phi = eta * ||grad q_hat||^2 (default)
    VALUE = "value"            # phi = eta * max(q_hat, 0)


_BARRIER_NAMES = tuple(kind.value for kind in BarrierKind)

# The steps that, when unset, follow the outer step xi.
_FOLLOW_XI = ("inner_step_alpha", "xi_v", "xi_theta")


@dataclass
class SolverConfig:
    """All solver hyperparameters.

    Defaults mirror the recommended settings: eta = 0.5, T = 10 inner steps,
    gradient-norm-squared barrier, no momentum, and the inner step and the
    separate v and theta outer steps all equal to the outer step xi. Unset
    steps are resolved at construction, so ``dataclasses.replace`` of
    ``outer_step_xi`` alone leaves them at the old xi.

    This is the one table of a config's solver object. Its fields, in order,
    are the object's keys, each named in its metadata, and the keys a run or
    sweep also takes as a flag are marked ``flag``.
    """

    outer_step_xi: float = field(default=0.05, metadata={"key": "xi", "flag": True})
    inner_step_alpha: Optional[float] = field(default=None,
                                              metadata={"key": "alpha", "flag": True})
    inner_iters_T: int = field(default=10, metadata={"key": "T", "flag": True})
    eta: float = field(default=0.5, metadata={"key": "eta", "flag": True})
    barrier_kind: BarrierKind = field(default=BarrierKind.GRAD_NORM_SQ,
                                      metadata={"key": "barrier", "flag": True})
    max_outer_iters_K: int = field(default=1000, metadata={"key": "iters", "flag": True})
    momentum_beta: float = field(default=0.0, metadata={"key": "momentum"})
    kkt_eval_every: int = field(default=10, metadata={"key": "kkt_every"})
    stop_kkt_tol: Optional[float] = field(default=None, metadata={"key": "stop_kkt_tol"})
    rng_seed: int = field(default=0, metadata={"key": "seed", "flag": True})
    xi_v: Optional[float] = field(default=None, metadata={"key": "xi_v"})
    xi_theta: Optional[float] = field(default=None, metadata={"key": "xi_theta"})

    def __post_init__(self):
        for name in _FOLLOW_XI:
            if getattr(self, name) is None:
                setattr(self, name, self.outer_step_xi)
        # a barrier name becomes its kind; validate_config rejects anything else
        if isinstance(self.barrier_kind, str) and self.barrier_kind in _BARRIER_NAMES:
            self.barrier_kind = BarrierKind(self.barrier_kind)


@dataclass
class StepDiagnostics:
    """Per-iteration record: the quantities of the step taken at iterate k.

    This is the one table of the step record. Its fields, in order, are the
    columns of the trace CSV, each named in its metadata, and the 8-byte words
    of a packed step: int64 for an ``int`` field, float64 for every other.
    """

    iter_k: int = field(metadata={"column": "k"})
    f_value: float = field(metadata={"column": "f"})
    q_hat: float = field(metadata={"column": "q_hat"})
    lambda_k: float = field(metadata={"column": "lambda"})
    phi_k: float = field(metadata={"column": "phi"})
    delta_norm: float = field(metadata={"column": "delta_norm"})
    grad_qhat_norm: float = field(metadata={"column": "grad_qhat_norm"})
    kkt_value: Optional[float] = field(default=None, metadata={"column": "kkt"})
    wall_time_micros: int = field(default=0, metadata={"column": "wall_us"})


_STEP_FIELDS = tuple(f.name for f in fields(StepDiagnostics))
# one struct type code per field (annotations are strings here)
_STEP_CODES = "".join("q" if f.type == "int" else "d" for f in fields(StepDiagnostics))
_UNSCORED = math.nan  # a scored kkt value is finite
_PACKED_STEP = struct.Struct("=" + _STEP_CODES)
# Readers unpack copies of at most this much: unpacking the live buffer would
# lock it against appends, and copying it whole would double the trace
_BLOCK_BYTES = 256 * _PACKED_STEP.size


class StepRecords(Sequence):
    """The steps of one run, packed one after another in a bytearray, one
    8-byte word per field of :class:`StepDiagnostics`: 72 bytes a step.

    It reads as a sequence of StepDiagnostics rows. A row is built on each
    read, so assigning to its fields leaves the records unchanged. An
    unscored step reads as ``kkt_value=None``.
    """

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf = bytearray()

    def append(self, iter_k, f_value, q_hat, lambda_k, phi_k, delta_norm, grad_qhat_norm,
               kkt_value, wall_time_micros) -> None:
        """Keep one step; a ``kkt_value`` of None marks it unscored."""
        self._buf += _PACKED_STEP.pack(
            iter_k, f_value, q_hat, lambda_k, phi_k, delta_norm, grad_qhat_norm,
            _UNSCORED if kkt_value is None else kkt_value, wall_time_micros,
        )

    def __len__(self) -> int:
        return len(self._buf) // _PACKED_STEP.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        at = range(len(self))[k] * _PACKED_STEP.size
        row = StepDiagnostics(*_PACKED_STEP.unpack_from(self._buf, at))
        if row.kkt_value != row.kkt_value:
            row.kkt_value = None
        return row

    def __iter__(self) -> Iterator[StepDiagnostics]:
        return itertools.starmap(StepDiagnostics, self.rows())

    def column(self, name: str) -> Iterator:
        """The values of one StepDiagnostics field, step by step."""
        i = _STEP_FIELDS.index(name)
        code, stride = _STEP_CODES[i], len(_STEP_FIELDS)
        # a block's copy read as 8-byte words of the field's type, step after
        # step; the field is word i of each step
        blocks = (memoryview(self._buf[start:start + _BLOCK_BYTES]).cast(code)[i::stride]
                  for start in range(0, len(self._buf), _BLOCK_BYTES))
        values = itertools.chain.from_iterable(blocks)
        return (None if x != x else x for x in values) if name == "kkt_value" else values

    def rows(self, names: Sequence[str] = _STEP_FIELDS) -> Iterator[tuple]:
        """The values of the named fields (all, in field order, by default)
        as one tuple per step."""
        return zip(*map(self.column, names))


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def validate_config(cfg: SolverConfig, meta: Optional[ProblemMetadata] = None) -> list[str]:
    """Validate a solver configuration.

    Hard violations (a non-numeric, non-positive or infinite step size, eta
    or tolerance, an unknown barrier, a non-integer or out-of-range iteration
    count or seed) raise :class:`ConfigurationError` listing every violated
    constraint. Soft theory violations against declared problem constants are
    returned as human-readable warnings; the solver still runs with them.
    """
    errors = []
    for name in ("outer_step_xi", *_FOLLOW_XI, "eta"):
        value = getattr(cfg, name)
        if not (_is_real(value) and 0 < value < math.inf):
            errors.append(f"{name} must be a finite number > 0, got {value}")
    if not isinstance(cfg.barrier_kind, BarrierKind):
        names = " or ".join(map(repr, _BARRIER_NAMES))
        errors.append(f"barrier must be {names}, got {cfg.barrier_kind!r}")
    if not (_is_int(cfg.inner_iters_T) and cfg.inner_iters_T >= 0):
        errors.append(f"inner_iters_T must be an integer >= 0, got {cfg.inner_iters_T}")
    if not (_is_int(cfg.max_outer_iters_K) and cfg.max_outer_iters_K >= 1):
        errors.append(f"max_outer_iters_K must be an integer >= 1, got {cfg.max_outer_iters_K}")
    if not (_is_int(cfg.kkt_eval_every) and cfg.kkt_eval_every >= 1):
        errors.append(f"kkt_eval_every must be an integer >= 1, got {cfg.kkt_eval_every}")
    if not (_is_real(cfg.momentum_beta) and 0.0 <= cfg.momentum_beta < 1.0):
        errors.append(f"momentum_beta must be a number in [0, 1), got {cfg.momentum_beta}")
    tol = cfg.stop_kkt_tol
    if tol is not None and not (_is_real(tol) and 0 < tol < math.inf):
        errors.append(f"stop_kkt_tol must be a finite number > 0 when set, got {tol}")
    if not (_is_int(cfg.rng_seed) and cfg.rng_seed >= 0):
        errors.append(f"rng_seed must be an integer >= 0, got {cfg.rng_seed}")
    if errors:
        raise ConfigurationError("; ".join(errors))

    warnings: list[str] = []
    if meta is not None and meta.smoothness_L is not None:
        bound = 1.0 / meta.smoothness_L
        if cfg.xi_v > bound or cfg.xi_theta > bound:
            warnings.append(
                f"xi > 1/L: outer step ({cfg.xi_v}, {cfg.xi_theta}) exceeds "
                f"1/L = {bound:.6g}; convergence guarantees may not apply"
            )
        if cfg.inner_step_alpha > bound:
            warnings.append(
                f"alpha > 1/L: inner step {cfg.inner_step_alpha} exceeds "
                f"1/L = {bound:.6g}; inner descent may not be monotone"
            )
    return warnings
