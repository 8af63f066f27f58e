"""First-order bilevel optimization via dynamic-barrier gradient descent on
the value-function reformulation, with stationarity metrics, benchmark
problems, mini-max baselines, and a CLI harness.
"""

from .core import (
    BarrierKind,
    BilevelError,
    BilevelOracle,
    ConfigurationError,
    JointGradient,
    JointPoint,
    MissingOracleCapability,
    NotConvergedError,
    NumericalError,
    ProblemMetadata,
    SolverConfig,
    StepDiagnostics,
    validate_config,
)
from .inner_loop import InnerResult, attraction_point, inner_descent
from .barrier_step import (
    BarrierSolution,
    bome_step,
    compute_lambda,
    compute_phi,
    grad_q_hat,
    q_hat_value,
)
from .metrics import (
    KktReport,
    KktVariant,
    kkt_attraction,
    kkt_exact,
    kkt_proxy,
)
from .problems import (
    CoresetProblem,
    HypercleanProblem,
    RidgeRegProblem,
    coreset_oracle,
    export_dataset_csv,
    hyperclean_oracle,
    lls_oracle,
    make_synthetic_hyperclean,
    make_synthetic_ridge,
    minimax_oracle,
    ridge_oracle,
    softmax,
    softmax_jacobian,
)
from .baselines import gda_step, ogd_step
from .gradcheck import (
    GradCheckReport,
    check_gradient,
    check_oracle_gradients,
    check_plug_in_estimator,
)
from .runner import Method, Termination, Trace, run, running_min_kkt

__version__ = "0.1.0"

__all__ = [
    "BarrierKind",
    "BarrierSolution",
    "BilevelError",
    "BilevelOracle",
    "ConfigurationError",
    "CoresetProblem",
    "GradCheckReport",
    "HypercleanProblem",
    "InnerResult",
    "JointGradient",
    "JointPoint",
    "KktReport",
    "KktVariant",
    "Method",
    "MissingOracleCapability",
    "NotConvergedError",
    "NumericalError",
    "ProblemMetadata",
    "RidgeRegProblem",
    "SolverConfig",
    "StepDiagnostics",
    "Termination",
    "Trace",
    "attraction_point",
    "bome_step",
    "check_gradient",
    "check_oracle_gradients",
    "check_plug_in_estimator",
    "compute_lambda",
    "compute_phi",
    "coreset_oracle",
    "export_dataset_csv",
    "gda_step",
    "grad_q_hat",
    "hyperclean_oracle",
    "inner_descent",
    "kkt_attraction",
    "kkt_exact",
    "kkt_proxy",
    "lls_oracle",
    "make_synthetic_hyperclean",
    "make_synthetic_ridge",
    "minimax_oracle",
    "ogd_step",
    "q_hat_value",
    "ridge_oracle",
    "run",
    "running_min_kkt",
    "softmax",
    "softmax_jacobian",
    "validate_config",
]
