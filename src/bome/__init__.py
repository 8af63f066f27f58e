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
    StepRecords,
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
