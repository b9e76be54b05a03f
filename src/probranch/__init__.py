"""probranch: probabilistic cardinality branching on an in-repo MILP solver.

The package bundles a problem/solution data model, dense LP backends
(bounded dual simplex and a predictor-corrector interior point), an
LP-based branch-and-bound solver, per-variable probability predictors,
the cardinality-hyperplane branching machinery, seeded instance
generators, and a benchmark/validation harness with a CLI front end.
"""

from .model import (
    FEASIBILITY_TOL,
    INTEGRALITY_TOL,
    InvariantViolationError,
    LinearRow,
    MalformedDocumentError,
    MipInstance,
    Solution,
    check_feasible,
    deserialize,
    serialize,
)
from .lp import LpSolution, solve_ipm, solve_simplex
from .bnb import SolveOptions, SolveReport, solve_mip
from .predict import (
    LogisticModel,
    Prediction,
    load_prediction,
    logistic_predict,
    logistic_train,
    lp_root_predict,
    save_prediction,
)
from .branching import (
    AccuracyStats,
    Calibration,
    CardinalityHyperplane,
    NoFeasibleThresholdError,
    PartitionReport,
    accuracy_curves,
    build_hyperplanes,
    calibrate,
    partition_regions,
    partition_solve,
    round_prediction,
    select_tau,
    sigma_from_stats,
)
from .generators import (
    InstanceFamily,
    UniformKnapsack,
    gen_ca,
    gen_knapsack_uniform,
    gen_mkp,
    gen_scp,
    read_family,
    write_family,
)
from .bench import (
    BenchConfig,
    BenchReport,
    report_emit,
    run_benchmark,
    sgm,
    time_to_target,
    verify_knapsack_rounding,
    verify_lemma,
)

__version__ = "0.1.0"
