"""fragsim: exact laws, simulation engines and verification statistics for
the k-regular equal-split fragmentation process and its rescaled branching
random walk."""

from .brw import (
    DEFAULT_POINT_FLOOR,
    GenerationFrame,
    GenerationSummary,
    ReplicaSweep,
    SpinePath,
    brw_frames,
    brw_sweep,
    kmin_kmax_sweep,
    spine_sample,
    spine_sum_samples,
    sweep_replicas,
    tree_matrices,
)
from .errors import (
    BudgetError,
    ConvergenceError,
    DomainError,
    FragsimError,
    SpecError,
)
from .experiment import ExperimentSpec, ResultRecord, run_experiment
from .gillespie import DepthCensus, GillespieTrajectory, gillespie_run
from .laws import (
    REL_ERR_SWITCH,
    TailEval,
    gumbel_limit_cdf,
    perpetuity_cdf,
    perpetuity_density,
    perpetuity_survival,
    perpetuity_survival_limit,
    split_time_survival,
    tagged_depth_pmf,
)
from .lefttail import (
    critical_term_count,
    left_tail_exponent,
    left_tail_sandwich,
    log_left_tail_upper,
    stirling_exponent,
)
from .params import ModelParams, as_kappa, as_q
from .predictors import (
    PredictorWindow,
    ceil_strict,
    largest_depth_center,
    largest_depth_envelope_inverses,
    largest_depth_window,
    min_leaf_bracket,
    min_leaf_center,
    mu_largest,
    mu_smallest,
    smallest_depth_center,
    smallest_depth_envelope_inverse,
    smallest_depth_window,
    solve_min_leaf_center,
    staircase_value_window,
)
from .qseries import qpochhammer, qpochhammer_factors, qpochhammer_limit
from .seeds import SeedSpec, stream_seed
from .stats import (
    CorrelationReport,
    CoverageReport,
    IntervalCountReport,
    KSReport,
    factorial_moment_estimate,
    factorial_moment_samples,
    generation_count_correlation,
    intensity_profile,
    ks_gumbel,
    largest_window_coverage,
    min_concentration,
    smallest_window_coverage,
)

__version__ = "0.1.0"
