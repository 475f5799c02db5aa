"""Wagner-style discrete Gaussian sampling and solving for SIS lattices."""

from .errors import (
    BadDimensions,
    BlockSumMismatch,
    BudgetExceeded,
    DimensionMismatch,
    Infeasible,
    InfeasibleSchedule,
    InsufficientInputs,
    InsufficientSamples,
    NonInvertiblePivot,
    NotInLattice,
    PreconditionViolated,
    RankDeficient,
    WagnerSisError,
    WidthTooSmall,
)
from .zqlin import (
    SisInstance,
    Solution,
    matvec_mod,
    permute_solution_back,
    random_instance,
    systematic_form,
)
from .dgauss import GaussParam, sample_zn_rows
from .oracles import empirical_similarity, pmf_bruteforce
from .chain import StageDescriptor, build_chain
from .wagner import (
    MODE_HEURISTIC,
    MODE_NAIVE,
    MODE_PROVABLE,
    RunStats,
    Schedule,
    certify_smoothing,
    choose_heuristic_params,
    choose_naive_params,
    choose_provable_params,
    gaussian_wagner,
    naive_wagner,
)
from .solvers import SolveReport, solve_sis_inf, solve_sis_l2, verify
from .estimator import CostQuery, CostReport, dilithium_presets, estimate, min_weight

__version__ = "0.1.0"
