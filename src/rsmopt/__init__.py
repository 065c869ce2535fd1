"""Multiresponse surface fitting and stochastic-criterion optimization."""

from .model import (
    ExperimentData,
    Region,
    TermSpec,
    build_design_matrix,
    evaluate_basis,
)
from .fit import (
    CovCompare,
    FittedModel,
    SingularDesignError,
    compare_covariances,
    covariance_at,
    eigen_sym,
    fit_ols,
    matrix_criterion,
    matrix_sqrt,
    moments,
    predict,
    unit_variance,
)
from .programs import (
    GoalDeviations,
    MethodConfig,
    ScalarProgram,
    goal_deviations,
    goal_programming,
    joint_probability_mc,
    kataoka_epsilon,
    kataoka_terms,
    kataoka_weighting,
    mean_weighting,
    modified_e_epsilon,
    modified_e_weighting,
    normal_quantile,
    p_model_epsilon,
    p_model_terms,
    p_model_weighting,
    v_model,
)
from .solve import (
    ParetoSet,
    SolveResult,
    grid_search,
    multistart,
    pareto_front,
    slsqp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
