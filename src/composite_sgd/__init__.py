"""Stochastic proximal gradient solvers for composite objectives f(x) + lam * Omega(x),
with exact prox maps, dual-ball smoothing, synthetic problems, and a benchmark CLI."""

from .core import (
    ConvergenceError,
    DimensionError,
    DivergenceError,
    ParameterError,
    RngStream,
    TraceRecord,
)
from .regularizers import (
    GroupStructure,
    Regularizer,
    build_hierarchical,
    evaluate,
    group_norm,
    l1,
    load_group_structure,
    prox,
    save_group_structure,
    soft_threshold,
)
from .smoothing import (
    SmoothedRegularizer,
    lipschitz_mu,
    maximizer,
    mu_schedule,
    smoothed,
    smoothed_gradient,
    smoothed_value,
)
from .solvers import (
    pilot_sigma_sq,
    resolve_acsa_params,
    run_acsa,
    run_sg,
    run_ssg,
    theorem_bound,
    theorem_bound_smoothed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
