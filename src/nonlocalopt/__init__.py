"""Kernel-based nonlocal differential operators and optimization methods.

The package turns difference quotients averaged against concentrating radial
densities into usable gradients and Hessians for objectives that classical
calculus cannot differentiate, and builds descent, stochastic descent, and
Newton iterations on top of them.
"""

__version__ = "0.1.0"

from .fields import BoxDomain, ScalarField, SubsetIndicator, extend_by_zero
from .kernels import RadialKernel, bump_kernel, gaussian_kernel
from .operators import (
    ALTERNATE_CONSTANT,
    CENTRAL,
    FD_NONLOCAL,
    GRAD_SMOOTHED,
    MOMENT_CONSTANT,
    NESTED,
    HessianVariant,
    OperatorConfig,
    directional_second_moments,
    find_vanishing_subset_1d,
    nonlocal_gradient,
    nonlocal_hessian,
    restricted_nonlocal_gradient,
)
from .optimizers import (
    DIVERGED,
    GRAD_TOL,
    LEFT_DOMAIN,
    MAX_ITERS,
    OptimizerTrace,
    SgdConfig,
    StepSchedule,
    epsilon_sgd,
    epsilon_sgd_batch,
    local_counterpart,
    nlgd_fixed,
    nlgd_linesearch,
    nonlocal_newton,
)
from .oracles import mc_nonlocal_gradient
from .pulse import (
    PulseManifold,
    PulseRunConfig,
    PulseRunSummary,
    default_holder_offsets,
    holder_exponent_fit,
    run_pulse_experiment,
)
from .quadrature import QuadratureGrid, build_panel_grid
from .reporting import emit_csv, emit_plot_svg, read_trace_csv
from .sweeps import SweepReport, convergence_sweep, monotone_decreasing

__all__ = [name for name in dir() if not name.startswith("_")]
