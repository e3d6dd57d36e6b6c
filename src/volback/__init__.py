"""Backstepping boundary control for transport equations with spatial
Volterra-series nonlinearities.

The package is organised around the objects that appear in the control
design:

``simplex``
    ordered simplex domains and their Gauss-Legendre quadrature (used
    only for kernel norms),
``polynomial``
    exact rational polynomials in one variable and polynomial kernels
    on simplices,
``volterra``
    grid functions, Volterra kernel series, their evaluation on the mesh
    by one trapezoid cascade, and the gain functions built from kernel
    norms,
``charkernels``
    the characteristic-line recursion that produces the controller
    kernels order by order, in exact rational arithmetic,
``gapcascade``
    the divided-power (gap polynomial) representation and the scalar
    ODE cascade that produces the same kernels symbolically,
``inversion``
    Picard inversion of the state transformation, its Frechet
    derivative on the mesh, and the sampled Lipschitz ratios,
``simulator``
    a finite-difference simulator for the closed loop, the target
    semigroup, and stability constants,
``harness``
    command line entry points and experiment presets.
"""

__version__ = "0.1.0"

from .simplex import (
    QuadratureRule,
    SimplexDomainError,
    SimplexPoint,
    integrate_simplex,
    simplex_contains,
)
from .volterra import (
    GainFunctions,
    GridFunction,
    VolterraKernelSeries,
    check_growth_assumption,
    coupling_bound_check,
    gain_ell,
    gain_k,
    kernel_l2_sq,
    series_profile,
)
from .charkernels import (
    KernelNode,
    build_controller_kernels,
    pdae_closed_forms,
)
from .gapcascade import (
    GammaKey,
    GapCoefficientFamily,
    assemble_kernel_polynomial,
    cascade,
    coupling_c,
    dp_norm,
    gamma_table,
    phi_eval,
)
from .inversion import (
    InversionConfig,
    choose_radius,
    lipschitz_check,
)
from .simulator import (
    SimConfig,
    SimulationRecord,
    feedback,
    mild_solution_residual,
    simulate,
    stability_constants,
    target_semigroup,
)

__all__ = [
    "QuadratureRule",
    "SimplexDomainError",
    "SimplexPoint",
    "integrate_simplex",
    "simplex_contains",
    "GainFunctions",
    "GridFunction",
    "VolterraKernelSeries",
    "check_growth_assumption",
    "coupling_bound_check",
    "gain_ell",
    "gain_k",
    "kernel_l2_sq",
    "series_profile",
    "KernelNode",
    "build_controller_kernels",
    "pdae_closed_forms",
    "GammaKey",
    "GapCoefficientFamily",
    "assemble_kernel_polynomial",
    "cascade",
    "coupling_c",
    "dp_norm",
    "gamma_table",
    "phi_eval",
    "InversionConfig",
    "choose_radius",
    "lipschitz_check",
    "SimConfig",
    "SimulationRecord",
    "feedback",
    "mild_solution_residual",
    "simulate",
    "stability_constants",
    "target_semigroup",
]
