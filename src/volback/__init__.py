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
