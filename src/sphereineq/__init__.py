"""Sharp and improved interpolation inequalities on the unit sphere.

Numerical companion for the family of subcritical interpolation inequalities

    |grad u|_2^2 >= d/(p-2) (|u|_p^2 - |u|_2^2),   u in H^1(S^d, dnu),

their improvements through convex entropy--information relations
i >= d phi(e), the explicit lower bounds these yield for the best constants
mu(lambda) and lambda(mu), diffusion-flow certificates, spectral
(Keller--Lieb--Thirring type) consequences, and the stereographic
correspondence with weighted Euclidean inequalities.

The modules are organized by role: `exponents` (parameter bookkeeping),
`phi_functions` (improvement functions), `bounds` (explicit constants),
`sphere_calculus` (quadrature, norms, deficits), `flows` (certified
evolutions), `variational` (best constants and eigenvalues),
`stereographic` (Euclidean side) and `cli` (command line front end).
"""

from .exponents import (
    BetaRange,
    FlowSetting,
    ParameterPoint,
    beta_roots,
    gamma_of_beta,
    m_range,
    make_flow_setting,
    make_parameter_point,
    sphere_surface,
)
from .errors import ConvergenceError, InvariantViolation, ValidationError

__version__ = "0.1.0"

__all__ = [
    "ParameterPoint",
    "FlowSetting",
    "BetaRange",
    "make_parameter_point",
    "make_flow_setting",
    "gamma_of_beta",
    "beta_roots",
    "m_range",
    "sphere_surface",
    "ValidationError",
    "InvariantViolation",
    "ConvergenceError",
    "__version__",
]
