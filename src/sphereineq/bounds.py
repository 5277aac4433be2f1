"""Explicit lower bounds for optimal constants in sphere interpolation inequalities.

For the family of inequalities

    (p - 2)/d * dirichlet(u) + lam * l2_norm(u)^2  >=  mu(lam) * lp_norm(u)^2

on the sphere with uniform probability measure, this module provides computable
lower estimates of the optimal curve mu(lam) (subcritical p > 2) and of its
inverse lam(mu) (p < 2), together with the eigenvalue bounds for Schrodinger
operators that follow from them, and sharper constants under antipodal
symmetry or a vanishing first moment of |u|^p.

All bounds are strict improvements on the trivial diagonal mu = lam near
lam = 1 except at the points where the carre-du-champ exponent degenerates.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ValidationError, check_real
from .exponents import ParameterPoint, _is_log_branch, _log_sphere_surface

__all__ = [
    "afst_constants",
    "antipodal_constant",
    "axis_moment_log_constant",
    "c_dp",
    "klt_lambda_bar_reverse",
    "klt_lambda_bar_schrodinger",
    "lambda_lower_thm2",
    "mu_lower_envelope",
    "mu_lower_prop34",
    "mu_lower_thm2",
]

def _require_subcritical_above_two(pp: ParameterPoint, what: str) -> None:
    if pp.p <= 2.0:
        raise ValidationError(f"{what} requires p > 2, got p = {pp.p}")
    if pp.d >= 3 and pp.p >= pp.two_star:
        raise ValidationError(
            f"{what} requires p below the critical exponent {pp.two_star}, got p = {pp.p}"
        )


def mu_lower_thm2(pp: ParameterPoint, lam: float) -> float:
    """Explicit lower bound on mu(lam) in the heat-flow range 2 < p < 2#.

    The bound is (lam + ((p-2)/gamma) (lam - 1)) ** (gamma / (gamma + p - 2)),
    equal to lam at lam = 1 and growing with the subunit power
    gamma / (gamma + p - 2) of lam.
    """
    lam = check_real("lam", lam, 1.0)
    if not (2.0 < pp.p < pp.two_sharp):
        raise ValidationError(
            f"mu_lower_thm2 requires 2 < p < {pp.two_sharp}, got p = {pp.p}"
        )
    g = pp.gamma
    base = lam + ((pp.p - 2.0) / g) * (lam - 1.0)
    return float(base ** (g / (g + pp.p - 2.0)))


def lambda_lower_thm2(pp: ParameterPoint, mu: float) -> float:
    """Explicit lower bound on lam(mu) for 1 <= p < 2 and mu >= 1.

    lam(mu) is the optimal coefficient of the squared L^2 norm needed for the
    inequality written with mu in front of the squared L^p norm.  At the
    degenerate exponent where gamma = 2 - p the bound collapses to 1; the
    fast-diffusion regime p = 1 also yields the trivial value 1.
    """
    mu = check_real("mu", mu, 1.0)
    if not (1.0 <= pp.p < 2.0):
        raise ValidationError(f"lambda_lower_thm2 requires 1 <= p < 2, got p = {pp.p}")
    q = 2.0 - pp.p
    g = pp.gamma
    if _is_log_branch(pp) or g == 0.0:
        return 1.0
    return float((q - g * mu ** (1.0 - q / g)) / (q - g))


def mu_lower_prop34(pp: ParameterPoint, lam: float) -> float:
    """Interpolation lower bound on mu(lam) from the critical Sobolev constant.

    Valid for d >= 3 and 2 < p < 2*; the growth in lam has the exact power
    1 - theta with theta = d (p - 2) / (2 p), which beats the heat-flow bound
    for large lam whenever p > 2#.
    """
    lam = check_real("lam", lam, 1.0)
    if pp.d < 3:
        raise ValidationError(f"mu_lower_prop34 requires d >= 3, got d = {pp.d}")
    _require_subcritical_above_two(pp, "mu_lower_prop34")
    d = float(pp.d)
    p = pp.p
    theta = d * (p - 2.0) / (2.0 * p)
    return float(
        ((p - 2.0) / d)
        * (d * (d - 2.0) / 4.0) ** theta
        * (lam * d / (p - 2.0)) ** (1.0 - theta)
    )


# The envelope scan: uniform in s up to x = 1 - (p - 2) s = 1e-2, then
# geometric in x down to 1e-12, where (p - 2) phi_env(s) rises to its limit.
# An interior maximum is refined by zooming onto the two neighbouring cells.
_SCAN_UNIFORM = 256
_SCAN_TAIL = 64
_ZOOM_ROUNDS = 8
_ZOOM_POINTS = 17


@lru_cache(maxsize=16)
def _envelope_grid(pp: ParameterPoint) -> tuple:
    """(s, (p - 2) phi_env(s)) as arrays on the envelope scan grid of pp."""
    import numpy as np

    from .phi_functions import phi_envelope

    p2 = pp.p - 2.0
    x_tail = np.geomspace(1.0e-2, 1.0e-12, _SCAN_TAIL + 1)[1:]
    s = np.concatenate([np.linspace(0.0, 0.99 / p2, _SCAN_UNIFORM), (1.0 - x_tail) / p2])
    return s, p2 * phi_envelope(pp, s)


def _envelope_scan_max(pp: ParameterPoint, objective) -> float:
    """Largest objective(s, (p - 2) phi_env(s)) over the scan grid, zoomed in at an interior maximum."""
    import numpy as np

    from .phi_functions import phi_envelope

    s, big_phi = _envelope_grid(pp)
    vals = objective(s, big_phi)
    i = int(vals.argmax())
    best = float(vals[i])
    if 0 < i < len(s) - 1:
        lo, hi = s[i - 1], s[i + 1]
        for _ in range(_ZOOM_ROUNDS):
            t = np.linspace(lo, hi, _ZOOM_POINTS)
            vals = objective(t, (pp.p - 2.0) * phi_envelope(pp, t))
            j = int(vals.argmax())
            best = max(best, float(vals[j]))
            lo, hi = t[max(j - 1, 0)], t[min(j + 1, _ZOOM_POINTS - 1)]
    return best


def mu_lower_envelope(pp: ParameterPoint, lam: float) -> float:
    """Lower bound on mu(lam) from the envelope of all nonlinear-flow curves.

    Minimizes (p - 2) phi_env(s) + lam (1 - (p - 2) s) over the admissible
    entropy range; with the single curve beta = 1 this reproduces
    mu_lower_thm2 exactly, so the envelope value is never worse.  Past the
    scan grid's last point, (p - 2) phi_env is at least its value Phi_end
    there, since phi_env increases, so min(scan minimum, Phi_end) bounds the
    whole range.
    """
    lam = check_real("lam", lam, 1.0)
    _require_subcritical_above_two(pp, "mu_lower_envelope")
    p2 = pp.p - 2.0
    scan_min = -_envelope_scan_max(pp, lambda s, big_phi: -(big_phi + lam * (1.0 - p2 * s)))
    return min(scan_min, float(_envelope_grid(pp)[1][-1]))


def klt_lambda_bar_schrodinger(pp: ParameterPoint, mu: float) -> float:
    """Bound on the ground state of -Laplacian - V on the sphere, V >= 0.

    With q > max(1, d/2), p = 2q/(q-1) and mu the L^q norm of V, the lowest
    eigenvalue is >= -lambda_bar(mu) with lambda_bar given here: mu itself for
    mu <= 1, the explicit inverse of mu_lower_thm2 for 2 < p < 2#, and for
    larger subcritical p the inverse of mu_lower_envelope, which by duality
    is the supremum over s of (mu - (p - 2) phi_env(s)) / (1 - (p - 2) s).
    Above the level Phi_end of mu_lower_envelope the envelope bounds
    nothing and lambda_bar is inf.
    """
    mu = check_real("mu", mu, 0.0, strict=True)
    _require_subcritical_above_two(pp, "klt_lambda_bar_schrodinger")
    if mu <= 1.0:
        return mu
    p = pp.p
    g = pp.gamma
    if p < pp.two_sharp:
        return float((p - 2.0 + g * mu ** (1.0 + (p - 2.0) / g)) / (p - 2.0 + g))
    if mu > _envelope_grid(pp)[1][-1]:
        return math.inf
    return _envelope_scan_max(pp, lambda s, big_phi: (mu - big_phi) / (1.0 - (p - 2.0) * s))


def klt_lambda_bar_reverse(pp: ParameterPoint, mu: float) -> float:
    """Bound for -Laplacian + V with a positive singular potential V.

    Here 1 < q < infinity, p = 2q/(q+1) < 2 and mu is the reciprocal of the
    L^q norm of 1/V; the lowest eigenvalue of -Laplacian + V is >= lambda_bar
    with lambda_bar(mu) = mu for mu <= 1 and the p < 2 interpolation bound
    otherwise.  The degenerate exponent where gamma = 2 - p is excluded.
    """
    mu = check_real("mu", mu, 0.0, strict=True)
    if not (1.0 <= pp.p < 2.0):
        raise ValidationError(
            f"klt_lambda_bar_reverse requires 1 <= p < 2, got p = {pp.p}"
        )
    if _is_log_branch(pp):
        raise ValidationError(
            f"p = {pp.p} sits at the degenerate exponent p_star(d = {pp.d}); "
            "the reverse eigenvalue bound is not defined there"
        )
    if mu <= 1.0:
        return mu
    return lambda_lower_thm2(pp, mu)


def antipodal_constant(pp: ParameterPoint) -> float:
    """Sharper inequality constant for functions with antipodal symmetry.

    For d >= 3 and even functions of the axis variable the plain constant
    d/(p-2) improves by the factor 1 + (d^2 - 4)(2* - p)/(d (d + 2) + p - 1);
    at p = 2 the value multiplies the logarithmic entropy integral and equals
    (d/2) ((d+3)/(d+1))^2.
    """
    if pp.d < 3:
        raise ValidationError(f"antipodal_constant requires d >= 3, got d = {pp.d}")
    d = float(pp.d)
    p = pp.p
    if p == 2.0:
        return float(0.5 * d * ((d + 3.0) / (d + 1.0)) ** 2)
    if not (1.0 < p <= pp.two_star):
        raise ValidationError(
            f"antipodal_constant requires 1 < p <= {pp.two_star}, got p = {p}"
        )
    factor = 1.0 + (d * d - 4.0) * (pp.two_star - p) / (d * (d + 2.0) + p - 1.0)
    return float(d / (p - 2.0) * factor)


def _default_lambda_star(d: int) -> float:
    """Spectral level used when none is given: just above d, where the gain starts."""
    return d * (1.0 + 1.0e-6)


def afst_constants(pp: ParameterPoint, lambda_star: float | None = None) -> tuple[float, float]:
    """Improved constants under a vanishing first moment of |u|^p.

    Returns (gns_constant, log_lambda).  gns_constant multiplies the
    (p-norm)^2 - (2-norm)^2 gap for 2 < p < 2# when every degree-one moment
    of |u|^p vanishes and the quotient is localized above level lambda_star;
    lambda_star = d gives back the plain constant d/(p-2), and so, to about
    1e-6 relative, does the default d (1 + 1e-6): the improvement needs an
    explicit lambda_star above d.  log_lambda is the improved constant for
    the p = 2 logarithmic entropy version, axis_moment_log_constant(d).
    """
    d = float(pp.d)
    if pp.d < 2:
        raise ValidationError(f"afst_constants requires d >= 2, got d = {pp.d}")
    if not (2.0 < pp.p < pp.two_sharp):
        raise ValidationError(
            f"afst_constants requires 2 < p < {pp.two_sharp}, got p = {pp.p}"
        )
    if lambda_star is None:
        lambda_star = _default_lambda_star(pp.d)
    lambda_star = check_real("lambda_star", lambda_star, d)
    p = pp.p
    gns_constant = (
        d + ((d - 1.0) ** 2 / (d * (d + 2.0))) * (pp.two_sharp - p) * (lambda_star - d)
    ) / (p - 2.0)
    return float(gns_constant), axis_moment_log_constant(pp.d)


def axis_moment_log_constant(d: int) -> float:
    """Explicit improved level in the logarithmic bound under a vanishing axis moment."""
    if d < 2:
        raise ValidationError(f"the explicit log-case level needs d >= 2, got d = {d}")
    dd = float(d)
    return dd + (2.0 / dd) * (4.0 * dd - 1.0) / (
        2.0 * (dd + 3.0) + math.sqrt(2.0 * (dd + 3.0) * (2.0 * dd + 3.0))
    )


def c_dp(pp: ParameterPoint) -> float:
    """Constant 2^(delta/p) d |S^d|^(1 - 2/p) / (p - 2) for Euclidean forms.

    Ties the sphere inequality constants to their weighted Euclidean
    counterparts through the stereographic change of variables; equals
    4 d kappa_p / (p - 2).
    """
    if pp.p == 2.0:
        raise ValidationError("c_dp is not defined at p = 2; use the log-form constant")
    # from d = 455 on the surface underflows to 0; its log then comes from log-gamma
    log_volume = math.log(pp.sphere_volume) if pp.sphere_volume > 0.0 else _log_sphere_surface(pp.d)
    log_term = (pp.delta / pp.p) * math.log(2.0) + (1.0 - 2.0 / pp.p) * log_volume
    return float(pp.d * math.exp(log_term) / (pp.p - 2.0))
