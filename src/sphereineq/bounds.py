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

from .errors import ValidationError
from .exponents import ParameterPoint, _is_log_branch

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
    lam = float(lam)
    if not math.isfinite(lam) or lam < 1.0:
        raise ValidationError(f"lam must be finite and >= 1, got {lam}")
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
    mu = float(mu)
    if not math.isfinite(mu) or mu < 1.0:
        raise ValidationError(f"mu must be finite and >= 1, got {mu}")
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
    lam = float(lam)
    if not math.isfinite(lam) or lam < 1.0:
        raise ValidationError(f"lam must be finite and >= 1, got {lam}")
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


@lru_cache(maxsize=16)
def _envelope_grid(
    pp: ParameterPoint,
    beta_samples: int,
    node_count: int,
    beta_cap: float,
    scan_points: int,
) -> tuple:
    """(s, phi_env(s)) as arrays on scan_points values spanning [0, 1/(p-2))."""
    import numpy as np

    from .phi_functions import phi_envelope

    s_sup = 1.0 / (pp.p - 2.0)
    s = np.linspace(0.0, (1.0 - 1.0e-9) * s_sup, scan_points)
    vals = phi_envelope(
        pp, s, beta_samples=beta_samples, node_count=node_count, beta_cap=beta_cap
    )
    return s, np.asarray(vals, dtype=float)


def mu_lower_envelope(
    pp: ParameterPoint,
    lam: float,
    *,
    beta_samples: int = 64,
    node_count: int = 64,
    beta_cap: float = 1.0e3,
    scan_points: int = 256,
) -> float:
    """Lower bound on mu(lam) from the envelope of all nonlinear-flow curves.

    Minimizes (p - 2) phi_env(s) + lam (1 - (p - 2) s) over the admissible
    entropy range; with the single curve beta = 1 this reproduces
    mu_lower_thm2 exactly, so the envelope value is never worse.  A coarse
    scan brackets the minimum and a golden-section refinement sharpens it.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam < 1.0:
        raise ValidationError(f"lam must be finite and >= 1, got {lam}")
    _require_subcritical_above_two(pp, "mu_lower_envelope")
    if scan_points < 8:
        raise ValidationError(f"scan_points must be >= 8, got {scan_points}")
    p = pp.p
    s, phi_vals = _envelope_grid(pp, beta_samples, node_count, beta_cap, scan_points)
    h = (p - 2.0) * phi_vals + lam * (1.0 - (p - 2.0) * s)
    i = int(h.argmin())
    best = float(h[i])
    if 0 < i < len(s) - 1:
        from scipy.optimize import minimize_scalar

        from .phi_functions import phi_envelope

        def objective(sv: float) -> float:
            val = phi_envelope(
                pp,
                float(sv),
                beta_samples=beta_samples,
                node_count=node_count,
                beta_cap=beta_cap,
            )
            return (p - 2.0) * float(val) + lam * (1.0 - (p - 2.0) * float(sv))

        try:
            res = minimize_scalar(
                objective,
                bracket=(float(s[i - 1]), float(s[i]), float(s[i + 1])),
                method="golden",
                options={"xtol": 1.0e-11},
            )
            if math.isfinite(res.fun):
                best = min(best, float(res.fun))
        except ValueError:
            pass
    return best


def klt_lambda_bar_schrodinger(pp: ParameterPoint, mu: float) -> float:
    """Bound on the ground state of -Laplacian - V on the sphere, V >= 0.

    With q > max(1, d/2), p = 2q/(q-1) and mu the L^q norm of V, the lowest
    eigenvalue is >= -lambda_bar(mu) with lambda_bar given here: mu itself for
    mu <= 1, the explicit inverse of mu_lower_thm2 for 2 < p < 2#, and a
    numeric inverse of the envelope bound for larger subcritical p.
    """
    mu = float(mu)
    if not math.isfinite(mu) or mu <= 0.0:
        raise ValidationError(f"mu must be finite and positive, got {mu}")
    _require_subcritical_above_two(pp, "klt_lambda_bar_schrodinger")
    if mu <= 1.0:
        return mu
    p = pp.p
    g = pp.gamma
    if p < pp.two_sharp:
        return float((p - 2.0 + g * mu ** (1.0 + (p - 2.0) / g)) / (p - 2.0 + g))

    def gap(lam: float) -> float:
        return mu_lower_envelope(pp, lam) - mu

    from scipy.optimize import brentq

    hi = 2.0
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 1.0e12:
            raise ValidationError(
                f"no lam <= 1e12 reaches the envelope bound level mu = {mu}"
            )
    return float(brentq(gap, 1.0, hi, xtol=1.0e-12, rtol=1.0e-12))


def klt_lambda_bar_reverse(pp: ParameterPoint, mu: float) -> float:
    """Bound for -Laplacian + V with a positive singular potential V.

    Here 1 < q < infinity, p = 2q/(q+1) < 2 and mu is the reciprocal of the
    L^q norm of 1/V; the lowest eigenvalue of -Laplacian + V is >= lambda_bar
    with lambda_bar(mu) = mu for mu <= 1 and the p < 2 interpolation bound
    otherwise.  The degenerate exponent where gamma = 2 - p is excluded.
    """
    mu = float(mu)
    if not math.isfinite(mu) or mu <= 0.0:
        raise ValidationError(f"mu must be finite and positive, got {mu}")
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
    lambda_star = d gives back the plain constant d/(p-2).  log_lambda is the
    improved constant for the p = 2 logarithmic entropy version,
    axis_moment_log_constant(d).
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
    lambda_star = float(lambda_star)
    if not math.isfinite(lambda_star) or lambda_star < d:
        raise ValidationError(
            f"lambda_star must be finite and >= d = {pp.d}, got {lambda_star}"
        )
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
    log_term = (pp.delta / pp.p) * math.log(2.0) + (1.0 - 2.0 / pp.p) * math.log(
        pp.sphere_volume
    )
    return float(pp.d * math.exp(log_term) / (pp.p - 2.0))
