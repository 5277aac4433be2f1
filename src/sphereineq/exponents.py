"""Exponent bookkeeping for sphere interpolation inequalities.

Everything downstream (improvement functions, explicit bounds, flow
certification) is parameterized by the dimension d of the sphere and the
norm exponent p.  This module computes the derived exponents and constants:

* the critical Sobolev exponent 2d/(d-2) (infinite for d <= 2),
* the curvature threshold (2 d^2 + 1)/(d-1)^2 up to which the heat-flow
  argument applies (infinite for d = 1),
* the curvature exponent
      gamma = (p-1) (2 d^2 + 1 - (d-1)^2 p) / (d+2)^2,
  equivalently ((d-1)/(d+2))^2 (p-1) (two_sharp - p) when d >= 2,
* the exponent p_star(d) in (1, 2) where gamma = 2 - p, which switches the
  improvement function onto its logarithmic branch,
* delta(p) = 2d - p(d-2) and the weighted-norm constant
  kappa_p = 2^(delta/p - 2) |S^d|^(1 - 2/p) used on the Euclidean side,
* the sphere surface measure |S^d| = 2 pi^((d+1)/2) / Gamma((d+1)/2).

For the fast diffusion / porous medium flows the relevant data are collected
in FlowSetting: the flow is

    du/dt = u^(2 - 2 beta) (Lap u + kappa |grad u|^2 / u),
    kappa = beta (p - 2) + 1,

whose pressure variable rho = u^(beta p) solves drho/dt = Lap rho^m with
1/beta + p/2 = 1 + m p / 2.  The curvature quantity attached to this flow is
the quadratic

    gamma(beta) = -((d-1)/(d+2))^2 (kappa + beta - 1)^2
                  + kappa (beta - 1) + d/(d+2) (kappa + beta - 1),

and the flow yields an entropy--information inequality exactly when
gamma(beta) >= 0.  beta_roots computes the admissible set
B(p, d) = {beta : gamma(beta) >= 0} exactly (it is cut out by a real
quadratic in beta, degenerating to a linear function on a short list of
exceptional p).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError, check_real

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
]

# Tolerance below which the quadratic gamma(beta) is treated as linear.
# The exceptional exponents (d=2: p = 9 +- 4 sqrt(3); d=3: p = 9/4, 6;
# d=4: p = 3) land exactly on a vanishing leading coefficient.
_DEGENERATE_TOL = 1e-9

# |gamma - (2 - p)| below this routes the improvement function onto its
# logarithmic branch, where the closed form is 0/0.
_LOG_BRANCH_TOL = 1e-9


def validate_dimension(d) -> int:
    """Return the sphere dimension d as a plain int.

    Any integral d >= 1 is accepted, numpy integers included, so that
    values taken from arrays work; bool is rejected although it is integral.
    """
    if type(d) is int and d >= 1:
        return d  # the common case, without the slower numbers.Integral check
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
        raise ValidationError(f"dimension d must be an integer >= 1, got {d!r}")
    return int(d)


# Cephes lgam coefficients: the Stirling-series correction for x >= 13 and
# the rational approximation of log Gamma on [2, 3), whose denominator has
# leading coefficient 1.
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _lgamma(x: float) -> float:
    """log Gamma(x) for x > 0, a step-for-step port of Cephes lgam.

    S. L. Moshier, Methods and Programs for Mathematical Functions (1989).
    scipy.special.gammaln runs the same routine, so the two agree bit for
    bit; math.lgamma rounds differently at about half of the half-integers.
    The polynomials are Cephes' polevl/p1evl written out, in Horner order.
    """
    if x < 13.0:
        # shift the argument into [2, 3) by the recurrence Gamma(x+1) = x Gamma(x)
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        b0, b1, b2, b3, b4, b5 = _LGAM_B
        c0, c1, c2, c3, c4, c5 = _LGAM_C
        num = ((((b0 * x + b1) * x + b2) * x + b3) * x + b4) * x + b5
        den = (((((x + c0) * x + c1) * x + c2) * x + c3) * x + c4) * x + c5
        return math.log(z) + x * num / den
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        a0, a1, a2, a3, a4 = _LGAM_A
        q += ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x
    return q


# keyed on the int from validate_dimension; every flat-space check asks again
@lru_cache(maxsize=64)
def _log_sphere_surface(d: int) -> float:
    return math.log(2.0) + 0.5 * (d + 1) * math.log(math.pi) - _lgamma(0.5 * (d + 1))


def sphere_surface(d: int) -> float:
    """Surface measure of the unit d-sphere, 2 pi^((d+1)/2) / Gamma((d+1)/2).

    Evaluated through log-Gamma so large d does not overflow.
    """
    return math.exp(_log_sphere_surface(validate_dimension(d)))


@dataclass(frozen=True)
class ParameterPoint:
    """A (d, p) pair together with its derived exponents and range flags."""

    d: int
    p: float
    two_star: float
    two_sharp: float
    p_star: float
    gamma: float
    delta: float
    kappa_p: float
    sphere_volume: float
    is_log_case: bool
    is_critical: bool
    in_bakry_emery_range: bool
    in_nonlinear_range: bool


def _p_star(d: int) -> float:
    # gamma(p) = 2 - p has a unique root in (1, 2); for d = 1 it is exactly
    # 7/4 ((p-1)/3 = 2-p), for d >= 2 the quadratic discriminant simplifies
    # to d (d+2)^2.
    if d == 1:
        return 1.75
    return (3.0 + d + 2.0 * d * d - 2.0 * math.sqrt(4.0 * d + 4.0 * d * d + d**3)) / (d - 1.0) ** 2


def _is_log_branch(pp: ParameterPoint) -> bool:
    return abs(pp.gamma - (2.0 - pp.p)) < _LOG_BRANCH_TOL


def make_parameter_point(d: int, p: float) -> ParameterPoint:
    """Validate (d, p) and compute the derived exponents.

    p may be any real >= 1; for d >= 3 values above the critical exponent
    2d/(d-2) are rejected since none of the inequalities reach past it.
    """
    d = validate_dimension(d)
    p = check_real("exponent p", p, 1.0)

    two_star = 2.0 * d / (d - 2.0) if d >= 3 else math.inf
    two_sharp = (2.0 * d * d + 1.0) / (d - 1.0) ** 2 if d >= 2 else math.inf
    if d >= 3 and p > two_star * (1.0 + 1e-14):
        raise ValidationError(
            f"p = {p} exceeds the critical exponent {two_star} for d = {d}"
        )

    # Expanded form of ((d-1)/(d+2))^2 (p-1)(two_sharp - p); also valid at
    # d = 1 where it reduces to (p-1)/3 and two_sharp is infinite.
    gamma = (p - 1.0) * (2.0 * d * d + 1.0 - (d - 1.0) ** 2 * p) / (d + 2.0) ** 2
    delta = 2.0 * d - p * (d - 2.0)
    surface = sphere_surface(d)
    # 2^(delta/p - 2) |S^d|^(1 - 2/p), in log form since either factor can
    # overflow long before the product does (and it genuinely diverges as
    # d -> infinity at fixed p < 2).
    log_kappa = (delta / p - 2.0) * math.log(2.0) + (1.0 - 2.0 / p) * _log_sphere_surface(d)
    kappa_p = math.inf if log_kappa > 709.0 else math.exp(log_kappa)

    is_log_case = p == 2.0
    is_critical = d >= 3 and abs(p - two_star) <= 1e-14 * two_star
    in_be = p != 2.0 and (d == 1 or p <= two_sharp)
    in_nl = p != 2.0 and (d <= 2 or p <= two_star * (1.0 + 1e-14))

    return ParameterPoint(
        d=d,
        p=p,
        two_star=two_star,
        two_sharp=two_sharp,
        p_star=_p_star(d),
        gamma=gamma,
        delta=delta,
        kappa_p=kappa_p,
        sphere_volume=surface,
        is_log_case=is_log_case,
        is_critical=is_critical,
        in_bakry_emery_range=in_be,
        in_nonlinear_range=in_nl,
    )


# ---------------------------------------------------------------------------
# Flow settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowSetting:
    """Parameters of the nonlinear diffusion flow attached to (d, p, beta)."""

    pp: ParameterPoint
    beta: float
    kappa: float
    m: float
    zeta: float
    gamma_beta: float
    admissible: bool


def _gamma_quadratic(pp: ParameterPoint) -> tuple[float, float, float]:
    """Coefficients (a, b, c) with gamma(beta) = a beta^2 + b beta + c."""
    d, p = pp.d, pp.p
    try:
        a = (p - 2.0) - ((d - 1.0) * (p - 1.0) / (d + 2.0)) ** 2
    except OverflowError:  # p past 5.4e154 at d = 2
        raise ValidationError(f"gamma(beta) overflows at (d, p) = ({d}, {p})") from None
    b = 2.0 * (d + 3.0 - p) / (d + 2.0)
    return a, b, -1.0


def gamma_of_beta(pp: ParameterPoint, beta: float) -> float:
    """Curvature quantity gamma(beta); gamma(1) recovers pp.gamma."""
    a, b, c = _gamma_quadratic(pp)
    return (a * beta + b) * beta + c


def make_flow_setting(pp: ParameterPoint, beta: float) -> FlowSetting:
    """Build the FlowSetting for exponent beta.

    beta = 0 is rejected (the pressure change of variables divides by beta)
    and so is p = 2 (zeta has a p - 2 denominator).  Inadmissible beta, i.e.
    gamma(beta) < 0, is allowed: flows can still be run for diagnostics, only
    the certified entropy inequalities are then out of reach.
    """
    d, p = pp.d, pp.p
    beta = check_real("flow exponent beta", beta)
    if beta == 0.0:
        raise ValidationError("beta = 0 is not a valid flow exponent")
    if p == 2.0:
        raise ValidationError("p = 2 has no associated nonlinear flow setting")
    kappa = beta * (p - 2.0) + 1.0
    m = 1.0 - 2.0 / p + 2.0 / (beta * p)
    zeta = (2.0 - (4.0 - p) * beta) / (2.0 * beta * (p - 2.0))
    g = gamma_of_beta(pp, beta)
    return FlowSetting(
        pp=pp,
        beta=beta,
        kappa=kappa,
        m=m,
        zeta=zeta,
        gamma_beta=g,
        admissible=g >= 0.0,
    )


# ---------------------------------------------------------------------------
# Admissible beta ranges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaRange:
    """The set {beta : gamma(beta) >= 0} for a fixed (d, p).

    kind is one of "interval", "union-of-two-half-lines",
    "single-half-line-left" (beta <= root) and "single-half-line-right"
    (beta >= root).  components lists the closed components as (lo, hi)
    pairs with infinite endpoints where unbounded.  beta_plus and beta_minus
    carry the root-formula labels

        beta_pm = [(d+2)(d+3-p) +- (d+2) sqrt(d (p-1) delta(p))] / D,
        D = (d-1)^2 (p-1)^2 - (p-2)(d+2)^2,

    which invert their ordering when D < 0; they are NaN on the exceptional
    p where D = 0.  witness_beta records the explicit admissible choice
    4(5-p)/(p^2 - 18p + 33) available for d = 2, p > 9 + 4 sqrt(3).
    """

    pp: ParameterPoint
    kind: str
    components: tuple[tuple[float, float], ...]
    beta_plus: float
    beta_minus: float
    witness_beta: float | None = None

    def contains(self, beta: float) -> bool:
        return any(lo <= beta <= hi for lo, hi in self.components)


def beta_roots(pp: ParameterPoint) -> BetaRange:
    """Admissible flow exponents for (d, p).

    The set is where the downward/upward parabola gamma(beta) is >= 0:
    an interval between the roots when the leading coefficient is negative,
    the complement of the open root interval when it is positive, a single
    half-line when the quadratic degenerates to a linear function, and empty
    only at (d, p) = (3, 6) where gamma(beta) = -1 identically (that point
    is already on the excluded-exponent list and is rejected here).
    """
    d, p = pp.d, pp.p
    if p == 2.0:
        raise ValidationError("p = 2 is excluded from the flow parameter range")
    if not pp.in_nonlinear_range:
        raise ValidationError(f"(d, p) = ({d}, {p}) is outside the flow parameter range")

    a, b, _ = _gamma_quadratic(pp)
    try:
        # Root-formula labels; the denominator is -(d+2)^2 a.
        denom = (d - 1.0) ** 2 * (p - 1.0) ** 2 - (p - 2.0) * (d + 2.0) ** 2
        radicand = d * (p - 1.0) * pp.delta
        scale = max(1.0, abs((d - 1.0) ** 2 * (p - 1.0) ** 2), abs((p - 2.0) * (d + 2.0) ** 2))
    except OverflowError:  # (p - 1)^2 past the float range, d <= 2 only
        raise ValidationError(f"the roots of gamma(beta) overflow at (d, p) = ({d}, {p})") from None
    degenerate = abs(denom) <= _DEGENERATE_TOL * scale

    if degenerate:
        beta_plus = beta_minus = math.nan
        if abs(b) <= _DEGENERATE_TOL:
            # Only (d, p) = (3, 6): gamma(beta) = -1 for every beta.
            raise ValidationError(
                f"(d, p) = ({d}, {p}) is degenerate: gamma(beta) = -1 identically, "
                "no admissible flow exponent exists"
            )
        root = 1.0 / b
        if b > 0.0:
            kind = "single-half-line-right"
            components: tuple[tuple[float, float], ...] = ((root, math.inf),)
        else:
            kind = "single-half-line-left"
            components = ((-math.inf, root),)
        return BetaRange(pp=pp, kind=kind, components=components,
                         beta_plus=beta_plus, beta_minus=beta_minus)

    if radicand < 0.0:
        # Cannot happen for p in range (delta >= 0 there) but guard anyway.
        raise ValidationError(f"gamma(beta) has no real roots at (d, p) = ({d}, {p})")

    num_base = (d + 2.0) * (d + 3.0 - p)
    num_root = (d + 2.0) * math.sqrt(radicand)
    beta_plus = (num_base + num_root) / denom
    beta_minus = (num_base - num_root) / denom
    if 0.0 in (beta_plus, beta_minus):  # gamma(0) = -1: a root rounded to 0
        raise ValidationError(f"a root of gamma(beta) rounds to 0 at (d, p) = ({d}, {p})")
    lo, hi = min(beta_plus, beta_minus), max(beta_plus, beta_minus)

    witness = None
    if a < 0.0:
        kind = "interval"
        components = ((lo, hi),)
        if d == 2 and p > 9.0 + 4.0 * math.sqrt(3.0):
            witness = 4.0 * (5.0 - p) / (p * p - 18.0 * p + 33.0)
    else:
        kind = "union-of-two-half-lines"
        components = ((-math.inf, lo), (hi, math.inf))
    return BetaRange(pp=pp, kind=kind, components=components,
                     beta_plus=beta_plus, beta_minus=beta_minus,
                     witness_beta=witness)


def m_range(pp: ParameterPoint) -> tuple[float, float]:
    """Closure of the diffusion exponents {m(beta) : beta admissible}.

    m(beta) = 1 - 2/p + 2/(beta p) is monotone on each component of the
    admissible set (beta = 0 is never admissible since gamma(0) = -1), so
    the closure is the interval spanned by the endpoint values, with the
    limit 1 - 2/p standing in for infinite endpoints.
    """
    br = beta_roots(pp)
    p = pp.p
    limit = 1.0 - 2.0 / p
    values = []
    for lo, hi in br.components:
        for endpoint in (lo, hi):
            if math.isinf(endpoint):
                values.append(limit)
            else:
                values.append(limit + 2.0 / (endpoint * p))
    return min(values), max(values)
