"""Flat-space counterparts of the sphere inequalities for radial profiles.

A radial profile v on R^d pairs with an axisymmetric sphere function u
through a conformal change of variables along z = 1 - 2/(1 + r^2).  Under
the pairing, weighted Lebesgue integrals of v equal sphere integrals of u
up to explicit powers of two and of the sphere surface area, so every
unbounded-domain integral is evaluated on the compact quadrature grid with
no truncation.  On top of the norm identities the module evaluates the
flat-space deficit inequalities: the plain weighted interpolation bound,
its quadratic-remainder and entropy-power strengthenings, and the
moment-constrained forms with their logarithmic limit.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _scipy_kernels
from .bounds import afst_constants, axis_moment_log_constant, c_dp
from .errors import ValidationError, check_real
from .exponents import ParameterPoint, _is_log_branch, sphere_surface
from .sphere_calculus import (
    AxiFunction,
    Deficit,
    _check_moment_free,
    _inverse_mass,
    _log_entropy,
    _require_pp,
    dirichlet,
    make_rule,
)

__all__ = [
    "EuclideanNorms",
    "RadialEuclideanFunction",
    "axis_moment_log_constant",
    "equality_profile",
    "equality_profile_second_moment",
    "euclidean_deficit",
    "euclidean_norms",
    "push_forward",
    "radial_profile_from_samples",
    "radial_second_moment",
]

# Relative slack when the |x|^2-weighted mass must match the equality profile.
_MOMENT_TOL = 1.0e-8


@dataclass(frozen=True)
class RadialEuclideanFunction:
    """Radial profile v(|x|) on R^d, viewed through its paired sphere function.

    sphere is the axisymmetric function u(z) = ((1 + r^2)/2)^((d-2)/2) v(r);
    r holds the radii sqrt((1 + z)/(1 - z)) of its quadrature nodes z, and
    values holds v at those radii, both computed from sphere.
    """

    sphere: AxiFunction

    def __post_init__(self):
        if self.sphere.rule.d < 2:
            raise ValidationError(
                "the radial pairing needs d >= 2: at d = 1 the equality profile "
                "has no square-integrable gradient"
            )

    @property
    def d(self) -> int:
        return self.sphere.rule.d

    @property
    def node_count(self) -> int:
        return self.sphere.rule.n

    @property
    def r(self) -> np.ndarray:
        z = self.sphere.rule.nodes
        return np.sqrt((1.0 + z) / (1.0 - z))

    @property
    def values(self) -> np.ndarray:
        z = self.sphere.rule.nodes
        return self.sphere.values * (1.0 - z) ** (0.5 * (self.d - 2.0))

    def __repr__(self) -> str:
        return f"RadialEuclideanFunction(d={self.d}, n={self.node_count})"


def push_forward(u: AxiFunction) -> RadialEuclideanFunction:
    """Radial flat-space profile paired with the sphere function u."""
    return RadialEuclideanFunction(u)


def radial_profile_from_samples(d: int, values) -> RadialEuclideanFunction:
    """Wrap v samples given on the canonical radial grid of an n-point rule."""
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size < 2:
        raise ValidationError(f"need at least 2 radial samples, got {vals.size}")
    rule = make_rule(int(d), vals.size)
    z = rule.nodes
    return RadialEuclideanFunction(
        AxiFunction(rule, values=vals * (1.0 - z) ** (-0.5 * (d - 2.0)))
    )


def equality_profile(d: int, node_count: int = 48) -> RadialEuclideanFunction:
    """Profile (1 + r^2)^((2-d)/2) saturating the weighted bound (v = 1 at d = 2)."""
    rule = make_rule(int(d), int(node_count))
    return RadialEuclideanFunction(
        AxiFunction(rule, values=np.full(rule.n, 2.0 ** (-0.5 * (d - 2.0))))
    )


# ---------------------------------------------------------------------------
# Norms and moments
# ---------------------------------------------------------------------------


class EuclideanNorms(NamedTuple):
    """The three flat-space integrals entering every weighted inequality."""

    weighted_p: float  # integral of |v|^p (1 + |x|^2)^(-delta(p)/2)
    weighted_2: float  # integral of |v|^2 (1 + |x|^2)^(-2)
    dirichlet: float  # integral of |grad v|^2


def euclidean_norms(v: RadialEuclideanFunction, p: float) -> EuclideanNorms:
    """Weighted p-integral, weighted mass, and Dirichlet energy of v.

    All three are sphere integrals of the paired function in disguise:
    the p-integral is |S^d| 2^(-delta/2) times the sphere mean of |u|^p
    with delta = 2d - p (d - 2), the weighted mass is |S^d|/4 times the
    sphere mean of u^2, and the Dirichlet energy is |S^d| times the sphere
    gradient term plus d (d - 2)/4 times the sphere mean of u^2.
    """
    p = check_real("exponent p", p, 1.0)
    u = v.sphere
    d = float(u.rule.d)
    surface = sphere_surface(u.rule.d)
    delta = 2.0 * d - p * (d - 2.0)
    mean_p, mean_2 = u._power_mean(p), u._power_mean(2.0)
    return EuclideanNorms(
        weighted_p=float(surface * 2.0 ** (-0.5 * delta) * mean_p),
        weighted_2=float(0.25 * surface * mean_2),
        dirichlet=float(surface * (dirichlet(u) + 0.25 * d * (d - 2.0) * mean_2)),
    )


@lru_cache(maxsize=32)
def _second_moment_rule(d: int, n: int):
    # Quadrature for the extra weight (1 + z)/(1 - z): Gauss-Jacobi nodes for
    # (1-z)^(d/2-2) (1+z)^(d/2), plus the orthonormal sphere basis evaluated
    # there so that grid functions transfer exactly (u^2 has degree 2n - 2).
    rule = make_rule(d, n)
    a = 0.5 * d - 1.0
    z_hat, w_hat = _scipy_kernels.roots_jacobi(n, a - 1.0, a + 1.0)
    raw = _scipy_kernels.ufuncs().eval_jacobi(
        np.arange(n), a, a, np.concatenate([rule.nodes, z_hat])[:, None]
    )
    raw_nodes, raw_hat = raw[:n], raw[n:]
    norms = np.sqrt(np.sum(rule.weights[:, None] * raw_nodes**2, axis=0))
    basis_hat = raw_hat / norms
    w_hat = w_hat * _inverse_mass(d)
    w_hat.setflags(write=False)
    basis_hat.setflags(write=False)
    return w_hat, basis_hat


def radial_second_moment(v: RadialEuclideanFunction) -> float:
    """Integral of |x|^2 (1 + |x|^2)^(-2) v^2 over R^d, for d >= 3."""
    d = v.d
    if d < 3:
        raise ValidationError(
            "the |x|^2-weighted mass diverges on the equality profile for "
            f"d < 3, got d = {d}"
        )
    u = v.sphere
    w_hat, basis_hat = _second_moment_rule(d, u.rule.n)
    u_hat = basis_hat @ u.coefficients
    return float(0.25 * sphere_surface(d) * np.dot(w_hat, u_hat**2))


def equality_profile_second_moment(d: int) -> float:
    """Closed form of the |x|^2-weighted mass of (1 + r^2)^((2-d)/2), d >= 3."""
    if d < 3:
        raise ValidationError(
            f"the equality-profile moment is finite only for d >= 3, got d = {d}"
        )
    return float(
        0.5 * sphere_surface(d - 1) * math.exp(_scipy_kernels.ufuncs().betaln(0.5 * d + 1.0, 0.5 * d - 1.0))
    )


# ---------------------------------------------------------------------------
# Deficits
# ---------------------------------------------------------------------------


def _check_matched_moment(v: RadialEuclideanFunction) -> None:
    moment = radial_second_moment(v)
    target = equality_profile_second_moment(v.d)
    if abs(moment - target) > _MOMENT_TOL * max(target, 1.0):
        raise ValidationError(
            f"|x|^2-weighted mass {moment:.12g} does not match the equality "
            f"profile value {target:.12g}"
        )


_FLAT_IDS = (
    "weighted_gns", "stability", "sharper_stability", "moment_constrained", "moment_constrained_log"
)


def _entropy_power(kappa_p: float, pterm: float, weighted_2: float, theta: float) -> float:
    """(kappa_p pterm)^(1 - theta) weighted_2^theta, the power in sharper_stability.

    Near p = 2, |theta| = |gamma / (2 - p)| runs into the hundreds and the
    product of three powers overflows.  The grouping b (weighted_2 / b)^theta,
    b = kappa_p pterm, stays finite there; it rounds differently from the
    product, so it is used only where the product is not finite.
    """
    base = kappa_p * pterm
    for power in (
        lambda: kappa_p ** (1.0 - theta) * pterm ** (1.0 - theta) * weighted_2**theta,
        lambda: base * (weighted_2 / base) ** theta,
    ):
        with contextlib.suppress(ArithmeticError):
            if math.isfinite(value := power()):
                return value
    raise ValidationError(f"sharper_stability's power term is not finite at theta = {theta}")


def euclidean_deficit(
    v: RadialEuclideanFunction,
    inequality_id: str,
    pp: ParameterPoint | None = None,
    *,
    lambda_star: float | None = None,
    log_constant: float | None = None,
) -> Deficit:
    """Evaluate lhs, rhs and lhs - rhs of one flat-space inequality on v.

    inequality_id selects the form:
      - "weighted_gns": Dirichlet energy plus d delta/(p-2) times the weighted
        mass against the sharp multiple of the weighted p-integral to the
        power 2/p.
      - "stability": same lhs, with the quadratic remainder in the gap
        between the p-power term and the weighted mass added on the right;
        needs 2 < p < 2#.
      - "sharper_stability": Dirichlet energy minus d (d-2) times the
        weighted mass against the entropy-power remainder, with a
        logarithmic branch exactly where the power exponent degenerates.
      - "moment_constrained": improved multiple of the interpolation gap when
        the paired sphere function has vanishing axis moment of |u|^p and the
        |x|^2-weighted mass matches the equality profile; lambda_star sets
        the spectral level (>= d, default d (1 + 1e-6), where the constant
        equals d/(p-2) to about 1e-6 relative).
      - "moment_constrained_log": logarithmic version of the same under the
        p = 2 moment conditions; log_constant overrides the explicit level.
    Every form but moment_constrained_log (where pp is optional) needs pp,
    and every form needs a nonzero v.
    """
    if inequality_id not in _FLAT_IDS:
        raise ValidationError(
            f"unknown inequality_id {inequality_id!r}; choose from {', '.join(_FLAT_IDS)}"
        )
    log_form = inequality_id == "moment_constrained_log"
    p = 2.0
    if pp is not None or not log_form:
        pp = _require_pp(pp, v.d, inequality_id)
        p = pp.p
    if inequality_id == "weighted_gns" and p == 2.0:
        raise ValidationError(
            "weighted_gns requires p != 2; use moment_constrained_log or "
            "the sphere-side log form at p = 2"
        )
    if inequality_id == "stability" and not 2.0 < p < pp.two_sharp:
        raise ValidationError(f"stability requires 2 < p < {pp.two_sharp}, got p = {p}")
    if inequality_id == "sharper_stability" and not pp.in_bakry_emery_range:
        raise ValidationError(
            f"sharper_stability requires p != 2 with p <= {pp.two_sharp}, got p = {p}"
        )
    if log_form and p != 2.0:
        raise ValidationError("moment_constrained_log requires p = 2")
    d = float(v.d)
    if inequality_id.startswith("moment_constrained"):
        if v.d < 3:
            raise ValidationError(
                f"{inequality_id} needs d >= 3: the matching moment "
                "diverges on the equality profile at d = 2"
            )
        _check_moment_free(v.sphere, p)
        _check_matched_moment(v)
        if log_form:
            level = axis_moment_log_constant(v.d) if log_constant is None else log_constant
            level = check_real("log_constant", level, 0.0, strict=True)
        else:
            constant, _ = afst_constants(pp, lambda_star)
    weighted_p, weighted_2, diri = euclidean_norms(v, p)
    if weighted_p <= 0.0 or weighted_2 <= 0.0:
        raise ValidationError(f"{inequality_id} needs a nonzero profile")
    pterm = weighted_p ** (2.0 / p)
    # the weighted lhs of every p != 2 form but sharper_stability
    lhs = diri if p == 2.0 else diri + d * pp.delta / (p - 2.0) * weighted_2
    if inequality_id == "weighted_gns":
        rhs = c_dp(pp) * pterm
    elif inequality_id == "stability":
        gap = pterm - 2.0 ** (2.0 - pp.delta / p) * pp.sphere_volume ** (2.0 / p - 1.0) * weighted_2
        rhs = (pp.gamma / (p - 2.0)) * 0.5 * c_dp(pp) * gap * gap / pterm
    elif inequality_id == "sharper_stability":
        lhs = diri - d * (d - 2.0) * weighted_2
        if _is_log_branch(pp):
            rhs = 4.0 * d / (2.0 - p) * weighted_2 * math.log(weighted_2 / (pp.kappa_p * pterm))
        else:
            power = _entropy_power(pp.kappa_p, pterm, weighted_2, pp.gamma / (2.0 - p))
            rhs = 4.0 * d / (2.0 - p - pp.gamma) * (weighted_2 - power)
    elif not log_form:
        gap = 2.0 ** (pp.delta / p) * pp.sphere_volume ** (1.0 - 2.0 / p) * pterm - 4.0 * weighted_2
        lhs -= c_dp(pp) * pterm
        rhs = (constant - d / (p - 2.0)) * gap
    else:
        log_ent = _log_entropy(v.sphere.values, v.sphere.rule)
        rhs = d * (d - 2.0) * weighted_2 + 0.5 * level * sphere_surface(v.d) * log_ent
    return Deficit(
        lhs=float(lhs),
        rhs=float(rhs),
        deficit=float(lhs - rhs),
        inequality_id=inequality_id,
    )
