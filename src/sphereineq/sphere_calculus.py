"""Axisymmetric functional calculus on the d-sphere.

Functions depending only on the polar coordinate z live on (-1, 1) with the
probability measure proportional to (1 - z^2)^(d/2 - 1) dz.  This module
provides the Gauss-Jacobi quadrature for that measure, a spectral basis of
eigenfunctions of the ultraspherical operator L f = (1 - z^2) f'' - d z f',
norms, Dirichlet energy, entropy and Fisher information, deficit evaluators
for the whole sphere-side inequality catalog, and the Csiszar-Kullback-Pinsker
distance estimates that control how far a function is from the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _scipy_kernels
from .bounds import afst_constants, antipodal_constant
from .errors import ValidationError, check_real
from .exponents import ParameterPoint, _lgamma, validate_dimension
from .phi_functions import PhiSpec, phi

__all__ = [
    "AxiFunction",
    "Deficit",
    "UltrasphericalRule",
    "c_q",
    "ckp_distance",
    "deficit",
    "dirichlet",
    "entropy_fisher",
    "lp_norm",
    "make_rule",
    "random_band_limited_exponential",
]

# Numeric slack for the evenness and vanishing-moment preconditions.
_SYMMETRY_TOL = 1.0e-10


def _inverse_mass(d: int) -> float:
    """1 / integral of (1 - z^2)^(d/2 - 1) over (-1, 1), from the Beta function.

    Scales raw Gauss-Jacobi weights for that measure (or for the measure
    times (1 + z)/(1 - z)) to the normalized sphere measure.
    """
    log_mass = 0.5 * math.log(math.pi) + _lgamma(0.5 * d) - _lgamma(0.5 * (d + 1))
    return math.exp(-log_mass)


class UltrasphericalRule:
    """Gauss-Jacobi rule for the normalized measure (1 - z^2)^(d/2 - 1) dz.

    Nodes and weights integrate polynomials up to degree 2n - 1 exactly; the
    normalization constant comes from the Beta function so that the weights
    sum to one up to roundoff.  basis[i, k] is the k-th orthonormal
    ultraspherical polynomial at node i, and eigenvalues[k] = k (k + d - 1)
    its eigenvalue under -L.
    """

    __slots__ = ("d", "n", "nodes", "weights", "exactness_degree", "basis", "eigenvalues")

    def __init__(self, d: int, n: int):
        d = validate_dimension(d)
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValidationError(f"node count n too small: need n >= 2, got {n!r}")
        self.d = d
        self.n = int(n)
        a = 0.5 * d - 1.0
        nodes, raw_weights = _scipy_kernels.roots_jacobi(n, a, a)
        weights = raw_weights * _inverse_mass(d)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self.nodes = nodes
        self.weights = weights
        self.exactness_degree = 2 * n - 1
        self._build_basis()

    def _build_basis(self) -> None:  # a method of its own, which bench/probes.py times
        a = 0.5 * self.d - 1.0
        n = self.n
        P = _scipy_kernels.ufuncs().eval_jacobi(np.arange(n), a, a, self.nodes[:, None])
        P /= np.sqrt(np.sum(self.weights[:, None] * P * P, axis=0))
        P.setflags(write=False)
        self.basis = P
        k = np.arange(n, dtype=float)
        eigs = k * (k + self.d - 1.0)
        eigs.setflags(write=False)
        self.eigenvalues = eigs

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, values))

    def to_coefficients(self, values: np.ndarray) -> np.ndarray:
        return self.basis.T @ (self.weights * values)

    def to_values(self, coefficients: np.ndarray) -> np.ndarray:
        return self.basis @ coefficients

    def __repr__(self) -> str:
        return f"UltrasphericalRule(d={self.d}, n={self.n})"


@lru_cache(maxsize=64, typed=True)
def make_rule(d: int, n: int) -> UltrasphericalRule:
    """Build (and memoize) the n-point quadrature rule for dimension d.

    The cache is typed, so that make_rule(True, n) reaches the constructor's
    check instead of returning the cached rule for d = 1.
    """
    return UltrasphericalRule(d, n)


class AxiFunction:
    """Axisymmetric function known at the quadrature nodes of a shared rule.

    Values are immutable after construction; the coefficient representation in
    the orthonormal ultraspherical basis is computed on first use and cached.
    Either representation, but not both, seeds the constructor.
    """

    __slots__ = ("rule", "_values", "_coefficients")

    def __init__(self, rule: UltrasphericalRule, values=None, coefficients=None):
        if (values is None) == (coefficients is None):
            raise ValidationError("provide exactly one of values and coefficients")
        self.rule = rule
        if values is not None:
            arr = np.array(values, dtype=float).ravel()
            if arr.size != rule.n:
                raise ValidationError(
                    f"expected {rule.n} values for this rule, got {arr.size}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError("values must be finite")
            arr.setflags(write=False)
            self._values = arr
        else:
            self._values = None
        if coefficients is not None:
            arr = np.array(coefficients, dtype=float).ravel()
            if arr.size > rule.n:
                raise ValidationError(
                    f"at most {rule.n} coefficients representable, got {arr.size}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError("coefficients must be finite")
            if arr.size < rule.n:
                arr = np.concatenate([arr, np.zeros(rule.n - arr.size)])
            arr.setflags(write=False)
            self._coefficients = arr
        else:
            self._coefficients = None
        if self._values is None:
            vals = rule.to_values(self._coefficients)
            vals.setflags(write=False)
            self._values = vals

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def coefficients(self) -> np.ndarray:
        if self._coefficients is None:
            coeffs = self.rule.to_coefficients(self._values)
            coeffs.setflags(write=False)
            self._coefficients = coeffs
        return self._coefficients

    @property
    def is_positive(self) -> bool:
        return bool(np.all(self._values > 0.0))

    def __repr__(self) -> str:
        return f"AxiFunction(d={self.rule.d}, n={self.rule.n})"


def lp_norm(u: AxiFunction, q: float) -> float:
    """L^q norm of u under the uniform probability measure."""
    q = check_real("norm exponent q", q, 1.0)
    return float(u.rule.integrate(np.abs(u.values) ** q) ** (1.0 / q))


def _spectral_energy(rule: UltrasphericalRule, c: np.ndarray) -> float:
    """Squared gradient norm sum k(k+d-1) c_k^2 of the coefficients c."""
    return float(np.dot(rule.eigenvalues, c * c))


def dirichlet(u: AxiFunction) -> float:
    """Squared gradient norm, computed spectrally as sum k(k+d-1) c_k^2."""
    return _spectral_energy(u.rule, u.coefficients)


def _log_entropy(values: np.ndarray, rule: UltrasphericalRule) -> float:
    """Integral of u^2 log(u^2 / |u|_2^2) for u given at the nodes."""
    u2 = values**2
    mass = rule.integrate(u2)
    if mass <= 0.0:
        raise ValidationError("log-entropy needs a nonzero function")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(u2 > 0.0, u2 * np.log(u2 / mass), 0.0)
    return float(rule.integrate(terms))


def _norm_and_entropy(u: AxiFunction, p: float) -> tuple[float, float]:
    """|u|_p^2 and the entropy e of entropy_fisher (its log form at p = 2)."""
    np2 = lp_norm(u, p) ** 2
    if p == 2.0:
        return np2, 0.5 * _log_entropy(u.values, u.rule)
    n22 = lp_norm(u, 2.0) ** 2
    return np2, (np2 - n22) / (p - 2.0)


def entropy_fisher(u: AxiFunction, p: float) -> tuple[float, float]:
    """Entropy e and Fisher information i of u at exponent p.

    For p != 2, e = (|u|_p^2 - |u|_2^2)/(p - 2); at p = 2 the continuous
    limit e = (1/2) integral of u^2 log(u^2/|u|_2^2) is used.  i is the
    squared gradient norm in both cases.
    """
    p = check_real("exponent p", p, 1.0)
    i = dirichlet(u)
    return _norm_and_entropy(u, p)[1], i


@dataclass(frozen=True)
class Deficit:
    """Both sides of one inequality evaluated on a concrete function."""

    lhs: float
    rhs: float
    deficit: float
    inequality_id: str


def _check_moment_free(u: AxiFunction, p: float) -> None:
    weight = np.abs(u.values) ** p
    total = u.rule.integrate(weight)
    moment = u.rule.integrate(u.rule.nodes * weight)
    if abs(moment) > _SYMMETRY_TOL * max(total, 1.0):
        raise ValidationError(
            "vanishing-moment precondition failed: "
            f"integral of z |u|^p is {moment:.3e}"
        )


def _check_even(vals: np.ndarray) -> None:
    scale = float(np.max(np.abs(vals))) or 1.0
    if float(np.max(np.abs(vals - vals[::-1]))) > _SYMMETRY_TOL * scale:
        raise ValidationError("evenness precondition failed: u(z) != u(-z)")


def _require_pp(pp: ParameterPoint | None, d: int, what: str) -> ParameterPoint:
    """pp, checked to exist and to live in the dimension d of the function."""
    if pp is None:
        raise ValidationError(f"{what} needs a parameter point")
    if pp.d != d:
        raise ValidationError(
            f"{what}: parameter point dimension {pp.d} does not match the "
            f"function's dimension {d}"
        )
    return pp


_SPHERE_IDS = ("gns", "log_sobolev", "improved_gns", "improved_phi", "afst", "antipodal")


def deficit(
    u: AxiFunction,
    inequality_id: str,
    pp: ParameterPoint | None = None,
    phi_spec: PhiSpec | None = None,
    lambda_star: float | None = None,
) -> Deficit:
    """Evaluate lhs, rhs, and lhs - rhs of one sphere inequality on u.

    inequality_id selects the form:
      - "gns": gradient energy vs (d/(p-2)) (|u|_p^2 - |u|_2^2), p != 2.
      - "log_sobolev": gradient energy vs (d/2) integral u^2 log(u^2/|u|_2^2).
      - "improved_gns": same lhs vs d |u|_p^2 phi(e / |u|_p^2) with the
        closed-form improvement function (log and p = 2 branches included).
      - "improved_phi": like improved_gns with a caller-supplied PhiSpec.
      - "afst": sharper constant under the vanishing first moment of |u|^p;
        lambda_star tunes the spectral level.  At the default level
        d (1 + 1e-6) the constant equals d/(p-2) to about 1e-6 relative, so
        the improvement needs an explicit lambda_star above d.
      - "antipodal": sharper constant for even functions, d >= 3.
    Every form but log_sobolev (where pp is optional) needs pp, and every
    form needs a nonzero u.
    """
    if inequality_id not in _SPHERE_IDS:
        raise ValidationError(
            f"unknown inequality_id {inequality_id!r}; choose from {', '.join(_SPHERE_IDS)}"
        )
    if inequality_id == "improved_phi":
        if phi_spec is None:
            raise ValidationError("improved_phi needs a phi_spec")
        pp = phi_spec.pp if pp is None else pp
        if pp != phi_spec.pp:
            raise ValidationError("phi_spec parameter point disagrees with pp")
    p = 2.0
    if pp is not None or inequality_id != "log_sobolev":
        pp = _require_pp(pp, u.rule.d, inequality_id)
        p = pp.p
    if inequality_id == "gns" and p == 2.0:
        raise ValidationError("gns requires p != 2; use log_sobolev at p = 2")
    if inequality_id == "log_sobolev" and p != 2.0:
        raise ValidationError("log_sobolev requires p = 2")
    if inequality_id == "improved_gns" and p > pp.two_sharp:
        raise ValidationError(f"improved_gns requires p <= {pp.two_sharp}, got p = {p}")
    if inequality_id == "afst":
        _check_moment_free(u, p)
        constant, _ = afst_constants(pp, lambda_star)
    elif inequality_id == "antipodal":
        _check_even(u.values)
        constant = antipodal_constant(pp)
    d = float(u.rule.d)
    i = dirichlet(u)
    npow, e = _norm_and_entropy(u, p)  # at p = 2, e is half the log entropy
    if npow <= 0.0:
        raise ValidationError(f"{inequality_id} needs a nonzero function")
    if inequality_id in ("gns", "log_sobolev"):
        rhs = d * e
    elif inequality_id == "improved_gns":
        rhs = d * npow * phi(pp, e / npow)
    elif inequality_id == "improved_phi":
        rhs = d * npow * phi_spec.value(e / npow)
    elif inequality_id == "afst":
        rhs = constant * (p - 2.0) * e
    else:  # at p = 2 the antipodal constant multiplies the log entropy, 2 e
        rhs = constant * (p - 2.0 if p != 2.0 else 2.0) * e
    return Deficit(
        lhs=float(i),
        rhs=float(rhs),
        deficit=float(i - rhs),
        inequality_id=inequality_id,
    )


def _nu(s: np.ndarray, q: float) -> np.ndarray:
    """Distance kernel: s^2 for |s| <= 1 and s^q for s > 1."""
    out = np.where(np.abs(s) <= 1.0, s * s, 0.0)
    big = s > 1.0
    if np.any(big):
        out = np.where(big, np.where(big, s, 1.0) ** q, out)
    return out


@lru_cache(maxsize=64)
def c_q(q: float) -> float:
    """Infimum over t > 0, t != 1 of (t^q - 1 - q(t-1)) / nu_q(t - 1): min(2^q - 1 - q, 1).

    For 1 < q <= 2 the quotient is non-increasing on (0, 2] and
    non-decreasing on [2, inf), so the infimum is its value 2^q - 1 - q at
    t = 2; for q >= 2 both monotonicities flip and the infimum is the
    t -> inf limit 1.  Proof of the monotonicities:
      on (0, 2] the quotient is q(q-1) int_0^1 (1-tau)(1+tau(t-1))^(q-2) dtau;
      on t >= 2, s = t - 1, ((1+s)^q - 1 - qs)/s^q has d/ds of the sign of 1 + (q-1)s - (1+s)^(q-1).
    Memoized: ckp_distance asks for the same constant on every call.
    """
    q = check_real("c_q exponent q", q, 1.0, strict=True)
    # float64 array power, as the scan this replaced took t ** q: scalar power differs in the last bit
    return min(float((np.array([2.0]) ** q - 1.0 - q)[0]), 1.0)


def ckp_distance(u: AxiFunction, p: float) -> tuple[float, float]:
    """Distance-type lower bound on the entropy gap and the gap itself.

    For p in [1, 2) the gap is |u|_2^2 - |u|_p^2 and the bound is the
    generalized Csiszar-Kullback-Pinsker estimate around the mean value
    |u|_p; for p > 2 the gap is |u|_p^2 - |u|_2^2 and the bound uses the
    kernel nu_{p/2} around |u|_2.  Returns (lower_bound, entropy_gap).
    """
    p = check_real("exponent p", p, 1.0)
    if p == 2.0:
        raise ValidationError("ckp_distance is not defined at p = 2")
    n22, np2 = lp_norm(u, 2.0) ** 2, lp_norm(u, p) ** 2
    if not (math.isfinite(n22) and math.isfinite(np2)):
        raise ValidationError(f"the squared L^p or L^2 norm of u is not finite (p = {p})")
    if n22 <= 0.0:
        raise ValidationError("distance bound needs a nonzero function")
    if p < 2.0:
        ubar_p = np2 ** (p / 2.0)
        inner = u.rule.integrate(
            np.abs(np.abs(u.values) ** p - ubar_p) ** (2.0 / p)
        )
        lower = (
            (2.0 - p)
            / (2.0 ** (p - 1.0) * p * p)
            * n22 ** (1.0 - p)
            * inner**p
        )
        gap = n22 - np2
    else:
        s = u.values**2 / n22 - 1.0
        integral = u.rule.integrate(_nu(s, 0.5 * p))
        lower = n22 * ((1.0 + c_q(0.5 * p) * integral) ** (2.0 / p) - 1.0)
        gap = np2 - n22
    return float(lower), float(gap)


def random_band_limited_exponential(
    rule: UltrasphericalRule,
    rng: np.random.Generator,
    degree: int = 8,
    scale: float = 0.5,
) -> AxiFunction:
    """Strictly positive test function u = exp(g), g random of degree <= degree."""
    if degree + 1 > rule.n:
        raise ValidationError(
            f"degree {degree} needs at least {degree + 1} nodes, rule has {rule.n}"
        )
    coeffs = rng.normal(0.0, scale, degree + 1)
    g = rule.basis[:, : degree + 1] @ coeffs
    return AxiFunction(rule, values=np.exp(g))
