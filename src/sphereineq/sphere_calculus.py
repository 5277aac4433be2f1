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

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_jacobi, gammaln, roots_jacobi

from .bounds import afst_constants, antipodal_constant
from .errors import ValidationError
from .exponents import ParameterPoint, validate_dimension
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
    "function_from_json",
    "function_to_json",
    "lp_norm",
    "make_rule",
    "random_band_limited_exponential",
]

# Numeric slack for the evenness and vanishing-moment preconditions.
_SYMMETRY_TOL = 1.0e-10


class UltrasphericalRule:
    """Gauss-Jacobi rule for the normalized measure (1 - z^2)^(d/2 - 1) dz.

    Nodes and weights integrate polynomials up to degree 2n - 1 exactly; the
    normalization constant comes from the Beta function so that the weights
    sum to one up to roundoff.  The spectral basis (orthonormal ultraspherical
    polynomials) and its derivative matrix are built lazily and cached.
    """

    __slots__ = ("d", "n", "nodes", "weights", "exactness_degree", "_basis", "_dbasis", "_eigenvalues")

    def __init__(self, d: int, n: int):
        d = validate_dimension(d)
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValidationError(f"node count n too small: need n >= 2, got {n!r}")
        self.d = d
        self.n = int(n)
        a = 0.5 * d - 1.0
        nodes, raw_weights = roots_jacobi(n, a, a)
        log_mass = 0.5 * math.log(math.pi) + gammaln(0.5 * d) - gammaln(0.5 * (d + 1))
        weights = raw_weights * math.exp(-log_mass)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self.nodes = nodes
        self.weights = weights
        self.exactness_degree = 2 * n - 1
        self._basis = None
        self._dbasis = None
        self._eigenvalues = None

    def _build_basis(self) -> None:
        a = 0.5 * self.d - 1.0
        n = self.n
        P = np.empty((n, n))
        D = np.zeros((n, n))
        for k in range(n):
            P[:, k] = eval_jacobi(k, a, a, self.nodes)
            if k >= 1:
                D[:, k] = 0.5 * (k + 2.0 * a + 1.0) * eval_jacobi(
                    k - 1, a + 1.0, a + 1.0, self.nodes
                )
        norms = np.sqrt(np.sum(self.weights[:, None] * P * P, axis=0))
        P /= norms
        D /= norms
        P.setflags(write=False)
        D.setflags(write=False)
        self._basis = P
        self._dbasis = D
        k = np.arange(n, dtype=float)
        eigs = k * (k + self.d - 1.0)
        eigs.setflags(write=False)
        self._eigenvalues = eigs

    @property
    def basis(self) -> np.ndarray:
        """Matrix B with B[i, k] = k-th orthonormal basis polynomial at node i."""
        if self._basis is None:
            self._build_basis()
        return self._basis

    @property
    def derivative_basis(self) -> np.ndarray:
        """Matrix of z-derivatives of the orthonormal basis at the nodes."""
        if self._dbasis is None:
            self._build_basis()
        return self._dbasis

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues k (k + d - 1) of -L on the basis polynomials."""
        if self._eigenvalues is None:
            self._build_basis()
        return self._eigenvalues

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
    Either representation can seed the constructor.
    """

    __slots__ = ("rule", "_values", "_coefficients")

    def __init__(self, rule: UltrasphericalRule, values=None, coefficients=None):
        if values is None and coefficients is None:
            raise ValidationError("provide values or coefficients")
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

    @classmethod
    def from_values(cls, rule: UltrasphericalRule, values) -> "AxiFunction":
        return cls(rule, values=values)

    @classmethod
    def from_coefficients(cls, rule: UltrasphericalRule, coefficients) -> "AxiFunction":
        return cls(rule, coefficients=coefficients)

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
    def derivative_values(self) -> np.ndarray:
        """du/dz at the nodes, evaluated through the spectral basis."""
        return self.rule.derivative_basis @ self.coefficients

    @property
    def is_positive(self) -> bool:
        return bool(np.all(self._values > 0.0))

    def __repr__(self) -> str:
        return f"AxiFunction(d={self.rule.d}, n={self.rule.n})"


def function_to_json(u: AxiFunction, include_nodes: bool = False) -> str:
    """Serialize an AxiFunction to JSON with fields d, n, values, coefficients."""
    payload = {
        "d": u.rule.d,
        "n": u.rule.n,
        "values": [float(v) for v in u.values],
        "coefficients": [float(c) for c in u.coefficients],
    }
    if include_nodes:
        payload["nodes"] = [float(z) for z in u.rule.nodes]
    return json.dumps(payload) + "\n"


def function_from_json(text: str) -> AxiFunction:
    """Rebuild an AxiFunction from JSON; nodes, if present, are cross-checked."""
    payload = json.loads(text)
    for key in ("d", "n"):
        if key not in payload:
            raise ValidationError(f"missing field {key!r} in function JSON")
    rule = make_rule(int(payload["d"]), int(payload["n"]))
    if "nodes" in payload:
        nodes = np.asarray(payload["nodes"], dtype=float)
        if nodes.size != rule.n or not np.allclose(
            nodes, rule.nodes, rtol=0.0, atol=1e-12
        ):
            raise ValidationError("stored nodes do not match the regenerated rule")
    if "values" in payload:
        return AxiFunction(rule, values=payload["values"])
    if "coefficients" in payload:
        return AxiFunction(rule, coefficients=payload["coefficients"])
    raise ValidationError("function JSON needs values or coefficients")


def lp_norm(u: AxiFunction, q: float) -> float:
    """L^q norm of u under the uniform probability measure."""
    q = float(q)
    if not math.isfinite(q) or q < 1.0:
        raise ValidationError(f"norm exponent q must be finite and >= 1, got {q}")
    return float(u.rule.integrate(np.abs(u.values) ** q) ** (1.0 / q))


def dirichlet(u: AxiFunction) -> float:
    """Squared gradient norm, computed spectrally as sum k(k+d-1) c_k^2."""
    c = u.coefficients
    return float(np.dot(u.rule.eigenvalues, c * c))


def _log_entropy(u: AxiFunction) -> tuple[float, float]:
    """Return (integral of u^2 log(u^2 / |u|_2^2), |u|_2^2)."""
    u2 = u.values**2
    mass = u.rule.integrate(u2)
    if mass <= 0.0:
        raise ValidationError("log-entropy needs a nonzero function")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(u2 > 0.0, u2 * np.log(u2 / mass), 0.0)
    return float(u.rule.integrate(terms)), float(mass)


def entropy_fisher(u: AxiFunction, p: float) -> tuple[float, float]:
    """Entropy e and Fisher information i of u at exponent p.

    For p != 2, e = (|u|_p^2 - |u|_2^2)/(p - 2); at p = 2 the continuous
    limit e = (1/2) integral of u^2 log(u^2/|u|_2^2) is used.  i is the
    squared gradient norm in both cases.
    """
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValidationError(f"exponent p must be finite and >= 1, got {p}")
    i = dirichlet(u)
    if p == 2.0:
        log_ent, _ = _log_entropy(u)
        return 0.5 * log_ent, i
    np2 = lp_norm(u, p) ** 2
    n22 = lp_norm(u, 2.0) ** 2
    return (np2 - n22) / (p - 2.0), i


@dataclass(frozen=True)
class Deficit:
    """Both sides of one inequality evaluated on a concrete function."""

    lhs: float
    rhs: float
    deficit: float
    inequality_id: str
    inputs: dict


def _check_moment_free(u: AxiFunction, p: float) -> None:
    weight = np.abs(u.values) ** p
    total = u.rule.integrate(weight)
    moment = u.rule.integrate(u.rule.nodes * weight)
    if abs(moment) > _SYMMETRY_TOL * max(total, 1.0):
        raise ValidationError(
            "vanishing-moment precondition failed: "
            f"integral of z |u|^p is {moment:.3e}"
        )


def _check_even(u: AxiFunction) -> None:
    vals = u.values
    scale = float(np.max(np.abs(vals))) or 1.0
    if float(np.max(np.abs(vals - vals[::-1]))) > _SYMMETRY_TOL * scale:
        raise ValidationError("evenness precondition failed: u(z) != u(-z)")


def _require_pp(pp: ParameterPoint | None, u: AxiFunction, what: str) -> ParameterPoint:
    if pp is None:
        raise ValidationError(f"{what} needs a parameter point")
    if pp.d != u.rule.d:
        raise ValidationError(
            f"parameter point dimension {pp.d} does not match rule dimension {u.rule.d}"
        )
    return pp


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
        lambda_star tunes the spectral level (default just above d).
      - "antipodal": sharper constant for even functions, d >= 3.
    """
    d = float(u.rule.d)
    i = dirichlet(u)
    if inequality_id == "gns":
        pp = _require_pp(pp, u, "gns")
        if pp.p == 2.0:
            raise ValidationError("gns requires p != 2; use log_sobolev at p = 2")
        e, _ = entropy_fisher(u, pp.p)
        rhs = d * e
        inputs = {"d": pp.d, "p": pp.p}
    elif inequality_id == "log_sobolev":
        if pp is not None and pp.p != 2.0:
            raise ValidationError("log_sobolev requires p = 2")
        log_ent, _ = _log_entropy(u)
        rhs = 0.5 * d * log_ent
        inputs = {"d": u.rule.d, "p": 2.0}
    elif inequality_id == "improved_gns":
        pp = _require_pp(pp, u, "improved_gns")
        if pp.p > pp.two_sharp:
            raise ValidationError(
                f"improved_gns requires p <= {pp.two_sharp}, got p = {pp.p}"
            )
        e, _ = entropy_fisher(u, pp.p)
        npow = lp_norm(u, pp.p) ** 2
        rhs = d * npow * phi(pp, e / npow)
        inputs = {"d": pp.d, "p": pp.p}
    elif inequality_id == "improved_phi":
        if phi_spec is None:
            raise ValidationError("improved_phi needs a phi_spec")
        pp = phi_spec.pp if pp is None else pp
        if pp != phi_spec.pp:
            raise ValidationError("phi_spec parameter point disagrees with pp")
        _require_pp(pp, u, "improved_phi")
        e, _ = entropy_fisher(u, pp.p)
        npow = lp_norm(u, pp.p) ** 2
        rhs = d * npow * phi_spec.value(e / npow)
        inputs = {"d": pp.d, "p": pp.p, "variant": phi_spec.variant}
    elif inequality_id == "afst":
        pp = _require_pp(pp, u, "afst")
        _check_moment_free(u, pp.p)
        constant, _ = afst_constants(pp, lambda_star)
        e, _ = entropy_fisher(u, pp.p)
        rhs = constant * (pp.p - 2.0) * e
        inputs = {
            "d": pp.d,
            "p": pp.p,
            "lambda_star": lambda_star
            if lambda_star is not None
            else pp.d * (1.0 + 1.0e-6),
        }
    elif inequality_id == "antipodal":
        pp = _require_pp(pp, u, "antipodal")
        _check_even(u)
        constant = antipodal_constant(pp)
        if pp.p == 2.0:
            log_ent, _ = _log_entropy(u)
            rhs = constant * log_ent
        else:
            e, _ = entropy_fisher(u, pp.p)
            rhs = constant * (pp.p - 2.0) * e
        inputs = {"d": pp.d, "p": pp.p}
    else:
        raise ValidationError(
            f"unknown inequality_id {inequality_id!r}; choose from "
            "gns, log_sobolev, improved_gns, improved_phi, afst, antipodal"
        )
    return Deficit(
        lhs=float(i),
        rhs=float(rhs),
        deficit=float(i - rhs),
        inequality_id=inequality_id,
        inputs=inputs,
    )


def _nu(s: np.ndarray, q: float) -> np.ndarray:
    """Distance kernel: s^2 for |s| <= 1 and s^q for s > 1."""
    out = np.where(np.abs(s) <= 1.0, s * s, 0.0)
    big = s > 1.0
    if np.any(big):
        out = np.where(big, np.where(big, s, 1.0) ** q, out)
    return out


_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _bounded_minimum(func, lo: float, hi: float, xatol: float) -> float:
    """Smallest value found by Brent's bounded minimization of func on [lo, hi].

    Step for step the golden-section/parabolic loop of
    scipy.optimize.minimize_scalar(method="bounded"), with its default cap of
    500 evaluations, so the same iterates and the same minimum come out,
    without importing scipy.optimize.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return fx


@lru_cache(maxsize=64)
def c_q(q: float, scan_points: int = 4096) -> float:
    """Infimum over t > 0, t != 1 of (t^q - 1 - q(t-1)) / nu_q(t - 1).

    The quadratic branch covers t in (0, 2] where nu is (t-1)^2; the power
    branch covers t > 2.  The limit values q(q-1)/2 (t -> 1), q - 1 (t -> 0)
    and 1 (t -> infinity) enter as candidates so the infimum is captured even
    when it is not attained.  Memoized: ckp_distance asks for the same
    constant on every call.
    """
    q = float(q)
    if not math.isfinite(q) or q <= 1.0:
        raise ValidationError(f"c_q requires q > 1, got {q}")
    if scan_points < 64:
        raise ValidationError(f"scan_points too small: {scan_points}")

    def bregman(t):
        # t^q - 1 - q (t - 1), written through expm1/log1p near t = 1 where
        # the leading q (t - 1) terms cancel
        t = np.asarray(t, dtype=float)
        h = t - 1.0
        small = np.abs(h) <= 0.5
        out = np.empty_like(h)
        out[small] = np.expm1(q * np.log1p(h[small])) - q * h[small]
        out[~small] = t[~small] ** q - 1.0 - q * h[~small]
        return out

    def quad_branch(t):
        t = np.asarray(t, dtype=float)
        return bregman(t) / (t - 1.0) ** 2

    def power_branch(t):
        t = np.asarray(t, dtype=float)
        return bregman(t) / (t - 1.0) ** q

    candidates = [0.5 * q * (q - 1.0), q - 1.0, 1.0]

    t1 = np.linspace(1.0e-9, 2.0, scan_points)
    mask = np.abs(t1 - 1.0) > 1.0e-5
    v1 = quad_branch(t1[mask])
    i1 = int(np.argmin(v1))
    candidates.append(float(v1[i1]))
    lo = t1[mask][max(i1 - 1, 0)]
    hi = t1[mask][min(i1 + 1, len(v1) - 1)]
    if hi > lo and not (lo < 1.0 < hi):
        candidates.append(_bounded_minimum(lambda t: float(quad_branch(t)), lo, hi, 1.0e-12))

    t2 = np.geomspace(2.0, 1.0e6, scan_points)
    v2 = power_branch(t2)
    i2 = int(np.argmin(v2))
    candidates.append(float(v2[i2]))
    lo = t2[max(i2 - 1, 0)]
    hi = t2[min(i2 + 1, scan_points - 1)]
    if hi > lo:
        candidates.append(_bounded_minimum(lambda t: float(power_branch(t)), lo, hi, 1.0e-12))

    return min(candidates)


def ckp_distance(u: AxiFunction, p: float, scan_points: int = 4096) -> tuple[float, float]:
    """Distance-type lower bound on the entropy gap and the gap itself.

    For p in [1, 2) the gap is |u|_2^2 - |u|_p^2 and the bound is the
    generalized Csiszar-Kullback-Pinsker estimate around the mean value
    |u|_p; for p > 2 the gap is |u|_p^2 - |u|_2^2 and the bound uses the
    kernel nu_{p/2} around |u|_2.  Returns (lower_bound, entropy_gap).
    """
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValidationError(f"exponent p must be finite and >= 1, got {p}")
    if p == 2.0:
        raise ValidationError("ckp_distance is not defined at p = 2")
    n22 = lp_norm(u, 2.0) ** 2
    np2 = lp_norm(u, p) ** 2
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
        if n22 <= 0.0:
            raise ValidationError("distance bound needs a nonzero function")
        s = u.values**2 / n22 - 1.0
        integral = u.rule.integrate(_nu(s, 0.5 * p))
        lower = n22 * ((1.0 + c_q(0.5 * p, scan_points) * integral) ** (2.0 / p) - 1.0)
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
