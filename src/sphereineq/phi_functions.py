"""Convex improvement functions for entropy--information inequalities.

The interpolation deficit i - d e (information minus d times entropy) can be
strengthened to i >= d phi(e) for a convex function phi with phi(0) = 0 and
phi'(0) = 1.  This module provides the three families of such functions:

* the heat-flow function
      phi(s) = [X - X^(gamma/(2-p))] / (2 - p - gamma),  X = 1 - (p-2)s,
  with a logarithmic branch (1/(2-p)) X log X exactly at gamma = 2 - p and
  an exponential branch (e^(gamma s) - 1)/gamma at p = 2,
* the nonlinear-flow family phi_beta, one function per admissible flow
  exponent beta, defined through an exponential-kernel integral and
  normatively through the linear ODE
      phi_beta' = 1 + (gamma(beta)/beta^2) X^(a-1) phi_beta,
      a = p(beta-1) / (2 beta (p-2)),
* their upper envelope over admissible beta, the best improvement this
  construction yields.

phi_inverse inverts the scalar branches, which turns i >= d phi(e) into the
entropy bound e <= phi^{-1}(i/d).

All functions of s take scalars; PhiBetaQuadrature.value also accepts arrays
since envelope and bound computations sweep many s at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvariantViolation, ValidationError
from .exponents import FlowSetting, ParameterPoint, beta_roots, make_flow_setting

__all__ = [
    "PhiSpec",
    "PhiBetaQuadrature",
    "make_phi_spec",
    "phi",
    "phi_closed_form",
    "phi_log_case",
    "psi",
    "make_phi_beta_quadrature",
    "phi_beta",
    "envelope_beta_samples",
    "phi_envelope",
    "phi_inverse",
    "psi_tilde",
]

# |gamma - (2 - p)| below this routes to the logarithmic branch, where the
# closed form is 0/0.
_LOG_BRANCH_TOL = 1e-9

_DEFAULT_NODES = 64
_DEFAULT_BETA_SAMPLES = 64
_DEFAULT_BETA_CAP = 1e3

# Budget, in float64 elements, of one (beta, s, node) block of flow-member
# evaluations (1 MiB); a single beta always makes a block.
_MEMBER_BLOCK_ELEMENTS = 1 << 17

# exp argument above which exp(x) - 1 and exp(x) are indistinguishable and
# the plain power form should be used instead of the expm1 form
_EXP_SWITCH = 0.5


def _s_sup(p: float) -> float:
    return 1.0 / (p - 2.0) if p > 2.0 else math.inf


def _check_s(p: float, s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise ValidationError(f"entropy argument must be finite and >= 0, got {s}")
    if p > 2.0 and s >= _s_sup(p):
        raise ValidationError(
            f"entropy argument {s} is outside [0, 1/(p-2)) = [0, {_s_sup(p)}) for p = {p}"
        )
    return s


def _is_log_branch(pp: ParameterPoint) -> bool:
    return abs(pp.gamma - (2.0 - pp.p)) < _LOG_BRANCH_TOL


def _phi_closed(gamma: float, p: float, s: float) -> float:
    # (X - X^g) / eps with g = gamma/(2-p), eps = (2-p) - gamma, rewritten
    # through expm1 so nearly equal powers of X do not cancel.
    if s == 0.0:
        return 0.0
    x = 1.0 - (p - 2.0) * s
    eps = (2.0 - p) - gamma
    g = gamma / (2.0 - p)
    lx = math.log(x)
    u = (g - 1.0) * lx
    if abs(u) < _EXP_SWITCH:
        return -x * math.expm1(u) / eps
    try:
        xg = math.exp(g * lx)
    except OverflowError:
        xg = math.inf
    return (x - xg) / eps


def phi_closed_form(pp: ParameterPoint, s: float) -> float:
    """Heat-flow improvement function away from the logarithmic exponent.

    phi(s) = [1 - (p-2)s - (1-(p-2)s)^(-gamma/(p-2))] / (2 - p - gamma),
    defined for s in [0, 1/(p-2)) when p > 2 and all s >= 0 when p < 2.
    """
    p = pp.p
    if p == 2.0:
        raise ValidationError(
            "p = 2 uses the exponential branch (expm1(gamma s)/gamma); call phi"
        )
    if _is_log_branch(pp):
        raise ValidationError(
            f"gamma = 2 - p at (d, p) = ({pp.d}, {p}); use phi_log_case"
        )
    s = _check_s(p, s)
    return _phi_closed(pp.gamma, p, s)


def phi_log_case(pp: ParameterPoint, s: float) -> float:
    """Logarithmic-branch improvement function, valid exactly at gamma = 2 - p.

    phi(s) = (1/(2-p)) (1 + (2-p)s) log(1 + (2-p)s); the exponent p is then
    p_star(d) which lies in (1, 2), so the domain is all s >= 0.
    """
    p = pp.p
    if not _is_log_branch(pp):
        raise ValidationError(
            f"gamma != 2 - p at (d, p) = ({pp.d}, {p}); use phi_closed_form"
        )
    s = _check_s(p, s)
    if s == 0.0:
        return 0.0
    q = 2.0 - p
    return (1.0 + q * s) * math.log1p(q * s) / q


def phi(pp: ParameterPoint, s: float) -> float:
    """Heat-flow improvement function with automatic branch selection.

    Dispatches between the closed form, the logarithmic branch at
    gamma = 2 - p, and the exponential branch (e^(gamma s) - 1)/gamma at
    p = 2 (the limit of the closed form as p -> 2).
    """
    if pp.p == 2.0:
        s = _check_s(pp.p, s)
        return math.expm1(pp.gamma * s) / pp.gamma
    if _is_log_branch(pp):
        return phi_log_case(pp, s)
    return phi_closed_form(pp, s)


def psi(pp: ParameterPoint, s: float) -> float:
    """phi(s) - s, the quantity bounding the deficit from below; nonnegative."""
    return phi(pp, s) - s


@dataclass(frozen=True)
class PhiSpec:
    """Which improvement function applies at a parameter point.

    variant is one of "closed-form", "log-case", "beta-flow" or "envelope";
    admissible_s_sup is 1/(p-2) for p > 2 and infinite otherwise.
    """

    pp: ParameterPoint
    variant: str
    admissible_s_sup: float
    fs: FlowSetting | None = None
    beta_samples: int = _DEFAULT_BETA_SAMPLES
    beta_cap: float = _DEFAULT_BETA_CAP

    def value(self, s: float) -> float:
        if self.variant in ("closed-form", "log-case"):
            # phi dispatches consistently, including the p = 2 exponential
            # limit of the closed form
            return phi(self.pp, s)
        if self.variant == "beta-flow":
            assert self.fs is not None
            return phi_beta(self.fs, s)
        return phi_envelope(self.pp, s, beta_samples=self.beta_samples,
                            beta_cap=self.beta_cap)


def make_phi_spec(pp: ParameterPoint, fs: FlowSetting | None = None,
                  envelope: bool = False) -> PhiSpec:
    """Select the improvement-function variant for a parameter point."""
    sup = _s_sup(pp.p)
    if envelope:
        return PhiSpec(pp=pp, variant="envelope", admissible_s_sup=sup)
    if fs is not None:
        if not fs.admissible:
            raise ValidationError(
                f"beta = {fs.beta} is not admissible at (d, p) = ({pp.d}, {pp.p})"
            )
        return PhiSpec(pp=pp, variant="beta-flow", admissible_s_sup=sup, fs=fs)
    variant = "log-case" if _is_log_branch(pp) else "closed-form"
    return PhiSpec(pp=pp, variant=variant, admissible_s_sup=sup)


# ---------------------------------------------------------------------------
# Nonlinear-flow family phi_beta
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


def _entropy_array(p: float, s) -> tuple[bool, np.ndarray]:
    """(whether s is a scalar, s as a checked 1-D array in [0, 1/(p-2)))."""
    scalar = np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(~np.isfinite(s_arr)) or np.any(s_arr < 0.0):
        raise ValidationError("entropy arguments must be finite and >= 0")
    if np.any(s_arr >= _s_sup(p)):
        raise ValidationError(
            f"entropy arguments must stay below 1/(p-2) = {_s_sup(p)}"
        )
    return scalar, s_arr


def _member_values(p: float, exponent_a: np.ndarray, prefactor_c: np.ndarray,
                   nodes: np.ndarray, weights: np.ndarray,
                   s_arr: np.ndarray) -> np.ndarray:
    """phi_beta(s_arr) for each flow member (a, c), one row per member.

    Members are evaluated in blocks of _MEMBER_BLOCK_ELEMENTS. The blocks
    never split s: the quadrature sum is a BLAS matrix-vector product whose
    rounding depends on the row count, so a member's values would change.
    """
    x_s = 1.0 - (p - 2.0) * s_arr
    z = s_arr[:, None] * nodes[None, :]
    x_z = 1.0 - (p - 2.0) * z
    # c X_s^a expm1(a log(X_z/X_s)) = c (X_z^a - X_s^a), stable when the
    # two powers nearly coincide (z near s, or a near 0)
    log_xs = np.log(x_s)
    log_ratio = np.log(x_z) - log_xs[:, None]
    out = np.empty((exponent_a.size, s_arr.size))
    step = max(1, _MEMBER_BLOCK_ELEMENTS // max(1, log_ratio.size))
    buf = np.empty((min(step, exponent_a.size),) + log_ratio.shape)
    for lo in range(0, exponent_a.size, step):
        a = exponent_a[lo:lo + step, None]
        c = prefactor_c[lo:lo + step, None]
        xs_a = np.exp(a * log_xs)
        exponent = np.multiply(a[:, :, None], log_ratio, out=buf[:len(a)])
        np.expm1(exponent, out=exponent)
        exponent *= (c * xs_a)[:, :, None]
        kernel = np.exp(np.minimum(exponent, 709.0, out=exponent), out=exponent)
        np.multiply(s_arr, kernel @ weights, out=out[lo:lo + step])
    return out


@dataclass(frozen=True, eq=False)
class PhiBetaQuadrature:
    """Gauss--Legendre evaluator for the nonlinear-flow improvement function.

    phi_beta(s) = integral_0^s exp(c (X_z^a - X_s^a)) dz with X_z = 1-(p-2)z,
    a = p(beta-1)/(2 beta (p-2)) and c = 2 gamma(beta)/(beta(beta-1)p).  The
    kernel sign is fixed by the normative linear ODE

        phi_beta'(s) = 1 + (gamma(beta)/beta^2) X_s^(a-1) phi_beta(s),

    of which the integral is the explicit solution.
    """

    fs: FlowSetting
    exponent_a: float
    prefactor_c: float
    node_count: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def value(self, s):
        """phi_beta at scalar or array s in [0, 1/(p-2))."""
        scalar, s_arr = _entropy_array(self.fs.pp.p, s)
        vals = _member_values(self.fs.pp.p, np.array([self.exponent_a]),
                              np.array([self.prefactor_c]), self.nodes, self.weights,
                              s_arr)[0]
        return float(vals[0]) if scalar else vals


def make_phi_beta_quadrature(fs: FlowSetting,
                             node_count: int = _DEFAULT_NODES) -> PhiBetaQuadrature:
    """Build the quadrature evaluator for an admissible flow setting."""
    p, beta = fs.pp.p, fs.beta
    if not fs.admissible:
        raise ValidationError(
            f"beta = {beta} is not admissible at (d, p) = ({fs.pp.d}, {p})"
        )
    if p <= 2.0:
        raise ValidationError("the nonlinear-flow family requires p > 2")
    if beta == 1.0:
        raise ValidationError("beta = 1 reduces to the heat-flow closed form")
    if node_count < 2:
        raise ValidationError(f"node_count must be >= 2, got {node_count}")
    a = p * (beta - 1.0) / (2.0 * beta * (p - 2.0))
    c = 2.0 * fs.gamma_beta / (beta * (beta - 1.0) * p)
    nodes, weights = _gauss_legendre_01(node_count)
    return PhiBetaQuadrature(fs=fs, exponent_a=a, prefactor_c=c,
                             node_count=node_count, nodes=nodes, weights=weights)


def phi_beta(fs: FlowSetting, s: float, node_count: int = _DEFAULT_NODES) -> float:
    """Nonlinear-flow improvement function for admissible beta, p > 2.

    beta = 1 falls back to the heat-flow closed form, which is the beta -> 1
    limit of the integral.
    """
    if not fs.admissible:
        raise ValidationError(
            f"beta = {fs.beta} is not admissible at (d, p) = ({fs.pp.d}, {fs.pp.p})"
        )
    if fs.pp.p <= 2.0:
        raise ValidationError("the nonlinear-flow family requires p > 2")
    if fs.beta == 1.0:
        return phi_closed_form(fs.pp, s)
    return make_phi_beta_quadrature(fs, node_count).value(s)


# ---------------------------------------------------------------------------
# Envelope over admissible beta
# ---------------------------------------------------------------------------


def envelope_beta_samples(pp: ParameterPoint,
                          beta_samples: int = _DEFAULT_BETA_SAMPLES,
                          beta_cap: float = _DEFAULT_BETA_CAP) -> list[float]:
    """Log-spaced admissible beta values used to sample the envelope.

    Each component of the admissible set contributes beta_samples points,
    geometrically spaced (no component contains 0, so each has a fixed
    sign); infinite endpoints are clipped to |beta| = beta_cap.  beta = 1 is
    appended whenever admissible.
    """
    br = beta_roots(pp)
    values: list[float] = []
    for lo, hi in br.components:
        lo_c, hi_c = max(lo, -beta_cap), min(hi, beta_cap)
        if lo_c > hi_c:
            continue
        sign = 1.0 if lo_c > 0.0 else -1.0
        mag_lo, mag_hi = sorted((abs(lo_c), abs(hi_c)))
        grid = sign * np.geomspace(mag_lo, mag_hi, beta_samples)
        values.extend(float(b) for b in grid)
    if br.contains(1.0):
        values.append(1.0)
    if not values:
        raise InvariantViolation(
            f"no admissible beta within |beta| <= {beta_cap} at "
            f"(d, p) = ({pp.d}, {pp.p}); the admissible set itself is never empty"
        )
    return sorted(set(values))


@dataclass(frozen=True, eq=False)
class _BetaTable:
    """Per-point data of the envelope: one row per sampled beta != 1."""

    exponent_a: np.ndarray
    prefactor_c: np.ndarray
    has_beta_one: bool
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def _beta_table(pp: ParameterPoint, beta_samples: int, node_count: int,
                beta_cap: float) -> _BetaTable:
    exponent_a, prefactor_c, has_beta_one = [], [], False
    for beta in envelope_beta_samples(pp, beta_samples, beta_cap):
        if beta == 1.0:
            has_beta_one = True
            continue
        fs = make_flow_setting(pp, beta)
        if not fs.admissible:
            # roundoff at clipped component endpoints can push gamma(beta)
            # a hair below zero; such beta contribute phi_beta ~ s anyway
            continue
        quad = make_phi_beta_quadrature(fs, node_count)
        exponent_a.append(quad.exponent_a)
        prefactor_c.append(quad.prefactor_c)
    nodes, weights = _gauss_legendre_01(node_count)
    return _BetaTable(exponent_a=np.array(exponent_a), prefactor_c=np.array(prefactor_c),
                      has_beta_one=has_beta_one, nodes=nodes, weights=weights)


def phi_envelope(pp: ParameterPoint, s,
                 beta_samples: int = _DEFAULT_BETA_SAMPLES,
                 node_count: int = _DEFAULT_NODES,
                 beta_cap: float = _DEFAULT_BETA_CAP):
    """Pointwise maximum of phi_beta over sampled admissible beta, p > 2.

    Accepts scalar or array s; the envelope dominates every sampled member,
    in particular the heat-flow function whenever beta = 1 is admissible.
    All sampled beta are evaluated in one pass over a cached table, through
    the kernel of PhiBetaQuadrature.value, so each member keeps its bits.
    """
    p = pp.p
    if not (2.0 < p):
        raise ValidationError(f"the envelope is defined for p > 2, got p = {p}")
    if pp.d >= 3 and p >= pp.two_star:
        raise ValidationError(
            f"the envelope is defined for p < 2d/(d-2) = {pp.two_star}, got p = {p}"
        )
    table = _beta_table(pp, beta_samples, node_count, beta_cap)
    scalar, s_arr = _entropy_array(p, s)
    if table.exponent_a.size:
        best = _member_values(p, table.exponent_a, table.prefactor_c, table.nodes,
                              table.weights, s_arr).max(axis=0)
    else:
        best = np.full(s_arr.shape, -np.inf)
    if table.has_beta_one:
        np.maximum(best, [phi_closed_form(pp, float(si)) for si in s_arr], out=best)
    return float(best[0]) if scalar else best


# ---------------------------------------------------------------------------
# Inverse
# ---------------------------------------------------------------------------


def phi_inverse(pp: ParameterPoint, y: float) -> float:
    """Inverse of the heat-flow improvement function (automatic branch).

    phi is strictly increasing from 0 to +infinity on its domain, so every
    y >= 0 has a unique preimage; solved by bracketed root finding to
    relative tolerance well below 1e-10.
    """
    y = float(y)
    if not math.isfinite(y) or y < 0.0:
        raise ValidationError(f"phi_inverse requires finite y >= 0, got {y}")
    if y == 0.0:
        return 0.0
    p = pp.p
    f = lambda s: phi(pp, s) - y
    if p > 2.0:
        sup = _s_sup(p)
        hi = 0.5 * sup
        # approach the pole geometrically until phi(hi) >= y
        for _ in range(200):
            if f(hi) >= 0.0:
                break
            hi = sup - 0.5 * (sup - hi)
        else:
            raise ValidationError(f"y = {y} exceeds the representable range of phi")
    else:
        hi = 1.0
        for _ in range(2000):
            if f(hi) >= 0.0:
                break
            hi *= 2.0
        else:
            raise ValidationError(f"y = {y} exceeds the representable range of phi")
    from scipy.optimize import brentq

    return float(brentq(f, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps,
                        maxiter=300))


def psi_tilde(pp: ParameterPoint, i: float) -> float:
    """i - d phi_inverse(i/d): the deficit guaranteed at information level i.

    Nonnegative since phi(s) >= s implies phi_inverse(y) <= y.
    """
    i = float(i)
    if not math.isfinite(i) or i < 0.0:
        raise ValidationError(f"information level must be finite and >= 0, got {i}")
    return i - pp.d * phi_inverse(pp, i / pp.d)
