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

All functions of s take scalars; PhiBetaQuadrature.value and phi_envelope
also accept arrays since envelope and bound computations sweep many s at once.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .bounds import _require_subcritical_above_two
from .errors import InvariantViolation, ValidationError, check_real
from .exponents import FlowSetting, ParameterPoint, _is_log_branch, beta_roots, make_flow_setting

__all__ = [
    "PhiSpec",
    "PhiBetaQuadrature",
    "make_phi_spec",
    "phi",
    "make_phi_beta_quadrature",
    "phi_beta",
    "envelope_beta_samples",
    "phi_envelope",
]

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
    s = check_real("entropy argument", s, 0.0)
    if p > 2.0 and s >= _s_sup(p):
        raise ValidationError(
            f"entropy argument {s} is outside [0, 1/(p-2)) = [0, {_s_sup(p)}) for p = {p}"
        )
    return s


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


def phi(pp: ParameterPoint, s: float) -> float:
    """Heat-flow improvement function.

    phi(s) = [1 - (p-2)s - (1-(p-2)s)^(-gamma/(p-2))] / (2 - p - gamma),
    defined for s in [0, 1/(p-2)) when p > 2 and all s >= 0 when p <= 2.
    Exactly at gamma = 2 - p (p = p_star(d) in (1, 2)) it is the logarithmic
    limit (1/(2-p)) (1 + (2-p)s) log(1 + (2-p)s), and at p = 2 the
    exponential limit (e^(gamma s) - 1)/gamma.
    """
    p = pp.p
    s = _check_s(p, s)
    if p == 2.0:
        try:
            return math.expm1(pp.gamma * s) / pp.gamma
        except OverflowError:  # gamma > 0 at p = 2
            return math.inf
    if _is_log_branch(pp):
        if s == 0.0:
            return 0.0
        q = 2.0 - p
        return (1.0 + q * s) * math.log1p(q * s) / q
    return _phi_closed(pp.gamma, p, s)


@dataclass(frozen=True)
class PhiSpec:
    """The improvement function that applies at a parameter point: value(s)."""

    pp: ParameterPoint
    value: Callable[[float], float]


def make_phi_spec(pp: ParameterPoint, fs: FlowSetting | None = None,
                  envelope: bool = False) -> PhiSpec:
    """The envelope, the flow member of fs (admissible, at pp), or phi at pp."""
    if envelope:
        return PhiSpec(pp, partial(phi_envelope, pp))
    if fs is not None:
        if fs.pp != pp:
            raise ValidationError(
                f"the flow setting's point ({fs.pp.d}, {fs.pp.p}) is not ({pp.d}, {pp.p})"
            )
        _member_coefficients(fs)
        return PhiSpec(pp, partial(phi_beta, fs))
    return PhiSpec(pp, partial(phi, pp))


# ---------------------------------------------------------------------------
# Nonlinear-flow family phi_beta
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (t + 1.0), 0.5 * w


def _entropy_array(p: float, s) -> tuple[bool, np.ndarray]:
    """(whether s is a scalar, s as a checked 1-D array in [0, 1/(p-2)))."""
    if isinstance(s, float) and 0.0 <= s < _s_sup(p):  # a float in range skips the array checks
        return True, np.array([s])
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


def _member_coefficients(fs: FlowSetting) -> tuple[float, float] | None:
    """(a, c) of the flow member phi_beta, or None at beta = 1 (the heat-flow phi).

    Raises unless beta is admissible and p > 2.
    """
    p, beta = fs.pp.p, fs.beta
    if not fs.admissible:
        raise ValidationError(
            f"beta = {beta} is not admissible at (d, p) = ({fs.pp.d}, {p})"
        )
    if p <= 2.0:
        raise ValidationError("the nonlinear-flow family requires p > 2")
    if beta == 1.0:
        return None
    return (p * (beta - 1.0) / (2.0 * beta * (p - 2.0)),
            2.0 * fs.gamma_beta / (beta * (beta - 1.0) * p))


def make_phi_beta_quadrature(fs: FlowSetting,
                             node_count: int = _DEFAULT_NODES) -> PhiBetaQuadrature:
    """Build the quadrature evaluator for an admissible flow setting."""
    coefficients = _member_coefficients(fs)
    if coefficients is None:
        raise ValidationError("beta = 1 reduces to the heat-flow closed form")
    if node_count < 2:
        raise ValidationError(f"node_count must be >= 2, got {node_count}")
    nodes, weights = _gauss_legendre_01(node_count)
    return PhiBetaQuadrature(fs, *coefficients, node_count, nodes, weights)


def phi_beta(fs: FlowSetting, s: float, node_count: int = _DEFAULT_NODES) -> float:
    """Nonlinear-flow improvement function for admissible beta, p > 2.

    beta = 1 falls back to the heat-flow closed form, which is the beta -> 1
    limit of the integral.
    """
    if _member_coefficients(fs) is None:
        return phi(fs.pp, s)
    return make_phi_beta_quadrature(fs, node_count).value(s)


# ---------------------------------------------------------------------------
# Envelope over admissible beta
# ---------------------------------------------------------------------------


def envelope_beta_samples(pp: ParameterPoint) -> list[float]:
    """Log-spaced admissible beta values used to sample the envelope.

    Each component of the admissible set contributes _DEFAULT_BETA_SAMPLES
    points, geometrically spaced (no component contains 0, so each has a
    fixed sign); infinite endpoints are clipped to |beta| = _DEFAULT_BETA_CAP.
    beta = 1 is appended whenever admissible.
    """
    br = beta_roots(pp)
    values: list[float] = []
    for lo, hi in br.components:
        lo_c, hi_c = max(lo, -_DEFAULT_BETA_CAP), min(hi, _DEFAULT_BETA_CAP)
        if lo_c > hi_c:
            continue
        sign = 1.0 if lo_c > 0.0 else -1.0
        mag_lo, mag_hi = sorted((abs(lo_c), abs(hi_c)))
        grid = sign * np.geomspace(mag_lo, mag_hi, _DEFAULT_BETA_SAMPLES)
        values.extend(float(b) for b in grid)
    if br.contains(1.0):
        values.append(1.0)
    if not values:
        raise InvariantViolation(
            f"no admissible beta within |beta| <= {_DEFAULT_BETA_CAP} at "
            f"(d, p) = ({pp.d}, {pp.p}); the admissible set itself is never empty"
        )
    return sorted(set(values))


@lru_cache(maxsize=64)
def _beta_table(pp: ParameterPoint) -> tuple[np.ndarray, np.ndarray, bool]:
    """(exponent_a, prefactor_c, has_beta_one): one a and c per sampled beta != 1."""
    exponent_a, prefactor_c, has_beta_one = [], [], False
    for beta in envelope_beta_samples(pp):
        if beta == 1.0:
            has_beta_one = True
            continue
        fs = make_flow_setting(pp, beta)
        # roundoff at clipped component endpoints can push gamma(beta)
        # a hair below zero; such beta contribute phi_beta ~ s anyway
        if fs.admissible:
            a, c = _member_coefficients(fs)
            exponent_a.append(a)
            prefactor_c.append(c)
    return np.array(exponent_a), np.array(prefactor_c), has_beta_one


def phi_envelope(pp: ParameterPoint, s):
    """Pointwise maximum of phi_beta over sampled admissible beta, p > 2.

    Accepts scalar or array s; the envelope dominates every sampled member,
    in particular the heat-flow function whenever beta = 1 is admissible.
    All sampled beta are evaluated in one pass over a cached table, through
    the kernel of PhiBetaQuadrature.value, so each member keeps its bits.
    """
    _require_subcritical_above_two(pp, "phi_envelope")
    p = pp.p
    exponent_a, prefactor_c, has_beta_one = _beta_table(pp)
    scalar, s_arr = _entropy_array(p, s)
    if exponent_a.size:
        best = _member_values(p, exponent_a, prefactor_c, *_gauss_legendre_01(_DEFAULT_NODES),
                              s_arr).max(axis=0)
    else:
        best = np.full(s_arr.shape, -np.inf)
    if has_beta_one:
        # _entropy_array checked s, and p > 2 is on the closed-form branch
        np.maximum(best, [_phi_closed(pp.gamma, p, float(si)) for si in s_arr], out=best)
    return float(best[0]) if scalar else best
