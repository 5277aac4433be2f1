"""Heat and nonlinear diffusion flows on axisymmetric sphere profiles.

The heat flow acts on w = u^p, which is linear in the spectral basis and is
therefore integrated exactly mode by mode.  The nonlinear flow acts on
rho = u^(beta p), which solves a porous-medium equation integrated by an
adaptive embedded Runge-Kutta method of lines with spectral evaluation of the
Laplacian and 2x dealiasing of the fractional power.  Both runs record
entropy, Fisher information, conserved mass, the relevant Lyapunov quantity,
and a finite-difference residual of the entropy production identity; a
certification pass turns a trace into per-interval inequality residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError, check_real
from .exponents import FlowSetting, ParameterPoint
from .ioutils import fmt_float
from .phi_functions import make_phi_beta_quadrature, phi
from .sphere_calculus import (
    AxiFunction,
    _check_even,
    _log_entropy,
    _spectral_energy,
    lp_norm,
    make_rule,
)

__all__ = [
    "CertificationReport",
    "EntropyTrace",
    "FlowConfig",
    "certify_ode_chain",
    "make_flow_config",
    "run_heat_flow",
    "run_nonlinear_flow",
    "trace_to_csv",
]


# Dormand-Prince step control of the porous-medium march, and the floor below
# which a density value counts as a loss of positivity.
_STEP_CONTROL = {"initial_dt": 1e-4, "safety": 0.9, "max_dt": 0.05, "rtol": 1e-8, "atol": 1e-12}
_POSITIVITY_FLOOR = 1.0e-12
# certification thresholds (mass drift, entropy-rate residual, Lyapunov increase)
_HEAT_TOLERANCES = (1e-10, 1e-6, 1e-8)
_NONLINEAR_TOLERANCES = (1e-6, 1e-4, 1e-7)


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters for a flow: dynamics, horizon, resolution."""

    setting: FlowSetting | ParameterPoint
    time_horizon: float
    node_count: int
    sample_count: int
    antipodal: bool


def make_flow_config(
    setting,
    time_horizon: float = 1.0,
    *,
    node_count: int = 48,
    sample_count: int = 257,
    antipodal: bool = False,
) -> FlowConfig:
    """Validated FlowConfig; setting is a FlowSetting or a bare ParameterPoint
    (the latter selects the heat flow, covering the p = 2 log case)."""
    if not isinstance(setting, (FlowSetting, ParameterPoint)):
        raise ValidationError("setting must be a FlowSetting or a ParameterPoint")
    time_horizon = check_real("time_horizon", time_horizon, 0.0, strict=True)
    if sample_count < 2:
        raise ValidationError(f"sample_count must be >= 2, got {sample_count}")
    if node_count < 4:
        raise ValidationError(f"node_count must be >= 4, got {node_count}")
    return FlowConfig(setting=setting, time_horizon=time_horizon, node_count=int(node_count),
                      sample_count=int(sample_count), antipodal=bool(antipodal))


@dataclass(frozen=True)
class EntropyTrace:
    """Sampled run record: entropy, Fisher information, mass, Lyapunov data.

    lyapunov is i - d phi(e) in heat mode (plain i - d e when the carre du
    champ exponent is negative) and i - d e in nonlinear mode;
    e_rate_residual is |e' + 2 i| (heat) or |e' + 2 beta^2 |grad u|^2|
    (nonlinear), with e' from five-point finite differences.  solver holds
    the Runge-Kutta work counters of a nonlinear run (accepted and rejected
    steps, positivity halvings among the rejections, right-hand-side
    evaluations); it is empty for the exact heat flow.
    """

    mode: str
    setting: FlowSetting | ParameterPoint
    times: np.ndarray
    e: np.ndarray
    i: np.ndarray
    mass: np.ndarray
    lyapunov: np.ndarray
    e_rate_residual: np.ndarray
    stats: dict
    solver: dict = field(default_factory=dict)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _fd_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order five-point first derivative on a uniform grid."""
    n = len(y)
    if n < 5:
        raise ValidationError("need at least 5 samples for the derivative stencil")
    dy = np.empty(n)
    dy[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    dy[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (
        12.0 * h
    )
    dy[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    dy[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (
        12.0 * h
    )
    dy[-1] = (
        25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]
    ) / (12.0 * h)
    return dy


def _setting_parts(setting) -> tuple[ParameterPoint, float]:
    if isinstance(setting, FlowSetting):
        return setting.pp, setting.beta
    return setting, 1.0


def _validate_initial(u0: AxiFunction, cfg: FlowConfig, pp: ParameterPoint) -> None:
    if u0.rule.d != pp.d:
        raise ValidationError(
            f"initial data lives on d = {u0.rule.d}, setting has d = {pp.d}"
        )
    if u0.rule.n != cfg.node_count:
        raise ValidationError(
            f"initial data uses {u0.rule.n} nodes, config requests {cfg.node_count}"
        )
    if not u0.is_positive:
        raise ValidationError("initial data must be strictly positive")
    if cfg.antipodal:
        _check_even(u0.values)


def _entropy_of_normalized(u_vals, rule, p) -> float:
    """Entropy when the p-norm is one by construction; log form at p = 2.

    For p != 2 this is I_p^(2/p) - I_2 over p - 2, not the lp_norm(u, p)**2 -
    lp_norm(u, 2)**2 of sphere_calculus.entropy_fisher: the two round
    differently, and this form keeps the bits of the recorded traces.
    """
    if p == 2.0:
        return 0.5 * _log_entropy(u_vals, rule)
    np2 = rule.integrate(np.abs(u_vals) ** p) ** (2.0 / p)
    n22 = rule.integrate(u_vals**2)
    return float((np2 - n22) / (p - 2.0))


def _grid_energy(rule, values: np.ndarray) -> float:
    """Squared gradient norm of grid values, rejecting non-finite ones."""
    if not np.isfinite(values).all():
        raise ValidationError("values must be finite")
    return _spectral_energy(rule, rule.to_coefficients(values))


def _record_trace(mode, setting, rule, times, densities, stats, solver=None) -> EntropyTrace:
    """Trace of a flow from its unit-mass densities rho = u^(beta p) at the times.

    Each sample gives the entropy e and Fisher information i of w = rho^(1/p),
    the mass of rho, |grad u|^2 (i itself when beta = 1) and the Lyapunov
    quantity; the entropy-rate residual follows from the sampled e.  The heat
    flow is the beta = 1 case, whose Lyapunov quantity is i - d phi(e) when
    the carre du champ exponent is nonnegative.
    """
    pp, beta = _setting_parts(setting)
    p = pp.p
    use_phi = mode == "heat" and pp.gamma >= 0.0
    e, i, mass, lyap, grad_u = (np.empty(len(times)) for _ in range(5))
    for k, rho in enumerate(densities):
        w_vals = rho ** (1.0 / p)
        i[k] = _grid_energy(rule, w_vals)
        grad_u[k] = i[k] if beta == 1.0 else _grid_energy(rule, rho ** (1.0 / (beta * p)))
        mass[k] = rule.integrate(rho)
        e[k] = _entropy_of_normalized(w_vals, rule, p)
        lyap[k] = i[k] - pp.d * (phi(pp, max(e[k], 0.0)) if use_phi else e[k])
    rate = _fd_derivative(e, times[1] - times[0]) + 2.0 * beta**2 * grad_u
    return EntropyTrace(
        mode=mode,
        setting=setting,
        times=_freeze(times),
        e=_freeze(e),
        i=_freeze(i),
        mass=_freeze(mass),
        lyapunov=_freeze(lyap),
        e_rate_residual=_freeze(np.abs(rate)),
        stats=stats,
        solver=solver or {},
    )


def run_heat_flow(u0: AxiFunction, cfg: FlowConfig) -> EntropyTrace:
    """Evolve u0 under the heat flow and record the entropy trace.

    w = u0^p is normalized to unit mass, advanced exactly in the eigenbasis,
    and sampled on a uniform grid.  Because the p-norm of u stays equal to
    one, the recorded Lyapunov quantity i - d phi(e) is evaluated without any
    renormalization error.
    """
    pp, beta = _setting_parts(cfg.setting)
    if beta != 1.0:
        raise ValidationError("run_heat_flow requires beta = 1")
    _validate_initial(u0, cfg, pp)
    rule = u0.rule
    norm = lp_norm(u0, pp.p)
    c0 = rule.to_coefficients((u0.values / norm) ** pp.p)
    if cfg.antipodal:
        c0 = c0.copy()
        c0[1::2] = 0.0
    times = np.linspace(0.0, cfg.time_horizon, cfg.sample_count)
    densities = []
    for t in times:
        w_vals = rule.to_values(c0 * np.exp(-rule.eigenvalues * t))
        if np.any(w_vals <= 0.0):
            raise ConvergenceError(
                f"positivity lost in spectral reconstruction at t = {t}"
            )
        densities.append(w_vals)
    stats = {
        "mode": "heat",
        "normalization": float(norm),
        "samples": int(cfg.sample_count),
        "gamma_nonnegative": bool(pp.gamma >= 0.0),
    }
    return _record_trace("heat", cfg.setting, rule, times, densities, stats)


class _PositivityLoss(Exception):
    """Internal signal: a Runge-Kutta stage left the positive cone."""


class _PorousMediumRHS:
    """Spectral right-hand side of d rho / dt = (1/m) Lap(rho^m), dealiased.

    The 1/m factor keeps the clock of the underlying profile equation, so the
    recorded entropy rate satisfies e' = -2 beta^2 |grad u|^2 exactly.
    """

    def __init__(self, rule, m: float, floor: float, even_only: bool):
        fine = make_rule(rule.d, 2 * rule.n)
        n = rule.n
        self.analysis = rule.basis.T * rule.weights
        self.synth_fine = fine.basis[:, :n]
        self.analysis_fine = fine.basis[:, :n].T * fine.weights
        self.synth = rule.basis
        self.neg_eigs = -rule.eigenvalues / m
        self.m = m
        self.floor = floor
        self.even_only = even_only
        self.evaluations = 0

    def __call__(self, rho_vals: np.ndarray) -> np.ndarray:
        self.evaluations += 1
        if np.fmin.reduce(rho_vals) <= self.floor:
            raise _PositivityLoss
        c = self.analysis @ rho_vals
        rho_fine = self.synth_fine @ c
        if np.fmin.reduce(rho_fine) <= 0.0:
            raise _PositivityLoss
        rho_fine **= self.m
        c_lap = self.analysis_fine @ rho_fine
        c_lap *= self.neg_eigs
        if self.even_only:
            c_lap[1::2] = 0.0
        return self.synth @ c_lap


# Dormand-Prince 5(4) coefficients.
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_B4 = (
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
)


def _nonzero(row):
    return tuple((j, a) for j, a in enumerate(row) if a != 0.0)


# Stage rows 2..6, the stage-7 row and the 4th-order weights as (stage index,
# coefficient) pairs.  The 5th-order weights are the stage-7 row plus 0 * k7,
# so y5 is the input of stage 7 and k7 = rhs(y5) is the next step's k1 (FSAL).
_DP_STAGES = tuple(_nonzero(row) for row in _DP_A[1:6])
_DP_Y5 = _nonzero(_DP_A[6])
_DP_Y4 = _nonzero(_DP_B4)


def _stage_input(y, dt, row, k, out, term):
    """out = y + dt * (a_1 k_1 + a_2 k_2 + ...), summed left to right."""
    (j, a), *rest = row
    np.multiply(k[j], a, out=out)
    for j, a in rest:
        np.multiply(k[j], a, out=term)
        out += term
    out *= dt
    out += y
    return out


def _advance(rhs, y, t_target, t, dt, sc, floor, stats, k1=None):
    """Adaptive Dormand-Prince march of y from t to t_target.

    k1 is rhs(y) when the caller has it (first same as last: an accepted
    step's last stage is evaluated at its new y).  rhs must return a new
    array.  stats counts accepted_steps, rejected_steps and, among the
    rejections, positivity_halvings.  Returns (y, t, dt, k1).  A non-finite
    error estimate, or a FloatingPointError, ends it with ConvergenceError.
    """
    rtol = sc["rtol"]
    atol = sc["atol"]
    safety = sc["safety"]
    max_dt = sc["max_dt"]
    err_prev = 1.0
    acc = np.empty_like(y)
    term = np.empty_like(y)
    abs_y = np.abs(y)
    try:
        while t < t_target - 1e-14 * max(1.0, t_target):
            dt = min(dt, t_target - t, max_dt)
            halvings = 0
            while True:
                try:
                    if k1 is None:
                        k1 = rhs(y)
                    k = [k1]
                    for row in _DP_STAGES:
                        k.append(rhs(_stage_input(y, dt, row, k, acc, term)))
                    y5 = _stage_input(y, dt, _DP_Y5, k, np.empty_like(y), term)
                    k.append(rhs(y5))
                    if np.fmin.reduce(y5) <= floor:
                        raise _PositivityLoss
                except _PositivityLoss:
                    stats["rejected_steps"] += 1
                    stats["positivity_halvings"] += 1
                    halvings += 1
                    if halvings > 40:
                        raise ConvergenceError(
                            "positivity could not be maintained after 40 step halvings"
                        )
                    dt *= 0.5
                    continue
                r = np.subtract(y5, _stage_input(y, dt, _DP_Y4, k, acc, term), out=acc)
                scale = np.abs(y5)
                np.maximum(abs_y, scale, out=scale)
                scale *= rtol
                scale += atol
                r /= scale
                r *= r
                err = math.sqrt(r.sum() / r.size)
                if not math.isfinite(err):  # under numpy's defaults, nothing raised
                    raise FloatingPointError(f"error estimate is {err}")
                if err > 1.0 and dt <= 1e-15:
                    raise ConvergenceError(
                        f"step size fell to {dt:.3g} at t = {t:.6g} with error "
                        f"estimate {err:.3g} > 1"
                    )
                if err <= 1.0:
                    factor = safety * (err + 1e-16) ** -0.14 * err_prev**0.08
                    err_prev = max(err, 1e-16)
                    y = y5
                    abs_y = np.abs(y)
                    k1 = k[-1]
                    t += dt
                    stats["accepted_steps"] += 1
                    dt = min(dt * min(max(factor, 0.2), 5.0), max_dt)
                    break
                stats["rejected_steps"] += 1
                dt *= min(max(safety * err**-0.2, 0.2), 0.9)
    except FloatingPointError as exc:
        raise ConvergenceError(f"the step at t = {t:.6g}, dt = {dt:.3g} broke down: {exc}") from None
    return y, t, dt, k1


def run_nonlinear_flow(u0: AxiFunction, cfg: FlowConfig) -> EntropyTrace:
    """Evolve u0 under the porous-medium image flow and record the trace.

    rho = u^(beta p) is normalized to unit mass and advanced by the adaptive
    method of lines; entropy and Fisher information are those of u^beta, and
    the rate residual compares e' with -2 beta^2 |grad u|^2.  Inadmissible
    settings (gamma(beta) < 0) run in diagnostics-only mode: the trace is
    produced but monotonicity is not expected.
    """
    if not isinstance(cfg.setting, FlowSetting):
        raise ValidationError("run_nonlinear_flow needs a FlowSetting")
    fs = cfg.setting
    _validate_initial(u0, cfg, fs.pp)
    if fs.m <= 0.0:
        raise ValidationError(
            f"porous-medium exponent must be positive, got m = {fs.m}"
        )
    rule = u0.rule
    rho0 = u0.values ** (fs.beta * fs.pp.p)
    rho0 = rho0 / rule.integrate(rho0)
    if cfg.antipodal:
        c = rule.to_coefficients(rho0)
        c[1::2] = 0.0
        rho0 = rule.to_values(c)
    rhs = _PorousMediumRHS(rule, fs.m, _POSITIVITY_FLOOR, cfg.antipodal)
    times = np.linspace(0.0, cfg.time_horizon, cfg.sample_count)
    steps = {"accepted_steps": 0, "rejected_steps": 0, "positivity_halvings": 0}
    rho = rho0.copy()
    t = 0.0
    dt = _STEP_CONTROL["initial_dt"]
    k1 = None
    densities = []
    for t_target in times:
        if t_target > t:
            rho, t, dt, k1 = _advance(
                rhs, rho, float(t_target), t, dt, _STEP_CONTROL, _POSITIVITY_FLOOR, steps, k1,
            )
        # _advance never writes into its y, so a stored rho keeps its samples
        densities.append(rho)
    stats = {
        "mode": "nonlinear",
        "admissible": bool(fs.admissible),
        "m": float(fs.m),
        "accepted_steps": steps["accepted_steps"],
        "rejected_steps": steps["rejected_steps"],
        "final_dt": float(dt),
    }
    solver = {**steps, "rhs_evaluations": rhs.evaluations}
    return _record_trace("nonlinear", fs, rule, times, densities, stats, solver)


@dataclass(frozen=True)
class CertificationReport:
    """Per-trace residual summary for the entropy ODE chain."""

    mode: str
    ode_chain_applicable: bool
    ode_chain_min_residual: float
    lyapunov_max_increase: float
    psi_lyapunov_max_increase: float | None
    e_rate_max_residual: float
    mass_max_drift: float
    passed: bool
    tolerances: dict


def certify_ode_chain(
    trace: EntropyTrace,
    pp: ParameterPoint | None = None,
    *,
    ode_tol: float = 1.0e-6,
) -> CertificationReport:
    """Check the differential inequalities encoded in a flow trace.

    Heat mode verifies e'' + 2 d e' - gamma (e')^2 / (1 - (p-2) e) >= 0 with
    e' = -2 i and e'' = -2 i' (i' by finite differences), plus monotonicity of
    the recorded Lyapunov quantity.  Nonlinear mode checks monotonicity of
    i - d e and, for admissible settings, of i psi'(e) - d psi(e).  pp, if
    given, must be the trace's own point.  ode_tol is the slack on the ODE
    residual; the other thresholds are fixed per mode and listed in the
    report's tolerances.
    """
    check_real("ode_tol", ode_tol, 0.0)
    n = len(trace.times)
    if n < 64:
        raise ValidationError(f"trace too short for certification: {n} < 64 samples")
    h = trace.times[1] - trace.times[0]
    if np.max(np.abs(np.diff(trace.times) - h)) > 1e-9 * max(h, 1.0):
        raise ValidationError("certification needs a uniform time grid")
    own = trace.setting.pp if isinstance(trace.setting, FlowSetting) else trace.setting
    if pp is not None and (pp.d, pp.p) != (own.d, own.p):
        raise ValidationError(f"pp = ({pp.d}, {pp.p}) is not the trace's point ({own.d}, {own.p})")
    pp = own
    heat = trace.mode == "heat"
    mass_tol, rate_tol, lyapunov_tol = _HEAT_TOLERANCES if heat else _NONLINEAR_TOLERANCES

    mass_drift = float(np.max(np.abs(trace.mass - trace.mass[0])) / abs(trace.mass[0]))
    rate_max = float(np.max(trace.e_rate_residual))
    lyap_increase = float(np.max(np.diff(trace.lyapunov)))

    psi_increase = None
    if heat:
        applicable = pp.gamma >= 0.0
        e_prime = -2.0 * trace.i
        e_second = -2.0 * _fd_derivative(trace.i, h)
        denom = 1.0 - (pp.p - 2.0) * trace.e
        residual = e_second + 2.0 * pp.d * e_prime - pp.gamma * e_prime**2 / denom
        ode_min = float(np.min(residual[2:-2]))
    else:
        fs = trace.setting
        applicable = False
        ode_min = math.nan
        if isinstance(fs, FlowSetting) and fs.admissible and fs.beta != 1.0:
            quad = make_phi_beta_quadrature(fs)
            # clip entropy roundoff (order 1e-16 on stationary data) at zero
            e_clip = np.maximum(trace.e, 0.0)
            x = 1.0 - (pp.p - 2.0) * e_clip
            psi_prime = np.exp(quad.prefactor_c * (x**quad.exponent_a - 1.0))
            phi_vals = np.asarray(quad.value(e_clip), dtype=float)
            psi_lyap = psi_prime * (trace.i - pp.d * phi_vals)
            psi_increase = float(np.max(np.diff(psi_lyap)))

    tolerances = {"mass_tol": mass_tol, "rate_tol": rate_tol, "lyapunov_tol": lyapunov_tol,
                  "ode_tol": ode_tol}
    passed = mass_drift <= mass_tol and rate_max <= rate_tol
    admissible_run = (
        trace.stats.get("admissible", True) if trace.mode == "nonlinear" else True
    )
    if admissible_run:
        passed = passed and lyap_increase <= lyapunov_tol
    if heat and applicable:
        passed = passed and ode_min >= -ode_tol
    if psi_increase is not None:
        passed = passed and psi_increase <= lyapunov_tol
    return CertificationReport(
        mode=trace.mode,
        ode_chain_applicable=bool(applicable),
        ode_chain_min_residual=ode_min,
        lyapunov_max_increase=lyap_increase,
        psi_lyapunov_max_increase=psi_increase,
        e_rate_max_residual=rate_max,
        mass_max_drift=mass_drift,
        passed=bool(passed),
        tolerances=tolerances,
    )


def trace_to_csv(trace: EntropyTrace) -> str:
    """Render a trace as CSV with header t,e,i,mass,lyapunov,e_rate_residual."""
    lines = ["t,e,i,mass,lyapunov,e_rate_residual"]
    for k in range(len(trace.times)):
        lines.append(
            ",".join(
                fmt_float(x)
                for x in (
                    trace.times[k],
                    trace.e[k],
                    trace.i[k],
                    trace.mass[k],
                    trace.lyapunov[k],
                    trace.e_rate_residual[k],
                )
            )
        )
    return "\n".join(lines) + "\n"
