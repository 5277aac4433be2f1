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

from .errors import ConvergenceError, ValidationError
from .exponents import FlowSetting, ParameterPoint
from .ioutils import atomic_write_text, fmt_float
from .phi_functions import make_phi_beta_quadrature, phi
from .sphere_calculus import AxiFunction, dirichlet, lp_norm, make_rule

__all__ = [
    "CertificationReport",
    "EntropyTrace",
    "FlowConfig",
    "certify_ode_chain",
    "heat_evolve",
    "make_flow_config",
    "run_heat_flow",
    "run_nonlinear_flow",
    "trace_to_csv",
    "write_trace",
]


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters for a flow: dynamics, horizon, stepping, resolution."""

    setting: FlowSetting | ParameterPoint
    time_horizon: float
    step_control: dict
    node_count: int
    positivity_floor: float
    sample_count: int
    antipodal: bool


def make_flow_config(
    setting,
    time_horizon: float = 1.0,
    *,
    node_count: int = 48,
    initial_dt: float = 1.0e-4,
    safety: float = 0.9,
    max_dt: float = 0.05,
    rtol: float = 1.0e-8,
    atol: float = 1.0e-12,
    positivity_floor: float = 1.0e-12,
    sample_count: int = 257,
    antipodal: bool = False,
) -> FlowConfig:
    """Validated FlowConfig; setting is a FlowSetting or a bare ParameterPoint
    (the latter selects the heat flow, covering the p = 2 log case)."""
    if not isinstance(setting, (FlowSetting, ParameterPoint)):
        raise ValidationError("setting must be a FlowSetting or a ParameterPoint")
    if not (math.isfinite(time_horizon) and time_horizon > 0.0):
        raise ValidationError(f"time_horizon must be positive, got {time_horizon}")
    if not (math.isfinite(positivity_floor) and positivity_floor > 0.0):
        raise ValidationError(
            f"positivity_floor must be positive, got {positivity_floor}"
        )
    if sample_count < 2:
        raise ValidationError(f"sample_count must be >= 2, got {sample_count}")
    if node_count < 4:
        raise ValidationError(f"node_count must be >= 4, got {node_count}")
    if not (0.0 < safety <= 1.0):
        raise ValidationError(f"safety factor must be in (0, 1], got {safety}")
    if not (0.0 < initial_dt <= max_dt):
        raise ValidationError("need 0 < initial_dt <= max_dt")
    if not (math.isfinite(rtol) and rtol > 0.0):
        raise ValidationError(f"rtol must be finite and positive, got {rtol}")
    if not (math.isfinite(atol) and atol >= 0.0):
        raise ValidationError(f"atol must be finite and nonnegative, got {atol}")
    step_control = {
        "initial_dt": float(initial_dt),
        "safety": float(safety),
        "max_dt": float(max_dt),
        "rtol": float(rtol),
        "atol": float(atol),
    }
    return FlowConfig(
        setting=setting,
        time_horizon=float(time_horizon),
        step_control=step_control,
        node_count=int(node_count),
        positivity_floor=float(positivity_floor),
        sample_count=int(sample_count),
        antipodal=bool(antipodal),
    )


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
        vals = u0.values
        scale = float(np.max(np.abs(vals))) or 1.0
        if float(np.max(np.abs(vals - vals[::-1]))) > 1e-10 * scale:
            raise ValidationError("antipodal run needs even initial data")


def heat_evolve(u0: AxiFunction, pp: ParameterPoint, t: float) -> AxiFunction:
    """Exact heat-flow step: evolve w = u0^p spectrally and return w^(1/p)."""
    if t < 0.0:
        raise ValidationError(f"time must be >= 0, got {t}")
    if not u0.is_positive:
        raise ValidationError("initial data must be strictly positive")
    rule = u0.rule
    p = pp.p
    w = rule.to_coefficients(u0.values**p)
    w_t = w * np.exp(-rule.eigenvalues * t)
    vals = rule.to_values(w_t)
    if np.any(vals <= 0.0):
        raise ConvergenceError(
            "spectral reconstruction lost positivity along the heat flow"
        )
    return AxiFunction(rule, values=vals ** (1.0 / p))


def _entropy_of_normalized(u_vals, rule, p) -> float:
    """Entropy when the p-norm is one by construction; log form at p = 2."""
    if p == 2.0:
        u2 = u_vals**2
        mass = rule.integrate(u2)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(u2 > 0.0, u2 * np.log(u2 / mass), 0.0)
        return 0.5 * float(rule.integrate(terms))
    np2 = rule.integrate(np.abs(u_vals) ** p) ** (2.0 / p)
    n22 = rule.integrate(u_vals**2)
    return float((np2 - n22) / (p - 2.0))


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
    p = pp.p
    norm = lp_norm(u0, p)
    w0 = (u0.values / norm) ** p
    c0 = rule.to_coefficients(w0)
    if cfg.antipodal:
        c0 = c0.copy()
        c0[1::2] = 0.0
    decay = rule.eigenvalues
    times = np.linspace(0.0, cfg.time_horizon, cfg.sample_count)
    n = cfg.sample_count
    e = np.empty(n)
    i = np.empty(n)
    mass = np.empty(n)
    lyap = np.empty(n)
    gamma_ok = pp.gamma >= 0.0
    for k, t in enumerate(times):
        w_vals = rule.to_values(c0 * np.exp(-decay * t))
        if np.any(w_vals <= 0.0):
            raise ConvergenceError(
                f"positivity lost in spectral reconstruction at t = {t}"
            )
        u_vals = w_vals ** (1.0 / p)
        u = AxiFunction(rule, values=u_vals)
        e[k] = _entropy_of_normalized(u_vals, rule, p)
        i[k] = dirichlet(u)
        mass[k] = rule.integrate(w_vals)
        lyap[k] = i[k] - pp.d * (phi(pp, max(e[k], 0.0)) if gamma_ok else e[k])
    h = times[1] - times[0]
    residual = np.abs(_fd_derivative(e, h) + 2.0 * i)
    stats = {
        "mode": "heat",
        "normalization": float(norm),
        "samples": int(n),
        "gamma_nonnegative": bool(gamma_ok),
    }
    return EntropyTrace(
        mode="heat",
        setting=cfg.setting,
        times=_freeze(times),
        e=_freeze(e),
        i=_freeze(i),
        mass=_freeze(mass),
        lyapunov=_freeze(lyap),
        e_rate_residual=_freeze(residual),
        stats=stats,
    )


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
        if (rho_vals <= self.floor).any():
            raise _PositivityLoss
        c = self.analysis @ rho_vals
        rho_fine = self.synth_fine @ c
        if (rho_fine <= 0.0).any():
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
    rejections, positivity_halvings.  Returns (y, t, dt, k1).
    """
    rtol = sc["rtol"]
    atol = sc["atol"]
    safety = sc["safety"]
    max_dt = sc["max_dt"]
    err_prev = 1.0
    acc = np.empty_like(y)
    term = np.empty_like(y)
    abs_y = np.abs(y)
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
                if (y5 <= floor).any():
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
            if not math.isfinite(err):
                raise ConvergenceError(
                    f"error estimate is {err} at t = {t:.6g}, dt = {dt:.3g}"
                )
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
    pp = fs.pp
    beta = fs.beta
    _validate_initial(u0, cfg, pp)
    if fs.m <= 0.0:
        raise ValidationError(
            f"porous-medium exponent must be positive, got m = {fs.m}"
        )
    rule = u0.rule
    p = pp.p
    bp = beta * p
    rho0 = u0.values**bp
    rho0 = rho0 / rule.integrate(rho0)
    if cfg.antipodal:
        c = rule.to_coefficients(rho0)
        c[1::2] = 0.0
        rho0 = rule.to_values(c)
    rhs = _PorousMediumRHS(rule, fs.m, cfg.positivity_floor, cfg.antipodal)
    times = np.linspace(0.0, cfg.time_horizon, cfg.sample_count)
    n = cfg.sample_count
    e = np.empty(n)
    i = np.empty(n)
    mass = np.empty(n)
    lyap = np.empty(n)
    grad_u = np.empty(n)
    steps = {"accepted_steps": 0, "rejected_steps": 0, "positivity_halvings": 0}
    rho = rho0.copy()
    t = 0.0
    dt = cfg.step_control["initial_dt"]
    k1 = None
    for k, t_target in enumerate(times):
        if t_target > t:
            rho, t, dt, k1 = _advance(
                rhs, rho, float(t_target), t, dt, cfg.step_control,
                cfg.positivity_floor, steps, k1,
            )
        u_vals = rho ** (1.0 / bp)
        w_vals = rho ** (1.0 / p)
        w = AxiFunction(rule, values=w_vals)
        mass[k] = rule.integrate(rho)
        e[k] = _entropy_of_normalized(w_vals, rule, p)
        i[k] = dirichlet(w)
        grad_u[k] = dirichlet(AxiFunction(rule, values=u_vals))
        lyap[k] = i[k] - pp.d * e[k]
    h = times[1] - times[0]
    residual = np.abs(_fd_derivative(e, h) + 2.0 * beta**2 * grad_u)
    stats = {
        "mode": "nonlinear",
        "admissible": bool(fs.admissible),
        "m": float(fs.m),
        "accepted_steps": steps["accepted_steps"],
        "rejected_steps": steps["rejected_steps"],
        "final_dt": float(dt),
    }
    return EntropyTrace(
        mode="nonlinear",
        setting=fs,
        times=_freeze(times),
        e=_freeze(e),
        i=_freeze(i),
        mass=_freeze(mass),
        lyapunov=_freeze(lyap),
        e_rate_residual=_freeze(residual),
        stats=stats,
        solver={**steps, "rhs_evaluations": rhs.evaluations},
    )


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
    mass_tol: float | None = None,
    rate_tol: float | None = None,
    lyapunov_tol: float | None = None,
    ode_tol: float = 1.0e-6,
) -> CertificationReport:
    """Check the differential inequalities encoded in a flow trace.

    Heat mode verifies e'' + 2 d e' - gamma (e')^2 / (1 - (p-2) e) >= 0 with
    e' = -2 i and e'' = -2 i' (i' by finite differences), plus monotonicity of
    the recorded Lyapunov quantity.  Nonlinear mode checks monotonicity of
    i - d e and, for admissible settings, of i psi'(e) - d psi(e).
    """
    n = len(trace.times)
    if n < 64:
        raise ValidationError(f"trace too short for certification: {n} < 64 samples")
    h = trace.times[1] - trace.times[0]
    if np.max(np.abs(np.diff(trace.times) - h)) > 1e-9 * max(h, 1.0):
        raise ValidationError("certification needs a uniform time grid")
    if pp is None:
        pp = trace.setting.pp if isinstance(trace.setting, FlowSetting) else trace.setting
    heat = trace.mode == "heat"
    if mass_tol is None:
        mass_tol = 1.0e-10 if heat else 1.0e-6
    if rate_tol is None:
        rate_tol = 1.0e-6 if heat else 1.0e-4
    if lyapunov_tol is None:
        lyapunov_tol = 1.0e-8 if heat else 1.0e-7

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

    tolerances = {
        "mass_tol": mass_tol,
        "rate_tol": rate_tol,
        "lyapunov_tol": lyapunov_tol,
        "ode_tol": ode_tol,
    }
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


def write_trace(trace: EntropyTrace, path) -> None:
    atomic_write_text(path, trace_to_csv(trace))
