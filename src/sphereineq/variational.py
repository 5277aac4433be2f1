"""Numerical optimal constants and Schrodinger eigenvalue validation.

best_constant minimizes the two interpolation quotients over positive
axisymmetric profiles by line-searched quasi-Newton descent on the
coefficients of log u (positivity for free, analytic gradients from
quadrature sums), finished by Newton's method where it stalls, giving
the true constant mu(lambda) for p > 2 (and lambda(mu) for p < 2) up to
discretization.  principal_eigenvalue solves the dense Galerkin
eigenproblem for -Lap -/+ V on the axisymmetric sector, and klt_validate
checks the eigenvalue lower bounds derived from the interpolation family
against sampled potentials.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import _scipy_kernels
from .bounds import (
    klt_lambda_bar_reverse,
    klt_lambda_bar_schrodinger,
    mu_lower_prop34,
    mu_lower_thm2,
)
from .errors import ConvergenceError, ValidationError, check_real
from .exponents import ParameterPoint, make_parameter_point
from .sphere_calculus import (
    AxiFunction,
    lp_norm,
    make_rule,
    random_band_limited_exponential,
)

__all__ = [
    "BestConstantResult",
    "KLTReport",
    "SweepCurve",
    "best_constant",
    "bound_curve_sweep",
    "klt_validate",
    "principal_eigenvalue",
]


# ---------------------------------------------------------------------------
# Rayleigh quotient minimization


@dataclass(frozen=True)
class BestConstantResult:
    """Best quotient value found, its argmin, and solver diagnostics.

    converged holds for the best start: its value plateaued within two
    L-BFGS rounds whose first stopped below max_iters, or the Newton finish
    reached a gradient norm below 1e-10 at a positive definite projected
    Hessian within its step cap.  iterations is the L-BFGS iteration count
    over all starts, start_values, start_iterations and newton_steps the
    quotient value, L-BFGS iteration count (max_iters for a start handed to
    Newton at the cap) and Newton step count of each start in order (0 steps
    for a start that plateaued), clipped_starts the number of starts whose
    final log-profile reached the clip at +-40, and hessian_min the lowest
    eigenvalue at the minimizer of the Hessian in the log-profile
    coefficients, the flat scale direction left out.
    """

    value: float
    minimizer: AxiFunction
    converged: bool
    iterations: int
    start_values: tuple
    start_iterations: tuple
    clipped_starts: int
    newton_steps: tuple
    hessian_min: float


# log u is clipped to [-40, 40]; 0-d arrays skip the per-call conversion of
# a Python float in the ufuncs below
_LOG_U_MIN = np.array(-40.0)
_LOG_U_MAX = np.array(40.0)


class _QuotientModel:
    """Quotient, analytic gradient and Hessian in log-profile coefficient space."""

    def __init__(self, pp: ParameterPoint, value: float, node_count: int):
        self.rule = make_rule(pp.d, node_count)
        self.pp = pp
        self.coef = value
        self.mu_mode = pp.p > 2.0
        self.basis = self.rule.basis
        # 2 B^T is exact (a power-of-two scale) and keeps the column-major
        # layout of B^T, on which the rounding of the BLAS products depends
        self.basis_t2 = 2.0 * self.basis.T
        self.weights = self.rule.weights
        self.eigs = self.rule.eigenvalues
        p, d = self.pp.p, self.pp.d
        self.energy_coef = (p - 2.0) / d if self.mu_mode else (2.0 - p) / d

    def profile(self, c: np.ndarray) -> np.ndarray:
        t = self.basis @ c
        np.maximum(t, _LOG_U_MIN, out=t)
        np.minimum(t, _LOG_U_MAX, out=t)
        return np.exp(t, out=t)

    def touches_clip(self, c: np.ndarray) -> bool:
        t = self.basis @ c
        return bool(t.min() <= _LOG_U_MIN or t.max() >= _LOG_U_MAX)

    def normalize(self, c: np.ndarray) -> np.ndarray:
        u = self.profile(c)
        p = self.pp.p
        target = self.rule.integrate(u ** (p if self.mu_mode else 2.0))
        out = c.copy()
        out[0] -= math.log(target) / (p if self.mu_mode else 2.0)
        return out

    def quotient_and_gradient(self, c: np.ndarray):
        p = self.pp.p
        u = self.profile(c)
        w = self.weights
        wu = w * u
        uhat = self.basis.T @ wu
        grad_energy = float(self.eigs.dot(uhat**2))
        d_energy = self.basis_t2 @ (wu * (self.basis @ (self.eigs * uhat)))
        u2 = u**2
        s2 = float(w.dot(u2))
        d_s2 = self.basis_t2 @ (w * u2)
        up = u**p
        p_mass = float(w.dot(up))
        sp = p_mass ** (2.0 / p)
        d_sp = 2.0 * p_mass ** (2.0 / p - 1.0) * (self.basis.T @ (w * up))
        d_energy *= self.energy_coef
        if self.mu_mode:
            num = self.energy_coef * grad_energy + self.coef * s2
            d_s2 *= self.coef
            d_num, den, d_den = d_energy + d_s2, sp, d_sp
        else:
            num = self.energy_coef * grad_energy + self.coef * sp
            d_sp *= self.coef
            d_num, den, d_den = d_energy + d_sp, s2, d_s2
        q = num / den
        d_den *= q
        d_num -= d_den
        d_num /= den
        return q, d_num

    def hessian(self, c: np.ndarray) -> np.ndarray:
        """Exact Hessian of the quotient q = N / D in c, from the quadrature
        sums of quotient_and_gradient; like the gradient, it ignores the clip.
        Differentiating q D = N twice gives
        q'' = (N'' - q D'' - q' D'^T - D' q'^T) / D."""
        p, b = self.pp.p, self.basis

        def gram(x):  # B^T diag(x) B
            return b.T @ (x[:, None] * b)

        q, d_q = self.quotient_and_gradient(c)
        u = self.profile(c)
        wu = self.weights * u
        j = gram(wu)
        # the energy term is uhat^T Lambda uhat with uhat = B^T (w u) and J = d uhat
        h_energy = 2.0 * ((j * self.eigs) @ j) + 2.0 * gram(wu * (b @ (self.eigs * (b.T @ wu))))
        wu2, wup = wu * u, self.weights * u**p
        h_s2 = 4.0 * gram(wu2)
        p_mass = float(wup.sum())
        g_p = b.T @ wup
        h_sp = (2.0 - p) * np.outer(g_p, g_p) + p * p_mass * gram(wup)
        h_sp *= 2.0 * p_mass ** (2.0 / p - 2.0)
        if self.mu_mode:
            h_num = self.energy_coef * h_energy + self.coef * h_s2
            d_sp = 2.0 * p_mass ** (2.0 / p - 1.0) * g_p
            den, d_den, h_den = p_mass ** (2.0 / p), d_sp, h_sp
        else:
            h_num = self.energy_coef * h_energy + self.coef * h_sp
            den, d_den, h_den = float(wu2.sum()), 2.0 * (b.T @ wu2), h_s2
        cross = np.outer(d_q, d_den)
        return (h_num - q * h_den - cross - cross.T) / den


# L-BFGS-B settings of every descent round: memory, the relative-decrease
# tolerance ftol = 1e-17 expressed as a multiple of the machine epsilon (the
# form setulb takes), the projected-gradient tolerance, and the evaluation and
# line-search caps that scipy's minimize applies by default.
_LBFGS_MEMORY = 20
_LBFGS_FACTR = 1.0e-17 / np.finfo(float).eps
_LBFGS_PGTOL = 1.0e-11
_LBFGS_MAXFUN = 15000
_LBFGS_MAXLS = 20


def _lbfgsb(fun_and_grad, x0: np.ndarray, max_iters: int):
    """Unbounded L-BFGS-B through the reverse-communication routine setulb.

    This is the loop of scipy's minimize(method="L-BFGS-B", jac=True)
    without its per-evaluation wrappers: the same workspace and settings,
    the same stop codes for the iteration and evaluation caps, the same
    reuse of the last value when an evaluation repeats the previous point,
    and the same iteration count, so every iterate is bit-identical.
    Returns (x, f, nit, success).
    """
    setulb = _scipy_kernels.setulb()
    m = _LBFGS_MEMORY
    n = x0.size
    x = np.array(x0, dtype=np.float64)
    f, g = fun_and_grad(x)
    x_eval = x.copy()
    nfev = 1
    nbd = np.zeros(n, np.int32)
    lower = np.zeros(n)
    upper = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    nit = 0
    while True:
        setulb(
            m, x, lower, upper, nbd, f, g, _LBFGS_FACTR, _LBFGS_PGTOL, wa, iwa,
            task, lsave, isave, dsave, _LBFGS_MAXLS, ln_task,
        )
        if task[0] == 3:  # evaluate f and g at x
            if not (x == x_eval).all():
                f, g = fun_and_grad(x)
                x_eval = x.copy()
                nfev += 1
        elif task[0] == 1:  # a new iterate
            nit += 1
            if nit >= max_iters:
                task[:] = 5, 504
            elif nfev > _LBFGS_MAXFUN:
                task[:] = 5, 502
        else:
            break
    return x, f, nit, bool(task[0] == 4)


# Newton finish: the gradient norm that ends it, its step cap, the floor on
# the modified step's eigenvalues relative to the largest, and the Armijo
# constant and backtracking floor
_NEWTON_GTOL = 1.0e-10
_NEWTON_MAX_STEPS = 20
_NEWTON_EIG_FLOOR = 1.0e-8
_ARMIJO_C1 = 1.0e-4
_ARMIJO_MIN_STEP = 2.0**-20


def _newton(fun_and_grad, hessian, y: np.ndarray):
    """Modified Newton with Armijo backtracking on y[1:]; returns (y,
    converged, steps).

    y[0], the constant mode, is left out: the quotient is scale invariant,
    so it is an exactly flat direction.  Each step solves with the projected
    Hessian's eigenvalues replaced by max(|lambda_i|, 1e-8 max |lambda|), a
    descent direction where the Hessian is indefinite (Nocedal & Wright,
    Numerical Optimization, 2006, section 3.4).  Converged means a gradient
    norm below _NEWTON_GTOL at a positive definite projected Hessian; a
    critical point where it is not (a saddle), a failed line search or the
    step cap end it unconverged at its best point.  The Armijo test takes a
    step only where the value drops.
    """
    f, g = fun_and_grad(y)
    steps = 0
    while True:
        eigs, vecs = np.linalg.eigh(hessian(y)[1:, 1:])
        if np.linalg.norm(g[1:]) < _NEWTON_GTOL:
            return y, bool(eigs[0] > 0.0), steps
        if steps == _NEWTON_MAX_STEPS:
            return y, False, steps
        eigs = np.abs(eigs)
        np.maximum(eigs, _NEWTON_EIG_FLOOR * eigs.max(), out=eigs)
        direction = -(vecs @ ((vecs.T @ g[1:]) / eigs))
        slope = float(g[1:] @ direction)
        t = 1.0
        while True:
            trial = y.copy()
            trial[1:] += t * direction
            f_trial, g_trial = fun_and_grad(trial)
            if f_trial <= f + _ARMIJO_C1 * t * slope:
                break
            t *= 0.5
            if t < _ARMIJO_MIN_STEP:
                return y, False, steps
        y, f, g = trial, f_trial, g_trial
        steps += 1


def _descend(model: _QuotientModel, c0: np.ndarray, max_iters: int):
    """Descent on the quotient; returns (value, c, converged, iters, newton_steps).

    Plain gradient steps stall in the nearly-flat valleys of this quotient,
    so the line-searched limited-memory BFGS engine runs with the analytic
    gradient.  A first round that stops below max_iters is followed by a
    second with a fresh curvature memory, and a start whose value plateaus
    within the two ends there, converged.  A start whose first round reaches
    max_iters, or that has not plateaued after two rounds, is finished by
    Newton from the L-BFGS endpoint (_newton, with the analytic Hessian): at
    (3, 3) with 48 nodes the Hessian's lowest eigenvalue falls as lambda
    grows, to 6.5e-6 at lambda = 5, where L-BFGS stalls for tens of
    thousands of iterations.  The quotient is scale invariant, which leaves
    one exactly flat direction; the final normalization removes it from the
    reported argmin.
    """
    # optimize in spectrally rescaled variables: without this the high-mode
    # stiffness leaves errors of order 1e-3 after thousands of iterations
    scale = 1.0 / np.sqrt(1.0 + model.eigs)

    def rescaled(y):
        q, g = model.quotient_and_gradient(y * scale)
        g *= scale
        return q, g

    def rescaled_hessian(y):
        return scale[:, None] * model.hessian(y * scale) * scale

    y, fun, nit, _ = _lbfgsb(rescaled, model.normalize(c0) / scale, max_iters)
    converged, newton_steps = False, 0
    if nit < max_iters:
        y, round_fun, round_iters, _ = _lbfgsb(rescaled, y, max_iters)
        nit += round_iters
        converged = fun - round_fun < 1.0e-13 * max(1.0, abs(round_fun))
    if not converged:
        y, converged, newton_steps = _newton(rescaled, rescaled_hessian, y)
    c = model.normalize(y * scale)
    q, _ = model.quotient_and_gradient(c)
    return float(q), c, converged, nit, newton_steps


def _hessian_min(model: _QuotientModel, c: np.ndarray) -> float:
    """Lowest eigenvalue of the projected Hessian at c, in the log-profile
    coefficients: negative at a saddle, and small where the valley is nearly
    flat (6.5e-6 at the (3, 3) minimizer for lambda = 5 with 48 nodes)."""
    return float(np.linalg.eigvalsh(model.hessian(c)[1:, 1:])[0])


# ---------------------------------------------------------------------------
# Multi-start solves on a process pool


# Entry points that set an OpenBLAS library's thread count, by build.
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _pin_blas() -> None:
    """Set every OpenBLAS this process has loaded to one thread.

    Unpinned, the workers' BLAS threads contend for the cores: with
    OPENBLAS_NUM_THREADS unset, a 2-CPU (3, 3) sweep over lambda = 2, 3.5 (48
    nodes, 2 restarts, 400 iterations) took 3.3-5.3 s against 0.9 s, same values.
    """
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _start_worker() -> None:
    """Pool initializer: one BLAS thread per worker, as the workers fill
    every core already; Ctrl-C is left to the parent, which ends the pool."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _pin_blas()


def _worker_count() -> int:
    """Processes that run a solve's descents: one forked worker per CPU in
    the affinity mask, or 1, the descents then running serially in this
    process, with one CPU, without fork, or inside a daemonic process (a pool
    worker cannot have children)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if cpus == 1:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
        return 1
    return cpus


def _guarded(value: float, fn, *args):
    """fn(*args), a floating-point breakdown of the solve at value raised as ConvergenceError."""
    try:
        return fn(*args)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"the solve at {value} broke down: {exc}") from None


def _run_start(task):
    """One descent, task = (pp, value, node_count, c0, max_iters)."""
    pp, value, node_count, c0, max_iters = task
    return _guarded(value, _descend, _QuotientModel(pp, value, node_count), c0, max_iters)


def _start_points(n: int, restarts: int, seed: int) -> list:
    """The constant profile, its two mode-1 tilts, and restarts seeded
    band-limited perturbations, as log-profile coefficients."""
    rng = np.random.default_rng(int(seed))
    starts = [np.zeros(n)]
    # the first symmetry-breaking bifurcation is along mode 1, so seed it
    # explicitly in both orientations next to the constant start
    for tilt in (0.5, -0.5):
        c = np.zeros(n)
        c[1] = tilt
        starts.append(c)
    degree = min(8, n - 1)
    for _ in range(int(restarts)):
        c = np.zeros(n)
        c[1 : degree + 1] = 0.3 * rng.standard_normal(degree)
        starts.append(c)
    return starts


def _solve(pp: ParameterPoint, values, seeds, node_count, restarts, max_iters):
    """best_constant at each (value, seed), with every start of every value
    in one ordered pass over a worker pool of this solve; returns (results,
    workers).  A worker that dies raises ConvergenceError."""
    if node_count < 8:
        raise ValidationError(f"node_count must be >= 8, got {node_count}")
    if restarts < 0:
        raise ValidationError("restarts must be >= 0")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    n = int(node_count)
    # built ahead of the pool, so that forked workers inherit the rules
    models = [_QuotientModel(pp, value, n) for value in values]
    starts = [_start_points(n, restarts, seed) for seed in seeds]
    tasks = [
        (pp, value, n, c0, int(max_iters))
        for value, points in zip(values, starts)
        for c0 in points
    ]
    workers = min(_worker_count(), len(tasks))
    if workers == 1:
        descents = list(map(_run_start, tasks))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        _scipy_kernels.setulb()  # loaded here once, not again in every worker
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker)
        # the pool is joined on every path: on an error, Ctrl-C included, the
        # queued descents are cancelled and the running ones finish, since
        # the workers ignore SIGINT
        try:
            descents = list(pool.map(_run_start, tasks))
        except BrokenProcessPool as exc:
            raise ConvergenceError(f"a solver process died: {exc}") from None
        finally:
            pool.shutdown(cancel_futures=True)
    per_value = len(starts[0])
    results = [
        _guarded(value, _best_of, model, descents[k * per_value : (k + 1) * per_value])
        for k, (value, model) in enumerate(zip(values, models))
    ]
    return results, workers


def _best_of(model: _QuotientModel, runs) -> BestConstantResult:
    """The lowest of the descents, the first one on ties, with their counters."""
    values, points, flags, iterations, newton_steps = zip(*runs)
    best = min(range(len(runs)), key=values.__getitem__)
    c = points[best]
    return BestConstantResult(
        value=float(values[best]),
        minimizer=AxiFunction(model.rule, values=model.profile(model.normalize(c))),
        converged=bool(flags[best]),
        iterations=sum(map(int, iterations)),
        start_values=tuple(map(float, values)),
        start_iterations=tuple(map(int, iterations)),
        clipped_starts=sum(map(model.touches_clip, points)),
        newton_steps=tuple(map(int, newton_steps)),
        hessian_min=_hessian_min(model, c),
    )


def best_constant(
    pp: ParameterPoint,
    value: float,
    *,
    node_count: int = 48,
    max_iters: int = 1500,
    restarts: int = 8,
    seed: int = 0,
) -> BestConstantResult:
    """Minimize the interpolation quotient by multi-start descent.

    For p > 2, value is lambda and the quotient is gradient-plus-L2 over Lp,
    whose minimum is mu(lambda); for p < 2, value is mu and the quotient is
    gradient-plus-Lp over L2, whose minimum is lambda(mu).  The constant
    profile is always the first start; the remaining starts are seeded
    band-limited perturbations of it.  The starts run in parallel on one
    worker per CPU of the affinity mask, with the same result as one after
    another; the workers are forked for this call and have exited when it
    returns.  The reported value is an upper bound for the true optimal
    constant that tightens with resolution.
    """
    if pp.p == 2.0:
        raise ValidationError("quotient minimization needs p != 2")
    value = check_real("lam" if pp.p > 2.0 else "mu", value, 0.0, strict=True)
    results, _ = _solve(pp, [value], [seed], node_count, restarts, max_iters)
    return results[0]


# ---------------------------------------------------------------------------
# Figure sweep


@dataclass(frozen=True)
class SweepCurve:
    """Numeric optimal constant across a grid with the analytic lower bounds.

    results holds the best_constant result of each grid value, in grid
    order, with every solver counter; numeric and converged are their values
    and flags.  workers is the number of processes that ran the descents.
    """

    lams: tuple
    thm2: tuple
    prop34: tuple | None
    results: tuple
    workers: int

    @property
    def numeric(self) -> tuple:
        return tuple(r.value for r in self.results)

    @property
    def converged(self) -> tuple:
        return tuple(r.converged for r in self.results)


def bound_curve_sweep(
    pp: ParameterPoint,
    lam_grid,
    *,
    node_count: int = 48,
    restarts: int = 8,
    max_iters: int = 1500,
    seed: int = 0,
) -> SweepCurve:
    """best_constant over a grid of lambda, grid index k with seed + k,
    alongside the explicit bounds."""
    if pp.p <= 2.0:
        raise ValidationError("the sweep covers the p > 2 constant mu(lambda)")
    lams = [check_real("lambda grid value", x, 0.0, strict=True) for x in lam_grid]
    if not lams:
        raise ValidationError("the lambda grid is empty")
    seeds = [seed + k for k in range(len(lams))]
    results, workers = _solve(pp, lams, seeds, node_count, restarts, max_iters)
    heat_range = 2.0 < pp.p < pp.two_sharp
    fast_range = pp.d >= 3 and 2.0 < pp.p < pp.two_star
    thm2 = [mu_lower_thm2(pp, lam) if heat_range and lam >= 1.0 else math.nan for lam in lams]
    prop34 = None
    if fast_range:
        prop34 = tuple(mu_lower_prop34(pp, lam) if lam >= 1.0 else math.nan for lam in lams)
    return SweepCurve(lams=tuple(lams), thm2=tuple(thm2), prop34=prop34,
                      results=tuple(results), workers=workers)


# ---------------------------------------------------------------------------
# Schrodinger eigenvalues


def principal_eigenvalue(potential: AxiFunction, sign_mode: str) -> float:
    """Smallest eigenvalue of -Lap - V (sign_mode "minus_V", V >= 0) or
    -Lap + V ("plus_V", V > 0) on the profile sector, V = potential.

    The dense Galerkin matrix is diag(k(k+d-1)) -/+ the quadrature Gram
    matrix of the potential, so its Rayleigh quotient agrees exactly with
    quotients of probe profiles computed by the same quadrature; the discrete
    eigenvalue is an upper bound for the continuum one.
    """
    if sign_mode not in ("minus_V", "plus_V"):
        raise ValidationError(f"sign_mode must be minus_V or plus_V, got {sign_mode}")
    vals = potential.values
    if not np.all(np.isfinite(vals)):
        raise ValidationError("potential must be finite at the nodes")
    if sign_mode == "minus_V":
        if np.any(vals < 0.0):
            raise ValidationError("attractive mode expects a nonnegative potential")
    elif not np.all(vals > 0.0):
        raise ValidationError("repulsive mode expects a strictly positive potential")
    rule = potential.rule
    gram = rule.basis.T @ ((rule.weights * vals)[:, None] * rule.basis)
    sign = -1.0 if sign_mode == "minus_V" else 1.0
    matrix = np.diag(rule.eigenvalues) + sign * gram
    return _scipy_kernels.lowest_eigenvalue(matrix)


@dataclass(frozen=True)
class KLTReport:
    """Margin summary for the eigenvalue lower bounds over sampled potentials;
    vacuous_count samples got no bound (lambda_bar = inf, margin inf)."""

    p: float
    margins: tuple
    min_margin: float
    violation_count: int
    vacuous_count: int


def klt_validate(
    d: int,
    q: float,
    potential_family="band_limited",
    n_samples: int = 50,
    *,
    sign_mode: str = "minus_V",
    node_count: int = 48,
    scale: float = 0.5,
    tolerance: float = 1.0e-8,
    seed: int = 0,
) -> KLTReport:
    """Compare discrete principal eigenvalues against the analytic bounds.

    Attractive mode (-Lap - V, p = 2q/(q-1), q > max(1, d/2)) checks
    lam1 >= -bound(|V|_q); repulsive mode (-Lap + V, p = 2q/(q+1)) checks
    lam1 >= bound(1/|1/V|_q).  Violations beyond the tolerance are counted,
    not raised: they indicate implementation bugs.
    """
    if n_samples < 1:
        raise ValidationError(f"sample count must be at least 1, got {n_samples}")
    scale = check_real("potential scale", scale, 0.0) + 0.0  # -0.0, which numpy rejects, to 0.0
    check_real("tolerance", tolerance, 0.0)
    if sign_mode == "minus_V":
        if q <= max(1.0, d / 2.0):
            raise ValidationError(
                f"attractive mode needs q > max(1, d/2), got q = {q}"
            )
        p = 2.0 * q / (q - 1.0)
    elif sign_mode == "plus_V":
        if q <= 1.0:
            raise ValidationError(f"repulsive mode needs q > 1, got q = {q}")
        p = 2.0 * q / (q + 1.0)
    else:
        raise ValidationError(f"sign_mode must be minus_V or plus_V, got {sign_mode}")
    if not math.isfinite(p):  # q is inf or nan, or so large that 2q overflows
        raise ValidationError(f"exponent q must be finite, with a finite p, got q = {q}")
    pp = make_parameter_point(d, p)
    rule = make_rule(d, node_count)
    rng = np.random.default_rng(seed)
    if potential_family == "band_limited":
        def draw():
            return random_band_limited_exponential(rule, rng, scale=scale)
    elif callable(potential_family):
        def draw():
            return potential_family(rng)
    else:
        raise ValidationError(
            "potential_family must be 'band_limited' or a callable(rng)"
        )
    margins = []
    violations = 0
    for _ in range(n_samples):
        v = draw()
        lam1 = principal_eigenvalue(v, sign_mode)
        if sign_mode == "minus_V":
            mu = lp_norm(v, q)
            # the bound vanishes with the potential: lambda(mu) -> 0 as mu -> 0
            bound = -klt_lambda_bar_schrodinger(pp, mu) if mu > 0.0 else 0.0
        else:
            inv = AxiFunction(rule, values=1.0 / v.values)
            mu = 1.0 / lp_norm(inv, q)
            bound = klt_lambda_bar_reverse(pp, mu)
        margin = lam1 - bound
        margins.append(margin)
        if margin < -tolerance:
            violations += 1
    return KLTReport(
        p=p,
        margins=tuple(margins),
        min_margin=float(min(margins)),
        violation_count=violations,
        vacuous_count=margins.count(math.inf),
    )
