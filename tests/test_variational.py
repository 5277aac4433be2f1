"""Tests for quotient minimization and the Schrodinger eigenvalue bounds."""

import dataclasses
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sphereineq import variational
from sphereineq.bounds import (
    klt_lambda_bar_reverse,
    klt_lambda_bar_schrodinger,
    lambda_lower_thm2,
    mu_lower_prop34,
    mu_lower_thm2,
)
from sphereineq.errors import ConvergenceError, ValidationError
from sphereineq.exponents import make_parameter_point
from sphereineq.sphere_calculus import (
    AxiFunction,
    dirichlet,
    lp_norm,
    make_rule,
    random_band_limited_exponential,
)
from sphereineq.variational import (
    _lbfgsb,
    _QuotientModel,
    best_constant,
    bound_curve_sweep,
    klt_validate,
    principal_eigenvalue,
)

D3P3 = make_parameter_point(3, 3.0)
D3P15 = make_parameter_point(3, 1.5)


class TestProblemValidation:
    def test_p_equal_two_rejected(self):
        with pytest.raises(ValidationError, match="p != 2"):
            best_constant(make_parameter_point(3, 2.0), 1.0)

    @pytest.mark.parametrize("pp,name", [(D3P3, "lam"), (D3P15, "mu")])
    def test_invalid_arguments_rejected(self, pp, name):
        for value in (-2.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
                best_constant(pp, value)
        with pytest.raises(ValidationError, match="node_count"):
            best_constant(pp, 1.0, node_count=4)
        with pytest.raises(ValidationError, match="restarts"):
            best_constant(pp, 1.0, restarts=-1)

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_nonpositive_max_iters_rejected(self, max_iters):
        with pytest.raises(ValidationError, match="max_iters"):
            best_constant(D3P3, 2.0, node_count=8, restarts=0, max_iters=max_iters)
        with pytest.raises(ValidationError, match="max_iters"):
            bound_curve_sweep(D3P3, [2.0], node_count=8, restarts=0, max_iters=max_iters)


class TestGradient:
    @pytest.mark.parametrize(
        "pp,kwargs",
        [(D3P3, {"value": 2.0}), (D3P15, {"value": 1.5}), (make_parameter_point(2, 4.0), {"value": 1.3})],
    )
    def test_matches_finite_differences(self, pp, kwargs):
        model = _QuotientModel(pp, node_count=24, **kwargs)
        rng = np.random.default_rng(3)
        c = 0.2 * rng.standard_normal(24)
        _, grad = model.quotient_and_gradient(c)
        h = 1e-6
        for k in range(0, 24, 5):
            step = np.zeros(24)
            step[k] = h
            qp, _ = model.quotient_and_gradient(c + step)
            qm, _ = model.quotient_and_gradient(c - step)
            fd = (qp - qm) / (2.0 * h)
            assert abs(fd - grad[k]) <= 1e-6 * max(1.0, abs(grad[k]))


class TestHessian:
    @pytest.mark.parametrize("d,p,value", [(3, 3.0, 3.5), (3, 3.0, 5.0), (3, 1.5, 2.0), (2, 4.0, 3.0)])
    def test_matches_central_differences_of_the_gradient(self, d, p, value):
        model = _QuotientModel(make_parameter_point(d, p), value, 48)
        rng = np.random.default_rng(7)
        c = np.zeros(48)
        c[1:9] = 0.3 * rng.standard_normal(8)
        h = 1e-6
        oracle = np.empty((47, 47))
        for i in range(1, 48):
            step = np.zeros(48)
            step[i] = h
            g_plus = model.quotient_and_gradient(c + step)[1]
            g_minus = model.quotient_and_gradient(c - step)[1]
            oracle[i - 1] = (g_plus[1:] - g_minus[1:]) / (2.0 * h)
        hess = model.hessian(c)
        assert hess.shape == (48, 48)
        assert np.abs(hess[1:, 1:] - oracle).max() < 1e-8 * np.abs(oracle).max()


def reference_quotient_and_gradient(model, c):
    """The quotient kernel in plain, unhoisted form: the bit-level oracle."""
    p, d = model.pp.p, model.pp.d
    basis, w, eigs = model.basis, model.weights, model.eigs
    u = np.exp(np.clip(basis @ c, -40.0, 40.0))
    uhat = basis.T @ (w * u)
    grad_energy = float(np.dot(eigs, uhat**2))
    d_energy = 2.0 * basis.T @ (w * u * (basis @ (eigs * uhat)))
    s2 = float(np.dot(w, u**2))
    d_s2 = 2.0 * basis.T @ (w * u**2)
    p_mass = float(np.dot(w, u**p))
    sp = p_mass ** (2.0 / p)
    d_sp = 2.0 * p_mass ** (2.0 / p - 1.0) * (basis.T @ (w * u**p))
    if model.mu_mode:
        num = (p - 2.0) / d * grad_energy + model.coef * s2
        d_num = (p - 2.0) / d * d_energy + model.coef * d_s2
        den, d_den = sp, d_sp
    else:
        num = (2.0 - p) / d * grad_energy + model.coef * sp
        d_num = (2.0 - p) / d * d_energy + model.coef * d_sp
        den, d_den = s2, d_s2
    q = num / den
    return q, (d_num - q * d_den) / den, u


class TestKernelBits:
    @pytest.mark.parametrize(
        "pp,kwargs",
        [
            (D3P3, {"value": 2.0}),
            (D3P15, {"value": 1.5}),
            (make_parameter_point(2, 4.0), {"value": 1.3}),
            (make_parameter_point(4, 3.5), {"value": 5.0}),
        ],
    )
    def test_matches_reference_bit_for_bit(self, pp, kwargs):
        model = _QuotientModel(pp, node_count=48, **kwargs)
        rng = np.random.default_rng(11)
        decay = 1.0 + np.arange(48)
        clipped = 0
        for k in range(200):
            # the larger scales push log u past +-40, into the clip
            c = [0.3, 3.0, 30.0, 300.0][k % 4] * rng.standard_normal(48) / decay
            clipped += bool(np.any(np.abs(model.basis @ c) > 40.0))
            q, g = model.quotient_and_gradient(c)
            q_ref, g_ref, u_ref = reference_quotient_and_gradient(model, c)
            assert type(q) is float
            assert np.float64(q).tobytes() == np.float64(q_ref).tobytes()
            assert g.tobytes() == g_ref.tobytes()
            assert model.profile(c).tobytes() == u_ref.tobytes()
        assert clipped >= 50


class TestLBFGSLoop:
    @pytest.mark.parametrize("start", ["constant", "tilt", "random"])
    def test_matches_scipy_minimize_bit_for_bit(self, start):
        from scipy.optimize import minimize

        model = _QuotientModel(D3P3, 2.0, 48)
        scale = 1.0 / np.sqrt(1.0 + model.eigs)

        def rescaled(y):
            q, g = model.quotient_and_gradient(y * scale)
            return q, g * scale

        c0 = np.zeros(48)
        if start == "tilt":
            c0[1] = 0.5
        elif start == "random":
            c0[1:9] = 0.3 * np.random.default_rng(5).standard_normal(8)
        y0 = model.normalize(c0) / scale
        x, fun, nit, success = _lbfgsb(rescaled, y0, 200)
        ref = minimize(
            rescaled,
            y0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 200, "gtol": 1.0e-11, "ftol": 1.0e-17, "maxcor": 20},
        )
        assert x.tobytes() == ref.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes()
        assert nit == ref.nit
        assert success == ref.success


# Runs in a fresh interpreter, where neither load has happened yet: setulb
# loaded from its file before or after `import scipy.optimize`, then one
# L-BFGS-B solve through minimize.
_SETULB_PROBE = """
import json, sys
import numpy as np
from sphereineq._scipy_kernels import setulb as load_setulb
if sys.argv[1] == "direct_first":
    setulb = load_setulb()
    before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    import scipy.optimize
else:
    import scipy.optimize
    before = None
    setulb = load_setulb()
from scipy.optimize import _lbfgsb, minimize
res = minimize(lambda x: (((x - 1.0) ** 2).sum(), 2.0 * (x - 1.0)), np.zeros(3), jac=True, method="L-BFGS-B")
print(json.dumps([before, setulb is _lbfgsb.setulb, setulb is scipy.optimize._lbfgsb_py._lbfgsb.setulb,
                  bool(res.success), res.x.tolist()]))
"""

# Runs in a fresh interpreter: every kernel the package loads from its file,
# then scipy's own packages, which must bind those modules and still work
_PACKAGES_AFTER_KERNELS_PROBE = """
import json
import numpy as np
from sphereineq import _scipy_kernels
from sphereineq.exponents import make_parameter_point
from sphereineq.sphere_calculus import _inverse_mass, make_rule, random_band_limited_exponential
from sphereineq.variational import bound_curve_sweep, principal_eigenvalue
rule = make_rule(3, 24)
potential = random_band_limited_exponential(rule, np.random.default_rng(3), scale=0.5)
lowest = principal_eigenvalue(potential, "plus_V")
sweep = bound_curve_sweep(make_parameter_point(3, 3.0), [1.5], node_count=24, restarts=1)
import scipy.linalg, scipy.optimize, scipy.special
bound = [
    scipy.special._ufuncs is _scipy_kernels.ufuncs(),
    scipy.linalg._flapack.dsyevr is _scipy_kernels._extension("linalg", "_flapack").dsyevr,
    scipy.optimize._lbfgsb.setulb is _scipy_kernels.setulb(),
]
x, w = scipy.special.roots_jacobi(24, 0.5, 0.5)
matrix = np.diag(rule.eigenvalues) + rule.basis.T @ ((rule.weights * potential.values)[:, None] * rule.basis)
res = scipy.optimize.minimize(
    lambda y: (((y - 1.0) ** 2).sum(), 2.0 * (y - 1.0)), np.zeros(3), jac=True, method="L-BFGS-B"
)
print(json.dumps([
    bound,
    x.tobytes() == rule.nodes.tobytes() and (w * _inverse_mass(3)).tobytes() == rule.weights.tobytes(),
    float(scipy.linalg.eigh(matrix, eigvals_only=True, subset_by_index=(0, 0))[0]) == lowest,
    sweep.converged[0],
    bool(res.success), res.x.tolist(),
]))
"""


class TestSetulb:
    @pytest.mark.parametrize("order", ["direct_first", "package_first"])
    def test_coexists_with_scipy_optimize(self, order):
        env = dict(os.environ, PYTHONPATH=str(Path(variational.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", _SETULB_PROBE, order], capture_output=True, text=True, env=env, check=True,
        ).stdout.splitlines()[-1]
        before, same_module, same_as_minimize, success, x = json.loads(out)
        if order == "direct_first":
            assert before == []  # the file alone: no scipy module stays loaded
        assert same_module and same_as_minimize
        assert success and x == pytest.approx([1.0, 1.0, 1.0])

    def test_scipy_packages_bind_the_loaded_kernels(self):
        run = run_fresh_python(_PACKAGES_AFTER_KERNELS_PROBE)
        assert run.returncode == 0, run.stderr
        bound, same_rule, same_eigenvalue, converged, success, x = json.loads(run.stdout.splitlines()[-1])
        assert bound == [True, True, True]
        assert same_rule and same_eigenvalue and converged
        assert success and x == pytest.approx([1.0, 1.0, 1.0])


class TestBestConstant:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
    def test_identity_regime(self, lam):
        result = best_constant(D3P3, lam, restarts=2)
        assert abs(result.value - lam) < 1e-5
        assert result.converged
        coeffs = result.minimizer.coefficients
        assert coeffs[0] ** 2 / np.sum(coeffs**2) >= 0.9999

    def test_symmetry_breaking_at_lam2(self):
        result = best_constant(D3P3, 2.0, restarts=2)
        assert mu_lower_thm2(D3P3, 2.0) <= result.value <= 2.0
        assert result.value < 2.0 - 0.1
        # value cross-checked against independent unpreconditioned descents
        # and against node counts 32 through 96
        assert abs(result.value - 1.7063646701) < 1e-6

    def test_lam5_bracket(self):
        result = best_constant(D3P3, 5.0, restarts=2)
        assert mu_lower_prop34(D3P3, 5.0) < mu_lower_thm2(D3P3, 5.0) <= result.value
        assert result.value <= 5.0
        assert abs(result.value - 2.9204346823) < 1e-6

    def test_node_refinement_stability(self):
        r32 = best_constant(D3P3, 2.0, node_count=32, restarts=1)
        r64 = best_constant(D3P3, 2.0, node_count=64, restarts=1)
        assert abs(r32.value - r64.value) < 1e-4

    def test_reverse_regime(self):
        for mu in (0.5, 1.0):
            result = best_constant(D3P15, mu, restarts=2)
            assert abs(result.value - mu) < 1e-5
        result = best_constant(D3P15, 2.0, restarts=2)
        assert lambda_lower_thm2(D3P15, 2.0) <= result.value + 1e-9
        assert result.value <= 2.0
        assert result.value < 2.0 - 0.1

    def test_result_shape(self):
        result = best_constant(D3P3, 0.5, restarts=3)
        assert result.value == min(result.start_values)
        assert len(result.start_values) == 3 + 3
        assert result.minimizer.is_positive
        assert result.newton_steps == (0,) * 6
        # at the constant: 2 (p - 2)(1 - lambda), along Y_1; the best start is
        # a mode-1 tilt whose L-BFGS endpoint lies next to the constant
        assert result.hessian_min == pytest.approx(1.0, rel=1e-9)
        model = _QuotientModel(D3P3, 0.5, 48)
        constant = model.normalize(np.zeros(48))
        assert variational._hessian_min(model, constant) == pytest.approx(1.0, rel=1e-12)

    def test_lam5_converges_at_the_benchmark_op(self):
        # the benchmark's lambda = 5 op: grid index 3 of figure1 at the CLI defaults
        curve = bound_curve_sweep(D3P3, [5.0], seed=3)
        assert curve.converged == (True,)
        assert abs(curve.numeric[0] - 2.920434682280537) < 1e-7
        assert any(curve.results[0].newton_steps)
        assert 0.0 < curve.results[0].hessian_min < 1e-4

    @pytest.mark.parametrize("pp,value", [
        (D3P3, 1e300),  # the quotient overflows and the Hessian's eigh fails
        (D3P3, 1.7e308),
        (D3P15, 1e308),
        (make_parameter_point(1, 1e6), 1.0),  # the Lp mass underflows to 0
        # the descent ends, but the Hessian's eigvalsh at its endpoint fails
        (make_parameter_point(1, 5.0), 2.6094174004375856e307),
    ])
    def test_breakdown_is_a_convergence_error(self, pp, value):
        with pytest.raises(ConvergenceError, match=re.escape(f"the solve at {value} broke down")):
            best_constant(pp, value, node_count=8, restarts=0)


class TestNewtonFinish:
    def test_saddle_is_not_converged(self):
        # the constant profile is a critical point at every lambda; at
        # lambda = 2 the Hessian along Y_1 is 2 (p - 2)(1 - lambda) = -2
        model = _QuotientModel(D3P3, 2.0, 48)
        c = model.normalize(np.zeros(48))
        y, converged, steps = variational._newton(model.quotient_and_gradient, model.hessian, c)
        assert not converged
        assert steps == 0
        assert np.array_equal(y, c)
        assert variational._hessian_min(model, c) == pytest.approx(-2.0, rel=1e-12)

    @pytest.mark.parametrize("lam,seed", [(3.5, 2), (5.0, 3)])
    def test_finish_never_rises_above_the_lbfgs_endpoint(self, monkeypatch, lam, seed):
        model = _QuotientModel(D3P3, lam, 48)
        scale = 1.0 / np.sqrt(1.0 + model.eigs)  # the descent's variables
        newton = variational._newton
        endpoints = []

        def recording_newton(fun_and_grad, hessian, y):
            endpoints.append(y.copy())
            return newton(fun_and_grad, hessian, y)

        monkeypatch.setattr(variational, "_newton", recording_newton)
        for c0 in variational._start_points(48, 2, seed):
            count = len(endpoints)
            q, c, converged, _, steps = variational._descend(model, c0, 1500)
            if len(endpoints) == count:  # plateaued within two rounds
                assert converged and steps == 0
                continue
            endpoint = model.normalize(endpoints[-1] * scale)
            assert q <= model.quotient_and_gradient(endpoint)[0]
        assert len(endpoints) >= 2  # the two mode-1 tilts stall at both values

    def test_a_start_at_the_cap_goes_straight_to_newton(self):
        result = best_constant(D3P3, 3.5, restarts=2, seed=2)
        at_cap = [k for k, iters in enumerate(result.start_iterations) if iters >= 1500]
        assert at_cap  # the mode-1 tilts and both restarts stall at lambda = 3.5
        for k in at_cap:
            assert result.start_iterations[k] == 1500  # one L-BFGS round, not two
            assert result.newton_steps[k] > 0

    def test_every_stalled_start_reaches_the_best_value(self):
        # CLI defaults at lambda = 3.5: the modified step finishes the starts
        # whose L-BFGS endpoint has an indefinite Hessian
        curve = bound_curve_sweep(D3P3, [3.5], seed=2)
        best = curve.numeric[0]
        for value in curve.results[0].start_values[1:]:  # all but the constant start
            assert abs(value - best) <= 1e-12 * best


class TestSweep:
    def test_identity_grid(self):
        curve = bound_curve_sweep(D3P3, [0.25, 0.5, 1.0], restarts=1)
        for lam, mu in zip(curve.lams, curve.numeric):
            assert abs(mu - lam) < 1e-4
        assert all(math.isnan(x) for x in curve.thm2[:2])
        assert curve.thm2[2] == 1.0

    def test_bound_ordering(self):
        curve = bound_curve_sweep(D3P3, [2.0], restarts=1)
        assert curve.prop34[0] < curve.thm2[0] <= curve.numeric[0] <= 2.0

    def test_concavity_probe(self):
        curve = bound_curve_sweep(
            D3P3, [1.0, 2.0, 3.0, 4.0, 5.0], restarts=1, node_count=40
        )
        mu = np.asarray(curve.numeric)
        second = mu[:-2] - 2.0 * mu[1:-1] + mu[2:]
        assert np.all(second <= 1e-3)

    def test_keeps_solver_counters(self):
        curve = bound_curve_sweep(D3P3, [0.5, 2.0], restarts=1, node_count=24, seed=3)
        assert len(curve.results) == 2
        for k, lam in enumerate(curve.lams):
            result = best_constant(D3P3, lam, restarts=1, node_count=24, seed=3 + k)
            for field in dataclasses.fields(result):
                swept, alone = getattr(curve.results[k], field.name), getattr(result, field.name)
                if field.name == "minimizer":
                    assert np.array_equal(swept.values, alone.values)
                else:
                    assert swept == alone, field.name
            assert result.clipped_starts == 0 and result.hessian_min > 0.0
        assert curve.numeric == tuple(r.value for r in curve.results)
        assert curve.converged == tuple(r.converged for r in curve.results)
        result = curve.results[0]
        assert sum(result.start_iterations) == result.iterations > 0
        assert min(result.start_values) == result.value
        assert len(result.start_iterations) == len(result.newton_steps) == len(result.start_values)
        assert curve.workers == len(os.sched_getaffinity(0))

    def test_p_below_two_rejected(self):
        with pytest.raises(ValidationError):
            bound_curve_sweep(D3P15, [1.0])


def run_fresh_python(code: str, timeout: float = 300, **env_changes) -> subprocess.CompletedProcess:
    """`python -c code` with this package on the path, BLAS threads as the
    caller left them unless env_changes say otherwise (None removes a name),
    killed after timeout seconds."""
    src = str(Path(variational.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=timeout,
    )


def solve_value(value: float) -> float:
    return best_constant(D3P3, value, node_count=24, restarts=1).value


def failing_start(task):
    return 1 / 0


# Runs in a fresh interpreter: a figure1 run on two forked workers, whose
# descents from the constant start kill their worker
_KILLED_WORKER = """
import json, multiprocessing, os, time
from sphereineq import cli, variational
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any machine
run_start = variational._run_start
def die_at_the_constant_start(task):
    if not task[3].any():
        os._exit(1)
    return run_start(task)
variational._run_start = die_at_the_constant_start
started = time.perf_counter()
code = cli.main(["figure1", "--lambda-grid", "1.5", "2", "--n-nodes", "24", "--restarts", "2",
                 "--out-dir", %r])
print(json.dumps([code, time.perf_counter() - started, len(multiprocessing.active_children())]))
"""


# Runs in a fresh interpreter: best_constant on one CPU, hence serially
_SERIAL_SOLVE = """
import hashlib, json, os
from sphereineq.exponents import make_parameter_point
from sphereineq.variational import best_constant
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
r = best_constant(make_parameter_point(%r, %r), %r, node_count=24, restarts=2)
print(json.dumps([r.value.hex(), [v.hex() for v in r.start_values], r.iterations,
                  hashlib.sha256(r.minimizer.values.tobytes()).hexdigest(),
                  len(__import__("multiprocessing").active_children())]))
"""


class TestWorkerPool:
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs for a pool")
    @pytest.mark.parametrize("d,p,value", [(3, 3.0, 2.0), (3, 1.5, 2.0)])
    def test_pool_matches_serial(self, d, p, value):
        import hashlib

        pooled = best_constant(make_parameter_point(d, p), value, node_count=24, restarts=2)
        run = run_fresh_python(_SERIAL_SOLVE % (d, p, value))
        assert run.returncode == 0, run.stderr
        value_hex, start_values, iterations, minimizer, children = json.loads(run.stdout)
        assert children == 0
        assert value_hex == pooled.value.hex()
        assert start_values == [v.hex() for v in pooled.start_values]
        assert iterations == pooled.iterations
        assert minimizer == hashlib.sha256(pooled.minimizer.values.tobytes()).hexdigest()

    def test_workers_pin_blas_and_exit_cleanly(self):
        # no BLAS thread count in the environment: the pool initializer sets
        # it.  Each descent reports its process and BLAS thread counts on the
        # shared stdout; nothing reaches stderr even in development mode,
        # which reports a pool left running
        code = (
            "import json, os, sys\n"
            f"sys.path.insert(0, {str(Path(variational.__file__).resolve().parents[2] / 'bench')!r})\n"
            "from worker import blas_threads\n"
            "from sphereineq import variational\n"
            "from sphereineq.exponents import make_parameter_point\n"
            "run_start = variational._run_start\n"
            "def probe(task):\n"
            "    line = json.dumps([os.getpid(), list(blas_threads().values())]) + '\\n'\n"
            "    os.write(1, line.encode())  # one write: the lines of two workers do not mix\n"
            "    return run_start(task)\n"
            "variational._run_start = probe\n"
            "variational.best_constant(make_parameter_point(3, 3.0), 0.5, node_count=24, restarts=1)\n"
            "print(json.dumps([os.getpid(), None]))\n"
        )
        run = run_fresh_python(code, OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None, PYTHONDEVMODE="1")
        assert run.returncode == 0
        assert run.stderr == ""
        lines = [json.loads(line) for line in run.stdout.splitlines()]
        parent = lines[-1][0]
        starts = lines[:-1]
        assert len(starts) == 4
        if len(os.sched_getaffinity(0)) > 1:
            assert all(pid != parent for pid, _ in starts)
            for _, counts in starts:
                assert counts  # numpy's OpenBLAS and scipy's
                assert all(n == 1 for n in counts)
        else:
            assert all(pid == parent for pid, _ in starts)
        for pid in {pid for pid, _ in starts} - {parent}:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_forked_pool_workers_solve_serially(self):
        # a daemonic pool worker may not start processes: it solves in-process
        expected = solve_value(2.0)
        with multiprocessing.get_context("fork").Pool(1) as outer:
            assert outer.apply_async(solve_value, (2.0,)).get(timeout=120) == expected

    def test_failed_solve_ends_the_pool(self, monkeypatch):
        # a task that raises in a worker ends the solve's workers with the
        # tasks still queued; the next solve is unaffected
        expected = solve_value(2.0)
        monkeypatch.setattr(variational, "_run_start", failing_start)
        with pytest.raises(ZeroDivisionError):
            best_constant(D3P3, 2.0, node_count=24, restarts=1)
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
        assert solve_value(2.0) == expected

    def test_dead_worker_exits_4_within_seconds(self, tmp_path):
        # a pool whose worker died once waited for its result forever
        run = run_fresh_python(_KILLED_WORKER % str(tmp_path), timeout=60)
        assert run.returncode == 0, run.stderr
        code, elapsed, children = json.loads(run.stdout.splitlines()[-1])
        assert (code, children) == (4, 0)
        assert elapsed < 30.0
        assert "did not converge: a solver process died" in run.stderr
        assert list(tmp_path.iterdir()) == []

    def test_pool_is_capped_at_the_task_count(self, monkeypatch):
        # restarts=0 gives one value three starts: with 8 CPUs, 3 workers
        monkeypatch.setattr(variational.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        curve = bound_curve_sweep(D3P3, [2.0], node_count=24, restarts=0)
        assert curve.workers == 3
        assert multiprocessing.active_children() == []

    def test_solves_leave_no_process_or_thread(self):
        threads = threading.active_count()
        best_constant(D3P3, 0.5, node_count=24, restarts=1)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        bound_curve_sweep(D3P3, [0.5, 2.0], node_count=24, restarts=1)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_clip_is_reported(self):
        model = _QuotientModel(D3P3, 2.0, 24)
        c = np.zeros(24)
        assert not model.touches_clip(c)
        c[0] = 41.0 / model.basis[0, 0]  # log u = 41 at every node
        assert model.touches_clip(c)
        assert model.touches_clip(-c)


class TestSchrodinger:
    RULE = make_rule(3, 48)

    def test_zero_potential(self):
        zero = AxiFunction(self.RULE, values=np.zeros(48))
        assert abs(principal_eigenvalue(zero, "minus_V")) < 1e-12

    def test_constant_shift(self):
        v = AxiFunction(self.RULE, values=np.full(48, 0.7))
        minus = principal_eigenvalue(v, "minus_V")
        plus = principal_eigenvalue(v, "plus_V")
        assert abs(minus + 0.7) < 1e-10
        assert abs(plus - 0.7) < 1e-10

    def test_variational_upper_bound(self):
        v = AxiFunction(self.RULE, values=2.0 * (1.0 + self.RULE.nodes))
        lam1 = principal_eigenvalue(v, "minus_V")
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = random_band_limited_exponential(self.RULE, rng, degree=10, scale=0.4)
            quotient = (
                dirichlet(u) - self.RULE.integrate(v.values * u.values**2)
            ) / self.RULE.integrate(u.values**2)
            assert lam1 <= quotient + 1e-10

    def test_rejections(self):
        neg = AxiFunction(self.RULE, values=self.RULE.nodes)
        with pytest.raises(ValidationError):
            principal_eigenvalue(neg, "minus_V")
        with pytest.raises(ValidationError):
            principal_eigenvalue(neg, "plus_V")
        ok = AxiFunction(self.RULE, values=np.ones(48))
        with pytest.raises(ValidationError):
            principal_eigenvalue(ok, "both")
        with pytest.raises(ValidationError):
            principal_eigenvalue(AxiFunction(self.RULE, values=np.full(48, np.inf)), "minus_V")


class TestKLT:
    def test_attractive_battery(self):
        report = klt_validate(3, 3.0, n_samples=50, sign_mode="minus_V", seed=11)
        assert report.p == 3.0
        assert report.violation_count == 0
        assert report.vacuous_count == 0
        assert report.min_margin >= -1e-8

    def test_repulsive_battery(self):
        report = klt_validate(3, 3.0, n_samples=50, sign_mode="plus_V", seed=12)
        assert report.p == 1.5
        assert report.violation_count == 0
        assert report.min_margin >= -1e-8

    def test_envelope_branch_margin_is_inf_above_its_level(self):
        # q = 1.6 gives p = 16/3 above 2#: a potential whose L^q norm exceeds
        # the envelope bound's level gets no bound, so its margin is +inf
        report = klt_validate(3, 1.6, n_samples=20, sign_mode="minus_V", node_count=24)
        assert report.violation_count == 0
        assert math.inf in report.margins
        assert math.isfinite(report.min_margin)

    def test_counts_vacuous_samples(self):
        # at the default scale 49 of 50 potentials lie above the envelope
        # bound's level: only one sample is checked
        report = klt_validate(3, 1.6, n_samples=50, sign_mode="minus_V")
        assert report.vacuous_count == report.margins.count(math.inf) == 49

    def test_linear_potential_example(self):
        rule = make_rule(3, 48)
        v = AxiFunction(rule, values=2.0 * (1.0 + rule.nodes))
        lam1 = principal_eigenvalue(v, "minus_V")
        bound = -klt_lambda_bar_schrodinger(D3P3, lp_norm(v, 3.0))
        assert lam1 >= bound - 1e-8

    def test_zero_potential_margin(self):
        rule = make_rule(3, 48)
        report = klt_validate(
            3,
            3.0,
            potential_family=lambda rng: AxiFunction(rule, values=np.zeros(48)),
            n_samples=1,
            sign_mode="minus_V",
        )
        assert abs(report.min_margin) < 1e-12

    def test_constant_repulsive_equality(self):
        rule = make_rule(3, 48)
        for cval, expect_margin in ((0.8, 0.0), (1.7, 1.7 - klt_lambda_bar_reverse(D3P15, 1.7))):
            report = klt_validate(
                3,
                3.0,
                potential_family=lambda rng: AxiFunction(rule, values=np.full(48, cval)),
                n_samples=1,
                sign_mode="plus_V",
            )
            assert abs(report.min_margin - expect_margin) < 1e-10

    def test_rejections(self):
        with pytest.raises(ValidationError):
            klt_validate(3, 1.2, sign_mode="minus_V")
        with pytest.raises(ValidationError):
            klt_validate(3, 0.9, sign_mode="plus_V")
        with pytest.raises(ValidationError):
            klt_validate(3, 3.0, sign_mode="sideways")
        with pytest.raises(ValidationError):
            klt_validate(3, 3.0, potential_family="mystery")

    @pytest.mark.parametrize("sign_mode", ["minus_V", "plus_V"])
    @pytest.mark.parametrize("q", [math.inf, math.nan, 1e308])
    def test_rejects_q_without_a_finite_p(self, q, sign_mode):
        with pytest.raises(ValidationError, match="exponent q must be finite"):
            klt_validate(3, q, sign_mode=sign_mode)

    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0}, {"n_samples": -1}, {"scale": -1.0}, {"scale": math.nan}, {"scale": math.inf},
        {"tolerance": -1.0}, {"tolerance": math.nan}, {"tolerance": math.inf},
    ])
    def test_rejects_empty_battery_and_bad_scale(self, kwargs):
        with pytest.raises(ValidationError):
            klt_validate(3, 3.0, **kwargs)

    def test_negative_zero_scale_is_zero(self):
        # -0.0 passes the nonnegative check, but numpy's normal rejected it
        report = klt_validate(1, 2.0, n_samples=2, sign_mode="minus_V", node_count=16, scale=-0.0)
        assert report == klt_validate(1, 2.0, n_samples=2, sign_mode="minus_V", node_count=16, scale=0.0)
