"""Acceptance suite: one test per headline guarantee, at its stated tolerance.

Each test prints a single summary line on success, so a verbose run reads as
a checklist.  Randomized batteries use fixed seeds; every expected number is
either exact algebra or was cross-checked against an independent oracle
(adaptive quadrature, brute-force scans, or high-order finite differences)
before being frozen here.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from sphereineq.bounds import (
    afst_constants,
    antipodal_constant,
    lambda_lower_thm2,
    mu_lower_prop34,
    mu_lower_thm2,
)
from sphereineq.exponents import make_flow_setting, make_parameter_point
from sphereineq.flows import certify_ode_chain, make_flow_config, run_heat_flow, run_nonlinear_flow
from sphereineq.phi_functions import make_phi_spec, phi
from sphereineq.sphere_calculus import (
    AxiFunction,
    ckp_distance,
    deficit,
    make_rule,
    random_band_limited_exponential,
)
from sphereineq.stereographic import euclidean_deficit, euclidean_norms, push_forward
from sphereineq.variational import bound_curve_sweep, klt_validate


# ---------------------------------------------------------------------------
# shared helpers


def sigma_flat(d):
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def random_positive_poly(rng, degree=6, scale=0.35):
    c = rng.normal(0.0, scale, degree + 1)
    zz = np.linspace(-1.0, 1.0, 2001)
    c[0] += 0.4 - np.polyval(c[::-1], zz).min()
    return c


def poly_val(c, z):
    return np.polyval(c[::-1], z)


def poly_der(c, z):
    dc = c[1:] * np.arange(1, len(c))
    return np.polyval(dc[::-1], z)


def oracle_weighted(c, d, p):
    """Adaptive radial quadrature of |v|^p (1+r^2)^(-delta/2)."""
    delta = 2.0 * d - p * (d - 2.0)

    def f(r):
        z = (r * r - 1.0) / (r * r + 1.0)
        b2 = 1.0 + r * r
        v = (2.0 / b2) ** (0.5 * (d - 2.0)) * poly_val(c, z)
        return abs(v) ** p * b2 ** (-0.5 * delta) * r ** (d - 1.0)

    inner = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    outer = quad(f, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    return sigma_flat(d) * (inner + outer)


def oracle_dirichlet(c, d):
    """Adaptive radial quadrature of |grad v|^2."""

    def f(r):
        z = (r * r - 1.0) / (r * r + 1.0)
        b2 = 1.0 + r * r
        pref = (2.0 / b2) ** (0.5 * (d - 2.0))
        dz = 4.0 * r / b2**2
        dv = pref * (poly_der(c, z) * dz - (d - 2.0) * r / b2 * poly_val(c, z))
        return dv * dv * r ** (d - 1.0)

    inner = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    outer = quad(f, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
    return sigma_flat(d) * (inner + outer)


def even_band_limited_positive(rule, rng, degree=4, scale=0.4):
    c = rng.normal(size=degree + 1)
    return AxiFunction(rule, values=np.exp(scale * np.polyval(c[::-1], rule.nodes**2)))


def random_p_in_range(rng, d):
    """Uniform draw over the admissible exponents away from 2, capped at 12."""
    two_sharp = make_parameter_point(d, 2.0).two_sharp
    if rng.random() < 0.5:
        return float(rng.uniform(1.0, 1.95))
    return float(rng.uniform(2.05, min(two_sharp, 12.0)))


# ---------------------------------------------------------------------------
# 1. the improvement function solves its defining ODE


PHI_CAP = 10.0


def certification_interval(pp):
    """Largest s with phi <= PHI_CAP, capped below the admissible supremum.

    Beyond this point phi blows up like a negative power of 1-(p-2)s and no
    double-precision derivative estimate can certify an absolute residual,
    while a wrong constant in phi would already show at order one here.
    """
    sup = 1.0 / (pp.p - 2.0) if pp.p > 2.0 else math.inf
    hi = 0.85 * sup if math.isfinite(sup) else 3.0
    if phi(pp, hi) > PHI_CAP:
        lo, up = 0.0, hi
        for _ in range(80):
            mid = 0.5 * (lo + up)
            if phi(pp, mid) > PHI_CAP:
                up = mid
            else:
                lo = mid
        hi = lo
    return hi


def ode_residual_max(pp, n_points=100):
    """Max residual of phi' = 1 + gamma phi / (1 - (p-2) s) on the interval."""
    hi = certification_interval(pp)
    h = 1.0e-4 * hi
    worst = 0.0
    for s in np.linspace(1.0e-3 * hi, hi, n_points):
        f = lambda x: phi(pp, float(x))
        dphi = (-f(s + 2 * h) + 8 * f(s + h) - 8 * f(s - h) + f(s - 2 * h)) / (12 * h)
        rhs = 1.0 + pp.gamma * f(s) / (1.0 - (pp.p - 2.0) * s)
        worst = max(worst, abs(dphi - rhs))
    return worst


def test_improvement_function_solves_its_ode():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 11))
        pp = make_parameter_point(d, random_p_in_range(rng, d))
        worst = max(worst, ode_residual_max(pp))
    elapsed = time.perf_counter() - started
    assert worst < 1e-8
    assert elapsed < 1.0
    print(f"PASS improvement-function ODE: max residual {worst:.2e} over 20 points, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. golden constants


def test_golden_constants():
    pp33 = make_parameter_point(3, 3.0)
    assert pp33.gamma == pytest.approx(0.56, abs=1e-12)
    assert make_parameter_point(1, 3.0).p_star == 1.75
    assert antipodal_constant(pp33) == pytest.approx(96.0 / 17.0, abs=1e-12)
    assert afst_constants(make_parameter_point(2, 3.0))[1] == pytest.approx(2.38114, abs=1e-4)
    for lam in (1.0, 2.0, 4.0):
        assert mu_lower_prop34(pp33, lam) == pytest.approx(0.5 * math.sqrt(lam), abs=1e-12)
    print("PASS golden constants: gamma, degenerate exponent, even-function and "
          "moment-constrained levels, spectral lower bound")


# ---------------------------------------------------------------------------
# 3. closed-form bound minimizations vs brute-force scans


def refined_scan_min(f, lo, hi, n_coarse=2048, n_fine=10_000):
    grid = np.geomspace(lo, hi, n_coarse)
    vals = f(grid)
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    fine = np.linspace(a, b, n_fine)
    return float(min(vals[i], f(fine).min()))


def scan_mu_heat_flow(pp, lam):
    th = pp.gamma / (pp.p - 2.0)

    def f(t):
        return (lam + (t ** (1.0 + th) - 1.0) / (1.0 + th)) / t

    return refined_scan_min(f, 1.0, 1.0e8)


def scan_lambda_above_degenerate(pp, mu):
    th = pp.gamma / (2.0 - pp.p) - 1.0
    assert th > 0.0

    def f(t):
        return (t ** (-th) - 1.0) / th + mu * t

    return refined_scan_min(f, 1.0e-12, 1.0)


def scan_lambda_below_degenerate(pp, mu):
    th = pp.gamma / (2.0 - pp.p)
    assert 0.0 < th < 1.0

    def f(t):
        return (1.0 - t ** (1.0 - th)) / (1.0 - th) + mu * t

    return refined_scan_min(f, 1.0e-12, 1.0)


def test_closed_form_bounds_match_brute_force_scans():
    started = time.perf_counter()
    rng = np.random.default_rng(20250825)
    worst = 0.0
    for k in range(10):
        d = int(rng.integers(1, 9))
        anchor = make_parameter_point(d, 2.0)
        case = k % 3
        if case == 0:
            pp = make_parameter_point(d, float(rng.uniform(2.1, min(anchor.two_sharp, 9.0))))
            lam = float(rng.uniform(1.0, 30.0))
            closed, scan = mu_lower_thm2(pp, lam), scan_mu_heat_flow(pp, lam)
        elif case == 1:
            pp = make_parameter_point(d, float(rng.uniform(anchor.p_star + 0.02, 1.98)))
            mu = float(rng.uniform(1.0, 20.0))
            closed, scan = lambda_lower_thm2(pp, mu), scan_lambda_above_degenerate(pp, mu)
        else:
            pp = make_parameter_point(d, float(rng.uniform(1.0, anchor.p_star - 0.02)))
            mu = float(rng.uniform(1.0, 20.0))
            closed, scan = lambda_lower_thm2(pp, mu), scan_lambda_below_degenerate(pp, mu)
        worst = max(worst, abs(scan - closed) / abs(closed))
    elapsed = time.perf_counter() - started
    assert worst < 1e-6
    assert elapsed < 5.0
    print(f"PASS min-over-t vs scans: worst relative gap {worst:.2e} over 10 draws, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. randomized inequality battery


SLACK = 1e-8
BATTERY_SIZE = 100


def battery_worst(evaluate, functions):
    """Most negative normalized deficit over the family (>= -SLACK passes)."""
    worst = math.inf
    for u in functions:
        lhs, value = evaluate(u)
        worst = min(worst, value / (1.0 + abs(lhs)))
    return worst


def test_randomized_inequality_battery():
    started = time.perf_counter()
    results = {}
    seed = 9000

    def fresh(rule, rng):
        return [random_band_limited_exponential(rule, rng) for _ in range(BATTERY_SIZE)]

    for d, p in [(3, 1.5), (3, 3.0), (2, 4.0), (3, 5.0)]:
        pp = make_parameter_point(d, p)
        rule = make_rule(d, 48)
        rng = np.random.default_rng(seed)
        seed += 1
        functions = fresh(rule, rng)

        sphere = deficit  # entropy--Fisher form
        results[f"gns ({d},{p})"] = battery_worst(
            lambda u: (sphere(u, "gns", pp).lhs, sphere(u, "gns", pp).deficit), functions
        )
        if p <= pp.two_sharp:
            results[f"improved ({d},{p})"] = battery_worst(
                lambda u: (
                    sphere(u, "improved_gns", pp).lhs,
                    sphere(u, "improved_gns", pp).deficit,
                ),
                functions,
            )
        else:
            spec = make_phi_spec(pp, envelope=True)
            results[f"improved envelope ({d},{p})"] = battery_worst(
                lambda u: (
                    sphere(u, "improved_phi", pp, spec).lhs,
                    sphere(u, "improved_phi", pp, spec).deficit,
                ),
                functions,
            )

        def ckp(u):
            lower, gap = ckp_distance(u, pp.p)
            return gap, gap - lower

        results[f"ckp ({d},{p})"] = battery_worst(ckp, functions)

        flats = [push_forward(u) for u in functions]
        if 2.0 < p < pp.two_sharp:
            results[f"flat stability ({d},{p})"] = battery_worst(
                lambda v: (
                    euclidean_deficit(v, "stability", pp).lhs,
                    euclidean_deficit(v, "stability", pp).deficit,
                ),
                flats,
            )
        if pp.in_bakry_emery_range:
            results[f"flat sharper ({d},{p})"] = battery_worst(
                lambda v: (
                    euclidean_deficit(v, "sharper_stability", pp).lhs,
                    euclidean_deficit(v, "sharper_stability", pp).deficit,
                ),
                flats,
            )
        if d >= 3:
            even = [even_band_limited_positive(rule, rng) for _ in range(BATTERY_SIZE)]
            results[f"antipodal ({d},{p})"] = battery_worst(
                lambda u: (
                    sphere(u, "antipodal", pp).lhs,
                    sphere(u, "antipodal", pp).deficit,
                ),
                even,
            )

    elapsed = time.perf_counter() - started
    offenders = {k: v for k, v in results.items() if v < -SLACK}
    assert not offenders, offenders
    assert elapsed < 60.0
    floor = min(results.values())
    print(
        f"PASS inequality battery: {len(results)} checks x {BATTERY_SIZE} functions, "
        f"worst normalized deficit {floor:.2e}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 5. flow certification


def test_flow_certification():
    started = time.perf_counter()
    pp33 = make_parameter_point(3, 3.0)
    rule = make_rule(3, 48)
    u0 = AxiFunction(rule, values=1.0 + 0.1 * rule.nodes)
    trace = run_heat_flow(u0, make_flow_config(pp33, 1.0, node_count=48))
    heat = certify_ode_chain(trace, pp33)
    assert heat.mass_max_drift <= 1e-10
    assert heat.e_rate_max_residual < 1e-6
    assert heat.lyapunov_max_increase <= 1e-8
    assert heat.ode_chain_applicable
    assert heat.ode_chain_min_residual >= -1e-6
    assert heat.passed

    pp35 = make_parameter_point(3, 5.0)
    fs = make_flow_setting(pp35, 1.2)
    u0_nl = AxiFunction(rule, values=np.exp(0.3 * rule.nodes))
    trace_nl = run_nonlinear_flow(u0_nl, make_flow_config(fs, 0.5, node_count=48))
    nonlinear = certify_ode_chain(trace_nl, pp35)
    assert nonlinear.mass_max_drift <= 1e-6
    assert nonlinear.lyapunov_max_increase <= 1e-8
    assert nonlinear.psi_lyapunov_max_increase <= 1e-8
    assert nonlinear.passed

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"PASS flow certification: heat drift {heat.mass_max_drift:.1e}, "
        f"rate residual {heat.e_rate_max_residual:.1e}, "
        f"nonlinear drift {nonlinear.mass_max_drift:.1e}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 6. best-constant curve reproduction


def test_bound_curve_reproduction():
    started = time.perf_counter()
    pp = make_parameter_point(3, 3.0)
    lams = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]
    curve = bound_curve_sweep(pp, lams, node_count=48, restarts=8, max_iters=3000, seed=0)
    assert all(curve.converged)

    for k, lam in enumerate(lams):
        if lam <= 1.0:
            assert abs(curve.numeric[k] - lam) <= 1e-4, (lam, curve.numeric[k])
        else:
            assert curve.prop34[k] < curve.thm2[k], lam
            assert curve.thm2[k] <= curve.numeric[k] + 1e-9, lam
            assert curve.numeric[k] <= lam + 1e-9, lam
    k2 = lams.index(2.0)
    assert curve.thm2[k2] == pytest.approx(1.6127, abs=1e-3)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"PASS bound curve: identity branch to 1e-4, ordered bounds on {lams[3:]}, "
        f"certified lower bound at 2.0 = {curve.thm2[k2]:.6f}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 7. Schrodinger spectral bound battery


def test_schrodinger_bound_battery():
    started = time.perf_counter()
    reports = [
        klt_validate(3, 3.0, n_samples=50, sign_mode=mode, node_count=48,
                     tolerance=1e-8, seed=425)
        for mode in ("minus_V", "plus_V")
    ]
    for rep in reports:
        assert rep.violation_count == 0, rep.sign_mode
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"PASS spectral bounds: 50 potentials per mode, min margins "
        f"{reports[0].min_margin:.3f}/{reports[1].min_margin:.3f}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 8. flat-space identity battery


def test_flat_space_identity_battery():
    started = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 5):
        rule = make_rule(d, 48)
        rng = np.random.default_rng(100 + d)
        for _ in range(50):
            c = random_positive_poly(rng)
            p = float(rng.uniform(1.0, 4.5))
            u = AxiFunction(rule, values=poly_val(c, rule.nodes))
            norms = euclidean_norms(push_forward(u), p)

            mass = oracle_weighted(c, d, p)
            worst = max(worst, abs(norms.weighted_p - mass) / abs(mass))
            grad = oracle_dirichlet(c, d)
            worst = max(worst, abs(norms.dirichlet - grad) / abs(grad))
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 10.0
    print(
        f"PASS flat-space identities: worst relative error {worst:.2e} "
        f"over 150 functions, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 9. cubic scaling of the deficit at near-constant data


def test_cubic_deficit_scaling_at_near_constant_data():
    """Halving eps divides the norm-form deficit by 8, so the constant is sharp.

    The squared-norm deficit lhs - rhs is even in eps (z -> -z maps the probe
    to its mirror image) and so decays one order faster, like eps^4; the cubic
    law belongs to the difference of norms sqrt(lhs) - sqrt(rhs).
    """
    pp = make_parameter_point(3, 3.0)
    rule = make_rule(3, 48)

    def norm_form(eps):
        rep = deficit(AxiFunction(rule, values=1.0 + eps * rule.nodes), "gns", pp)
        return math.sqrt(rep.lhs) - math.sqrt(rep.rhs)

    values = [norm_form(eps) for eps in (0.02, 0.01, 0.005)]
    ratios = [b / a for a, b in zip(values, values[1:])]
    for ratio in ratios:
        assert 0.8 * 0.125 <= ratio <= 1.2 * 0.125, ratios
    print(
        f"PASS cubic deficit scaling: halving ratios {ratios[0]:.5f}, {ratios[1]:.5f} "
        f"(target 0.125 within 20%)"
    )
