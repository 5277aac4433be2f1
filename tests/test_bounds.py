"""Tests for the explicit lower bounds and their brute-force characterizations."""

import math

import numpy as np
import pytest

from sphereineq.bounds import (
    afst_constants,
    antipodal_constant,
    c_dp,
    klt_lambda_bar_reverse,
    klt_lambda_bar_schrodinger,
    lambda_lower_thm2,
    mu_lower_envelope,
    mu_lower_prop34,
    mu_lower_thm2,
)
from sphereineq.errors import ValidationError
from sphereineq.exponents import _log_sphere_surface, make_parameter_point
from sphereineq.phi_functions import phi_envelope


def refined_scan_min(f, lo, hi, n_coarse=2048, n_fine=10_000, geometric=False):
    """Two-stage scan: coarse bracket of the minimum, then a fine linear pass."""
    if geometric:
        grid = np.geomspace(lo, hi, n_coarse)
    else:
        grid = np.linspace(lo, hi, n_coarse)
    vals = f(grid)
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    fine = np.linspace(a, b, n_fine)
    return float(min(vals[i], f(fine).min()))


def scan_mu_heat_flow(pp, lam):
    """Minimum over t >= 1 of (lam + (t^(1+theta) - 1)/(1+theta)) / t."""
    th = pp.gamma / (pp.p - 2.0)

    def f(t):
        return (lam + (t ** (1.0 + th) - 1.0) / (1.0 + th)) / t

    return refined_scan_min(f, 1.0, 1.0e8, geometric=True)


def scan_lambda_above_pstar(pp, mu):
    """Minimum over t in (0, 1] of (t^(-theta) - 1)/theta + mu t."""
    th = pp.gamma / (2.0 - pp.p) - 1.0
    assert th > 0.0

    def f(t):
        return (t ** (-th) - 1.0) / th + mu * t

    return refined_scan_min(f, 1.0e-12, 1.0, geometric=True)


def scan_lambda_below_pstar(pp, mu):
    """Minimum over t in (0, 1] of (1 - t^(1-theta))/(1-theta) + mu t."""
    th = pp.gamma / (2.0 - pp.p)
    assert 0.0 < th < 1.0

    def f(t):
        return (1.0 - t ** (1.0 - th)) / (1.0 - th) + mu * t

    return refined_scan_min(f, 1.0e-12, 1.0, geometric=True)


class TestHeatFlowBound:
    def test_frozen_value(self):
        pp = make_parameter_point(3, 3.0)
        assert mu_lower_thm2(pp, 2.0) == pytest.approx(1.612650472177576, rel=1e-14)
        assert mu_lower_thm2(pp, 2.0) == pytest.approx(
            (2.0 + 25.0 / 14.0) ** (14.0 / 39.0), rel=1e-14
        )

    def test_equals_one_at_lam_one(self):
        for d, p in [(3, 3.0), (2, 4.0), (1, 6.0), (5, 2.2)]:
            pp = make_parameter_point(d, p)
            assert mu_lower_thm2(pp, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scan(self):
        rng = np.random.default_rng(20240811)
        for _ in range(10):
            d = int(rng.integers(1, 8))
            pp0 = make_parameter_point(d, 2.5)
            hi = min(pp0.two_sharp, 12.0)
            p = float(rng.uniform(2.05, hi - 0.05 * (hi - 2.0)))
            pp = make_parameter_point(d, p)
            lam = float(rng.uniform(1.0, 8.0))
            closed = mu_lower_thm2(pp, lam)
            scan = scan_mu_heat_flow(pp, lam)
            assert scan == pytest.approx(closed, rel=1e-6)

    def test_monotone_and_below_diagonal(self):
        pp = make_parameter_point(3, 3.0)
        lams = np.linspace(1.0, 50.0, 100)
        vals = [mu_lower_thm2(pp, x) for x in lams]
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
        assert all(v <= x + 1e-12 for v, x in zip(vals, lams))

    def test_rejections(self):
        pp = make_parameter_point(3, 3.0)
        with pytest.raises(ValidationError):
            mu_lower_thm2(pp, 0.5)
        with pytest.raises(ValidationError):
            mu_lower_thm2(make_parameter_point(3, 1.5), 2.0)
        with pytest.raises(ValidationError):
            mu_lower_thm2(make_parameter_point(3, 5.0), 2.0)


class TestFastDiffusionBound:
    def test_frozen_value(self):
        pp = make_parameter_point(3, 1.5)
        assert lambda_lower_thm2(pp, 2.0) == pytest.approx(
            1.5120017085724413, rel=1e-14
        )

    def test_degenerate_exponent_gives_one(self):
        pp = make_parameter_point(1, 1.75)
        assert lambda_lower_thm2(pp, 3.0) == 1.0

    def test_p_equal_one_gives_one(self):
        pp = make_parameter_point(3, 1.0)
        assert pp.gamma == 0.0
        assert lambda_lower_thm2(pp, 3.0) == 1.0

    def test_matches_scan_above_degenerate_exponent(self):
        rng = np.random.default_rng(20240812)
        for _ in range(5):
            d = int(rng.integers(1, 8))
            ps = make_parameter_point(d, 1.5).p_star
            p = float(rng.uniform(ps + 0.02 * (2.0 - ps), 2.0 - 0.02 * (2.0 - ps)))
            pp = make_parameter_point(d, p)
            mu = float(rng.uniform(1.0, 8.0))
            assert scan_lambda_above_pstar(pp, mu) == pytest.approx(
                lambda_lower_thm2(pp, mu), rel=1e-6
            )

    def test_matches_scan_below_degenerate_exponent(self):
        rng = np.random.default_rng(20240813)
        count = 0
        while count < 5:
            d = int(rng.integers(1, 8))
            if d == 2:
                continue
            ps = make_parameter_point(d, 1.5).p_star
            p = float(rng.uniform(1.0 + 0.05 * (ps - 1.0), ps - 0.05 * (ps - 1.0)))
            pp = make_parameter_point(d, p)
            if pp.gamma == 0.0:
                continue
            mu = float(rng.uniform(1.0, 8.0))
            assert scan_lambda_below_pstar(pp, mu) == pytest.approx(
                lambda_lower_thm2(pp, mu), rel=1e-6
            )
            count += 1

    def test_rejections(self):
        with pytest.raises(ValidationError):
            lambda_lower_thm2(make_parameter_point(3, 1.5), 0.9)
        with pytest.raises(ValidationError):
            lambda_lower_thm2(make_parameter_point(3, 3.0), 2.0)


class TestCriticalInterpolationBound:
    def test_half_sqrt_lambda_at_3_3(self):
        pp = make_parameter_point(3, 3.0)
        for lam in (1.0, 2.0, 4.0):
            assert mu_lower_prop34(pp, lam) == pytest.approx(
                0.5 * math.sqrt(lam), abs=1e-12
            )

    def test_loglog_slope(self):
        pp = make_parameter_point(4, 3.0)
        theta = pp.d * (pp.p - 2.0) / (2.0 * pp.p)
        slope = (
            math.log(mu_lower_prop34(pp, 1.0e4)) - math.log(mu_lower_prop34(pp, 1.0e3))
        ) / (math.log(1.0e4) - math.log(1.0e3))
        assert slope == pytest.approx(1.0 - theta, abs=1e-3)

    def test_rejections(self):
        with pytest.raises(ValidationError):
            mu_lower_prop34(make_parameter_point(2, 3.0), 2.0)
        with pytest.raises(ValidationError):
            mu_lower_prop34(make_parameter_point(3, 6.0), 2.0)
        with pytest.raises(ValidationError):
            mu_lower_prop34(make_parameter_point(3, 3.0), 0.5)


class TestEnvelopeBound:
    def test_value_one_at_lam_one(self):
        pp = make_parameter_point(3, 3.0)
        assert mu_lower_envelope(pp, 1.0) == 1.0

    def test_dominates_single_curve_bound(self):
        pp = make_parameter_point(3, 3.0)
        env = mu_lower_envelope(pp, 2.0)
        assert env == pytest.approx(1.6207388486072496, rel=1e-9)
        assert env >= mu_lower_thm2(pp, 2.0) - 1e-9
        assert mu_lower_envelope(pp, 5.0) >= mu_lower_thm2(pp, 5.0) - 1e-9

    def test_beyond_heat_flow_range(self):
        pp = make_parameter_point(3, 5.0)
        val = mu_lower_envelope(pp, 2.0)
        assert 1.0 < val < 2.0
        assert val == pytest.approx(1.1923680276709252, rel=1e-9)

    def test_monotone_and_below_diagonal(self):
        pp = make_parameter_point(3, 3.0)
        lams = [1.0, 1.5, 2.0, 3.0, 5.0]
        vals = [mu_lower_envelope(pp, x) for x in lams]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= x + 1e-12 for v, x in zip(vals, lams))

    def test_rejections(self):
        with pytest.raises(ValidationError):
            mu_lower_envelope(make_parameter_point(3, 1.5), 2.0)
        with pytest.raises(ValidationError):
            mu_lower_envelope(make_parameter_point(3, 6.0), 2.0)
        with pytest.raises(ValidationError):
            mu_lower_envelope(make_parameter_point(3, 3.0), 0.5)


def dense_envelope_oracle(pp):
    """(x, (p - 2) phi_env(s)) on 20,000 points uniform in x = 1 - (p - 2) s and 20,000 geometric down to 1e-12."""
    p2 = pp.p - 2.0
    x = np.concatenate([np.linspace(1.0, 1.0e-2, 20_000), np.geomspace(1.0e-2, 1.0e-12, 20_000)])
    s = (1.0 - x) / p2
    big_phi = np.concatenate([p2 * phi_envelope(pp, chunk) for chunk in np.array_split(s, 20)])
    return 1.0 - p2 * s, big_phi


@pytest.mark.parametrize("p", [5.0, 4.8, 16.0 / 3.0])
def test_envelope_bound_and_inverse_match_dense_oracle(p):
    pp = make_parameter_point(3, p)
    x, big_phi = dense_envelope_oracle(pp)
    for lam in np.geomspace(1.0, 1.0e12, 60):
        oracle_min = float(np.min(big_phi + lam * x))
        assert mu_lower_envelope(pp, lam) <= oracle_min * (1.0 + 1.0e-7)
    phi_end = big_phi[-1]
    for frac in (0.1, 0.5, 0.9, 0.999):
        mu = 1.0 + frac * (phi_end - 1.0)
        oracle_sup = float(np.max((mu - big_phi) / x))
        assert klt_lambda_bar_schrodinger(pp, mu) == pytest.approx(oracle_sup, rel=1.0e-7)
    assert klt_lambda_bar_schrodinger(pp, phi_end + 1.0e-3) == math.inf


class TestSchrodingerEigenvalueBound:
    def test_identity_below_one(self):
        pp = make_parameter_point(3, 3.0)
        assert klt_lambda_bar_schrodinger(pp, 0.7) == 0.7

    def test_frozen_value(self):
        pp = make_parameter_point(3, 3.0)
        assert klt_lambda_bar_schrodinger(pp, 2.0) == pytest.approx(
            3.116434768709269, rel=1e-13
        )

    def test_inverse_of_heat_flow_bound(self):
        pp = make_parameter_point(3, 3.0)
        for lam in (1.5, 2.0, 5.0):
            mu = mu_lower_thm2(pp, lam)
            assert klt_lambda_bar_schrodinger(pp, mu) == pytest.approx(
                lam, abs=1e-8
            )

    def test_numeric_branch_inverse_property(self):
        # at (3, 5) the envelope bound rises to Phi_end = 1.2799 as lam -> inf,
        # so it inverts below that level and bounds nothing above it
        pp = make_parameter_point(3, 5.0)
        lam = klt_lambda_bar_schrodinger(pp, 1.2)
        assert lam > 1.0
        assert mu_lower_envelope(pp, lam) == pytest.approx(1.2, abs=1e-8)
        assert klt_lambda_bar_schrodinger(pp, 1.5) == math.inf

    def test_rejections(self):
        with pytest.raises(ValidationError):
            klt_lambda_bar_schrodinger(make_parameter_point(3, 3.0), -1.0)
        with pytest.raises(ValidationError):
            klt_lambda_bar_schrodinger(make_parameter_point(3, 1.5), 2.0)


class TestReverseEigenvalueBound:
    def test_identity_below_one(self):
        pp = make_parameter_point(3, 1.5)
        assert klt_lambda_bar_reverse(pp, 0.5) == 0.5

    def test_matches_fast_diffusion_bound_above_one(self):
        pp = make_parameter_point(3, 1.5)
        assert klt_lambda_bar_reverse(pp, 2.0) == lambda_lower_thm2(pp, 2.0)

    def test_degenerate_exponent_rejected(self):
        with pytest.raises(ValidationError):
            klt_lambda_bar_reverse(make_parameter_point(1, 1.75), 2.0)

    def test_rejections(self):
        with pytest.raises(ValidationError):
            klt_lambda_bar_reverse(make_parameter_point(3, 3.0), 2.0)
        with pytest.raises(ValidationError):
            klt_lambda_bar_reverse(make_parameter_point(3, 1.5), 0.0)


class TestAntipodalConstant:
    def test_frozen_values(self):
        assert antipodal_constant(make_parameter_point(3, 3.0)) == pytest.approx(
            96.0 / 17.0, abs=1e-12
        )
        assert antipodal_constant(make_parameter_point(3, 2.0)) == pytest.approx(
            27.0 / 8.0, abs=1e-13
        )

    def test_no_improvement_at_critical_exponent(self):
        pp = make_parameter_point(3, 6.0)
        assert antipodal_constant(pp) == pytest.approx(0.75, abs=1e-14)

    def test_beats_plain_constant_inside_range(self):
        for d, p in [(3, 3.0), (4, 3.0), (5, 2.5), (3, 1.5)]:
            pp = make_parameter_point(d, p)
            plain = d / (p - 2.0)
            improved = antipodal_constant(pp)
            if p > 2.0:
                assert improved > plain
            else:
                assert improved < plain  # both negative, factor > 1

    def test_rejections(self):
        with pytest.raises(ValidationError):
            antipodal_constant(make_parameter_point(2, 3.0))
        with pytest.raises(ValidationError):
            antipodal_constant(make_parameter_point(3, 1.0))


class TestVanishingMomentConstants:
    def test_plain_constant_at_base_level(self):
        pp = make_parameter_point(3, 3.0)
        gns, _ = afst_constants(pp, lambda_star=3.0)
        assert gns == 3.0

    def test_default_level_slightly_above_base(self):
        pp = make_parameter_point(3, 3.0)
        gns, _ = afst_constants(pp)
        assert gns == pytest.approx(3.0000014, rel=1e-9)
        assert gns > 3.0

    def test_log_constant_values(self):
        _, ll2 = afst_constants(make_parameter_point(2, 3.0))
        assert ll2 == pytest.approx(2.0 + 7.0 / (10.0 + math.sqrt(70.0)), abs=1e-12)
        assert ll2 == pytest.approx(2.38114, abs=1e-4)
        _, ll3 = afst_constants(make_parameter_point(3, 3.0))
        assert ll3 == pytest.approx(3.327493457415817, rel=1e-13)

    def test_rejections(self):
        with pytest.raises(ValidationError):
            afst_constants(make_parameter_point(1, 3.0))
        with pytest.raises(ValidationError):
            afst_constants(make_parameter_point(3, 5.0))
        with pytest.raises(ValidationError):
            afst_constants(make_parameter_point(3, 3.0), lambda_star=2.5)


class TestEuclideanConstant:
    def test_frozen_value_at_critical_exponent(self):
        pp = make_parameter_point(3, 6.0)
        expected = 3.0 * (2.0 * math.pi**2) ** (2.0 / 3.0) / 4.0
        assert c_dp(pp) == pytest.approx(expected, rel=1e-13)
        assert c_dp(pp) == pytest.approx(5.477904089531333, rel=1e-13)

    def test_kappa_identity(self):
        rng = np.random.default_rng(20240814)
        for _ in range(10):
            d = int(rng.integers(1, 7))
            hi = 6.0 if d < 3 else make_parameter_point(d, 2.5).two_star
            p = float(rng.uniform(1.0, hi))
            if abs(p - 2.0) < 0.05:
                continue
            pp = make_parameter_point(d, p)
            assert c_dp(pp) == pytest.approx(
                4.0 * d * pp.kappa_p / (p - 2.0), rel=1e-12
            )

    def test_p_two_rejected(self):
        with pytest.raises(ValidationError):
            c_dp(make_parameter_point(3, 2.0))

    @pytest.mark.parametrize("d,p", [(400, 2.001), (1000, 1.999), (10_000, 1.999)])
    def test_log_gamma_surface(self, d, p):
        # from d = 455 on |S^d| underflows to 0, whose log was a math domain error
        pp = make_parameter_point(d, p)
        log_term = (pp.delta / p) * math.log(2.0) + (1.0 - 2.0 / p) * _log_sphere_surface(d)
        assert c_dp(pp) == pytest.approx(d * math.exp(log_term) / (p - 2.0), rel=1e-12)

    def test_overflow_rejected(self):
        # Python's OverflowError, which the CLI maps to exit 2
        with pytest.raises(OverflowError):
            c_dp(make_parameter_point(10_000, 1.9))


class TestBoundCurve:
    def test_samples_match_function(self):
        # grid samples (numpy floats) give the same plain float as scalar calls
        pp = make_parameter_point(3, 3.0)
        grid = np.array([1.0, 2.0, 5.0])
        for fn in (mu_lower_thm2, mu_lower_prop34):
            for a, lam in zip(grid, [1.0, 2.0, 5.0]):
                value = fn(pp, a)
                assert type(value) is float
                assert value == fn(pp, lam)

    def test_normalization_and_monotonicity_invariants(self):
        pp = make_parameter_point(3, 3.0)
        grid = np.linspace(1.0, 20.0, 100)
        for fn in (mu_lower_thm2, mu_lower_prop34):
            vals = [fn(pp, lam) for lam in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(v <= lam + 1e-12 for lam, v in zip(grid, vals))
        assert mu_lower_thm2(pp, 1.0) == pytest.approx(1.0, abs=1e-12)
