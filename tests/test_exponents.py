"""Exponent bookkeeping: derived constants, flow settings, admissible beta sets."""

import json
import math

import numpy as np
import pytest

from sphereineq import (
    ValidationError,
    beta_roots,
    gamma_of_beta,
    m_range,
    make_flow_setting,
    make_parameter_point,
    sphere_surface,
)
from sphereineq.exponents import _lgamma


def gamma_direct(d, p, beta):
    """Curvature quantity evaluated straight from its defining expression."""
    kappa = beta * (p - 2.0) + 1.0
    s = kappa + beta - 1.0
    return -((d - 1.0) / (d + 2.0) * s) ** 2 + kappa * (beta - 1.0) + d / (d + 2.0) * s


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestParameterPoint:
    def test_critical_exponents(self):
        pp = make_parameter_point(3, 3.0)
        assert pp.two_star == 6.0
        assert pp.two_sharp == 4.75
        assert make_parameter_point(2, 3.0).two_sharp == 9.0
        assert math.isinf(make_parameter_point(2, 3.0).two_star)
        assert math.isinf(make_parameter_point(1, 3.0).two_sharp)

    def test_gamma_golden_value(self):
        assert make_parameter_point(3, 3.0).gamma == pytest.approx(0.56, abs=1e-12)

    def test_gamma_dimension_one(self):
        for p in (1.0, 1.5, 3.0, 4.0):
            assert make_parameter_point(1, p).gamma == pytest.approx((p - 1.0) / 3.0, abs=1e-14)

    def test_gamma_matches_direct_formula_at_beta_one(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            d = int(rng.integers(1, 11))
            p = float(rng.uniform(1.0, 6.0))
            if d >= 3:
                p = min(p, 2.0 * d / (d - 2.0))
            pp = make_parameter_point(d, p)
            assert pp.gamma == pytest.approx(gamma_direct(d, p, 1.0), rel=1e-12, abs=1e-12)

    def test_p_star_dimension_one_is_exact(self):
        assert make_parameter_point(1, 1.2).p_star == 1.75

    def test_p_star_solves_gamma_equation(self):
        # gamma(p_star) = 2 - p_star characterizes the logarithmic branch
        for d in range(1, 51):
            ps = make_parameter_point(d, 1.5).p_star
            assert 1.0 < ps < 2.0
            g = make_parameter_point(d, ps).gamma
            assert abs(g - (2.0 - ps)) < 1e-10

    def test_p_star_limit(self):
        # p_star dips to 5/3 at d = 4 and then climbs back towards 2;
        # it is not monotone below d = 4.
        values = [make_parameter_point(d, 1.5).p_star for d in range(1, 51)]
        assert values[3] == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert min(values) == values[3]
        assert all(b > a for a, b in zip(values[3:], values[4:]))
        assert make_parameter_point(10_000, 1.5).p_star > 1.97

    def test_delta_vanishes_at_critical(self):
        assert make_parameter_point(3, 6.0).delta == 0.0
        assert make_parameter_point(5, 2.0).delta == pytest.approx(10.0 - 2.0 * 3.0)

    def test_sphere_surface_closed_forms(self):
        assert sphere_surface(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_surface(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sphere_surface(3) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
        # log-Gamma evaluation stays finite far beyond naive factorial overflow
        assert sphere_surface(400) > 0.0

    @pytest.mark.parametrize("d", [2.5, True, 0, -1, np.float64(3.0)])
    def test_sphere_surface_rejects_non_dimensions(self, d):
        with pytest.raises(ValidationError):
            sphere_surface(d)

    def test_sphere_surface_accepts_numpy_integers(self):
        assert sphere_surface(np.int64(3)) == sphere_surface(3)

    def test_rejects_supercritical_p(self):
        with pytest.raises(ValidationError):
            make_parameter_point(3, 6.5)
        with pytest.raises(ValidationError):
            make_parameter_point(5, 4.0)
        # no upper restriction below d = 3
        make_parameter_point(2, 40.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            make_parameter_point(0, 3.0)
        with pytest.raises(ValidationError):
            make_parameter_point(3, 0.5)
        with pytest.raises(ValidationError):
            make_parameter_point(3, math.inf)

    def test_numpy_integer_dimension(self):
        pp = make_parameter_point(np.int64(3), 3.0)
        assert type(pp.d) is int
        assert pp == make_parameter_point(3, 3.0)
        json.dumps(pp.d)

    def test_rejects_non_integral_dimension(self):
        for d in (True, np.bool_(True), 3.0, "3"):
            with pytest.raises(ValidationError):
                make_parameter_point(d, 3.0)

    def test_range_flags(self):
        assert make_parameter_point(3, 3.0).in_bakry_emery_range
        assert not make_parameter_point(3, 5.0).in_bakry_emery_range
        assert make_parameter_point(3, 5.0).in_nonlinear_range
        assert not make_parameter_point(3, 2.0).in_nonlinear_range
        assert make_parameter_point(3, 2.0).is_log_case
        assert make_parameter_point(3, 6.0).is_critical
        assert make_parameter_point(1, 17.0).in_bakry_emery_range


class TestFlowSetting:
    def test_heat_flow_reduction(self):
        fs = make_flow_setting(make_parameter_point(3, 3.0), 1.0)
        assert fs.kappa == pytest.approx(2.0)
        assert fs.m == pytest.approx(1.0)
        assert fs.gamma_beta == pytest.approx(0.56, abs=1e-12)
        assert fs.admissible

    def test_overflowing_gamma_is_rejected(self):
        # ((d - 1)(p - 1)/(d + 2))^2 overflowed past p = 5.4e154 at d = 2
        pp = make_parameter_point(2, 5.363123171977039e154)
        with pytest.raises(ValidationError):
            make_flow_setting(pp, 1.0)
        with pytest.raises(ValidationError):
            gamma_of_beta(pp, 1.0)

    def test_above_sharp_threshold_heat_flow_inadmissible(self):
        fs = make_flow_setting(make_parameter_point(3, 5.0), 1.0)
        assert fs.gamma_beta == pytest.approx(-0.16, abs=1e-12)
        assert not fs.admissible

    def test_example_setting(self):
        fs = make_flow_setting(make_parameter_point(3, 5.0), 1.2)
        assert fs.kappa == pytest.approx(4.6)
        assert fs.m == pytest.approx(1.0 - 2.0 / 5.0 + 2.0 / 6.0, rel=1e-14)
        assert fs.admissible

    def test_pressure_exponent_identity(self):
        # 1/beta + p/2 = 1 + m p / 2 ties the flow to its pressure equation
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            p = float(rng.uniform(1.0, 5.5))
            if d >= 3:
                p = min(p, 2.0 * d / (d - 2.0))
            if abs(p - 2.0) < 1e-3:
                continue
            beta = float(rng.uniform(-4.0, 4.0))
            if abs(beta) < 1e-3:
                continue
            fs = make_flow_setting(make_parameter_point(d, p), beta)
            assert 1.0 / beta + p / 2.0 == pytest.approx(1.0 + fs.m * p / 2.0, rel=1e-12, abs=1e-9)
            # exponent bookkeeping used by the improvement-function kernel
            lhs = 1.0 - fs.zeta - 1.0 / (2.0 * beta)
            rhs = p * (beta - 1.0) / (2.0 * beta * (p - 2.0))
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert fs.gamma_beta == pytest.approx(gamma_direct(d, p, beta), abs=1e-10)

    def test_rejects_zero_beta_and_p_two(self):
        pp = make_parameter_point(3, 3.0)
        with pytest.raises(ValidationError):
            make_flow_setting(pp, 0.0)
        with pytest.raises(ValidationError):
            make_flow_setting(make_parameter_point(3, 2.0), 1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValidationError, match="finite"):
            make_flow_setting(make_parameter_point(3, 3.0), beta)


class TestBetaRoots:
    def test_union_case_endpoints(self):
        # frozen from a 200-step bisection of gamma(3, 5, .) = 0
        br = beta_roots(make_parameter_point(3, 5.0))
        assert br.kind == "union-of-two-half-lines"
        lo_component, hi_component = br.components
        assert lo_component[1] == pytest.approx(-2.0291370977898904, abs=1e-12)
        assert hi_component[0] == pytest.approx(1.1200461886989799, abs=1e-12)
        # formula labels invert the ordering when the denominator is negative
        assert br.beta_plus == pytest.approx(lo_component[1], abs=1e-12)
        assert br.beta_minus == pytest.approx(hi_component[0], abs=1e-12)

    def test_endpoints_agree_with_bisection(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(1, 9))
            p = float(rng.uniform(1.0, 5.5))
            if d >= 3:
                p = min(p, 2.0 * d / (d - 2.0) - 1e-3)
            if abs(p - 2.0) < 1e-3:
                continue
            pp = make_parameter_point(d, p)
            br = beta_roots(pp)
            if math.isnan(br.beta_plus):
                continue
            for lo, hi in br.components:
                for endpoint in (lo, hi):
                    if math.isinf(endpoint):
                        continue
                    f = lambda b: gamma_direct(d, p, b)
                    width = max(1e-3, 1e-3 * abs(endpoint))
                    root = bisect_root(f, endpoint - width, endpoint + width)
                    assert root == pytest.approx(endpoint, abs=1e-9)

    def test_interval_case_low_p(self):
        br = beta_roots(make_parameter_point(1, 1.5))
        assert br.kind == "interval"
        (lo, hi), = br.components
        assert lo == pytest.approx((10.0 - math.sqrt(28.0)) / 6.0, rel=1e-12)
        assert hi == pytest.approx((10.0 + math.sqrt(28.0)) / 6.0, rel=1e-12)
        assert br.contains(1.0)

    def test_degenerate_half_lines(self):
        # quadratic coefficient vanishes on these exceptional exponents;
        # directions follow the sign of the surviving linear term
        cases = [
            (2, 9.0 + 4.0 * math.sqrt(3.0), "single-half-line-left",
             -1.0 / (2.0 + 2.0 * math.sqrt(3.0))),
            (2, 9.0 - 4.0 * math.sqrt(3.0), "single-half-line-right",
             1.0 / (2.0 * math.sqrt(3.0) - 2.0)),
            (3, 2.25, "single-half-line-right", 2.0 / 3.0),
            (4, 3.0, "single-half-line-right", 0.75),
        ]
        for d, p, kind, root in cases:
            br = beta_roots(make_parameter_point(d, p))
            assert br.kind == kind, (d, p)
            (lo, hi), = br.components
            finite = lo if math.isinf(hi) else hi
            assert finite == pytest.approx(root, abs=1e-9)

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            beta_roots(make_parameter_point(3, 6.0))

    def test_membership_matches_gamma_sign(self):
        # the admissible set is exactly {gamma(beta) >= 0}
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 10_000:
            d = int(rng.integers(1, 11))
            p = float(rng.uniform(1.0, 8.0))
            if d >= 3:
                p = min(p, 2.0 * d / (d - 2.0) - 1e-6)
            if abs(p - 2.0) < 1e-6:
                continue
            pp = make_parameter_point(d, p)
            br = beta_roots(pp)
            beta = float(rng.uniform(-12.0, 12.0))
            g = gamma_of_beta(pp, beta)
            if abs(g) < 1e-9:
                continue
            assert br.contains(beta) == (g > 0.0), (d, p, beta, g)
            checked += 1

    def test_witness_choice_is_admissible(self):
        p = 16.5
        br = beta_roots(make_parameter_point(2, p))
        assert br.kind == "interval"
        assert br.witness_beta == pytest.approx(4.0 * (5.0 - p) / (p * p - 18.0 * p + 33.0))
        assert br.contains(br.witness_beta)
        assert gamma_direct(2, p, br.witness_beta) >= 0.0

    def test_zero_never_admissible(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            p = float(rng.uniform(1.0, 6.0))
            if d >= 3:
                p = min(p, 2.0 * d / (d - 2.0) - 1e-6)
            if abs(p - 2.0) < 1e-6:
                continue
            assert not beta_roots(make_parameter_point(d, p)).contains(0.0)

    @pytest.mark.parametrize("d,p", [
        (1, 1e20), (1, 3.602879701896398e16),  # a root rounds to -0.0
        (1, 1e200), (1, 1.3407807929942597e154), (2, 1e160),  # (p - 1)^2 overflows
        (2, 5.363123171977039e154),
    ])
    def test_breakdown_at_large_p_is_rejected(self, d, p):
        pp = make_parameter_point(d, p)
        with pytest.raises(ValidationError):
            beta_roots(pp)
        with pytest.raises(ValidationError):
            m_range(pp)


class TestMRange:
    def test_example_interval(self):
        m_lo, m_hi = m_range(make_parameter_point(3, 5.0))
        assert m_lo == pytest.approx(0.6 - 0.197128129211, abs=1e-9)
        assert m_hi == pytest.approx(0.6 + 0.357128129211, abs=1e-9)

    def test_contains_heat_exponent_when_admissible(self):
        for d, p in [(3, 3.0), (1, 1.5), (2, 4.0)]:
            pp = make_parameter_point(d, p)
            if beta_roots(pp).contains(1.0):
                m_lo, m_hi = m_range(pp)
                assert m_lo <= 1.0 <= m_hi

    def test_dimension_one_quartic(self):
        # beta^2 = 1/2 roots; the m interval spans both signs of beta
        m_lo, m_hi = m_range(make_parameter_point(1, 4.0))
        assert m_lo == pytest.approx(0.5 - 1.0 / math.sqrt(2.0), rel=1e-12)
        assert m_hi == pytest.approx(0.5 + 1.0 / math.sqrt(2.0), rel=1e-12)


def gammaln_mismatches(xs):
    """Arguments where _lgamma differs from scipy.special.gammaln in any bit."""
    from scipy.special import gammaln

    return [x for x, e in zip(xs.tolist(), gammaln(xs).tolist()) if _lgamma(x) != e]


class TestLogGamma:
    """_lgamma against scipy.special.gammaln, the routine it ports, by ==."""

    def test_every_half_integer_matches_gammaln(self):
        # k/2 for k = 1..200000 reaches the x < 13, 13 <= x < 1000 and
        # x >= 1000 branches; sphere surfaces and rule masses use these
        assert gammaln_mismatches(np.arange(1, 200_001) / 2.0) == []

    @pytest.mark.parametrize("lo, hi", [(0.01, 13.0), (13.0, 1000.0), (1000.0, 1e8), (1e8, 1e9)])
    def test_random_arguments_match_gammaln_in_each_branch(self, lo, hi):
        xs = np.random.default_rng(int(lo * 100)).uniform(lo, hi, 10_000)
        assert gammaln_mismatches(xs) == []
