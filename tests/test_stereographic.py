"""Tests for the flat-space radial profiles and their weighted inequalities.

The norm identities are checked against an independent adaptive quadrature
on the radial half-axis; every expected number below either comes from that
oracle route or is an exact algebraic consequence of the change of
variables.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sphereineq.bounds import afst_constants
from sphereineq.errors import ValidationError
from sphereineq.exponents import make_parameter_point, sphere_surface
from sphereineq.sphere_calculus import AxiFunction, deficit, make_rule
from sphereineq.stereographic import (
    _entropy_power,
    axis_moment_log_constant,
    equality_profile,
    equality_profile_second_moment,
    euclidean_deficit,
    euclidean_norms,
    push_forward,
    radial_profile_from_samples,
    radial_second_moment,
)


def sigma_flat(d):
    """Surface area of the unit sphere in R^d (the d-1 dimensional one)."""
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def random_positive_poly(rng, degree=6, scale=0.35):
    """Monomial coefficients of a polynomial strictly positive on [-1, 1]."""
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
    """Direct radial quadrature of |v|^p (1+r^2)^(-delta/2) for u = poly(c)."""
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
    """Direct radial quadrature of |grad v|^2 for u = poly(c)."""

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


def poly_function(rule, c):
    return AxiFunction(rule, values=poly_val(c, rule.nodes))


def even_positive(rng, rule, degree=3, scale=0.3):
    c = rng.normal(0.0, scale, degree + 1)
    return AxiFunction(rule, values=np.exp(np.polyval(c[::-1], rule.nodes**2)))


def moment_matched(v):
    """Rescale so the |x|^2-weighted mass equals the equality profile value."""
    factor = math.sqrt(
        equality_profile_second_moment(v.d) / radial_second_moment(v)
    )
    return radial_profile_from_samples(v.d, v.values * factor)


class TestConstruction:
    def test_dimension_one_rejected(self):
        rule = make_rule(1, 16)
        u = AxiFunction(rule, values=np.ones(16))
        with pytest.raises(ValidationError):
            push_forward(u)
        with pytest.raises(ValidationError):
            radial_profile_from_samples(1, np.ones(16))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_round_trip(self, d):
        rng = np.random.default_rng(100 + d)
        rule = make_rule(d, 40)
        for _ in range(5):
            u = poly_function(rule, random_positive_poly(rng))
            v = push_forward(u)
            back = radial_profile_from_samples(d, v.values).sphere
            assert np.max(np.abs(back.values - u.values)) <= 1e-12 * np.max(
                np.abs(u.values)
            )
            again = push_forward(back)
            assert np.max(np.abs(again.values - v.values)) <= 1e-12 * np.max(
                np.abs(v.values)
            )

    def test_grid_map(self):
        rule = make_rule(3, 32)
        u = AxiFunction(rule, values=np.ones(32))
        v = push_forward(u)
        z = rule.nodes
        assert np.allclose(v.r, np.sqrt((1.0 + z) / (1.0 - z)), rtol=1e-14)
        # 1 + r^2 = 2/(1 - z) along the map
        assert np.allclose(1.0 + v.r**2, 2.0 / (1.0 - z), rtol=1e-13)

    @pytest.mark.parametrize("d", [3, 5])
    def test_constant_maps_to_equality_shape(self, d):
        rule = make_rule(d, 32)
        v = push_forward(AxiFunction(rule, values=np.ones(32)))
        shape = (1.0 + v.r**2) ** (0.5 * (2.0 - d))
        ratio = v.values / shape
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-12

    def test_constant_is_fixed_in_dimension_two(self):
        rule = make_rule(2, 32)
        v = push_forward(AxiFunction(rule, values=np.ones(32)))
        assert np.max(np.abs(v.values - 1.0)) == 0.0

    def test_equality_profile_pairs_with_constant(self):
        v = equality_profile(3, 40)
        assert np.ptp(v.sphere.values) == 0.0
        assert np.allclose(v.values, (1.0 + v.r**2) ** -0.5, rtol=1e-14)
        with pytest.raises(ValidationError):
            equality_profile(1, 40)

    def test_sample_count_must_match_rule(self):
        with pytest.raises(ValidationError):
            radial_profile_from_samples(3, [1.0])

    def test_from_samples_reconstructs_pairing(self):
        rng = np.random.default_rng(4)
        rule = make_rule(3, 24)
        v = push_forward(poly_function(rule, random_positive_poly(rng)))
        rebuilt = radial_profile_from_samples(3, v.values)
        assert np.max(np.abs(rebuilt.sphere.values - v.sphere.values)) <= 1e-12


class TestNormIdentities:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_against_radial_quadrature(self, d):
        rule = make_rule(d, 48)
        rng = np.random.default_rng(300 + d)
        for _ in range(10):
            c = random_positive_poly(rng)
            v = push_forward(poly_function(rule, c))
            for p in (1.5, 3.0, 4.0):
                got = euclidean_norms(v, p)
                ref = oracle_weighted(c, d, p)
                assert abs(got.weighted_p - ref) <= 1e-10 * abs(ref)
            ref2 = oracle_weighted(c, d, 2.0)
            assert abs(got.weighted_2 - ref2) <= 1e-10 * abs(ref2)
            ref_dir = oracle_dirichlet(c, d)
            assert abs(got.dirichlet - ref_dir) <= 1e-10 * abs(ref_dir)

    def test_critical_exponent_drops_the_weight(self):
        # delta(2d/(d-2)) = 0, so the p-integral is the plain Lebesgue one
        rule = make_rule(3, 48)
        rng = np.random.default_rng(41)
        c = random_positive_poly(rng)
        v = push_forward(poly_function(rule, c))
        got = euclidean_norms(v, 6.0)

        def f(r):
            z = (r * r - 1.0) / (r * r + 1.0)
            vv = (2.0 / (1.0 + r * r)) ** 0.5 * poly_val(c, z)
            return vv**6 * r**2

        ref = sigma_flat(3) * (
            quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
            + quad(f, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
        )
        assert abs(got.weighted_p - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("d", [3, 5])
    def test_equality_profile_dirichlet_reduction(self, d):
        # the paired sphere function is constant, so the whole Dirichlet
        # energy comes from the d(d-2)/4 mass term
        v = equality_profile(d, 48)
        norms = euclidean_norms(v, 2.0)
        assert abs(norms.dirichlet - d * (d - 2.0) * norms.weighted_2) <= 1e-12 * norms.dirichlet

        def f(r):
            dv = (2.0 - d) * r * (1.0 + r * r) ** (-0.5 * d)
            return dv * dv * r ** (d - 1.0)

        ref = sigma_flat(d) * (
            quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
            + quad(f, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
        )
        assert abs(norms.dirichlet - ref) <= 1e-10 * ref

    def test_norms_unpack(self):
        v = equality_profile(3, 24)
        weighted_p, weighted_2, diri = euclidean_norms(v, 3.0)
        assert weighted_p > 0.0 and weighted_2 > 0.0 and diri > 0.0

    def test_bad_exponent_rejected(self):
        v = equality_profile(3, 24)
        with pytest.raises(ValidationError):
            euclidean_norms(v, 0.5)
        with pytest.raises(ValidationError):
            euclidean_norms(v, math.inf)


class TestSecondMoment:
    def test_equality_profile_closed_form(self):
        # 0.5 sigma_2 B(5/2, 1/2) = 3 pi^2 / 4 in dimension three
        assert abs(equality_profile_second_moment(3) - 0.75 * math.pi**2) <= 1e-12

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_profile_moment_matches_closed_form(self, d):
        v = equality_profile(d, 48)
        got = radial_second_moment(v)
        ref = equality_profile_second_moment(d)
        assert abs(got - ref) <= 1e-12 * ref

    def test_random_profile_against_quadrature(self):
        rng = np.random.default_rng(52)
        rule = make_rule(3, 48)
        c = random_positive_poly(rng)
        v = push_forward(poly_function(rule, c))

        def f(r):
            z = (r * r - 1.0) / (r * r + 1.0)
            b2 = 1.0 + r * r
            vv = (2.0 / b2) ** 0.5 * poly_val(c, z)
            return r * r * b2**-2.0 * vv * vv * r**2

        ref = sigma_flat(3) * (
            quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
            + quad(f, 1.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
        )
        assert abs(radial_second_moment(v) - ref) <= 1e-10 * ref

    def test_low_dimension_rejected(self):
        v = equality_profile(2, 24)
        with pytest.raises(ValidationError):
            radial_second_moment(v)
        with pytest.raises(ValidationError):
            equality_profile_second_moment(2)


class TestWeightedDeficits:
    @pytest.mark.parametrize("d,p", [(2, 3.0), (3, 3.0), (3, 1.5), (5, 2.2)])
    def test_equality_profile_saturates(self, d, p):
        pp = make_parameter_point(d, p)
        res = euclidean_deficit(equality_profile(d, 48), "weighted_gns", pp)
        assert abs(res.deficit) <= 1e-10 * max(1.0, abs(res.lhs))

    def test_weighted_matches_sphere_route(self):
        # the flat-space deficit is exactly |S^d| times the sphere one
        pp = make_parameter_point(3, 3.0)
        rule = make_rule(3, 48)
        rng = np.random.default_rng(61)
        for _ in range(10):
            u = poly_function(rule, random_positive_poly(rng))
            v = push_forward(u)
            flat = euclidean_deficit(v, "weighted_gns", pp)
            sph = deficit(u, "gns", pp)
            ref = pp.sphere_volume * sph.deficit
            assert abs(flat.deficit - ref) <= 1e-9 * max(abs(ref), 1.0)

    def test_stability_battery(self):
        pp = make_parameter_point(3, 3.0)
        rule = make_rule(3, 48)
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = push_forward(poly_function(rule, random_positive_poly(rng)))
            res = euclidean_deficit(v, "stability", pp)
            assert res.deficit >= -1e-8
            assert res.rhs >= 0.0

    def test_sharper_dominates_stability(self):
        pp = make_parameter_point(3, 3.0)
        rule = make_rule(3, 48)
        rng = np.random.default_rng(11)
        for _ in range(50):
            v = push_forward(poly_function(rule, random_positive_poly(rng)))
            stab = euclidean_deficit(v, "stability", pp)
            sharp = euclidean_deficit(v, "sharper_stability", pp)
            assert sharp.deficit <= stab.deficit + 1e-10 * max(1.0, abs(stab.deficit))
            assert sharp.deficit >= -1e-8

    def test_sharper_consistent_with_sphere_improvement(self):
        # same quantity computed through the sphere improvement function
        pp = make_parameter_point(3, 3.0)
        rule = make_rule(3, 48)
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = poly_function(rule, random_positive_poly(rng))
            flat = euclidean_deficit(push_forward(u), "sharper_stability", pp)
            ref = pp.sphere_volume * deficit(u, "improved_gns", pp).deficit
            assert abs(flat.deficit - ref) <= 1e-9 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("d,p", [(3, 1.5), (2, 1.2), (5, 1.7)])
    def test_sharper_below_two(self, d, p):
        pp = make_parameter_point(d, p)
        rule = make_rule(d, 48)
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = push_forward(poly_function(rule, random_positive_poly(rng)))
            res = euclidean_deficit(v, "sharper_stability", pp)
            assert res.deficit >= -1e-8

    @pytest.mark.parametrize("p", [1.9995, 2.001])
    def test_sharper_near_two(self, p):
        # |theta| = |gamma / (2 - p)| is in the hundreds here, where the
        # product of powers overflowed with an OverflowError
        pp = make_parameter_point(3, p)
        rule = make_rule(3, 48)
        rng = np.random.default_rng(17)
        for _ in range(10):
            v = push_forward(poly_function(rule, random_positive_poly(rng)))
            res = euclidean_deficit(v, "sharper_stability", pp)
            assert math.isfinite(res.rhs)
            assert res.deficit >= -1e-8 * max(1.0, abs(res.lhs))

    def test_entropy_power_regroups_only_where_the_product_overflows(self):
        low = 1.0 - 0.7
        assert _entropy_power(2.0, 3.0, 5.0, 0.7) == 2.0**low * 3.0**low * 5.0**0.7
        assert _entropy_power(0.1, 0.1, 1e-2, -440.0) == pytest.approx(1e-2, rel=1e-12)
        with pytest.raises(ValidationError, match="not finite"):
            _entropy_power(1.0, 1.0, 1e300, 2.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_sharper_log_branch(self, d):
        pp = make_parameter_point(d, make_parameter_point(d, 2.0).p_star)
        assert abs(pp.gamma - (2.0 - pp.p)) < 1e-9
        rule = make_rule(d, 48)
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = push_forward(poly_function(rule, random_positive_poly(rng)))
            res = euclidean_deficit(v, "sharper_stability", pp)
            assert res.deficit >= -1e-8
        res0 = euclidean_deficit(equality_profile(d, 48), "sharper_stability", pp)
        assert abs(res0.deficit) <= 1e-10 * max(1.0, abs(res0.lhs))

    def test_range_rejections(self):
        rule = make_rule(3, 32)
        v = push_forward(AxiFunction(rule, values=np.ones(32)))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "weighted_gns", make_parameter_point(3, 2.0))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "stability", make_parameter_point(3, 1.5))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "stability", make_parameter_point(3, 5.0))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "sharper_stability", make_parameter_point(3, 5.0))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "weighted_gns", None)
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "weighted_gns", make_parameter_point(4, 3.0))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "no_such_form", make_parameter_point(3, 3.0))


class TestMomentConstrained:
    def test_degenerate_level_reduces_to_weighted(self):
        pp = make_parameter_point(3, 3.0)
        rule = make_rule(3, 48)
        rng = np.random.default_rng(19)
        for _ in range(20):
            v = moment_matched(push_forward(even_positive(rng, rule)))
            res = euclidean_deficit(v, "moment_constrained", pp, lambda_star=3.0)
            base = euclidean_deficit(v, "weighted_gns", pp)
            assert res.rhs == 0.0
            assert abs(res.deficit - base.deficit) <= 1e-12 * max(1.0, abs(base.deficit))
            assert res.deficit >= -1e-8

    def test_default_level_battery(self):
        pp = make_parameter_point(3, 3.0)
        rule = make_rule(3, 48)
        rng = np.random.default_rng(19)
        for _ in range(50):
            v = moment_matched(push_forward(even_positive(rng, rule)))
            res = euclidean_deficit(v, "moment_constrained", pp)
            assert res.deficit >= -1e-8
            assert res.inputs["lambda_star"] == pytest.approx(3.0 * (1.0 + 1e-6))

    @pytest.mark.parametrize("d", [3, 5])
    def test_log_form_battery(self, d):
        rule = make_rule(d, 48)
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = moment_matched(push_forward(even_positive(rng, rule)))
            res = euclidean_deficit(v, "moment_constrained_log", None)
            assert res.deficit >= -1e-8
            assert res.inputs["log_constant"] == pytest.approx(
                axis_moment_log_constant(d)
            )

    def test_log_constant_matches_companion(self):
        pp = make_parameter_point(3, 3.0)
        assert axis_moment_log_constant(3) == pytest.approx(
            afst_constants(pp)[1], rel=1e-15
        )
        with pytest.raises(ValidationError):
            axis_moment_log_constant(1)

    def test_log_level_override_monotone(self):
        rule = make_rule(3, 48)
        rng = np.random.default_rng(29)
        v = moment_matched(push_forward(even_positive(rng, rule)))
        low = euclidean_deficit(v, "moment_constrained_log", None, log_constant=0.5)
        std = euclidean_deficit(v, "moment_constrained_log", None)
        assert low.deficit > std.deficit
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "moment_constrained_log", None, log_constant=0.0)

    def test_constraint_violations_are_errors(self):
        pp = make_parameter_point(3, 3.0)
        rule = make_rule(3, 48)
        rng = np.random.default_rng(31)
        odd = push_forward(AxiFunction(rule, values=np.exp(0.4 * rule.nodes)))
        with pytest.raises(ValidationError):
            euclidean_deficit(moment_matched(odd), "moment_constrained", pp)
        unmatched = push_forward(even_positive(rng, rule))
        with pytest.raises(ValidationError):
            euclidean_deficit(unmatched, "moment_constrained", pp)
        with pytest.raises(ValidationError):
            euclidean_deficit(unmatched, "moment_constrained_log", None)

    def test_dimension_two_rejected(self):
        rule = make_rule(2, 32)
        v = push_forward(AxiFunction(rule, values=np.exp(0.1 * rule.nodes**2)))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "moment_constrained", make_parameter_point(2, 3.0))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "moment_constrained_log", None)

    def test_log_form_checks_parameter_point(self):
        rule = make_rule(3, 32)
        v = push_forward(AxiFunction(rule, values=np.exp(0.1 * rule.nodes**2)))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "moment_constrained_log", make_parameter_point(3, 3.0))
        with pytest.raises(ValidationError, match="dimension"):
            euclidean_deficit(v, "moment_constrained_log", make_parameter_point(4, 2.0))

    def test_level_below_dimension_rejected(self):
        pp = make_parameter_point(3, 3.0)
        rule = make_rule(3, 48)
        rng = np.random.default_rng(37)
        v = moment_matched(push_forward(even_positive(rng, rule)))
        with pytest.raises(ValidationError):
            euclidean_deficit(v, "moment_constrained", pp, lambda_star=2.5)
