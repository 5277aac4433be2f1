"""Tests for the axisymmetric sphere calculus and the inequality catalog."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_jacobi

from sphereineq.errors import ValidationError
from sphereineq.exponents import make_flow_setting, make_parameter_point, sphere_surface
from sphereineq.phi_functions import make_phi_spec
from sphereineq.sphere_calculus import (
    _SYMMETRY_TOL,
    AxiFunction,
    Deficit,
    UltrasphericalRule,
    _nu,
    c_q,
    ckp_distance,
    deficit,
    dirichlet,
    entropy_fisher,
    lp_norm,
    make_rule,
    random_band_limited_exponential,
)
from sphereineq.stereographic import euclidean_norms, push_forward

DEFICIT_TOL = 1.0e-8


def reference_c_q(q, scan_points=4096):
    """c_q as it was computed with scipy.optimize.minimize_scalar, kept as the oracle."""
    from scipy.optimize import minimize_scalar

    q = float(q)

    def bregman(t):
        t = np.asarray(t, dtype=float)
        h = t - 1.0
        small = np.abs(h) <= 0.5
        out = np.empty_like(h)
        out[small] = np.expm1(q * np.log1p(h[small])) - q * h[small]
        out[~small] = t[~small] ** q - 1.0 - q * h[~small]
        return out

    def quad_branch(t):
        t = np.asarray(t, dtype=float)
        return bregman(t) / (t - 1.0) ** 2

    def power_branch(t):
        t = np.asarray(t, dtype=float)
        return bregman(t) / (t - 1.0) ** q

    candidates = [0.5 * q * (q - 1.0), q - 1.0, 1.0]

    t1 = np.linspace(1.0e-9, 2.0, scan_points)
    mask = np.abs(t1 - 1.0) > 1.0e-5
    v1 = quad_branch(t1[mask])
    i1 = int(np.argmin(v1))
    candidates.append(float(v1[i1]))
    lo = t1[mask][max(i1 - 1, 0)]
    hi = t1[mask][min(i1 + 1, len(v1) - 1)]
    if hi > lo and not (lo < 1.0 < hi):
        res = minimize_scalar(
            lambda t: float(quad_branch(t)),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1.0e-12},
        )
        candidates.append(float(res.fun))

    t2 = np.geomspace(2.0, 1.0e6, scan_points)
    v2 = power_branch(t2)
    i2 = int(np.argmin(v2))
    candidates.append(float(v2[i2]))
    lo = t2[max(i2 - 1, 0)]
    hi = t2[min(i2 + 1, scan_points - 1)]
    if hi > lo:
        res = minimize_scalar(
            lambda t: float(power_branch(t)),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1.0e-12},
        )
        candidates.append(float(res.fun))

    return min(candidates)


def random_even_exponential(rule, rng, degree=8, scale=0.5):
    """Even positive test function: exponential of an even band-limited g."""
    coeffs = np.zeros(degree + 1)
    coeffs[::2] = rng.normal(0.0, scale, len(coeffs[::2]))
    g = rule.basis[:, : degree + 1] @ coeffs
    return AxiFunction(rule, values=np.exp(g))


class TestRule:
    def test_weights_sum_to_one(self):
        for d, n in [(1, 32), (2, 16), (3, 48), (5, 64), (10, 24)]:
            rule = make_rule(d, n)
            assert abs(rule.weights.sum() - 1.0) < 1e-14
            assert np.all(rule.weights > 0.0)
            assert rule.exactness_degree == 2 * n - 1

    def test_second_moment(self):
        for d in (1, 2, 3, 5, 10):
            rule = make_rule(d, 32)
            assert rule.integrate(rule.nodes**2) == pytest.approx(
                1.0 / (d + 1.0), abs=1e-12
            )

    def test_moment_recurrence_up_to_exactness(self):
        for d, n in [(1, 16), (3, 16), (6, 12)]:
            rule = make_rule(d, n)
            moment = 1.0
            for k in range(1, rule.exactness_degree + 1):
                got = rule.integrate(rule.nodes**k)
                if k % 2 == 1:
                    assert abs(got) < 1e-12
                else:
                    moment *= (k - 1.0) / (d + k - 1.0)
                    assert got == pytest.approx(moment, abs=1e-12)

    def test_d2_is_legendre(self):
        rule = make_rule(2, 4)
        x, w = leggauss(4)
        order = np.argsort(x)
        assert np.allclose(rule.nodes, x[order], atol=1e-14)
        assert np.allclose(rule.weights, w[order] / 2.0, atol=1e-14)

    def test_small_rule_exactness(self):
        rule = make_rule(2, 2)
        assert rule.integrate(rule.nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert abs(rule.integrate(rule.nodes**3)) < 1e-14

    def test_rejections(self):
        with pytest.raises(ValidationError):
            make_rule(0, 16)
        with pytest.raises(ValidationError):
            make_rule(3, 1)

    def test_dimension_matches_parameter_point(self):
        rule = UltrasphericalRule(np.int64(3), 8)
        assert type(rule.d) is int and rule.d == make_parameter_point(3, 3.0).d
        assert np.array_equal(rule.nodes, make_rule(3, 8).nodes)
        make_rule(1, 8)  # with d = 1 cached, make_rule(True, 8) must still be checked
        for d in (True, np.bool_(True), 3.0):
            with pytest.raises(ValidationError):
                UltrasphericalRule(d, 8)
            with pytest.raises(ValidationError):
                make_rule(d, 8)

    def test_rules_are_shared(self):
        assert make_rule(3, 32) is make_rule(3, 32)


class TestAxiFunction:
    def test_band_limited_round_trip(self):
        rng = np.random.default_rng(42)
        rule = make_rule(3, 24)
        coeffs = rng.normal(size=24)
        u = AxiFunction(rule, coefficients=coeffs)
        assert np.max(np.abs(u.coefficients - coeffs)) < 1e-10
        v = AxiFunction(rule, values=u.values)
        assert np.max(np.abs(v.coefficients - coeffs)) < 1e-10

    def test_positivity_flag(self):
        rule = make_rule(3, 16)
        assert AxiFunction(rule, values=np.full(16, 2.0)).is_positive
        assert not AxiFunction(rule, values=rule.nodes.copy()).is_positive

    def test_short_coefficients_are_padded(self):
        rule = make_rule(3, 16)
        u = AxiFunction(rule, coefficients=[0.0, 1.0])
        assert u.coefficients.shape == (16,)
        assert np.allclose(u.values, rule.basis[:, 1])

    def test_rejections(self):
        rule = make_rule(3, 8)
        with pytest.raises(ValidationError):
            AxiFunction(rule)
        with pytest.raises(ValidationError):
            AxiFunction(rule, values=[1.0, 2.0])
        with pytest.raises(ValidationError):
            AxiFunction(rule, values=np.full(8, np.inf))

    def test_values_and_coefficients_together_rejected(self):
        # both were kept unchecked: constant values with the coefficients of
        # a tilt gave a Dirichlet energy of 3 for a constant function
        rule = make_rule(3, 8)
        with pytest.raises(ValidationError, match="exactly one"):
            AxiFunction(rule, values=np.ones(8), coefficients=[0.0, 1.0])


class TestNorms:
    def test_constant(self):
        rule = make_rule(4, 16)
        u = AxiFunction(rule, values=np.full(16, 2.5))
        for q in (1.0, 2.0, 3.5, 7.0):
            assert lp_norm(u, q) == pytest.approx(2.5, rel=1e-14)

    def test_linear_perturbation_l2(self):
        for d in (1, 2, 3, 7):
            rule = make_rule(d, 32)
            eps = 0.37
            u = AxiFunction(rule, values=1.0 + eps * rule.nodes)
            assert lp_norm(u, 2.0) == pytest.approx(
                math.sqrt(1.0 + eps**2 / (d + 1.0)), abs=1e-12
            )

    def test_holder_ordering(self):
        rng = np.random.default_rng(123)
        rule = make_rule(3, 48)
        for _ in range(100):
            u = random_band_limited_exponential(rule, rng)
            assert lp_norm(u, 3.0) >= lp_norm(u, 2.0) - 1e-13
            assert lp_norm(u, 2.0) >= lp_norm(u, 1.5) - 1e-13

    def test_rejections(self):
        rule = make_rule(3, 8)
        u = AxiFunction(rule, values=np.ones(8))
        with pytest.raises(ValidationError):
            lp_norm(u, 0.5)


BATTERY_POINTS = ((3, 1.5), (3, 3.0), (2, 4.0), (3, 5.0))


def float_bits(result) -> list[str]:
    """Every float of a consumer's result (a float, a tuple or a Deficit), as float.hex."""
    if isinstance(result, Deficit):
        result = (result.lhs, result.rhs, result.deficit)
    return [float(x).hex() for x in np.atleast_1d(result)]


def power_mean_consumers(pp, u):
    """(name, evaluate) for every reader of the power means that accepts u at pp."""
    p = pp.p
    spec = make_phi_spec(pp, envelope=p > pp.two_sharp)
    consumers = [
        ("lp_norm_p", lambda f: lp_norm(f, p)),
        ("lp_norm_2", lambda f: lp_norm(f, 2.0)),
        ("entropy_fisher", lambda f: entropy_fisher(f, p)),
        ("improved_phi", lambda f: deficit(f, "improved_phi", pp, spec)),
        ("ckp_distance", lambda f: ckp_distance(f, p)),
        ("euclidean_norms", lambda f: euclidean_norms(push_forward(f), p)),
    ]
    for id_ in ("gns", "improved_gns", "afst", "antipodal"):
        try:
            deficit(u, id_, pp)
        except ValidationError:
            continue
        consumers.append((id_, lambda f, id_=id_: deficit(f, id_, pp)))
    return consumers


class TestPowerMeans:
    """The means of |u|^q that an AxiFunction keeps, and the readers that share them."""

    @settings(max_examples=40, deadline=None)
    @given(
        point=st.sampled_from(BATTERY_POINTS),
        even=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_reader_keeps_its_bits_whichever_filled_the_means(self, point, even, seed):
        # an even draw brings in afst and antipodal; a second function is read
        # first, so that means kept for another function would show
        pp = make_parameter_point(*point)
        rule, rng = make_rule(pp.d, 48), np.random.default_rng(seed)
        coeffs = rng.normal(0.0, 0.5, (2, 9))
        if even:
            coeffs[:, 1::2] = 0.0
        v, other = np.exp(rule.basis[:, :9] @ coeffs.T).T
        consumers = power_mean_consumers(pp, AxiFunction(rule, values=v))
        w = AxiFunction(rule, values=other)
        for _, evaluate in consumers:
            evaluate(w)
        fresh = {name: float_bits(evaluate(AxiFunction(rule, values=v))) for name, evaluate in consumers}
        for first, fill in consumers:
            u = AxiFunction(rule, values=v)
            fill(u)
            for name, evaluate in consumers:
                assert float_bits(evaluate(u)) == fresh[name], (first, name)
        # the means and the two readers that take them whole, against their former expressions
        mean_p, mean_2 = rule.integrate(np.abs(v) ** pp.p), rule.integrate(v**2)
        assert float_bits((u._power_mean(pp.p), u._power_mean(2.0))) == float_bits((mean_p, mean_2))
        assert fresh["lp_norm_p"] == float_bits(mean_p ** (1.0 / pp.p))
        assert fresh["lp_norm_2"] == float_bits(mean_2**0.5)
        d, surface = float(pp.d), sphere_surface(pp.d)
        assert fresh["euclidean_norms"] == float_bits((
            surface * 2.0 ** (-0.5 * (2.0 * d - pp.p * (d - 2.0))) * mean_p,
            0.25 * surface * mean_2,
            surface * (dirichlet(u) + 0.25 * d * (d - 2.0) * mean_2),
        ))

    def test_one_mean_per_exponent(self):
        rule = make_rule(3, 24)
        v = np.exp(0.3 * rule.nodes)
        u = AxiFunction(rule, values=v)
        assert lp_norm(u, 2) == lp_norm(u, 2.0)
        assert list(u._means) == [2.0]
        cubic = lp_norm(u, 3.0)
        assert list(u._means) == [2.0, 3.0]
        assert u._means[3.0] == rule.integrate(np.abs(v) ** 3.0) != u._means[2.0]
        assert cubic == rule.integrate(np.abs(v) ** 3.0) ** (1.0 / 3.0)

    @settings(max_examples=30, deadline=None)
    @given(
        point=st.sampled_from(BATTERY_POINTS),
        seeded=st.sampled_from(["values", "coefficients"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_energy_keeps_its_bits_whichever_reader_filled_it(self, point, seeded, seed):
        # a second function is read first, so that an energy kept for another function would show
        pp = make_parameter_point(*point)
        rule, rng = make_rule(pp.d, 48), np.random.default_rng(seed)
        if seeded == "values":
            make = lambda c: AxiFunction(rule, values=np.exp(rule.basis[:, :9] @ c))
        else:
            make = lambda c: AxiFunction(rule, coefficients=c)
        coeffs, other = rng.normal(0.0, 0.5, (2, 9))
        readers = [
            ("dirichlet", dirichlet),
            ("entropy_fisher", lambda f: entropy_fisher(f, pp.p)[1]),
            ("euclidean_norms", lambda f: euclidean_norms(push_forward(f), pp.p).dirichlet),
        ]
        w = make(other)
        for _, read in readers:
            read(w)
        fresh = {name: float(read(make(coeffs))).hex() for name, read in readers}
        for first, fill in readers:
            u = make(coeffs)
            fill(u)
            for name, read in readers:
                assert float(read(u)).hex() == fresh[name], (first, name)
        # the energy against its former expression, recomputed on every call
        c = u.coefficients
        assert fresh["dirichlet"] == fresh["entropy_fisher"] == float(np.dot(rule.eigenvalues, c * c)).hex()


class TestDirichlet:
    def test_constant_is_zero(self):
        rule = make_rule(3, 16)
        u = AxiFunction(rule, values=np.full(16, 3.0))
        assert dirichlet(u) < 1e-24

    def test_coordinate_function(self):
        for d in (1, 2, 3, 5):
            rule = make_rule(d, 24)
            u = AxiFunction(rule, values=rule.nodes.copy())
            assert dirichlet(u) == pytest.approx(d / (d + 1.0), rel=1e-13)

    def test_integration_by_parts(self):
        rng = np.random.default_rng(7)
        rule = make_rule(3, 32)
        for _ in range(20):
            coeffs = rng.normal(size=16) / (1.0 + rule.eigenvalues[:16])
            u = AxiFunction(rule, coefficients=coeffs)
            lu_vals = rule.basis[:, :16] @ (-rule.eigenvalues[:16] * coeffs)
            by_parts = -rule.integrate(u.values * lu_vals)
            assert by_parts == pytest.approx(dirichlet(u), abs=1e-10)

    def test_value_space_consistency(self):
        # du/dz from d/dz P_k^(a,a) = (k + 2a + 1)/2 P_(k-1)^(a+1,a+1), each
        # scaled by the norm of P_k^(a,a) as the orthonormal basis is
        rng = np.random.default_rng(11)
        rule = make_rule(4, 40)
        a = 0.5 * rule.d - 1.0
        z = rule.nodes
        raw = np.stack([eval_jacobi(k, a, a, z) for k in range(rule.n)], axis=1)
        norms = np.sqrt(rule.weights @ raw**2)
        dbasis = np.zeros((rule.n, rule.n))
        for k in range(1, rule.n):
            dk = 0.5 * (k + 2.0 * a + 1.0) * eval_jacobi(k - 1, a + 1.0, a + 1.0, z)
            dbasis[:, k] = dk / norms[k]
        for _ in range(20):
            coeffs = rng.normal(size=13)
            u = AxiFunction(rule, coefficients=coeffs)
            du = dbasis @ u.coefficients
            value_form = rule.integrate((1.0 - rule.nodes**2) * du**2)
            assert value_form == pytest.approx(dirichlet(u), abs=1e-9)


class TestEntropyFisher:
    def test_constant(self):
        rule = make_rule(3, 16)
        u = AxiFunction(rule, values=np.full(16, 2.0))
        for p in (1.5, 3.0, 2.0):
            e, i = entropy_fisher(u, p)
            assert abs(e) < 1e-13
            assert abs(i) < 1e-24

    def test_near_constant_ratio(self):
        rule = make_rule(3, 32)
        u = AxiFunction(rule, values=1.0 + 1e-3 * rule.nodes)
        e, i = entropy_fisher(u, 3.0)
        assert abs(i / (3.0 * e) - 1.0) < 1e-2

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(5)
        rule = make_rule(3, 48)
        u = random_band_limited_exponential(rule, rng)
        for p in (1.5, 3.0):
            e1, i1 = entropy_fisher(u, p)
            e3, i3 = entropy_fisher(AxiFunction(rule, values=3.0 * u.values), p)
            assert e3 == pytest.approx(9.0 * e1, rel=1e-12)
            assert i3 == pytest.approx(9.0 * i1, rel=1e-12)

    def test_entropy_nonnegative(self):
        rng = np.random.default_rng(17)
        rule = make_rule(3, 48)
        for _ in range(50):
            u = random_band_limited_exponential(rule, rng)
            for p in (1.0, 1.5, 2.0, 3.0, 5.0):
                e, _ = entropy_fisher(u, p)
                assert e >= -1e-13

    def test_zero_function_log_case_rejected(self):
        rule = make_rule(3, 16)
        u = AxiFunction(rule, values=np.zeros(16))
        with pytest.raises(ValidationError):
            entropy_fisher(u, 2.0)


class TestDeficits:
    def test_constant_equality_cases(self):
        rule = make_rule(3, 24)
        u = AxiFunction(rule, values=np.ones(24))
        for id_, pp in [
            ("gns", make_parameter_point(3, 3.0)),
            ("gns", make_parameter_point(3, 1.5)),
            ("improved_gns", make_parameter_point(3, 3.0)),
            ("improved_gns", make_parameter_point(3, 1.5)),
            ("log_sobolev", None),
        ]:
            res = deficit(u, id_, pp=pp)
            assert abs(res.deficit) < 1e-12
            assert res.inequality_id == id_

    def test_log_branch_constant_equality(self):
        rule = make_rule(1, 24)
        u = AxiFunction(rule, values=np.ones(24))
        res = deficit(u, "improved_gns", pp=make_parameter_point(1, 1.75))
        assert abs(res.deficit) < 1e-12

    def test_random_battery(self):
        rng = np.random.default_rng(2024)
        cases = []
        for d, p in [(3, 1.5), (3, 3.0), (2, 4.0)]:
            cases.append(("gns", d, p, {}))
            cases.append(("improved_gns", d, p, {}))
        cases.append(("gns", 3, 5.0, {}))
        cases.append(("improved_gns", 1, 1.75, {}))
        cases.append(("improved_gns", 3, 2.0, {}))
        cases.append(("log_sobolev", 3, 2.0, {}))
        cases.append(("log_sobolev", 2, 2.0, {}))
        for id_, d, p, kw in cases:
            rule = make_rule(d, 48)
            pp = make_parameter_point(d, p)
            for _ in range(40):
                u = random_band_limited_exponential(rule, rng)
                res = deficit(u, id_, pp=pp, **kw)
                assert res.deficit >= -DEFICIT_TOL * (1.0 + abs(res.lhs)), (
                    id_,
                    d,
                    p,
                    res.deficit,
                )

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 6),
        frac=st.floats(0.0, 1.0),
        degree=st.integers(1, 8),
        scale=st.sampled_from([0.1, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gns_deficits_are_nonnegative(self, d, frac, degree, scale, seed):
        # p in [1, 2*] ([1, 8] for d <= 2), away from p = 2, where the entropy
        # (|u|_p^2 - |u|_2^2)/(p - 2) cancels to about 1e-4; at degree 1 and
        # small scale u is close to an optimizer, with lhs/rhs near 1 + 1e-5
        top = 8.0 if d <= 2 else 2.0 * d / (d - 2.0)
        p = min(top, 1.0 + frac * (top - 1.0))
        assume(abs(p - 2.0) >= 0.05)
        pp = make_parameter_point(d, p)
        rule, rng = make_rule(d, 48), np.random.default_rng(seed)
        u = random_band_limited_exponential(rule, rng, degree=degree, scale=scale)
        for id_ in ["gns", "improved_gns"] if p <= pp.two_sharp else ["gns"]:
            res = deficit(u, id_, pp=pp)
            assert res.deficit >= -DEFICIT_TOL * (1.0 + abs(res.lhs)), (id_, res.deficit)

    def test_improved_dominates_plain(self):
        rng = np.random.default_rng(77)
        for d, p in [(3, 3.0), (3, 1.5), (2, 4.0)]:
            rule = make_rule(d, 48)
            pp = make_parameter_point(d, p)
            for _ in range(25):
                u = random_band_limited_exponential(rule, rng)
                plain = deficit(u, "gns", pp=pp)
                improved = deficit(u, "improved_gns", pp=pp)
                assert improved.rhs >= plain.rhs - 1e-12 * (1.0 + abs(plain.rhs))

    def test_envelope_phi_battery(self):
        rng = np.random.default_rng(31)
        pp = make_parameter_point(3, 5.0)
        spec = make_phi_spec(pp, envelope=True)
        rule = make_rule(3, 48)
        for _ in range(40):
            u = random_band_limited_exponential(rule, rng)
            res = deficit(u, "improved_phi", phi_spec=spec)
            assert res.deficit >= -DEFICIT_TOL * (1.0 + abs(res.lhs))

    def test_single_flow_phi_battery(self):
        rng = np.random.default_rng(32)
        pp = make_parameter_point(3, 5.0)
        fs = make_flow_setting(pp, 1.2)
        spec = make_phi_spec(pp, fs=fs)
        rule = make_rule(3, 48)
        for _ in range(40):
            u = random_band_limited_exponential(rule, rng)
            res = deficit(u, "improved_phi", phi_spec=spec)
            assert res.deficit >= -DEFICIT_TOL * (1.0 + abs(res.lhs))

    def test_vanishing_moment_battery(self):
        rng = np.random.default_rng(404)
        for d, p in [(3, 3.0), (2, 4.0)]:
            rule = make_rule(d, 48)
            pp = make_parameter_point(d, p)
            for _ in range(40):
                u = random_even_exponential(rule, rng)
                res = deficit(u, "afst", pp=pp)
                assert res.deficit >= -DEFICIT_TOL * (1.0 + abs(res.lhs))
                assert res.rhs >= deficit(u, "gns", pp=pp).rhs - 1e-12

    def test_vanishing_moment_precondition(self):
        rule = make_rule(3, 48)
        pp = make_parameter_point(3, 3.0)
        u = AxiFunction(rule, values=np.exp(rule.nodes))
        with pytest.raises(ValidationError):
            deficit(u, "afst", pp=pp)

    def test_antipodal_battery(self):
        rng = np.random.default_rng(505)
        for d, p in [(3, 3.0), (3, 1.5), (3, 2.0), (4, 3.0)]:
            rule = make_rule(d, 48)
            pp = make_parameter_point(d, p)
            for _ in range(40):
                u = random_even_exponential(rule, rng)
                res = deficit(u, "antipodal", pp=pp)
                assert res.deficit >= -DEFICIT_TOL * (1.0 + abs(res.lhs))

    @pytest.mark.parametrize("node", [0, 11, 17])
    def test_evenness_decisions(self, node):
        # exactly mirrored values take the fast path; one node off by half the
        # tolerance passes through the tolerance test, and off by twice it raises
        rule = make_rule(3, 48)
        pp = make_parameter_point(3, 3.0)
        vals = np.exp(-0.3 * rule.nodes**2 + 0.1 * rule.nodes**4)
        assert np.array_equal(vals, vals[::-1])
        deficit(AxiFunction(rule, values=vals), "antipodal", pp)
        scale = float(np.max(np.abs(vals)))
        assert vals[node] < scale  # the perturbed node does not set the scale
        for factor, passes in ((0.5, True), (2.0, False)):
            off = vals.copy()
            off[node] += factor * _SYMMETRY_TOL * scale
            assert not np.array_equal(off, off[::-1])
            u = AxiFunction(rule, values=off)
            if passes:
                deficit(u, "antipodal", pp)
            else:
                with pytest.raises(ValidationError, match="evenness precondition failed"):
                    deficit(u, "antipodal", pp)

    def test_antipodal_evenness_precondition(self):
        rule = make_rule(3, 48)
        pp = make_parameter_point(3, 3.0)
        u = AxiFunction(rule, values=np.exp(rule.nodes))
        with pytest.raises(ValidationError):
            deficit(u, "antipodal", pp=pp)

    def test_sharpness_ratio(self):
        rule = make_rule(3, 32)
        pp = make_parameter_point(3, 3.0)

        def forms(eps):
            u = AxiFunction(rule, values=1.0 + eps * rule.nodes)
            res = deficit(u, "gns", pp=pp)
            norm_form = math.sqrt(res.lhs) - math.sqrt(max(res.rhs, 0.0))
            return norm_form, res.deficit

        for eps in (1e-2, 5e-3):
            n1, d1 = forms(eps)
            n2, d2 = forms(2.0 * eps)
            assert abs((n1 / n2) / 0.125 - 1.0) < 0.2
            assert abs((d1 / d2) / 0.0625 - 1.0) < 0.2

    def test_rejections(self):
        rule = make_rule(3, 16)
        u = AxiFunction(rule, values=np.ones(16))
        pp33 = make_parameter_point(3, 3.0)
        with pytest.raises(ValidationError):
            deficit(u, "no_such_inequality", pp=pp33)
        with pytest.raises(ValidationError):
            deficit(u, "gns", pp=make_parameter_point(3, 2.0))
        with pytest.raises(ValidationError):
            deficit(u, "gns", pp=make_parameter_point(4, 3.0))
        with pytest.raises(ValidationError):
            deficit(u, "improved_gns", pp=make_parameter_point(3, 5.0))
        with pytest.raises(ValidationError):
            deficit(u, "improved_phi", pp=pp33)
        with pytest.raises(ValidationError):
            deficit(u, "afst", pp=make_parameter_point(3, 5.0))
        with pytest.raises(ValidationError):
            deficit(AxiFunction(make_rule(2, 16), values=np.ones(16)), "antipodal",
                    pp=make_parameter_point(2, 3.0))

    @pytest.mark.parametrize("inequality_id", [
        "gns", "log_sobolev", "improved_gns", "improved_phi", "afst", "antipodal",
    ])
    def test_zero_function_rejected(self, inequality_id):
        zero = AxiFunction(make_rule(3, 24), values=np.zeros(24))
        pp = make_parameter_point(3, 3.0)
        if inequality_id == "log_sobolev":
            pp = make_parameter_point(3, 2.0)
        spec = make_phi_spec(pp, make_flow_setting(pp, 1.2)) if inequality_id == "improved_phi" else None
        with pytest.raises(ValidationError, match="needs a nonzero function"):
            deficit(zero, inequality_id, pp, phi_spec=spec)


class TestDistanceBound:
    def test_constant_gives_zero(self):
        rule = make_rule(3, 16)
        u = AxiFunction(rule, values=np.full(16, 2.0))
        for p in (1.5, 3.0):
            lower, gap = ckp_distance(u, p)
            assert abs(lower) < 1e-12
            assert abs(gap) < 1e-12

    def test_random_margin(self):
        rng = np.random.default_rng(99)
        for d, p in [(3, 1.5), (3, 3.0), (2, 4.0), (3, 5.0)]:
            rule = make_rule(d, 48)
            for _ in range(40):
                u = random_band_limited_exponential(rule, rng)
                lower, gap = ckp_distance(u, p)
                assert lower >= 0.0
                assert gap >= lower - 1e-9 * (1.0 + abs(gap))

    def test_p_one_is_classical(self):
        rng = np.random.default_rng(3)
        rule = make_rule(3, 48)
        u = random_band_limited_exponential(rule, rng)
        lower, gap = ckp_distance(u, 1.0)
        ubar = lp_norm(u, 1.0)
        manual = rule.integrate((np.abs(u.values) - ubar) ** 2)
        assert lower == pytest.approx(manual, rel=1e-12)

    def test_p_two_rejected(self):
        rule = make_rule(3, 16)
        u = AxiFunction(rule, values=np.ones(16))
        with pytest.raises(ValidationError):
            ckp_distance(u, 2.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_zero_function_rejected(self, p):
        zero = AxiFunction(make_rule(3, 24), values=np.zeros(24))
        with pytest.raises(ValidationError, match="needs a nonzero function"):
            ckp_distance(zero, p)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_overflowing_norm_rejected(self, p):
        # u^2 overflows: the bound and the gap were nan.  At p = 1.5, |u|_p is
        # the float 1e200 and squaring it raises Python's OverflowError; at
        # p = 3, |u|_2 is inf and the finiteness check rejects it
        huge = AxiFunction(make_rule(3, 16), values=np.full(16, 1e200))
        if p < 2.0:
            error = pytest.raises(OverflowError)
        else:
            error = pytest.raises(ValidationError, match="norm of u is not finite")
        with error, np.errstate(over="ignore"):
            ckp_distance(huge, p)


def ckp_quotient(t, q):
    """(t^q - 1 - q(t-1)) / nu_q(t - 1), with nu_q(s) = s^2 for s <= 1 and s^q above.

    Where |t - 1| <= 1/2 the quotient is summed as the binomial series
    sum_{k>=2} C(q, k) (t-1)^(k-2), in which nothing cancels; elsewhere the
    numerator is at least a tenth of its largest term.
    """
    h = t - 1.0
    with np.errstate(invalid="ignore"):  # 0/0 at t = 1, replaced by the series
        out = (t**q - 1.0 - q * h) / np.where(h > 1.0, np.abs(h) ** q, h * h)
    near = np.abs(h) <= 0.5
    hn = h[near]
    series = np.zeros_like(hn)
    power = np.ones_like(hn)
    binom = 0.5 * q * (q - 1.0)
    for k in range(2, 80):
        series += binom * power
        power *= hn
        binom *= (q - k) / (k + 1.0)
    out[near] = series
    return out


class TestKernelConstant:
    def test_q_two_is_one(self):
        assert c_q(2.0) == 1.0

    def test_large_q_saturates_at_one(self):
        for q in (2.5, 3.0, 6.0):
            assert c_q(q) == 1.0

    def test_q_three_halves(self):
        val = c_q(1.5)
        assert 0.0 < val < 1.5 * 0.5 / 2.0
        assert val == pytest.approx(2.0 * math.sqrt(2.0) - 2.5, abs=1e-10)

    def test_below_limit_candidates(self):
        for q in (1.2, 1.5, 1.8):
            val = c_q(q)
            assert val <= 0.5 * q * (q - 1.0) + 1e-12
            assert val <= q - 1.0 + 1e-12

    def test_rejections(self):
        with pytest.raises(ValidationError):
            c_q(1.0)
        with pytest.raises(ValidationError):
            c_q(0.5)

    @pytest.mark.parametrize("q", [1.5, 2.0, 2.5])
    def test_distance_kernel_matches_former_expression(self, q):
        edges = np.array([-2.0, -1.0, -0.5, 0.0, 1.0, np.nextafter(1.0, 2.0), 2.0, 1e3])
        v = np.exp(np.random.default_rng(17).normal(0.0, 0.8, 48))
        for s in (edges, v * v / np.mean(v * v) - 1.0):
            former = np.where(np.abs(s) <= 1.0, s * s, 0.0)
            big = s > 1.0
            if np.any(big):
                former = np.where(big, np.where(big, s, 1.0) ** q, former)
            assert _nu(s, q).tobytes() == former.tobytes()

    def test_repeated_call_is_a_cache_hit(self):
        first = c_q(1.7)
        hits = c_q.cache_info().hits
        again = c_q(1.7)
        assert c_q.cache_info().hits == hits + 1
        assert again is first
        # a failed call caches nothing, so invalid q raises every time
        for _ in range(2):
            with pytest.raises(ValidationError):
                c_q(1.0)

    def test_matches_minimize_scalar_bit_for_bit(self):
        # The closed form keeps every bit of the scan and Brent refinement it
        # replaced, except where that search was off by roundoff: near q = 2,
        # where it stopped 1.2e-13 below the infimum 1, and near q = 1, where
        # 2^q - 1 - q cancels to a few ulps of 2.
        qs = np.concatenate([
            np.linspace(1.0, 12.0, 6001)[1:],
            [1.0 + 1e-9, 1.0 + 1e-8, 1.0 + 1e-6, 1.5, 2.0 - 1e-6, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 2.0 + 1e-6],
        ])
        moved = []
        for q in map(float, qs):
            expected = reference_c_q(q)
            if c_q.__wrapped__(q) == expected:
                continue
            moved.append(q)
            assert abs(q - 2.0) < 1e-6 or q <= 1.0 + 1e-8
            assert c_q.__wrapped__(q) == pytest.approx(expected, rel=1e-6, abs=1e-12)
        assert len(moved) <= 4

    @pytest.mark.parametrize("q", [1.2, 1.5, 1.8, 2.0, 2.5, 4.0])
    def test_quotient_never_below_constant(self, q):
        t = np.concatenate([np.geomspace(1e-12, 1e6, 100_000), [2.0]])
        quotient = ckp_quotient(t, q)
        assert quotient.min() >= c_q(q) - 1e-14
        if q <= 2.0:
            assert quotient[-1] == pytest.approx(c_q(q), abs=1e-15)
