"""Improvement functions: closed form, log branch, flow family, envelope."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereineq import (
    InvariantViolation,
    ValidationError,
    make_flow_setting,
    make_parameter_point,
)
from sphereineq import phi_functions
from sphereineq.phi_functions import (
    envelope_beta_samples,
    make_phi_beta_quadrature,
    make_phi_spec,
    phi,
    phi_beta,
    phi_envelope,
)


def rk4(f, s_end, n=4000):
    """Fixed-step RK4 for y' = f(s, y), y(0) = 0; independent of the module."""
    h = s_end / n
    s, y = 0.0, 0.0
    for _ in range(n):
        k1 = f(s, y)
        k2 = f(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(s + h, y + h * k3)
        y += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        s += h
    return y


def rk4_phi(gamma, p, s_end, n=4000):
    return rk4(lambda s, y: 1.0 + gamma * y / (1.0 - (p - 2.0) * s), s_end, n)


def rk4_phi_beta(fs, s_end, n=4000):
    p, beta, g = fs.pp.p, fs.beta, fs.gamma_beta
    a = p * (beta - 1.0) / (2.0 * beta * (p - 2.0))
    rate = lambda s, y: 1.0 + (g / beta**2) * (1.0 - (p - 2.0) * s) ** (a - 1.0) * y
    return rk4(rate, s_end, n)


def random_point(rng, p_lo=1.05, p_hi=None, avoid_log_branch=True):
    while True:
        d = int(rng.integers(1, 9))
        hi = p_hi if p_hi is not None else (2.0 * d / (d - 2.0) if d >= 3 else 8.0)
        p = float(rng.uniform(p_lo, hi - 1e-3))
        if abs(p - 2.0) < 1e-3:
            continue
        pp = make_parameter_point(d, p)
        if avoid_log_branch and abs(pp.gamma - (2.0 - p)) < 1e-3:
            continue
        return pp


def psi(pp, s):
    """phi(s) - s, the quantity bounding the deficit from below."""
    return phi(pp, s) - s


class TestClosedForm:
    def test_zero(self):
        assert phi(make_parameter_point(3, 3.0), 0.0) == 0.0

    def test_golden_value(self):
        # equals (2^0.56 - 0.5)/1.56; frozen after checking a 40000-step RK4
        # integration of phi' = 1 + gamma phi/(1-(p-2)s) to 5.7e-14
        v = phi(make_parameter_point(3, 3.0), 0.5)
        assert v == pytest.approx(0.6245315495455777, abs=1e-14)
        assert v == pytest.approx((2.0**0.56 - 0.5) / 1.56, abs=1e-15)

    def test_rk4_agreement(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            pp = random_point(rng)
            s_end = 0.5 / (pp.p - 2.0) if pp.p > 2.0 else 2.0
            v = phi(pp, s_end)
            assert v == pytest.approx(rk4_phi(pp.gamma, pp.p, s_end), abs=1e-9 * (1 + v))

    def test_divergence_at_pole(self):
        assert phi(make_parameter_point(3, 3.0), 1.0 - 1e-6) > 1e3

    def test_domain_errors(self):
        pp = make_parameter_point(3, 3.0)
        with pytest.raises(ValidationError):
            phi(pp, 1.0)
        with pytest.raises(ValidationError):
            phi(pp, -0.1)
        # p < 2 has no upper restriction
        assert phi(make_parameter_point(3, 1.5), 50.0) > 50.0

    def test_convexity_and_lower_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            pp = random_point(rng)
            sup = 1.0 / (pp.p - 2.0) if pp.p > 2.0 else 3.0
            grid = np.linspace(0.0, 0.9 * sup, 101)
            vals = np.array([phi(pp, float(s)) for s in grid])
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert np.all(second >= -1e-9)
            assert np.all(vals >= grid - 1e-12)
            strict = grid >= 1e-6
            assert np.all(vals[strict] > grid[strict])

    def test_no_cancellation_near_zero(self):
        # phi(s) = s + gamma s^2/2 + O(s^3); the evaluation must keep full
        # relative accuracy where the naive difference of powers would cancel
        pp = make_parameter_point(3, 3.0)
        for s in (1e-12, 1e-9, 1e-7):
            v = phi(pp, s)
            taylor = s + 0.5 * pp.gamma * s * s
            assert v == pytest.approx(taylor, rel=1e-10)


class TestLogCase:
    def test_golden_value(self):
        # (1/(1/4)) (5/4) log(5/4) at the d = 1 logarithmic exponent 7/4
        v = phi(make_parameter_point(1, 1.75), 1.0)
        assert v == pytest.approx(5.0 * math.log(1.25), abs=1e-15)
        assert v == pytest.approx(1.1157177565710488, abs=1e-14)

    def test_rk4_agreement(self):
        v = phi(make_parameter_point(1, 1.75), 1.0)
        assert v == pytest.approx(rk4_phi(0.25, 1.75, 1.0), abs=1e-10)

    def test_continuity_across_branch(self):
        v_log = phi(make_parameter_point(1, 1.75), 1.0)
        for dp in (1e-6, -1e-6):
            v_closed = phi(make_parameter_point(1, 1.75 + dp), 1.0)
            assert v_closed == pytest.approx(v_log, abs=1e-4)

    def test_zero(self):
        assert phi(make_parameter_point(1, 1.75), 0.0) == 0.0


class TestDispatcher:
    def test_exponential_branch_at_p_two(self):
        pp = make_parameter_point(3, 2.0)
        g = pp.gamma
        assert g == pytest.approx(11.0 / 25.0, abs=1e-15)
        assert phi(pp, 0.7) == pytest.approx(math.expm1(g * 0.7) / g, rel=1e-15)
        # same linear ODE with X = 1
        v = phi(pp, 0.7)
        oracle = rk4_phi(g, 2.0, 0.7)
        assert v == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("d, p, s", [(3, 1.9, 1e100), (1, 1.75, 1e308), (3, 2.0, 2000.0)])
    def test_overflow_is_inf_on_every_branch(self, d, p, s):
        # closed form, log branch and p = 2 exponential limit
        assert phi(make_parameter_point(d, p), s) == math.inf

    def test_phi_spec_variants(self):
        # each spec's value is the function it names, bit for bit: the closed
        # form, the log branch, the p = 2 limit, a flow member and the envelope
        for d, p in ((3, 3.0), (1, 1.75), (3, 2.0)):
            pp = make_parameter_point(d, p)
            assert make_phi_spec(pp).value(0.3) == phi(pp, 0.3)
        fs = make_flow_setting(make_parameter_point(3, 5.0), 1.2)
        assert make_phi_spec(fs.pp, fs=fs).value(0.3) == phi_beta(fs, 0.3)
        assert make_phi_spec(fs.pp, envelope=True).value(0.3) == phi_envelope(fs.pp, 0.3)
        with pytest.raises(ValidationError, match="not admissible"):
            make_phi_spec(fs.pp, fs=make_flow_setting(fs.pp, 1.0))

    def test_phi_spec_rejects_another_points_flow_setting(self):
        # a (3, 5) member would be compared against (3, 3) norms in deficit
        fs = make_flow_setting(make_parameter_point(3, 5.0), 1.2)
        with pytest.raises(ValidationError, match="is not"):
            make_phi_spec(make_parameter_point(3, 3.0), fs=fs)

    def test_phi_spec_normalization_invariants(self):
        # phi(0) = 0 and a one-sided difference quotient near 1 at 0
        for pp in (make_parameter_point(3, 3.0), make_parameter_point(1, 1.75),
                   make_parameter_point(3, 2.0), make_parameter_point(2, 4.0)):
            spec = make_phi_spec(pp)
            assert spec.value(0.0) == 0.0
            h = 1e-7
            assert spec.value(h) / h == pytest.approx(1.0, abs=1e-5)


class TestPsi:
    def test_value(self):
        v = psi(make_parameter_point(3, 3.0), 0.5)
        assert v == pytest.approx(0.6245315495455777 - 0.5, abs=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            pp = random_point(rng, avoid_log_branch=False)
            sup = 1.0 / (pp.p - 2.0) if pp.p > 2.0 else 3.0
            for s in rng.uniform(0.0, 0.95 * sup, size=5):
                assert psi(pp, float(s)) >= 0.0

    def test_second_derivative_formula(self):
        # psi'' = gamma (1-(p-2)s)^(gamma/(2-p) - 2) for the closed form
        pp = make_parameter_point(3, 3.0)
        h = 1e-4
        for s in np.linspace(0.1, 0.9, 9):
            fd = (psi(pp, s + h) - 2.0 * psi(pp, s) + psi(pp, s - h)) / h**2
            exact = pp.gamma * (1.0 - s) ** (pp.gamma / (2.0 - pp.p) - 2.0)
            assert fd == pytest.approx(exact, rel=1e-5)
            assert fd >= exact * (1.0 - 1e-4)


class TestPhiBeta:
    def setup_method(self):
        self.fs = make_flow_setting(make_parameter_point(3, 5.0), 1.2)

    def test_zero(self):
        assert phi_beta(self.fs, 0.0) == 0.0

    def test_golden_value_and_oracle(self):
        # frozen from a 64-node quadrature; an independent 40000-step RK4 on
        # the defining linear ODE gives the same digits to 5e-16
        v = phi_beta(self.fs, 0.2)
        assert v == pytest.approx(0.20257642937315623, abs=1e-13)
        assert v > 0.2
        assert v == pytest.approx(rk4_phi_beta(self.fs, 0.2), abs=1e-10)

    def test_ode_residual(self):
        # |phi_beta' - 1 - (gamma(beta)/beta^2) X^(a-1) phi_beta| small,
        # derivative taken by central differences
        fs = self.fs
        a = fs.pp.p * (fs.beta - 1.0) / (2.0 * fs.beta * (fs.pp.p - 2.0))
        h = 1e-5
        for s in (0.05, 0.1, 0.2, 0.3):
            dphi = (phi_beta(fs, s + h) - phi_beta(fs, s - h)) / (2.0 * h)
            x = 1.0 - (fs.pp.p - 2.0) * s
            resid = dphi - 1.0 - (fs.gamma_beta / fs.beta**2) * x ** (a - 1.0) * phi_beta(fs, s)
            assert abs(resid) < 1e-6

    def test_node_refinement(self):
        vals = {n: phi_beta(self.fs, 0.3, n) for n in (8, 16, 32, 64)}
        d1 = abs(vals[16] - vals[8])
        d2 = abs(vals[32] - vals[16])
        d3 = abs(vals[64] - vals[32])
        assert d2 <= d1 + 1e-15
        assert d3 <= d2 + 1e-15

    def test_beta_one_redirects_to_closed_form(self):
        fs = make_flow_setting(make_parameter_point(3, 3.0), 1.0)
        assert phi_beta(fs, 0.4) == phi(fs.pp, 0.4)

    def test_rejects_inadmissible_and_p_below_two(self):
        with pytest.raises(ValidationError):
            phi_beta(make_flow_setting(make_parameter_point(3, 5.0), 1.0), 0.1)
        with pytest.raises(ValidationError):
            phi_beta(make_flow_setting(make_parameter_point(3, 1.5), 1.3), 0.1)

    def test_quadrature_matches_ode_oracle_randomized(self):
        from sphereineq import beta_roots

        rng = np.random.default_rng(41)
        done = 0
        while done < 10:
            pp = random_point(rng, p_lo=2.05)
            if pp.p <= 2.0:
                continue
            br = beta_roots(pp)
            beta = float(rng.uniform(-6.0, 6.0))
            if not br.contains(beta) or abs(beta - 1.0) < 1e-2 or abs(beta) < 1e-2:
                continue
            fs = make_flow_setting(pp, beta)
            s = float(rng.uniform(0.05, 0.6)) / (pp.p - 2.0)
            v = phi_beta(fs, s, node_count=96)
            o = rk4_phi_beta(fs, s, n=8000)
            assert v == pytest.approx(o, abs=1e-6 * (1.0 + abs(o))), (pp.d, pp.p, beta, s)
            done += 1

    def test_exponent_identity(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 20:
            pp = random_point(rng, p_lo=2.05)
            beta = float(rng.uniform(-6.0, 6.0))
            if abs(beta) < 1e-2 or abs(beta - 1.0) < 1e-2:
                continue
            fs = make_flow_setting(pp, beta)
            if not fs.admissible:
                continue
            q = make_phi_beta_quadrature(fs)
            assert q.exponent_a == pytest.approx(1.0 - fs.zeta - 1.0 / (2.0 * beta), abs=1e-12)
            done += 1


class TestEnvelope:
    def test_zero(self):
        assert phi_envelope(make_parameter_point(3, 3.0), 0.0) == 0.0

    def test_dominates_heat_flow_function(self):
        pp = make_parameter_point(3, 3.0)
        assert phi_envelope(pp, 0.5) >= 0.6245315495455777 - 1e-12

    def test_dominates_each_sampled_member(self):
        pp = make_parameter_point(3, 5.0)
        rng = np.random.default_rng(61)
        s_vals = rng.uniform(0.01, 0.3, size=20)
        env = phi_envelope(pp, s_vals)
        for beta in (-3.0, 1.2, 2.0, 10.0):
            fs = make_flow_setting(pp, beta)
            member = make_phi_beta_quadrature(fs).value(s_vals)
            assert np.all(env >= member - 1e-12)

    def test_sample_set(self):
        pp = make_parameter_point(3, 3.0)
        samples = envelope_beta_samples(pp)
        assert samples == sorted(samples)
        assert 1.0 in samples
        from sphereineq import gamma_of_beta

        for b in samples:
            assert gamma_of_beta(pp, b) >= -1e-9

    def test_empty_after_cap_raises(self, monkeypatch):
        monkeypatch.setattr(phi_functions, "_DEFAULT_BETA_CAP", 0.5)
        with pytest.raises(InvariantViolation):
            envelope_beta_samples(make_parameter_point(3, 5.0))

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValidationError):
            phi_envelope(make_parameter_point(3, 1.5), 0.1)
        with pytest.raises(ValidationError):
            phi_envelope(make_parameter_point(3, 6.0), 0.1)

    def test_scalar_array_consistency(self):
        pp = make_parameter_point(3, 5.0)
        arr = phi_envelope(pp, np.array([0.1, 0.2]))
        assert arr[0] == pytest.approx(phi_envelope(pp, 0.1), rel=1e-14)
        assert arr[1] == pytest.approx(phi_envelope(pp, 0.2), rel=1e-14)


def reference_quadrature_value(quad, s_arr):
    """PhiBetaQuadrature.value for one beta on a 1-D array, kept as the bit-level oracle."""
    p = quad.fs.pp.p
    x_s = 1.0 - (p - 2.0) * s_arr
    z = s_arr[:, None] * quad.nodes[None, :]
    x_z = 1.0 - (p - 2.0) * z
    log_ratio = np.log(x_z) - np.log(x_s)[:, None]
    xs_a = np.exp(quad.exponent_a * np.log(x_s))[:, None]
    exponent = quad.prefactor_c * xs_a * np.expm1(quad.exponent_a * log_ratio)
    kernel = np.exp(np.minimum(exponent, 709.0))
    return s_arr * (kernel @ quad.weights)


def reference_phi_envelope(pp, s):
    """phi_envelope as one quadrature per sampled beta, kept as the bit-level oracle."""
    scalar = np.isscalar(s) or (isinstance(s, np.ndarray) and np.ndim(s) == 0)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    best = np.full(s_arr.shape, -np.inf)
    for beta in envelope_beta_samples(pp):
        if beta == 1.0:
            vals = np.array([phi(pp, float(si)) for si in s_arr])
        else:
            fs = make_flow_setting(pp, beta)
            if not fs.admissible:
                continue
            vals = reference_quadrature_value(make_phi_beta_quadrature(fs), s_arr)
        np.maximum(best, vals, out=best)
    return float(best[0]) if scalar else best


# (d, p, whether beta = 1 is admissible there)
ENVELOPE_POINTS = [(2, 4.0, True), (2, 10.0, False), (3, 3.0, True), (3, 5.0, False),
                   (4, 3.5, True), (5, 3.2, False)]


def envelope_s_values(p, rng):
    sup = 1.0 / (p - 2.0)
    edge = [0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.5 * sup, (1.0 - 1e-9) * sup,
            np.nextafter(sup, 0.0)]
    return np.concatenate([edge, rng.uniform(0.0, sup, 12)])


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestEnvelopeBits:
    @pytest.mark.parametrize("d, p, has_beta_one", ENVELOPE_POINTS)
    def test_scalar_matches_reference(self, d, p, has_beta_one):
        pp = make_parameter_point(d, p)
        assert (1.0 in envelope_beta_samples(pp)) == has_beta_one
        for s in envelope_s_values(p, np.random.default_rng(d * 100 + int(p * 10))):
            assert phi_envelope(pp, float(s)) == reference_phi_envelope(pp, float(s))
            assert phi_envelope(pp, np.float64(s)) == reference_phi_envelope(pp, float(s))

    @pytest.mark.parametrize("d, p, has_beta_one", ENVELOPE_POINTS)
    def test_array_matches_reference(self, d, p, has_beta_one):
        pp = make_parameter_point(d, p)
        s = envelope_s_values(p, np.random.default_rng(d * 100 + int(p * 10)))
        np.testing.assert_array_equal(phi_envelope(pp, s), reference_phi_envelope(pp, s))
        assert phi_envelope(pp, np.array([])).shape == (0,)

    @pytest.mark.parametrize("d, p, beta", [(3, 5.0, -3.0), (3, 5.0, 10.0), (2, 4.0, 1.5),
                                             (3, 3.0, 0.9)])
    def test_single_member_matches_reference(self, d, p, beta):
        pp = make_parameter_point(d, p)
        quad = make_phi_beta_quadrature(make_flow_setting(pp, beta))
        s = envelope_s_values(p, np.random.default_rng(7))
        np.testing.assert_array_equal(quad.value(s), reference_quadrature_value(quad, s))
        for si in s:
            assert quad.value(float(si)) == reference_quadrature_value(quad, np.array([si]))[0]

    @pytest.mark.parametrize("n", [256, 2100])
    def test_array_spanning_several_blocks(self, n):
        # 256 points split the beta axis into blocks; at 2100 points a single
        # beta is over the block budget
        pp = make_parameter_point(3, 5.0)
        s = np.linspace(0.0, (1.0 - 1e-9) / 3.0, n)
        n_beta = len(envelope_beta_samples(pp))
        assert n * 64 * n_beta > 2 * phi_functions._MEMBER_BLOCK_ELEMENTS
        np.testing.assert_array_equal(phi_envelope(pp, s), reference_phi_envelope(pp, s))

    @settings(max_examples=25, deadline=None)
    @given(
        point=st.sampled_from([(d, p) for d, p, _ in ENVELOPE_POINTS] + [(1, 4.0), (3, 2.05)]),
        frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_property_matches_reference(self, point, frac):
        d, p = point
        pp = make_parameter_point(d, p)
        s = frac / (p - 2.0)
        if s >= 1.0 / (p - 2.0):
            return
        assert phi_envelope(pp, s) == reference_phi_envelope(pp, s)
        np.testing.assert_array_equal(phi_envelope(pp, np.array([s, 0.5 * s])),
                                      reference_phi_envelope(pp, np.array([s, 0.5 * s])))

    @pytest.mark.parametrize("bad", [-1e-12, -1.0, math.nan, math.inf, 1.0 / 3.0, 1.0])
    def test_rejects_bad_entropy_arguments(self, bad):
        pp = make_parameter_point(3, 5.0)
        with pytest.raises(ValidationError):
            phi_envelope(pp, bad)
        with pytest.raises(ValidationError):
            phi_envelope(pp, np.array([0.1, bad]))

    def test_beta_table_is_built_once_per_point(self):
        pp = make_parameter_point(3, 4.2)
        phi_functions._beta_table.cache_clear()
        phi_envelope(pp, 0.1)
        phi_envelope(pp, np.array([0.2, 0.3]))
        info = phi_functions._beta_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_grid_memory_stays_bounded(self):
        # the bounds module's 256-point grid; one (beta, s, node) cube for all
        # beta at once would take 16 MB per temporary
        pp = make_parameter_point(3, 5.0)
        s = np.linspace(0.0, (1.0 - 1e-9) / 3.0, 256)
        phi_envelope(pp, 0.1)
        tracemalloc.start()
        try:
            phi_envelope(pp, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
