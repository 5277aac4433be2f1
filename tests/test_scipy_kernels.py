"""Bit parity of the ported scipy routines, with scipy itself as the oracle."""

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from sphereineq import _scipy_kernels
from sphereineq.sphere_calculus import make_rule, random_band_limited_exponential
from sphereineq.variational import principal_eigenvalue

NODE_COUNTS = [*range(2, 100), *range(128, 385, 4)]


def jacobi_parameters(d):
    """(alpha, beta) of the sphere rule and, for d >= 3, of the second-moment rule."""
    a = 0.5 * d - 1.0
    return [(a, a)] + ([(a - 1.0, a + 1.0)] if d >= 3 else [])


def same_rule(n, alpha, beta):
    x, w = _scipy_kernels.roots_jacobi(n, alpha, beta)
    x_ref, w_ref = scipy.special.roots_jacobi(n, alpha, beta)
    return x.tobytes() == x_ref.tobytes() and w.tobytes() == w_ref.tobytes()


class TestRootsJacobi:
    # d = 1 is Chebyshev, d = 2 Legendre, odd d >= 3 Gegenbauer, and every
    # (d/2 - 2, d/2) general Jacobi with scipy's Beta-function mass
    @pytest.mark.parametrize("d", range(1, 12))
    def test_bit_for_bit(self, d):
        mismatches = [
            (n, alpha, beta)
            for alpha, beta in jacobi_parameters(d)
            for n in NODE_COUNTS
            if not same_rule(n, alpha, beta)
        ]
        assert mismatches == []

    # d = 400: the Gegenbauer mass from scipy's series above alpha = 170;
    # d = 2500: the general Jacobi mass through betaln above alpha + beta = 1000
    @pytest.mark.parametrize("d", [400, 2500])
    @pytest.mark.parametrize("n", [2, 3, 24, 48, 97])
    def test_large_dimension_branches(self, d, n):
        for alpha, beta in jacobi_parameters(d):
            assert same_rule(n, alpha, beta)

    def test_rejects_what_scipy_rejects(self):
        for args in [(0, 0.5, 0.5), (2.5, 0.5, 0.5), (4, -1.0, 0.5), (4, 0.5, -1.5)]:
            with pytest.raises(ValueError):
                scipy.special.roots_jacobi(*args)
            with pytest.raises(ValueError):
                _scipy_kernels.roots_jacobi(*args)


def scipy_lowest(matrix):
    return scipy.linalg.eigh(matrix, eigvals_only=True, subset_by_index=(0, 0))[0]


class TestLowestEigenvalue:
    def test_random_symmetric_bit_for_bit(self):
        rng = np.random.default_rng(11)
        mismatches = []
        for i in range(400):
            n = int(rng.integers(1, 97))
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8, 16)
            a = a + a.T
            if _scipy_kernels.lowest_eigenvalue(a) != scipy_lowest(a):
                mismatches.append(i)
        assert mismatches == []

    def test_galerkin_matrix_as_built(self):
        # the lower triangle is read: a Galerkin matrix is symmetric only to
        # rounding, and the upper triangle must not be used
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 30))
        assert _scipy_kernels.lowest_eigenvalue(a) == scipy_lowest(a)
        assert _scipy_kernels.lowest_eigenvalue(a) == scipy_lowest(np.tril(a) + np.tril(a, -1).T)

    def test_battery_seed_902_plus_v(self):
        # klt_validate(3, 3.0, n_samples=50, sign_mode="plus_V", node_count=48,
        # seed=1669913579), the battery seed 902 op: at sample 37 V spans
        # 0.0041 to 8.9e16, where eigh's eigenvalue is off by whole units
        rule = make_rule(3, 48)
        rng = np.random.default_rng(1669913579)
        potentials = [random_band_limited_exponential(rule, rng, scale=0.5) for _ in range(50)]
        assert potentials[37].values.max() > 1e16 and potentials[37].values.min() < 1e-2
        for v in potentials:
            gram = rule.basis.T @ ((rule.weights * v.values)[:, None] * rule.basis)
            matrix = np.diag(rule.eigenvalues) + gram
            assert principal_eigenvalue(v, "plus_V") == scipy_lowest(matrix)

    def test_rejects_non_finite_and_non_square(self):
        with pytest.raises(ValueError):
            _scipy_kernels.lowest_eigenvalue(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(ValueError):
            _scipy_kernels.lowest_eigenvalue(np.ones((2, 3)))
