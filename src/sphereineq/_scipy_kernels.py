"""scipy's compiled kernels, loaded from their files without scipy's packages.

The package uses three of scipy's extension modules: the special-function
ufuncs `_ufuncs` of scipy's special subpackage, the LAPACK wrappers
`_flapack` of its linalg subpackage and the L-BFGS-B routine `_lbfgsb` of
its optimize subpackage. Importing any of those subpackages to reach them
costs hundreds of milliseconds (mostly scipy's array-API layer, which
the package never calls); loading the extension files takes a few.

On top of the loader sit step-for-step ports of the two pieces of scipy
1.17.1's Python code that the package runs: roots_jacobi, for the branches
that Gauss-Jacobi rules with parameters (d/2 - 1, d/2 - 1) and
(d/2 - 2, d/2) reach, and eigh(eigvals_only=True, subset_by_index=(0, 0)).
They call the same compiled routines with the same arguments in the same
order, so every node, weight and eigenvalue is bit-identical to scipy's.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

# "package.name" -> extension module loaded by _extension
_MODULES: dict = {}


def _extension(package: str, name: str) -> types.ModuleType:
    """The extension module scipy/<package>/<name>, loaded once from its file.

    A module scipy itself has already imported is reused.  Otherwise the file
    is loaded under its own name while a bare scipy.<package> module (only a
    __path__) stands in for the package, because _ufuncs imports its sibling
    extensions relative to it.  The stand-in and the module are then taken
    out of sys.modules again; the module's siblings stay there.  So a later
    `import scipy.<package>` loads the module itself and binds it on the
    package, and the import system hands it the same compiled module, from
    its cache of single-phase extensions or, for Cython, from the module's
    own.
    """
    key = f"{package}.{name}"
    module = _MODULES.get(key)
    if module is not None:
        return module
    full_name = f"scipy.{key}"
    module = sys.modules.get(full_name)
    if module is None:
        directory = Path(importlib.util.find_spec("scipy").submodule_search_locations[0]) / package
        paths = [directory / f"{name}{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((path for path in paths if path.is_file()), None)
        if path is None:
            raise ImportError(f"no {full_name} extension module in {directory}")
        parent = f"scipy.{package}"
        stand_in = None
        if parent not in sys.modules:
            stand_in = types.ModuleType(parent)
            stand_in.__path__ = [str(directory)]
            sys.modules[parent] = stand_in
        try:
            spec = importlib.util.spec_from_file_location(full_name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[full_name] = module
            spec.loader.exec_module(module)
        finally:
            sys.modules.pop(full_name, None)
            if stand_in is not None:
                del sys.modules[parent]
    _MODULES[key] = module
    return module


def ufuncs() -> types.ModuleType:
    """scipy.special._ufuncs: eval_jacobi, betaln and the other ufuncs."""
    return _extension("special", "_ufuncs")


def setulb():
    """scipy's compiled L-BFGS-B routine setulb, from its optimize subpackage's _lbfgsb."""
    return _extension("optimize", "_lbfgsb").setulb


def _check_info(info: int, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info}")


# ---------------------------------------------------------------------------
# roots_jacobi


def _gen_roots_and_weights(n, mu0, an_func, bn_func, f, df, symmetrize):
    """scipy.special._orthogonal._gen_roots_and_weights with mu=False.

    Eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969)
    by LAPACK dsbevd, as scipy.linalg.eigvals_banded(c,
    overwrite_a_band=True) calls it, then one Newton step on the nodes and
    weights from the log-normalized product of P_{n-1} and P_n'.
    """
    k = np.arange(n, dtype="d")
    c = np.zeros((2, n))
    c[0, 1:] = bn_func(k[1:])
    c[1, :] = an_func(k)
    x, _, info = _extension("linalg", "_flapack").dsbevd(
        np.asarray_chkfinite(c), compute_v=0, lower=0, overwrite_ab=1
    )
    _check_info(info, "sbevd")

    # improve roots by one application of Newton's method
    y = f(n, x)
    dy = df(n, x)
    x -= y / dy

    # fm and dy may contain very large/small values, so they are
    # log-normalized to keep precision in the product fm*dy
    fm = f(n - 1, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)

    if symmetrize:
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2

    w *= mu0 / w.sum()
    return x, w


def _roots_chebyt(m):
    x = ufuncs()._sinpi(np.arange(-m + 1, m, 2) / (2 * m))
    w = np.full_like(x, np.pi / m)
    return x, w


def _roots_legendre(m):
    special = ufuncs()
    mu0 = 2.0

    def an_func(k):
        return 0.0 * k

    def bn_func(k):
        return k * np.sqrt(1.0 / (4 * k * k - 1))

    f = special.eval_legendre

    def df(n, x):
        return (-n * x * special.eval_legendre(n, x) + n * special.eval_legendre(n - 1, x)) / (1 - x**2)

    return _gen_roots_and_weights(m, mu0, an_func, bn_func, f, df, True)


# Taylor series of the Gegenbauer weight's mass around alpha = inf, in powers
# of 1/alpha, that scipy uses above alpha = 170 where gamma overflows
_GEGENBAUER_MASS_SERIES = (0.000207186, -0.00152206, -0.000640869, 0.00488281, 0.0078125, -0.125, 1.0)


def _roots_gegenbauer(m, alpha):
    special = ufuncs()
    if alpha == 0.0:
        return _roots_chebyt(m)
    if alpha <= 170:
        mu0 = (np.sqrt(np.pi) * special.gamma(alpha + 0.5)) / special.gamma(alpha + 1)
    else:
        inv_alpha = 1.0 / alpha
        coeffs = np.array(_GEGENBAUER_MASS_SERIES)
        mu0 = coeffs[0]
        for term in range(1, len(coeffs)):
            mu0 = mu0 * inv_alpha + coeffs[term]
        mu0 = mu0 * np.sqrt(np.pi / alpha)

    def an_func(k):
        return 0.0 * k

    def bn_func(k):
        return np.sqrt(k * (k + 2 * alpha - 1) / (4 * (k + alpha) * (k + alpha - 1)))

    def f(n, x):
        return special.eval_gegenbauer(n, alpha, x)

    def df(n, x):
        return (
            -n * x * special.eval_gegenbauer(n, alpha, x)
            + (n + 2 * alpha - 1) * special.eval_gegenbauer(n - 1, alpha, x)
        ) / (1 - x**2)

    return _gen_roots_and_weights(m, mu0, an_func, bn_func, f, df, True)


def roots_jacobi(n: int, alpha: float, beta: float):
    """Nodes and weights of scipy.special.roots_jacobi(n, alpha, beta).

    Bit for bit with scipy 1.17.1 wherever alpha == beta > -1, and wherever
    alpha != beta, alpha > -1, beta > -1 and alpha + beta != 0 (scipy's
    branch for alpha + beta == 0 only avoids a division by zero whose result
    it discards, and the package's rules never reach it).
    """
    m = int(n)
    if n < 1 or n != m:
        raise ValueError("n must be a positive integer.")
    if alpha <= -1 or beta <= -1:
        raise ValueError("alpha and beta must be greater than -1.")
    if alpha == 0.0 and beta == 0.0:
        return _roots_legendre(m)
    if alpha == beta:
        return _roots_gegenbauer(m, alpha + 0.5)

    special = ufuncs()
    if (alpha + beta) <= 1000:
        mu0 = 2.0 ** (alpha + beta + 1) * special.beta(alpha + 1, beta + 1)
    else:
        # avoids overflows in pow and beta for very large parameters
        mu0 = np.exp((alpha + beta + 1) * np.log(2.0) + special.betaln(alpha + 1, beta + 1))
    a = alpha
    b = beta

    def an_func(k):
        return np.where(
            k == 0,
            (b - a) / (2 + a + b),
            (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2)),
        )

    def bn_func(k):
        return (
            2.0 / (2.0 * k + a + b)
            * np.sqrt((k + a) * (k + b) / (2 * k + a + b + 1))
            * np.where(k == 1, 1.0, np.sqrt(k * (k + a + b) / (2.0 * k + a + b - 1)))
        )

    def f(n, x):
        return special.eval_jacobi(n, a, b, x)

    def df(n, x):
        return 0.5 * (n + a + b + 1) * special.eval_jacobi(n - 1, a + 1, b + 1, x)

    return _gen_roots_and_weights(m, mu0, an_func, bn_func, f, df, False)


# ---------------------------------------------------------------------------
# eigh


def lowest_eigenvalue(a: np.ndarray) -> float:
    """scipy.linalg.eigh(a, eigvals_only=True, subset_by_index=(0, 0))[0].

    LAPACK dsyevr on the lower triangle of the square float matrix a, with
    the workspace sizes its query returns, as eigh calls it.
    """
    a1 = np.asarray_chkfinite(a)
    if a1.ndim != 2 or a1.shape[0] != a1.shape[1] or a1.size == 0:
        raise ValueError('expected a nonempty square "a" matrix')
    flapack = _extension("linalg", "_flapack")
    lwork, liwork, info = flapack.dsyevr_lwork(a1.shape[0], lower=True)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    w, _, m, _, info = flapack.dsyevr(
        a=a1, overwrite_a=False, range="I", il=1, iu=1, lower=True, compute_v=0,
        lwork=int(lwork), liwork=int(liwork),
    )
    _check_info(info, "syevr")
    return float(w[:m][0])
