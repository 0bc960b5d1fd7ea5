"""The LAPACK layer: symmetric tridiagonal counts, eigenvalues and
eigenvectors.

Counts are Sturm counts: a ``dstebz`` call that bisects nothing.  Eigenvalues
come from LAPACK bisection (``dstebz``) and eigenvectors from inverse
iteration (``dstein``), always on one unsplit block: the values are plain
ascending arrays, and a matrix that splits is refused.  A singular coarse
grid is bisected only to a bracket of width BRACKET; the Rayleigh quotient
of each eigenvector then finishes its eigenvalue.  Its fine grid is not
bisected: dstein runs there at the Rayleigh quotients of the coarse
vectors, prolongated, and each pair is certified by its residual interval
[rho - r, rho + r], r = ||T v - rho v|| for a unit v, which holds an
eigenvalue (Parlett, The Symmetric Eigenvalue Problem, ch. 4), together
with one Sturm count.  The standard kind keeps ABSTOL: its mass e^(-2x)
grades its matrix to ||T|| = 5e25 (N=3, p=3), and at p=4.9 the Rayleigh
quotient of its lowest eigenvalue, -4.4e11, misses the bisected value by
0.1.

The LAPACK routines come from scipy's compiled modules, loaded from their
files by lapack_module without running the scipy.linalg package __init__,
which imports scipy._lib._array_api and, through it, numpy.f2py,
numpy.testing, numpy.ma and numpy.random: about half of a CLI start-up.
The wrappers are the objects scipy.linalg.lapack exports.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

LINALG_DIR = os.path.join(scipy.__path__[0], "linalg")


def lapack_module(name: str):
    """The compiled module scipy.linalg.<name> (_flapack: the f2py wrappers
    of scipy.linalg.lapack; cython_lapack: the C functions), loaded from
    LINALG_DIR without importing the scipy.linalg package.

    A module already in sys.modules is reused; a loaded one is registered
    there under its own name, so a later import of scipy.linalg shares it.
    (The package, imported later, then lacks it as an attribute: use
    ``from scipy.linalg import <name>``, which finds it in sys.modules.)
    """
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    finder = importlib.machinery.FileFinder(
        LINALG_DIR, (importlib.machinery.ExtensionFileLoader,
                     importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(full)
    if spec is None:
        raise ImportError(f"no extension module {full} in {LINALG_DIR}",
                          name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module


_flapack = lapack_module("_flapack")
dstebz, dstein = _flapack.dstebz, _flapack.dstein


class SpectralError(RuntimeError):
    """A spectral solve could not deliver or certify its result."""


# Absolute width at which dstebz stops bisecting.  Its default, eps * ||T||,
# is far wider than the small eigenvalues of a fine grid; a tiny explicit
# tolerance leaves only the relative stop (2 ulp of the eigenvalue).
ABSTOL = 1e-300

# Absolute width at which a singular grid stops bisecting.  The Rayleigh
# quotient of the inverse-iteration vector is accurate to second order in
# the vector's error, so it supplies the remaining digits.
BRACKET = 1e-4


def _check_info(routine, info):
    if info != 0:
        raise SpectralError(f"LAPACK {routine} failed with info={info}")


def _window(lo, hi):
    """dstebz RANGE='V' arguments for the eigenvalues in (lo, hi): the
    window (vl, vu] is half-open, so vu is the float just below hi."""
    return 1, lo, np.nextafter(hi, -np.inf), 0, 0


def sturm_count(diag, off, sigma):
    """Number of eigenvalues of tridiag(diag, off) strictly below sigma.

    One dstebz value-window call with abstol=+inf: dstebz takes the Sturm
    counts at the window edges, finds every interval converged and bisects
    nothing, so a window of any width costs a few O(n) sweeps.  (With a
    small abstol dstebz bisects every eigenvalue in the window: that, not
    the width, is what makes a wide value-window call slow.)  A pivot within
    LAPACK's floor (about 2e-308 * max(1, max off^2)) of zero counts as
    negative, so an eigenvalue exactly at sigma = 0 counts as below it.
    """
    if len(diag) == 1:
        # dstebz's wrapper rejects an empty off-diagonal
        return int(diag[0] < sigma)
    m, *_, info = dstebz(diag, off, *_window(-np.inf, sigma), np.inf, b"B")
    _check_info("dstebz", info)
    return int(m)


def bisect_eigenvalues(diag, off, k_first=None, k_last=None, *, below=None,
                       above=-np.inf, abstol=ABSTOL):
    """Eigenvalues k_first..k_last (1-based, ascending) of tridiag(diag, off),
    or with `below` all eigenvalues in (above, below), by LAPACK bisection
    (dstebz) to an interval of width `abstol` (or 2 ulp, if wider).

    The matrix must not split (no off-diagonal entry negligible by dstebz's
    test), so that dstebz's block order is ascending order and
    inverse_iteration can take the values as one block; SpectralError
    otherwise.  No Liouville grid splits: its off-diagonal squared is about
    a quarter of the product of the neighbouring diagonal entries.
    """
    window = (_window(above, below) if below is not None
              else (2, 0.0, 0.0, k_first, k_last))
    m, w, _, isplit, info = dstebz(diag, off, *window, abstol, b"B")
    _check_info("dstebz", info)
    if isplit[0] != len(diag):
        raise SpectralError(
            f"tridiagonal matrix of order {len(diag)} splits after row "
            f"{isplit[0]}")
    return w[:m]


def inverse_iteration(diag, off, values):
    """Unit eigenvectors of the unsplit tridiag(diag, off), one column per
    value of the ascending `values` (eigenvalues from bisect_eigenvalues or
    shifts near them), by LAPACK inverse iteration (dstein) on one block,
    rows 1..n."""
    n = len(diag)
    iblock = np.zeros(n, np.int32)
    iblock[:len(values)] = 1
    isplit = np.zeros(n, np.int32)
    isplit[0] = n
    z, info = dstein(diag, off, values, iblock, isplit)
    _check_info("dstein", info)
    return z


def rayleigh_quotients(diag, off, vecs):
    """v'Tv / v'v of each column v of vecs, as row sums times v^2 minus
    off-diagonal times squared differences: no cancelling terms of the size
    of the diagonal."""
    rows = diag.copy()
    rows[:-1] += off
    rows[1:] += off
    sq = vecs * vecs
    dv = np.diff(vecs, axis=0)
    return (rows @ sq - off @ (dv * dv)) / np.sum(sq, axis=0)


def rayleigh_refine(diag, off, values, rounds=1):
    """Eigenpairs of tridiag(diag, off) from the ascending `values` (from
    bisect_eigenvalues, to within BRACKET or finer, or estimated shifts).

    Returns the Rayleigh quotient of each dstein vector, the unit vectors one
    per column, and each column's residual ||T v - rho v||.  Each quotient
    must lie within BRACKET of its value, and consecutive values must be
    more than 2 * BRACKET apart, so no two brackets can hold the same
    eigenvalue; otherwise SpectralError names the pair.  With rounds > 1,
    for shifts that are estimates rather than brackets, a quotient outside
    its bracket starts another round at the quotients (a Rayleigh quotient
    iteration step), up to `rounds` in all.
    """
    for a, b in zip(values[:-1], values[1:]):
        if b - a <= 2.0 * BRACKET:
            raise SpectralError(
                f"eigenvalues {a:.12g}, {b:.12g}: brackets of half-width "
                f"{BRACKET:g} overlap")
    vecs = inverse_iteration(diag, off, values)
    rho = rayleigh_quotients(diag, off, vecs)
    miss = ~(np.abs(rho - values) <= BRACKET)
    if np.any(miss):
        if rounds > 1:
            return rayleigh_refine(diag, off, rho, rounds - 1)
        i = int(np.argmax(miss))
        raise SpectralError(
            f"Rayleigh quotient {rho[i]:.12g} lies outside the bracket of "
            f"eigenvalue {values[i]:.12g}")
    return rho, vecs, residual_norms(diag, off, vecs, rho)


def residual_norms(diag, off, vecs, values):
    """||T v - lambda v||_2 of each column v of vecs."""
    t = diag[:, None] * vecs
    t[:-1] += off[:, None] * vecs[1:]
    t[1:] += off[:, None] * vecs[:-1]
    return np.linalg.norm(t - values * vecs, axis=0)


def relative_residual(diag, off, vecs, residuals) -> float:
    """max over the columns v of vecs of ||T v - lambda v||_2 / (||T||_1
    ||v||_2), from their residual_norms; 0 without columns."""
    col = np.abs(diag)
    col[:-1] += np.abs(off)
    col[1:] += np.abs(off)
    scale = float(np.max(col)) * np.linalg.norm(vecs, axis=0)
    return float(np.max(residuals / scale, initial=0.0))
