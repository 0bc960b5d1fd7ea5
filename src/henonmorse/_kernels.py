"""The LAPACK layer: symmetric tridiagonal counts, eigenvalues and
eigenvectors.

Counts are Sturm counts taken by dlaebz, the routine dstebz counts with:
one sweep per shift, and one call for all the shifts asked of one matrix.
Eigenvalues come from LAPACK bisection (``dstebz``) and eigenvectors from
inverse iteration: solves on the pivoted LU factorization of T - sigma
(dgttrf, dgttrs) from a start vector.  All take one unsplit block with a
finite squared off-diagonal, as the solvers build, and refuse any other
matrix.  Inverse iteration, Rayleigh quotients and residuals also take a
corner per vector, taken off the last diagonal entry, as the singular
kind's matrices T(sigma) differ only there.  A singular solve bisects only
its probe, to a bracket of width BRACKET; inverse iteration from a fixed
start finds the probe's vectors.  The rest is seeded, not bracketed: the
vectors of the grid before, carried onto the next one's nodes, are both
the shifts (their Rayleigh quotients) and the start vectors, settled by
a residual r = ||T v - rho v|| below BRACKET for a unit v, and certified by
the interval [rho - r, rho + r], which holds an eigenvalue (Parlett, The
Symmetric Eigenvalue Problem, ch. 4), and one Sturm count.  The standard
kind keeps ABSTOL: its mass e^(-2x) grades its matrix to ||T|| = 5e25
(N=3, p=3), and at p=4.9 the Rayleigh quotient of its lowest eigenvalue,
-4.4e11, misses the bisected value by 0.1.

The LAPACK routines come from scipy's compiled modules, loaded from their
files by lapack_module without running the scipy.linalg package __init__,
which imports scipy._lib._array_api and, through it, numpy.f2py,
numpy.testing, numpy.ma and numpy.random: about half of a CLI start-up.
The f2py wrappers are the objects scipy.linalg.lapack exports; dlaebz,
which has none, is called through the C function scipy.linalg.cython_lapack
exports (cython_lapack_function).
"""

from __future__ import annotations

import ctypes
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


def cython_lapack_function(name: str, *argtypes):
    """ctypes handle, with the given argument types, on the LAPACK function
    that scipy.linalg.cython_lapack exports under `name`."""
    capsule = lapack_module("cython_lapack").__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_flapack = lapack_module("_flapack")
dstebz, dgttrf, dgttrs = _flapack.dstebz, _flapack.dgttrf, _flapack.dgttrs

# scalars by reference, arrays by address (ndarray.ctypes.data): the
# pointer objects of ndarray.ctypes.data_as and of ndpointer arguments form
# reference cycles, garbage that outlives the call until the cyclic GC runs
_INT = ctypes.POINTER(ctypes.c_int)
_DBL = ctypes.POINTER(ctypes.c_double)
_ARRAY = ctypes.c_void_p
_DLAEBZ_C = cython_lapack_function(
    "dlaebz", _INT, _INT, _INT, _INT, _INT, _INT, _DBL, _DBL, _DBL, _ARRAY,
    _ARRAY, _ARRAY, _INT, _ARRAY, _DBL, _INT, _ARRAY, _DBL, _INT, _INT)


class SpectralError(RuntimeError):
    """A spectral solve could not deliver or certify its result."""


# Absolute width at which dstebz stops bisecting.  Its default, eps * ||T||,
# is far wider than the small eigenvalues of a fine grid; a tiny explicit
# tolerance leaves only the relative stop (2 ulp of the eigenvalue).
ABSTOL = 1e-300

# Absolute width at which the singular probe stops bisecting (the Rayleigh
# quotient of the inverse-iteration vector, accurate to second order in the
# vector's error, supplies the remaining digits), and the residual a seeded
# singular pair settles below.
BRACKET = 1e-4


def _check_info(routine, info):
    if info != 0:
        raise SpectralError(f"LAPACK {routine} failed with info={info}")


def dlaebz(d, e, e2, pivmin: float, ab):
    """LAPACK dlaebz with IJOB=1 on tridiag(d, e), e2 = e^2: for each shift
    in ab, the number of eigenvalues at or below it, one Sturm sweep each,
    and LAPACK's INFO.  The shifts are the
    ends of len(ab) // 2 intervals, lower ends first.  The arrays must be
    contiguous float64, e and e2 of n - 1 entries at least."""
    if not (all(a.dtype == np.float64 and a.flags.c_contiguous
                for a in (d, e, e2, ab))
            and min(len(e), len(e2)) >= len(d) - 1):
        raise ValueError("dlaebz takes contiguous float64 arrays, e and e2 "
                         "of n - 1 entries")
    minp = len(ab) // 2
    nab = np.empty(len(ab), np.intc)
    mout, info = ctypes.c_int(), ctypes.c_int()
    i, x, ref = ctypes.c_int, ctypes.c_double, ctypes.byref
    # NVAL, C, WORK and IWORK are not referenced for IJOB=1
    _DLAEBZ_C(ref(i(1)), ref(i(0)), ref(i(len(d))), ref(i(minp)),
              ref(i(minp)), ref(i(0)), ref(x(0.0)), ref(x(0.0)),
              ref(x(pivmin)), d.ctypes.data, e.ctypes.data, e2.ctypes.data,
              ref(i(0)), ab.ctypes.data, ref(x(0.0)), ref(mout),
              nab.ctypes.data, ref(x(0.0)), ref(i(0)), ref(info))
    return nab, info.value


# dstebz's machine constants: DLAMCH('S') and DLAMCH('P')
SAFEMIN, ULP = np.finfo(float).tiny, np.finfo(float).eps


def sturm_count(diag, off, shifts) -> list:
    """Numbers of eigenvalues of tridiag(diag, off) strictly below each of
    the shifts: bitwise dstebz's value-window counts (-inf, shift), at one
    Sturm sweep a shift and one LAPACK call for all shifts.

    dlaebz (IJOB=1), the counting loop of dstebz, runs at the float just
    below each shift, on dstebz's E2 = off^2 and its pivot floor PIVMIN =
    2.2e-308 max(1, max E2), under which a pivot counts as negative (so an
    eigenvalue exactly at a shift of 0 counts as below it); dstebz's sweeps
    at the widened Gershgorin bounds count 0 and n.  The matrix must not
    split by dstebz's test (an overflowing product splits), nor E2
    overflow: SpectralError otherwise.

    dlaebz sweeps both ends of each interval, so an odd shift count is
    padded with a copy of the last shift, and a single shift (the only call
    a singular grid makes) costs two sweeps.  LAPACK's dlarrc would count
    both ends of one interval in a single interleaved loop (about 32 us
    against 118 us for this call at 4095 rows on a 2-core x86-64 host),
    but it has no pivot floor: it counts an exact zero pivot differently
    from dstebz, whose count this one is (tests/test_kernels.py pins it
    through an exactly zero pivot).
    """
    if len(off) != len(diag) - 1:
        raise ValueError(f"a tridiagonal matrix of order n >= 1 takes n - 1 "
                         f"off-diagonal entries, not {len(off)} for n = "
                         f"{len(diag)}")
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    with np.errstate(over="ignore"):
        e2 = off * off
        # a product past the float range is inf, and splits, as in dstebz
        split = np.abs(diag[1:] * diag[:-1]) * ULP ** 2 + SAFEMIN > e2
    if split.any():
        raise SpectralError(f"tridiagonal matrix of order {len(diag)} splits "
                            f"after row {int(np.argmax(split)) + 1}")
    pivmin = float(np.max(e2, initial=1.0)) * SAFEMIN
    if not np.isfinite(pivmin):
        raise SpectralError(f"tridiagonal matrix of order {len(diag)}: "
                            "its squared off-diagonal overflows")
    shifts = np.nextafter(np.asarray(shifts, float), -np.inf)
    # dlaebz sweeps at both ends of each interval: pad an odd count
    ab = np.resize(shifts, len(shifts) + len(shifts) % 2)
    nab, info = dlaebz(diag, off, e2, pivmin, ab)
    _check_info("dlaebz", info)
    return nab[:len(shifts)].tolist()


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
    # RANGE='V' takes the half-open window (vl, vu]: vu is the float just
    # below `below`
    window = ((1, above, np.nextafter(below, -np.inf), 0, 0)
              if below is not None else (2, 0.0, 0.0, k_first, k_last))
    m, w, _, isplit, info = dstebz(diag, off, *window, abstol, b"B")
    _check_info("dstebz", info)
    if isplit[0] != len(diag):
        raise SpectralError(
            f"tridiagonal matrix of order {len(diag)} splits after row "
            f"{isplit[0]}")
    return w[:m]


def inverse_iteration(diag, off, values, starts=None, corners=0.0):
    """Unit eigenvectors of the unsplit tridiag(diag, off), one column per
    value of the ascending `values` (eigenvalues from bisect_eigenvalues or
    shifts near them), in a column-major array.  Each value's matrix has
    its corner (`corners`, one per value or one for all) taken off its last
    diagonal entry.

    Each solve of T - sigma on its pivoted LU factorization (dgttrf,
    dgttrs), normalized after, shrinks the other eigencomponents of the
    start by the ratio of the distances of sigma to its eigenvalue and to
    the others (Parlett, ch. 4).  From one close start per value (columns
    of `starts`), two solves: one leaves a residual of about 2e-12 ||T|| on
    a fine Liouville grid, two 1e-16 ||T||.  Else three from the ramp 1..2,
    not a constant, which misses the antisymmetric eigenvectors of a matrix
    symmetric about its centre: two left singular Rayleigh quotients 7e-12
    from those of five, three 3e-14."""
    n, solves = len(diag), 2
    if starts is None:
        ramp = np.linspace(1.0, 2.0, n)[:, None]
        starts, solves = np.broadcast_to(ramp, (n, len(values))), 3
    vecs = np.empty((n, len(values)), order="F")
    corners = np.broadcast_to(corners, np.shape(values))
    for j, (sigma, corner) in enumerate(zip(values, corners)):
        shifted = diag - sigma
        shifted[-1] -= corner
        *lu, info = dgttrf(off, shifted, off)
        if info > 0:
            # sigma is an eigenvalue to the last bit: an exact zero pivot.
            # Shift off it by a few ulp of ||T||, as dlagtf perturbs a pivot
            *lu, info = dgttrf(off, shifted - 4.0 * ULP * _norm1(diag, off),
                               off)
        _check_info("dgttrf", info)
        x = starts[:, j:j + 1]
        for _ in range(solves):
            x, info = dgttrs(*lu, x)
            _check_info("dgttrs", info)
            x /= np.linalg.norm(x)
        vecs[:, j] = x[:, 0]
    return vecs


def rayleigh_quotients(diag, off, vecs, corners=0.0):
    """v'Tv / v'v of each column v of vecs, as row sums times v^2 minus
    off-diagonal times squared differences: no cancelling terms of the size
    of the diagonal.  Each column's T has its corner taken off its last
    diagonal entry."""
    rows = diag.copy()
    rows[:-1] += off
    rows[1:] += off
    sq = vecs * vecs
    dv = np.diff(vecs, axis=0)
    return ((rows @ sq - corners * sq[-1] - off @ (dv * dv))
            / np.sum(sq, axis=0))


def rayleigh_refine(diag, off, values):
    """Eigenpairs of tridiag(diag, off) from the ascending `values`, bisected
    to within BRACKET or finer: the Rayleigh quotient of each vector of
    inverse_iteration from the fixed start, and the unit vectors (columns).
    SpectralError names a quotient outside its bracket, or two values within
    2 * BRACKET, whose brackets could hold the same eigenvalue."""
    for a, b in zip(values[:-1], values[1:]):
        if b - a <= 2.0 * BRACKET:
            raise SpectralError(
                f"eigenvalues {a:.12g}, {b:.12g}: brackets of "
                f"half-width {BRACKET:g} overlap")
    vecs = inverse_iteration(diag, off, values)
    rho = rayleigh_quotients(diag, off, vecs)
    miss = ~(np.abs(rho - values) <= BRACKET)
    if np.any(miss):
        i = int(np.argmax(miss))
        raise SpectralError(
            f"Rayleigh quotient {rho[i]:.12g} lies outside the bracket "
            f"of eigenvalue {values[i]:.12g}")
    return rho, vecs


def residual_norms(diag, off, vecs, values, corners=0.0):
    """||T v - lambda v||_2 of each column v of vecs, each column's T with
    its corner taken off its last diagonal entry."""
    t = diag[:, None] * vecs
    t[-1] -= corners * vecs[-1]
    t[:-1] += off[:, None] * vecs[1:]
    t[1:] += off[:, None] * vecs[:-1]
    return np.linalg.norm(t - values * vecs, axis=0)


def relative_residual(diag, off, vecs, residuals) -> float:
    """max over the columns v of vecs of ||T v - lambda v||_2 / (||T||_1
    ||v||_2), from their residual_norms; 0 without columns."""
    scale = _norm1(diag, off) * np.linalg.norm(vecs, axis=0)
    return float(np.max(residuals / scale, initial=0.0))


def _norm1(diag, off) -> float:
    """||T||_1 of tridiag(diag, off): its largest absolute column sum."""
    col = np.abs(diag)
    col[:-1] += np.abs(off)
    col[1:] += np.abs(off)
    return float(np.max(col))
