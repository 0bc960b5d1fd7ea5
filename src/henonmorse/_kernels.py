"""Numerical hot loops: adaptive Runge-Kutta integration of the radial
initial value problem, and the symmetric tridiagonal eigen-kernels.

integrate_radial is the one integrator: Dormand-Prince 5(4) on
v'' = -(M-1)/t v' - |v|^(p-1) v, with the regular limit
v''(0) = -|v0|^(p-1) v0/M at the start (no later stage sits at t = 0).

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
import math
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


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) embedded pair
# ---------------------------------------------------------------------------

_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

# integrator status codes
OK_EVENTS = 0        # requested number of zeros located
OK_TMAX = 3          # reached t_max without finding them all
FAIL_STEPS = 1       # step budget exhausted
FAIL_UNDERFLOW = 2   # step size underflow (stiff / blow-up)
FAIL_NONFINITE = 4   # right-hand side returned a non-finite value


def _rk_step(q, m1, t, v, dv, h, k1a):
    """One Dormand-Prince step of v'' = m1 / t v' - |v|^q v from t, with
    k1a = v''(t); no stage sits at t = 0.  Returns v, v' and v'' at t + h
    and the error estimates of v and v'."""
    k1v = dv
    k2v = dv + h * _A21 * k1a
    w = v + h * _A21 * k1v
    k2a = m1 / (t + _C2 * h) * k2v - abs(w) ** q * w
    k3v = dv + h * (_A31 * k1a + _A32 * k2a)
    w = v + h * (_A31 * k1v + _A32 * k2v)
    k3a = m1 / (t + _C3 * h) * k3v - abs(w) ** q * w
    k4v = dv + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a)
    w = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
    k4a = m1 / (t + _C4 * h) * k4v - abs(w) ** q * w
    k5v = dv + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a)
    w = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
    k5a = m1 / (t + _C5 * h) * k5v - abs(w) ** q * w
    k6v = dv + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a
                    + _A65 * k5a)
    w = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v
                 + _A65 * k5v)
    k6a = m1 / (t + h) * k6v - abs(w) ** q * w
    vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
    dvn = dv + h * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B5 * k5a
                    + _B6 * k6a)
    k7a = m1 / (t + h) * dvn - abs(vn) ** q * vn
    errv = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v
                + _E7 * dvn)
    erra = h * (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a
                + _E7 * k7a)
    return vn, dvn, k7a, errv, erra


def _refine_event(q, m1, t, v, dv, k1a, h, on_derivative, ref_scale, tol):
    """The point of (t, t + h] where v (v' if on_derivative) changes sign,
    to |v| <= tol * ref_scale, with v and v' there: RK steps from t whose
    length takes bisection-safeguarded Newton updates."""
    g0 = dv if on_derivative else v
    lo, hi, hh = 0.0, h, 0.5 * h
    vz, dvz = v, dv
    for _ in range(80):
        vz, dvz, az, _, _ = _rk_step(q, m1, t, v, dv, hh, k1a)
        g = dvz if on_derivative else vz
        dg = az if on_derivative else dvz
        if abs(g) <= tol * ref_scale:
            break
        if (g > 0.0) == (g0 > 0.0):
            lo = hh
        else:
            hi = hh
        step = hh - g / dg if dg != 0.0 else -1.0
        if step <= lo or step >= hi:
            step = 0.5 * (lo + hi)
        if abs(step - hh) < 1e-17 * h:
            hh = step
            vz, dvz, az, _, _ = _rk_step(q, m1, t, v, dv, hh, k1a)
            break
        hh = step
    return t + hh, vz, dvz


def integrate_radial(p, m_dim, v0, t_max, rtol, atol, max_zeros, max_steps,
                     zero_tol):
    """Integrate -(t^(M-1) v')' = t^(M-1) |v|^(p-1) v, v(0) = v0, v'(0) = 0,
    with M = m_dim, by adaptive Dormand-Prince 5(4).

    Returns (status, ts, vs, dvs, zeros_t, zeros_dv, crits_t, crits_v): the
    status code, every accepted step, each zero of v with v' there and each
    critical point of v with v there.  It stops after `max_zeros` zeros of
    v, at t_max, or on a failure status (FAIL_*).  A zero is refined to
    |v| <= zero_tol |v0| and a critical point to |v'| <= 1e-10 max |v'| of
    its step.  Event refinement re-takes RK steps from the left node with a
    bisection-safeguarded Newton update, so event locations carry the
    integrator's accuracy, not interpolation accuracy.
    """
    ts, vs, dvs = np.empty(max_steps), np.empty(max_steps), np.empty(max_steps)
    zt, zdv = np.empty(max_zeros), np.empty(max_zeros)
    ct, cv = np.empty(max_zeros + 2), np.empty(max_zeros + 2)
    vscale = abs(v0)
    m1 = -(m_dim - 1.0)
    q = p - 1.0
    t, v, dv = 0.0, v0, 0.0
    acc = -(abs(v0) ** q * v0) / m_dim  # the regular limit of v'' at t = 0
    ts[0], vs[0], dvs[0] = t, v, dv
    ns, nz, nc = 1, 0, 0
    status = OK_TMAX

    h = 1e-4
    if acc != 0.0 and math.isfinite(acc):
        h = min(h, 0.1 * (2.0 * max(atol, rtol * vscale) / abs(acc)) ** 0.5)
    while t < t_max:
        if ns >= max_steps:
            status = FAIL_STEPS
            break
        if h < 1e-15 * max(t, 1.0):
            status = FAIL_UNDERFLOW
            break
        if t + h > t_max:
            h = t_max - t
        vn, dvn, accn, errv, erra = _rk_step(q, m1, t, v, dv, h, acc)
        if not (math.isfinite(vn) and math.isfinite(dvn)
                and math.isfinite(accn)):
            status = FAIL_NONFINITE
            break
        sc_v = atol + rtol * max(abs(v), abs(vn))
        sc_d = atol + rtol * max(abs(dv), abs(dvn))
        err = max(abs(errv) / sc_v, abs(erra) / sc_d)
        if not err <= 1.0:          # rejected, NaN included
            h *= max(0.9 * err ** -0.2, 0.2)
            continue
        if dv != 0.0 and (dv > 0.0) != (dvn > 0.0) and nc < max_zeros + 2:
            ct[nc], cv[nc], _ = _refine_event(q, m1, t, v, dv, acc, h, True,
                                              max(abs(dv), abs(dvn)), 1e-10)
            nc += 1
        if (v > 0.0) != (vn > 0.0):
            tz, vz, dvz = _refine_event(q, m1, t, v, dv, acc, h, False,
                                        vscale, zero_tol)
            zt[nz], zdv[nz] = tz, dvz
            nz += 1
            if nz >= max_zeros:
                ts[ns], vs[ns], dvs[ns] = tz, vz, dvz
                ns += 1
                status = OK_EVENTS
                break
        t, v, dv, acc = t + h, vn, dvn, accn
        ts[ns], vs[ns], dvs[ns] = t, v, dv
        ns += 1
        h *= min(0.9 * err ** -0.2, 5.0) if err > 0.0 else 5.0
    return (status, ts[:ns], vs[:ns], dvs[:ns], zt[:nz], zdv[:nz], ct[:nc],
            cv[:nc])


# ---------------------------------------------------------------------------
# Symmetric tridiagonal eigenvalues: Sturm counts, bisection, eigenvectors
# ---------------------------------------------------------------------------

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
