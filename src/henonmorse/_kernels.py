"""Numerical hot loops: adaptive Runge-Kutta integration of the radial
initial value problem, and the symmetric tridiagonal eigen-kernels.

Counts are Sturm counts: a ``dstebz`` call that bisects nothing.  Eigenvalues
come from LAPACK bisection (``dstebz``) and eigenvectors from inverse
iteration (``dstein``).  A singular coarse grid is bisected only to a
bracket of width BRACKET; the Rayleigh quotient of each eigenvector then
finishes its eigenvalue.  Its fine grid is not bisected: dstein runs there
at the Rayleigh quotients of the coarse vectors, prolongated, and each pair
is certified by its residual interval [rho - r, rho + r], r = ||T v - rho v||
for a unit v, which holds an eigenvalue (Parlett, The Symmetric Eigenvalue
Problem, ch. 4), together with one Sturm count.  The standard kind keeps
ABSTOL: its mass e^(-2x) grades its matrix to ||T|| = 5e25 (N=3, p=3), and
at p=4.9 the Rayleigh quotient of its lowest eigenvalue, -4.4e11, misses
the bisected value by 0.1.

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
from dataclasses import dataclass

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


def emden_rhs_power(t, v, dv, m_dim, c, p):
    """v'' for -(t^(M-1) v')' = c t^(M-1) |v|^(p-1) v; regular limit at t=0."""
    f = abs(v) ** (p - 1.0) * v
    if t <= 0.0:
        return -c * f / m_dim
    return -(m_dim - 1.0) / t * dv - c * f


def make_integrator(rhs):
    """Build an adaptive integrator around a right-hand side v''=rhs(...).

    `rhs(t, v, dv, m_dim, c, p)` is any callable.  The returned driver has
    signature

        integrate(m_dim, c, p, v0, t_max, rtol, atol, max_zeros,
                  max_steps, zero_tol)
        -> (status, ts, vs, dvs, zeros_t, zeros_dv, crits_t, crits_v)

    It records every accepted step, refines each sign change of v to a zero
    of v and each sign change of v' to a critical point, and stops after
    `max_zeros` zeros of v or at t_max.  Event refinement re-takes RK steps
    from the left node with a bisection-safeguarded Newton update, so event
    locations carry the integrator's accuracy, not interpolation accuracy.
    """
    def rk_step(t, v, dv, h, m_dim, c, p, k1a):
        k1v = dv
        k2v = dv + h * _A21 * k1a
        k2a = rhs(t + _C2 * h, v + h * _A21 * k1v, k2v, m_dim, c, p)
        k3v = dv + h * (_A31 * k1a + _A32 * k2a)
        k3a = rhs(t + _C3 * h, v + h * (_A31 * k1v + _A32 * k2v), k3v,
                  m_dim, c, p)
        k4v = dv + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a)
        k4a = rhs(t + _C4 * h, v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v),
                  k4v, m_dim, c, p)
        k5v = dv + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a)
        k5a = rhs(t + _C5 * h, v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v
                                        + _A54 * k4v), k5v, m_dim, c, p)
        k6v = dv + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a
                        + _A65 * k5a)
        k6a = rhs(t + h, v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v
                                  + _A64 * k4v + _A65 * k5v), k6v, m_dim, c, p)
        vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v
                      + _B6 * k6v)
        dvn = dv + h * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B5 * k5a
                        + _B6 * k6a)
        k7a = rhs(t + h, vn, dvn, m_dim, c, p)
        errv = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v
                    + _E7 * dvn)
        erra = h * (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a
                    + _E7 * k7a)
        return vn, dvn, k7a, errv, erra

    def refine_event(t, v, dv, k1a, h, m_dim, c, p, on_derivative, ref_scale,
                     tol):
        g0 = dv if on_derivative else v
        lo = 0.0
        hi = h
        hh = 0.5 * h
        vz = v
        dvz = dv
        for _ in range(80):
            vz, dvz, az, _, _ = rk_step(t, v, dv, hh, m_dim, c, p, k1a)
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
                vz, dvz, az, _, _ = rk_step(t, v, dv, hh, m_dim, c, p, k1a)
                break
            hh = step
        return t + hh, vz, dvz

    def integrate(m_dim, c, p, v0, t_max, rtol, atol, max_zeros, max_steps,
                  zero_tol):
        ts = np.empty(max_steps)
        vs = np.empty(max_steps)
        dvs = np.empty(max_steps)
        zt = np.empty(max_zeros)
        zdv = np.empty(max_zeros)
        ct = np.empty(max_zeros + 2)
        cv = np.empty(max_zeros + 2)
        vscale = abs(v0)

        t = 0.0
        v = v0
        dv = 0.0
        acc = rhs(0.0, v, dv, m_dim, c, p)
        ts[0] = t
        vs[0] = v
        dvs[0] = dv
        ns = 1
        nz = 0
        nc = 0
        status = OK_TMAX

        h = 1e-4
        if acc != 0.0 and math.isfinite(acc):
            hs = 0.1 * (2.0 * max(atol, rtol * vscale) / abs(acc)) ** 0.5
            if hs < h:
                h = hs
        while t < t_max:
            if ns >= max_steps:
                status = FAIL_STEPS
                break
            if h < 1e-15 * max(t, 1.0):
                status = FAIL_UNDERFLOW
                break
            if t + h > t_max:
                h = t_max - t
            vn, dvn, accn, errv, erra = rk_step(t, v, dv, h, m_dim, c, p, acc)
            if not (math.isfinite(vn) and math.isfinite(dvn)
                    and math.isfinite(accn)):
                status = FAIL_NONFINITE
                break
            sc_v = atol + rtol * max(abs(v), abs(vn))
            sc_d = atol + rtol * max(abs(dv), abs(dvn))
            err = max(abs(errv) / sc_v, abs(erra) / sc_d)
            if err <= 1.0:
                if (dv != 0.0 and (dv > 0.0) != (dvn > 0.0)
                        and nc < max_zeros + 2):
                    tc, vc, _ = refine_event(t, v, dv, acc, h, m_dim, c, p,
                                             True, max(abs(dv), abs(dvn)),
                                             1e-10)
                    ct[nc] = tc
                    cv[nc] = vc
                    nc += 1
                if (v > 0.0) != (vn > 0.0):
                    tz, vz, dvz = refine_event(t, v, dv, acc, h, m_dim, c, p,
                                               False, vscale, zero_tol)
                    zt[nz] = tz
                    zdv[nz] = dvz
                    nz += 1
                    if nz >= max_zeros:
                        ts[ns] = tz
                        vs[ns] = vz
                        dvs[ns] = dvz
                        ns += 1
                        status = OK_EVENTS
                        break
                t = t + h
                v = vn
                dv = dvn
                acc = accn
                ts[ns] = t
                vs[ns] = v
                dvs[ns] = dv
                ns += 1
                fac = 5.0
                if err > 0.0:
                    fac = 0.9 * err ** -0.2
                    if fac > 5.0:
                        fac = 5.0
                h = h * fac
            else:
                fac = 0.9 * err ** -0.2
                if fac < 0.2:
                    fac = 0.2
                h = h * fac
        return (status, ts[:ns], vs[:ns], dvs[:ns], zt[:nz], zdv[:nz],
                ct[:nc], cv[:nc])

    return integrate


integrate_radial_power = make_integrator(emden_rhs_power)


def integrate_radial_generic(rhs, *args):
    """Integrate with an arbitrary Python right-hand side."""
    return make_integrator(rhs)(*args)


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


@dataclass(frozen=True)
class Eigenvalues:
    """Eigenvalues from bisection, ascending, with dstebz's block data.

    `iblock[j]` is the split-off block of `values[j]` and `isplit` the last
    row of each block; inverse_iteration needs both.
    """

    values: np.ndarray
    iblock: np.ndarray
    isplit: np.ndarray

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        """The eigenvalues in a slice of this ascending list."""
        return Eigenvalues(self.values[index], self.iblock[index],
                           self.isplit)

    @classmethod
    def one_block(cls, values, n):
        """Ascending `values` as shifts for inverse_iteration on an unsplit
        matrix of order n: one block, rows 1..n."""
        isplit = np.zeros(n, np.int32)
        isplit[0] = n
        return cls(np.asarray(values, dtype=float),
                   np.ones(len(values), np.int32), isplit)


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
    (dstebz) to an interval of width `abstol` (or 2 ulp, if wider)."""
    window = (_window(above, below) if below is not None
              else (2, 0.0, 0.0, k_first, k_last))
    m, w, iblock, isplit, info = dstebz(diag, off, *window, abstol, b"B")
    _check_info("dstebz", info)
    # block order equals ascending order unless the matrix splits
    order = np.argsort(w[:m], kind="stable")
    return Eigenvalues(w[order], iblock[order], isplit)


def inverse_iteration(diag, off, eig):
    """Unit eigenvectors of tridiag(diag, off), one column per eigenvalue of
    `eig` (a bisect_eigenvalues result), by LAPACK inverse iteration
    (dstein)."""
    m = len(eig)
    # dstein takes the eigenvalues grouped by block, ascending within each
    order = np.argsort(eig.iblock, kind="stable")
    iblock = np.zeros(len(diag), dtype=eig.iblock.dtype)
    iblock[:m] = eig.iblock[order]
    z, info = dstein(diag, off, eig.values[order], iblock, eig.isplit)
    _check_info("dstein", info)
    vecs = np.empty_like(z)
    vecs[:, order] = z
    return vecs


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


def rayleigh_refine(diag, off, eig, rounds=1):
    """Eigenpairs of tridiag(diag, off) from the eigenvalues `eig` (a
    bisect_eigenvalues result, to within BRACKET or finer, or shifts from
    Eigenvalues.one_block).

    Returns the Rayleigh quotient of each dstein vector, the unit vectors one
    per column, and each column's residual ||T v - rho v||.  Each quotient
    must lie within BRACKET of its value in `eig`, and consecutive values
    must be more than 2 * BRACKET apart, so no two brackets can hold the
    same eigenvalue; otherwise SpectralError names the pair.  With
    rounds > 1, for shifts that are estimates rather than brackets, a
    quotient outside its bracket starts another round at the quotients (a
    Rayleigh quotient iteration step), up to `rounds` in all.
    """
    lam = eig.values
    for a, b in zip(lam[:-1], lam[1:]):
        if b - a <= 2.0 * BRACKET:
            raise SpectralError(
                f"eigenvalues {a:.12g}, {b:.12g}: brackets of half-width "
                f"{BRACKET:g} overlap")
    vecs = inverse_iteration(diag, off, eig)
    rho = rayleigh_quotients(diag, off, vecs)
    miss = ~(np.abs(rho - lam) <= BRACKET)
    if np.any(miss):
        if rounds > 1:
            return rayleigh_refine(diag, off,
                                   Eigenvalues(rho, eig.iblock, eig.isplit),
                                   rounds - 1)
        i = int(np.argmax(miss))
        raise SpectralError(
            f"Rayleigh quotient {rho[i]:.12g} lies outside the bracket of "
            f"eigenvalue {lam[i]:.12g}")
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
