"""Independent dense eigensolver used only to cross-check the singular
solver.

Discretizes the singular kind directly in the r variable on a power-graded
grid truncated at [epsilon_cut, 1], Dirichlet at both ends.  Only the
eigenvalues the oracle reports are computed, by LAPACK's MRRR driver dstemr
without eigenvectors: those in a value window up to the singular threshold.
The eigenvectors come from shifted solves with the pivoted tridiagonal LU
(dgtsv).  The standard kind has no oracle; its solver is checked against
Bessel zeros and by the Sylvester count equality that morse enforces.
Neither code nor eigen-driver is shared with the production solvers, which
run dstebz, dlaebz and the pivoted LU's two halves (dgttrf, dgttrs) on
the Liouville grid in x = -ln r: dstemr refines the window's
eigenvalues with its own routines (dlarre, dlarrb), by bisection on a
shifted LDL^T factorization (Dhillon, Parlett & Voemel, ACM TOMS 32,
2006).  The oracle's vectors, the one place where it solves as the
production solvers do, give only its node counts and samples: the cli's
oracle verdict compares values, from dstemr, and negative counts.  It
counts with the solvers' cuts: spectral.MARGIN, ZERO_CUT and NODE_TOL.

The LAPACK routines come from scipy's compiled modules, which the kernels
module's lapack_module loads without the scipy.linalg package: dsterf and
dgtsv from the f2py wrappers (_flapack), dstemr from cython_lapack.
dstemr is called through the C function that cython_lapack exports, with
ctypes (the kernels module's loader cython_lapack_function), because
scipy's f2py wrapper allocates and zero-fills an n x n eigenvector array
even when no eigenvectors are asked for (32 MB at n = 2000); this call
needs O(n) workspace.  dstemr splits the matrix at off-diagonals below
eps * ||T||, which loses the bound states of the strongly graded matrices
that an epsilon_cut above about 1e-3 gives at n = 2000; those matrices get
the full spectrum from root-free QR (dsterf).
"""

from __future__ import annotations

import ctypes

import numpy as np

from ._kernels import cython_lapack_function, lapack_module
from .spectral import (MARGIN, NODE_TOL, ZERO_CUT, EigenPair,
                       SpectralError, Spectrum, WeightedSLProblem,
                       count_sign_changes)

_flapack = lapack_module("_flapack")
dgtsv, dsterf = _flapack.dgtsv, _flapack.dsterf

DENSE_N, DENSE_N_GUARD = 2000, 4000  # default and largest grid, in cells
EPSILON_CUT_MAX = 0.1      # epsilon_cut lies in (0, EPSILON_CUT_MAX)
# r_i = eps + (1-eps) (i/n)^GRADING, eps defaulting to EPSILON_CUT
GRADING = 4.0
EPSILON_CUT = 1e-10
# The oracle's limit: the slowest decay kappa = sqrt(threshold - nu), in
# x = -ln r, that its cut at EPSILON_CUT (x = 23) resolves.  A pair that
# decays slower keeps part of its mass past the cut, and the Dirichlet end
# there moves its value (by 1e-2 relative at kappa = 0.057, nu_3 of
# (N, alpha, p, m) = (3, 0, 3, 2)): the oracle is compared on no such pair.
# ROADMAP item 23's shooting oracle, which carries the exact tail, removes
# this limit.
ORACLE_KAPPA_MIN = 0.2


def resolves(threshold: float, value: float) -> bool:
    """Whether the eigenvalue `value` below `threshold` decays at least as
    fast as ORACLE_KAPPA_MIN: whether the oracle is compared on it."""
    return threshold - value >= ORACLE_KAPPA_MIN ** 2


# scalars by reference, arrays by address (ndarray.ctypes.data): the
# pointer objects of ndarray.ctypes.data_as form reference cycles, garbage
# that outlives the call until the cyclic GC runs
_INT = ctypes.POINTER(ctypes.c_int)
_DBL = ctypes.POINTER(ctypes.c_double)
_ARRAY = ctypes.c_void_p
_DSTEMR_C = cython_lapack_function(
    "dstemr", ctypes.c_char_p, ctypes.c_char_p, _INT, _ARRAY, _ARRAY, _DBL,
    _DBL, _INT, _INT, _INT, _ARRAY, _ARRAY, _INT, _INT, _ARRAY, _INT,
    _ARRAY, _INT, _ARRAY, _INT, _INT)


def _dstemr(d, e, vl: float, vu: float):
    """Values-only dstemr (JOBZ='N', RANGE='V') on tridiag(d, e): the
    eigenvalues in (vl, vu], ascending, and LAPACK's INFO.  d and e are not
    modified."""
    n = len(d)
    if len(e) != n - 1:
        raise ValueError("e must have one element less than d")
    # dstemr takes bare addresses: every array it sees is made here,
    # contiguous, with the dtype its argument needs
    d = np.array(d, dtype=np.float64)          # dstemr overwrites d and e,
    e_n = np.zeros(n)                          # and e has length n
    e_n[:-1] = e
    w = np.empty(n)
    z = np.empty(1)                            # not referenced for JOBZ='N'
    isuppz = np.empty(2, dtype=np.intc)        # likewise
    work = np.empty(12 * n)                    # the JOBZ='N' minima
    iwork = np.empty(8 * n, dtype=np.intc)
    c_int, c_double = ctypes.c_int, ctypes.c_double
    m, info = c_int(0), c_int(0)
    _DSTEMR_C(b"N", b"V", ctypes.byref(c_int(n)), d.ctypes.data,
              e_n.ctypes.data, ctypes.byref(c_double(vl)),
              ctypes.byref(c_double(vu)),
              ctypes.byref(c_int(0)), ctypes.byref(c_int(0)),  # IL, IU
              ctypes.byref(m), w.ctypes.data, z.ctypes.data,
              ctypes.byref(c_int(1)), ctypes.byref(c_int(0)),
              isuppz.ctypes.data, ctypes.byref(c_int(1)),
              work.ctypes.data, ctypes.byref(c_int(len(work))),
              iwork.ctypes.data, ctypes.byref(c_int(len(iwork))),
              ctypes.byref(info))
    return w[:m.value].copy(), info.value


def _eigenvalues(d, e, upper: float):
    """Ascending eigenvalues of tridiag(d, e), all those <= `upper`."""
    radius = np.zeros(len(d))
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo, hi = float(np.min(d - radius)), float(np.max(d + radius))
    # dstemr cuts T at every |e_i| <= eps * (hi - lo), which holds its
    # eigenvalues only to eps * ||T|| absolutely.  On the grids of a large
    # epsilon_cut that drops the bound states; root-free QR keeps them.  The
    # factor 4 covers rounding in this copy of dstemr's test.
    splits = np.min(np.abs(e)) <= 4.0 * np.finfo(float).eps * (hi - lo)
    if splits:
        w, info = dsterf(d, e)
        w = w[w <= upper]
    else:
        # the window's open lower end lies below Gershgorin's bound, by a
        # margin that survives rounding
        w, info = _dstemr(d, e, min(lo, upper) - abs(lo) - 1.0, upper)
    if info != 0:
        driver = "dsterf" if splits else "dstemr"
        raise SpectralError(f"LAPACK {driver} failed with info={info}")
    return w


def _assemble(prob: WeightedSLProblem, n: int, eps: float, grading: float):
    """FD/FV pencil (A, D) on r_i = eps + (1-eps) (i/n)^grading, Dirichlet
    at both ends: the unknowns are nodes 1..n-1."""
    M = prob.M
    xi = np.arange(n + 1) / n
    r = eps + (1.0 - eps) * xi ** grading
    rm = 0.5 * (r[:-1] + r[1:])
    cond = rm ** (M - 1.0) / np.diff(r)
    edges = np.concatenate(([r[0]], rm, [r[-1]]))
    ex = M - 2.0
    if abs(ex) < 1e-13:
        mass = np.log(edges[1:] / edges[:-1])
    else:
        mass = (edges[1:] ** ex - edges[:-1] ** ex) / ex
    mass_pot = (edges[1:] ** M - edges[:-1] ** M) / M
    a_vals = np.asarray(prob.a(r), dtype=float)
    sl = slice(1, n)
    diag = cond[:-1] + cond[1:] - a_vals[sl] * mass_pot[sl]
    off = -cond[1:-1]
    s = 1.0 / np.sqrt(mass[sl])
    return r, s, diag * s * s, off * s[:-1] * s[1:]


def _oracle_values(prob: WeightedSLProblem, d, e):
    """(values, negative count, exhausted_below) of tridiag(d, e): every
    value below threshold - MARGIN."""
    exhausted = prob.threshold - MARGIN
    window = _eigenvalues(d, e, upper=max(exhausted, -ZERO_CUT))
    neg = int(np.count_nonzero(window <= -ZERO_CUT))
    return window[window <= exhausted], neg, exhausted


def _eigenvectors(d, e, vals):
    """Unit eigenvectors of tridiag(d, e), one column per value in `vals`:
    three inverse-iteration solves each from a constant start."""
    vecs = np.empty((len(d), len(vals)))
    for j, lam in enumerate(vals):
        x = np.ones(len(d))
        for _ in range(3):
            *_, x, info = dgtsv(e, d - lam, e, x)
            if info != 0:
                raise SpectralError(f"LAPACK dgtsv failed with info={info}")
            x /= np.linalg.norm(x)
        vecs[:, j] = x
    return vecs


def dense_oracle_spectrum(prob: WeightedSLProblem, n: int = DENSE_N,
                          epsilon_cut: float | None = None) -> Spectrum:
    """All sub-threshold eigenvalues of the singular-kind `prob`.

    Verification-only path, kept deliberately independent of the production
    solvers; a standard-kind problem is a ValueError.  The n <= DENSE_N_GUARD
    guard bounds the dense cost.  The grid (GRADING, EPSILON_CUT) is
    strongly graded and reaches down to 1e-10, because the eigenfunctions
    vanish at the origin like powers.  The values are extrapolated from an
    (n/2, n) pair and each pair carries the extrapolation bar.  All pairs
    share one r grid.
    """
    if prob.kind != "singular":
        raise ValueError("the dense oracle solves the singular kind only")
    if n > DENSE_N_GUARD:
        raise ValueError(f"dense oracle refuses n > {DENSE_N_GUARD}")
    if epsilon_cut is None:
        epsilon_cut = EPSILON_CUT
    if not 0 < epsilon_cut < EPSILON_CUT_MAX:
        raise ValueError(f"epsilon_cut must lie in (0, {EPSILON_CUT_MAX})")
    r, s, d, e = _assemble(prob, n, epsilon_cut, GRADING)
    vals, neg, exhausted = _oracle_values(prob, d, e)
    vecs = _eigenvectors(d, e, vals)

    values = np.asarray(vals, dtype=float)
    bars = np.full(len(values), float("nan"))
    d_c, e_c = _assemble(prob, n // 2, epsilon_cut, GRADING)[2:]
    coarse = _oracle_values(prob, d_c, e_c)[0]
    n_common = min(len(values), len(coarse))
    cv = coarse[:n_common]
    bars[:n_common] = np.abs(values[:n_common] - cv) / 3.0
    values[:n_common] = (4.0 * values[:n_common] - cv) / 3.0

    pairs = []
    for i in range(len(values)):
        psi_u = vecs[:, i] * s          # generalized eigenvector, unit mass
        psi = np.zeros(len(r))          # zero at the Dirichlet nodes
        psi[-1 - len(psi_u):-1] = psi_u
        anchor = psi_u[-1]
        if anchor < 0:
            psi = -psi
        slope = np.gradient(psi, r, edge_order=2)[-1]
        nodes = count_sign_changes(psi_u,
                                   NODE_TOL * float(np.max(np.abs(psi_u))))
        pairs.append(EigenPair(
            value=float(values[i]), error_bar=float(bars[i]), grid=r,
            samples=psi, interior_nodes=nodes,
            boundary_slope=float(slope)))
    meta = {"n": n, "epsilon_cut": epsilon_cut, "grading": GRADING,
            "oracle": True}
    return Spectrum(kind=prob.kind, M=prob.M, threshold=prob.threshold,
                    eigenpairs=tuple(pairs), exhausted_below=float(exhausted),
                    negative_count=neg, meta=meta)
