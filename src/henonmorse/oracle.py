"""Independent dense eigensolver used only to cross-check the main solvers.

Discretizes both problem kinds directly in the r variable on a power-graded
grid truncated at [epsilon_cut, 1].  The full spectrum of the symmetric
tridiagonal form comes from LAPACK's root-free QR iteration (dsterf), the
eigenvectors from shifted solves with its pivoted tridiagonal LU (dgtsv).
Neither code nor eigen-driver is shared with the Liouville-transform or
finite-volume paths, which run bisection (dstebz) and dstein.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgtsv

from .spectral import (EigenPair, SpectralError, Spectrum,
                       WeightedSLProblem, count_interior_nodes_sampled)

DENSE_N_GUARD = 4000


def _assemble(prob: WeightedSLProblem, n: int, eps: float, grading: float):
    """FD/FV pencil (A, D) on r_i = eps + (1-eps) (i/n)^grading."""
    M = prob.M
    xi = np.arange(n + 1) / n
    r = eps + (1.0 - eps) * xi ** grading
    rm = 0.5 * (r[:-1] + r[1:])
    cond = rm ** (M - 1.0) / np.diff(r)
    edges = np.concatenate(([r[0]], rm, [r[-1]]))
    if prob.kind == "singular":
        ex = M - 2.0
        if abs(ex) < 1e-13:
            mass = np.log(edges[1:] / edges[:-1])
        else:
            mass = (edges[1:] ** ex - edges[:-1] ** ex) / ex
    else:
        mass = (edges[1:] ** M - edges[:-1] ** M) / M
    mass_pot = (edges[1:] ** M - edges[:-1] ** M) / M
    a_vals = np.asarray(prob.a(r), dtype=float)

    if prob.kind == "singular":
        # Dirichlet at both ends: unknowns are nodes 1..n-1
        sl = slice(1, n)
        diag = cond[:-1] + cond[1:] - a_vals[sl] * mass_pot[sl]
        off = -cond[1:-1]
        m_u = mass[sl]
        r_u = r[sl]
    else:
        # natural closure at the left end, Dirichlet at r=1
        sl = slice(0, n)
        diag = np.empty(n)
        diag[0] = cond[0]
        diag[1:] = cond[:-1] + cond[1:]
        diag = diag - a_vals[sl] * mass_pot[sl]
        off = -cond[:-1]
        m_u = mass[sl]
        r_u = r[sl]
    s = 1.0 / np.sqrt(m_u)
    return r, r_u, m_u, s, diag * s * s, off * s[:-1] * s[1:]


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


def dense_oracle_spectrum(prob: WeightedSLProblem, n: int = 2000,
                          epsilon_cut: float | None = None, *,
                          grading: float | None = None, k: int | None = None,
                          margin: float = 1e-6, zero_cut: float = 1e-7,
                          richardson: bool = True) -> Spectrum:
    """All sub-threshold eigenvalues (singular) or the first k (standard).

    Verification-only path, kept deliberately independent of the production
    solvers.  The n <= 4000 guard bounds the dense cost.  Grid defaults per
    kind: the singular problem gets a strongly graded grid reaching down to
    1e-10 (its eigenfunctions vanish at the origin like powers), the standard
    problem a uniform grid from 1e-9 (grading inflates the matrix scale
    ||T||, and the absolute eigenvalue accuracy of about eps * ||T|| would
    then swamp the low eigenvalues).  With `richardson` the values are
    extrapolated from an (n/2, n) pair and each pair carries the
    extrapolation bar.
    """
    if n > DENSE_N_GUARD:
        raise ValueError(f"dense oracle refuses n > {DENSE_N_GUARD}")
    if grading is None:
        grading = 4.0 if prob.kind == "singular" else 1.0
    if epsilon_cut is None:
        epsilon_cut = 1e-10 if prob.kind == "singular" else 1e-9
    if not 0 < epsilon_cut < 0.1:
        raise ValueError("epsilon_cut must lie in (0, 0.1)")
    if richardson:
        coarse = dense_oracle_spectrum(prob, n // 2, epsilon_cut,
                                       grading=grading, k=k, margin=margin,
                                       zero_cut=zero_cut, richardson=False)
    r, r_u, m_u, s, d, e = _assemble(prob, n, epsilon_cut, grading)

    spectrum = eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
    neg = int(np.count_nonzero(spectrum <= -zero_cut))
    if prob.kind == "singular":
        exhausted = prob.threshold - margin
        vals = spectrum[spectrum <= exhausted][:k]
    else:
        vals = spectrum[:k if k is not None else 6]
        exhausted = float(vals[-1]) if len(vals) else -math.inf
    vecs = _eigenvectors(d, e, vals)

    values = np.asarray(vals, dtype=float)
    bars = np.full(len(values), float("nan"))
    if richardson:
        n_common = min(len(values), len(coarse.eigenpairs))
        cv = coarse.values[:n_common]
        bars[:n_common] = np.abs(values[:n_common] - cv) / 3.0
        values = values.copy()
        values[:n_common] = (4.0 * values[:n_common] - cv) / 3.0

    pairs = []
    for i in range(len(values)):
        psi_u = vecs[:, i] * s          # generalized eigenvector, unit mass
        if prob.kind == "singular":
            psi = np.concatenate(([0.0], psi_u, [0.0]))
        else:
            psi = np.concatenate((psi_u, [0.0]))
        anchor = psi_u[-1]
        if anchor != 0 and anchor < 0:
            psi = -psi
        dpsi = np.gradient(psi, r, edge_order=2)
        nodes = count_interior_nodes_sampled(psi_u, 1e-8)
        pairs.append(EigenPair(
            value=float(values[i]), error_bar=float(bars[i]), grid=r.copy(),
            samples=psi, derivative=dpsi, interior_nodes=nodes,
            boundary_slope=float(dpsi[-1]), decay_exponent=None,
            theta_analytic=None, uncertain=False))
    meta = {"n": n, "epsilon_cut": epsilon_cut, "grading": grading,
            "oracle": True, "richardson": bool(richardson)}
    return Spectrum(kind=prob.kind, M=prob.M, threshold=prob.threshold,
                    eigenpairs=tuple(pairs), exhausted_below=float(exhausted),
                    negative_count=neg, meta=meta)
