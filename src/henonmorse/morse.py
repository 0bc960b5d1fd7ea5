"""Morse-index assembly: spherical-harmonic bookkeeping, index formulas,
degeneracy detection, lower bounds and closed-form large-exponent values.

The count works through the angular threshold J of each negative transformed
eigenvalue: harmonic orders j with j < J contribute their multiplicity to the
index.  When J lands on an integer within COLLISION_TOL the report flags
the collision (the solution is then numerically indistinguishable from a
degenerate one) and resolves the sum with the strict inequality, i.e. the
boundary order is excluded, which is exactly the closed-form rule at an exact
hit.  The symmetric index keeps the orders a rotation group leaves invariant:
the full rotation group, or the planar cyclic group of order q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dimension import (DimensionMap, angular_threshold, degeneracy_targets,
                        eigenvalue_pullback)
from .spectral import ZERO_CUT, SpectralError, Spectrum

BETA_PLANAR = math.sqrt(26.9)  # first-eigenvalue decay constant, N=2 limit
COLLISION_TOL = 1e-5   # |J - round(J)| at or below this flags a collision
EVEN_TOL = 1e-12       # alpha this close to an even integer is even
BETA_GUARD = 1e-9      # floor arguments this close to an integer are refused


def beltrami_eigen(N: int, j: int) -> int:
    """Eigenvalue j(N+j-2) of the Laplace-Beltrami operator on S^(N-1)."""
    if N < 2 or j < 0:
        raise ValueError("need N >= 2 and j >= 0")
    return j * (N + j - 2)


def beltrami_multiplicity(N: int, j: int) -> int:
    """Multiplicity of the j-th Laplace-Beltrami eigenvalue.

    Evaluated as an exact integer running product, (N+2j-2)(N+j-3)! /
    ((N-2)! j!); overflow-safe through Python integers.
    """
    if N < 2 or j < 0:
        raise ValueError("need N >= 2 and j >= 0")
    if j == 0:
        return 1
    num = N + 2 * j - 2
    for i in range(1, j):
        num *= N - 2 + i
    den = math.factorial(j)
    if num % den:
        raise ArithmeticError("multiplicity did not come out integer")
    return num // den


@dataclass(frozen=True)
class EigenContribution:
    nu_hat: float
    lambda_hat_rad: float
    J: float
    contributing_j: tuple
    contribution: int
    integer_collision: bool


@dataclass(frozen=True)
class DegeneracyReport:
    radially_degenerate: bool
    radial_offender: int | None
    nonradial_hits: tuple          # (k, j, residual)
    tolerance: float
    source: str                    # which spectrum decided radial degeneracy


@dataclass(frozen=True)
class MorseReport:
    dmap: DimensionMap
    radial_morse: int
    per_eigenvalue: tuple
    total: int
    degeneracy: DegeneracyReport | None
    bounds: dict
    prediction: int | None
    nodal_zones: int | None


def _contribution(nu_hat: float, dmap: DimensionMap):
    J = angular_threshold(nu_hat, dmap)
    nearest = round(J)
    collision = abs(J - nearest) <= COLLISION_TOL and nearest >= 1
    j_top = int(math.ceil(J)) - 1           # largest j with j < J
    if collision:
        j_top = nearest - 1                 # strict rule at an exact hit
    js = tuple(range(0, j_top + 1))
    contrib = sum(beltrami_multiplicity(dmap.N, j) for j in js)
    lam = eigenvalue_pullback(nu_hat, dmap)
    return EigenContribution(nu_hat=nu_hat, lambda_hat_rad=lam, J=J,
                             contributing_j=js, contribution=contrib,
                             integer_collision=collision)


def morse_index(spec: Spectrum, dmap: DimensionMap, *,
                m: int | None = None,
                degeneracy: DegeneracyReport | None = None) -> MorseReport:
    """Assemble the full Morse count from a singular spectrum.

    Each negative eigenvalue nu contributes sum_(j < J(nu)) N_j; entries
    whose J sits on an integer within COLLISION_TOL carry a flag (see module
    docstring).  Bounds and the closed-form large-exponent value are filled
    from the nodal-zone count m (default: the radial index itself).  A
    spectrum holding fewer negative pairs than it counts cannot be counted:
    SpectralError.
    """
    if spec.kind != "singular":
        raise ValueError("morse_index consumes a singular-kind spectrum")
    if abs(spec.M - dmap.M) > 1e-12:
        raise ValueError("spectrum and dimension map disagree on M")
    neg = [p for p in spec.eigenpairs if p.value < 0]
    if spec.negative_count > len(neg):
        raise SpectralError(
            f"spectrum carries {len(neg)} negative pairs but counts "
            f"{spec.negative_count} negative eigenvalues; request "
            "k >= negative_count")
    entries = tuple(_contribution(p.value, dmap) for p in neg)
    total = sum(e.contribution for e in entries)
    m_zones = m if m is not None else len(neg)
    bounds = {
        "general": lower_bound(dmap.N, dmap.alpha, m_zones, False),
        "with_f3": lower_bound(dmap.N, dmap.alpha, m_zones, True),
    }
    try:
        pred = asymptotic_prediction(dmap.N, dmap.alpha, m_zones)
    except ValueError:
        pred = None
    return MorseReport(dmap=dmap, radial_morse=len(neg),
                       per_eigenvalue=entries, total=total,
                       degeneracy=degeneracy, bounds=bounds, prediction=pred,
                       nodal_zones=m_zones)


def degeneracy_scan(spec_singular: Spectrum, spec_standard: Spectrum | None,
                    dmap: DimensionMap, tol: float = 1e-6) -> DegeneracyReport:
    """Detect radial and nonradial kernel directions from the spectra.

    Radial degeneracy is a zero eigenvalue (|value| < ZERO_CUT, the cut of
    the negative counts): of the singular problem when N >= 3, of the
    standard problem when N = 2 (where the weighted space is strictly
    smaller and zero modes can fall outside it).  The N = 2 branch reads
    only the standard counts, so a count-only spectrum (k = 0) decides it
    too: the solution is degenerate when the zero band is not empty, and the
    offender is the first eigenvalue above the negative ones.  Nonradial
    degeneracy matches singular eigenvalues against the angular-order
    targets.
    """
    if dmap.N == 2:
        if spec_standard is None:
            raise ValueError("N=2 radial degeneracy requires the standard "
                             "spectrum")
        band = spec_standard.meta.get("zero_band_count")
        if band is None:
            raise ValueError("N=2 radial degeneracy requires the standard "
                             "spectrum's zero_band_count")
        source = "standard"
        rad_idx = spec_standard.negative_count + 1 if band else None
        radially_degenerate = band > 0
    else:
        source = "singular"
        band = spec_singular.meta.get("zero_band_count")
        rad_idx = next((i + 1 for i, v in enumerate(spec_singular.values)
                        if abs(v) < ZERO_CUT), None)
        # the zero band decides even when no value was solved near zero
        radially_degenerate = rad_idx is not None or bool(band)

    hits = []
    vals = spec_singular.values
    if len(vals):
        nu_min = float(np.min(vals))
        j_max = 1
        while dmap.c * beltrami_eigen(dmap.N, j_max) <= abs(nu_min) + 1.0:
            j_max += 1
        targets = degeneracy_targets(dmap, j_max)
        for kk, v in enumerate(vals):
            for jj, tgt in enumerate(targets, start=1):
                res = abs(v - tgt)
                if res < tol:
                    hits.append((kk + 1, jj, res))
    return DegeneracyReport(radially_degenerate=radially_degenerate,
                            radial_offender=rad_idx,
                            nonradial_hits=tuple(hits), tolerance=tol,
                            source=source)


def symmetric_morse_index(report: MorseReport, q: int | None = None) -> int:
    """Morse index restricted to functions invariant under a rotation group:
    the full index's double sum with multiplicity 1 at j = 0 and, for the
    planar cyclic group of order q (N = 2), 2 at each j >= 1 that q divides;
    q None is the full rotation group, which keeps j = 0 alone."""
    if q is not None and (q < 1 or report.dmap.N != 2):
        raise ValueError("cyclic groups need N = 2 and q >= 1")
    return sum(1 if j == 0 else 2
               for e in report.per_eigenvalue for j in e.contributing_j
               if j == 0 or (q is not None and j % q == 0))


def lower_bound(N: int, alpha: float, m: int, has_f3: bool) -> int:
    """Closed-form floor for the Morse index of an m-nodal radial solution.

    Without extra structure: (m-1) * sum_(j=0..1+[alpha/2]) N_j.  When the
    nonlinearity satisfies the superlinearity condition f'(u) > f(u)/u the
    radial part contributes m instead of m-1:
    m + (m-1) * sum_(j=1..1+[alpha/2]) N_j.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    j_top = 1 + int(math.floor(alpha / 2.0))
    s_all = sum(beltrami_multiplicity(N, j) for j in range(0, j_top + 1))
    s_pos = s_all - 1
    if has_f3:
        return m + (m - 1) * s_pos
    return (m - 1) * s_all


def asymptotic_prediction(N: int, alpha: float, m: int) -> int:
    """Morse index in the large-exponent regime, from the closed forms.

    N >= 3: m * sum_(j=0..1+[alpha/2]) N_j for non-even alpha, and
    m * sum_(j=0..[alpha/2]) N_j + (m-1) N_(1+[alpha/2]) at even alpha
    (including 0).  N = 2 covers only m = 2, through the planar constant
    beta ~ sqrt(26.9): 4 + 2[(1+alpha/2) beta] + 2[alpha/2] off even alpha,
    2 + 2[(1+alpha/2) beta] + 2[alpha/2] at even alpha; the exceptional
    values alpha_n = 2(n/beta - 1), where the floor jumps, are refused, as
    are floor arguments within the propagated uncertainty of beta.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    j_half = int(math.floor(alpha / 2.0))
    near = abs(2.0 * round(alpha / 2.0) - alpha)
    even = near <= EVEN_TOL
    if not even and near < 1e-9:
        # an alpha this close to an even integer is ambiguous: the two
        # branches differ and float noise decides which one fires
        raise ValueError(
            f"alpha={alpha!r} sits within 1e-9 of an even integer; pass the "
            "exact even value to select that branch")
    if N >= 3:
        if even:
            return (m * sum(beltrami_multiplicity(N, j)
                            for j in range(0, j_half + 1))
                    + (m - 1) * beltrami_multiplicity(N, j_half + 1))
        return m * sum(beltrami_multiplicity(N, j)
                       for j in range(0, j_half + 2))
    if m != 2:
        raise ValueError("the planar closed form covers two nodal zones "
                         "only")
    arg = (1.0 + alpha / 2.0) * BETA_PLANAR
    # beta is only known approximately; a floor argument this close to an
    # integer (equivalently alpha close to an exceptional value) is unstable
    if abs(arg - round(arg)) < max(BETA_GUARD, 10 * abs(arg) * 1e-16):
        raise ValueError(
            f"alpha={alpha:g} is within the guard band of an exceptional "
            f"value 2(n/beta - 1); the limit index is not determined there")
    base = 2 if even else 4
    return base + 2 * int(math.floor(arg)) + 2 * j_half
