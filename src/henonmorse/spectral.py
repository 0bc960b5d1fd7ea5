"""Weighted Sturm-Liouville eigensolvers on the unit interval.

Two problems share the operator -(r^(M-1) psi')' - r^(M-1) a(r) psi:

* standard kind: eigenvalue weight r^(M-1), natural condition at r=0;
* singular kind: eigenvalue weight r^(M-3), eigenvalues only below the
  Hardy threshold ((M-2)/2)^2.

Both are solved on one Liouville grid: x = -ln r, u = r^c psi with
c = (M-2)/2 turns the common form into int (u' + c u)^2 - e^(-2x) a u^2 dx
against the mass e^(-2x) u^2 (standard) or u^2 (singular: -u'' + V u = nu u
on a half-line, V(x) = c^2 - e^(-2x) a(e^(-x))).  Both reduce to symmetric
tridiagonal matrices (kernels module), whose Sturm counts give the negative
counts and zero bands.  Richardson bars come from a coarse/fine grid pair.
The singular coarse grid is bisected to 1e-4 brackets and finished by
Rayleigh quotients; its vectors, prolongated, seed inverse iteration on the
fine grid, whose pairs a Sturm count and disjoint residual intervals
certify.  The standard kind's graded matrix is bisected to 1e-300.

A run sets the fine grid n, the interval length X and the Richardson
tolerance (SpectralConfig).  The rest of the policy is fixed in module
constants: the caps on n and X (N_CAP, X_MAX_CAP), the decay the adaptive X
aims at and the one below which a pair is flagged uncertain (KAPPA_X_TARGET,
CERTIFY_KAPPA_X), the band below the threshold that no reported eigenvalue
enters (MARGIN), and the node, zero and simple-eigenvalue cuts (NODE_TOL,
ZERO_CUT, EIG_TOL).  The dense oracle and the Morse report count with the
same MARGIN, ZERO_CUT and NODE_TOL.

Quadrature (normalization, inner products, Rayleigh quotients, the Picone
residual) is an in-house composite Simpson rule on the uniform Liouville
grid, so the module needs numpy and the LAPACK kernels only: the runtime
imports numpy, scipy's top-level package, the two compiled LAPACK modules
the kernels module loads from their files (not the scipy.linalg package)
and the standard library, and no other part of scipy.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._kernels import (BRACKET, Eigenvalues, SpectralError,
                       bisect_eigenvalues, inverse_iteration,
                       rayleigh_quotients, rayleigh_refine,
                       relative_residual, residual_norms, sturm_count)

N_CAP = 1 << 19          # largest fine grid, in cells
X_MAX_CAP = 60.0         # largest Liouville interval length X
KAPPA_X_TARGET = 30.0    # adaptive X aims at sqrt(threshold - nu) X >= this
CERTIFY_KAPPA_X = 12.0   # below this a singular pair is flagged uncertain
MARGIN = 1e-6            # eigenvalues are reported below threshold - MARGIN
NODE_TOL = 1e-8          # node-count cut, relative to max |u|
ZERO_CUT = 1e-7          # |value| below this counts as zero
EIG_TOL = 1e-13          # relative gap resolution of the bisection
PROBE_N = 2048           # cells of the grid whose minimum of V sets n


class ResolutionError(SpectralError):
    """The coarse and fine grids disagree beyond the Richardson tolerance:
    the grid cannot resolve the requested eigenvalues."""


@dataclass(frozen=True)
class WeightedSLProblem:
    """Operator data: dimension parameter M, bounded potential a on (0, 1],
    and the eigenvalue-weight kind ("standard" or "singular")."""

    M: float
    a: Callable
    kind: str

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("M must be >= 2")
        if self.kind not in ("standard", "singular"):
            raise ValueError("kind must be 'standard' or 'singular'")

    @property
    def threshold(self) -> float:
        """Hardy ceiling for the singular kind; +inf for the standard kind."""
        if self.kind == "singular":
            return ((self.M - 2.0) / 2.0) ** 2
        return math.inf


def zero_potential(r):
    return np.zeros_like(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class SpectralConfig:
    """The settings of one solve; the fixed policy is in the module
    constants (N_CAP, X_MAX_CAP, ...)."""

    n: int = 4096                 # fine grid (rounded up to even)
    x_max: float | None = None    # None selects the adaptive policy
    tol: float = 5e-4             # max relative Richardson error bar


@dataclass(frozen=True)
class EigenPair:
    value: float
    error_bar: float
    grid: np.ndarray              # r, ascending
    samples: np.ndarray           # psi(r), unit norm in the problem's weight
    interior_nodes: int
    boundary_slope: float         # psi'(1)
    decay_exponent: float | None  # fitted theta, singular negative pairs
    theta_analytic: float | None
    uncertain: bool = False
    x_grid: np.ndarray | None = None   # Liouville nodes, when applicable
    u_samples: np.ndarray | None = None


@dataclass(frozen=True)
class Spectrum:
    kind: str
    M: float
    threshold: float
    eigenpairs: tuple
    exhausted_below: float
    negative_count: int
    meta: dict = field(default_factory=dict)

    @property
    def values(self) -> np.ndarray:
        return np.array([p.value for p in self.eigenpairs])


# ---------------------------------------------------------------------------
# the Liouville grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiouvilleProblem:
    """Uniform discretization of the Liouville form on (0, X), u(0) = 0."""

    x: np.ndarray          # all nodes 0..n
    V: np.ndarray          # potential at all nodes
    h: float
    threshold: float

    def tridiagonal(self):
        """(diag, off) over the interior nodes."""
        d = 2.0 / self.h ** 2 + self.V[1:-1]
        e = np.full(len(d) - 1, -1.0 / self.h ** 2)
        return d, e

    def standard_tridiagonal(self):
        """(diag, off, s) of s A s over nodes 1..n, natural closure at X: A
        sums h (beta u_i + alpha u_(i+1))^2, alpha, beta = +-1/h + c/2 with
        c^2 = threshold, less the lumped r^2 a = threshold - V, and s is
        B^(-1/2) for the lumped mass B = h e^(-2x), a half cell at X."""
        h, c2 = self.h, self.threshold
        w = np.full(len(self.x) - 1, h)
        w[-1] = 0.5 * h
        d = w * (self.V[1:] - 0.5 * c2) + 2.0 / h
        d[-1] += math.sqrt(c2) - 1.0 / h
        e = np.full(len(w) - 1, 0.25 * h * c2 - 1.0 / h)
        s = np.exp(self.x[1:]) / np.sqrt(w)
        return d * s * s, e * s[:-1] * s[1:], s

    def coarsened(self):
        """Every other node of an even grid: for n cells, bitwise the grid
        of n // 2 cells that liouville_transform builds on (0, X)."""
        if (len(self.x) - 1) % 2:
            raise ValueError("only a grid with an even number of cells "
                             "can be coarsened")
        return LiouvilleProblem(x=self.x[::2], V=self.V[::2], h=2.0 * self.h,
                                threshold=self.threshold)


def _prolongate(w):
    """Columns of w, unknowns at the interior nodes of a grid, carried to the
    grid of twice its cells: coarse node j is fine node 2j, and odd fine
    nodes take the cubic stencil (-1, 9, 9, -1)/16, with w extended oddly
    past both Dirichlet ends."""
    zero = np.zeros((1, w.shape[1]))
    wp = np.concatenate((-w[:1], zero, w, zero, -w[-1:]))
    u = np.empty((2 * len(w) + 1, w.shape[1]))
    u[::2] = (9.0 * (wp[1:-2] + wp[2:-1]) - (wp[:-3] + wp[3:])) / 16.0
    u[1::2] = w
    return u


def liouville_transform(prob: WeightedSLProblem, x_max: float,
                        n: int = SpectralConfig.n) -> LiouvilleProblem:
    """Discretize the singular problem in x = -ln r.

    The transform u(x) = r^((M-2)/2) psi(r) maps the singular Rayleigh
    quotient isometrically onto the half-line form, with
    V(x) = threshold - e^(-2x) a(e^(-x)); the artificial Dirichlet wall at
    x_max is admissible because sub-threshold eigenfunctions decay like
    exp(-sqrt(threshold - nu) x).
    """
    if prob.kind != "singular":
        raise ValueError("liouville_transform applies to the singular kind")
    if x_max <= 0:
        raise ValueError("x_max must be positive")
    x = np.linspace(0.0, x_max, n + 1)
    r = np.exp(-x)
    a_vals = np.asarray(prob.a(r), dtype=float)
    if not np.all(np.isfinite(a_vals)):
        raise SpectralError("potential not evaluable on the Liouville grid")
    V = prob.threshold - r * r * a_vals
    return LiouvilleProblem(x=x, V=V, h=x_max / n, threshold=prob.threshold)


def _flat_x_max(prob: WeightedSLProblem) -> float:
    """X past which the singular-kind potential V is flat: 8 beyond the last
    x where e^(-2x) |a| exceeds 1e-10 max(1, threshold), in [20, X_MAX_CAP]."""
    xs = np.linspace(0.0, X_MAX_CAP, 4097)
    w = np.exp(-2 * xs) * np.abs(prob.a(np.exp(-xs)))
    tol = 1e-10 * max(1.0, prob.threshold)
    above = np.nonzero(w > tol)[0]
    x_flat = xs[above[-1]] if len(above) else 0.0
    return min(X_MAX_CAP, max(20.0, x_flat + 8.0))


def _auto_x_max(prob: WeightedSLProblem) -> float:
    """Pick X so the potential has flattened and target decay is reached."""
    x0 = _flat_x_max(prob)
    grid = liouville_transform(prob, x0, 1024)
    d, e = grid.tridiagonal()
    below = bisect_eigenvalues(d, e, below=prob.threshold - MARGIN,
                               abstol=BRACKET)
    if not len(below):
        return x0
    top = rayleigh_refine(d, e, below[-1:])[0][0]
    kappa_min = math.sqrt(max(prob.threshold - top, 1e-30))
    return min(X_MAX_CAP, max(x0, KAPPA_X_TARGET / kappa_min))


def _resolution(n_cfg: int, x_max: float, v_min: float, threshold: float):
    """Grid size large enough to resolve the fastest local oscillation, up
    to N_CAP; even, so that every other node makes the coarse grid."""
    k_osc = math.sqrt(max(threshold - v_min, 1.0))
    n_req = 2.0 * x_max * k_osc
    n = n_cfg + n_cfg % 2
    while n < min(n_req, N_CAP):
        n *= 2
    return min(n, N_CAP), n_req > N_CAP


def _fine_grid(prob: WeightedSLProblem, x_max: float, cfg: SpectralConfig):
    """The fine Liouville grid of singular-kind `prob`, its n (_resolution
    on a PROBE_N-cell probe of V), and whether n hit the cap.

    When the configured n is PROBE_N times a power of two, the probe is
    every (n / PROBE_N)-th node of the grid of that n, bitwise (as in
    LiouvilleProblem.coarsened), and that grid is built first and kept
    unless n must grow."""
    n_cfg = cfg.n + cfg.n % 2
    stride, rest = divmod(n_cfg, PROBE_N)
    grid = None
    if stride and not rest and not stride & (stride - 1):
        grid = liouville_transform(prob, x_max, n_cfg)
        v_min = float(np.min(grid.V[::stride]))
    else:
        v_min = float(np.min(liouville_transform(prob, x_max, PROBE_N).V))
    n, capped = _resolution(cfg.n, x_max, v_min, prob.threshold)
    if grid is None or n != n_cfg:
        grid = liouville_transform(prob, x_max, n)
    return grid, n, capped


def _richardson(vals_f, vals_c, cfg: SpectralConfig, grid: LiouvilleProblem,
                kind: str):
    """Richardson values and bars (infinite without a coarse partner);
    ResolutionError when a bar exceeds cfg.tol relative."""
    n_found = len(vals_f)
    n_common = min(n_found, len(vals_c))
    values = vals_f.copy()
    bars = np.full(n_found, np.inf)
    values[:n_common] = (4 * vals_f[:n_common] - vals_c[:n_common]) / 3
    bars[:n_common] = np.abs(vals_f[:n_common] - vals_c[:n_common]) / 3
    bad = bars > cfg.tol * np.maximum(1.0, np.abs(values))
    if np.any(bad):
        raise ResolutionError(
            f"grid too coarse: Richardson bar {bars[bad][0]:.3e} on {kind} "
            f"eigenvalue {values[bad][0]:.6g} (n={len(grid.x) - 1}, "
            f"x_max={grid.x[-1]:.3g})")
    _assert_simple(values)
    return values, bars


def count_sign_changes(vals: np.ndarray, cut: float) -> int:
    """Sign changes of a sampled function, ignoring samples with
    |value| <= cut."""
    signs = np.sign(vals[np.abs(vals) > cut])
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def solve_singular_spectrum(prob: WeightedSLProblem, k: int,
                            cfg: SpectralConfig = SpectralConfig()
                            ) -> Spectrum:
    """Up to k eigenvalues below threshold - MARGIN, with eigenfunctions.

    On the every-other-node coarsening of the Liouville tridiagonal,
    bisection brackets every eigenvalue below the margin to width 1e-4, and
    the k lowest are finished by the Rayleigh quotients of their
    inverse-iteration vectors.  On the fine grid a Sturm count gives the
    count below the margin; the coarse vectors, prolongated (_prolongate),
    give its k lowest eigenpairs by inverse iteration at their Rayleigh
    quotients (_seeded_pairs).  The two grids give Richardson-extrapolated
    values and error bars; disagreement beyond cfg.tol, or more fine than
    coarse eigenvalues among the k lowest, raises ResolutionError.  Two
    eigenvalues closer than 2e-4, whose brackets overlap, or a fine pair
    the certificate rejects, raise SpectralError.  Pairs whose decay rate
    cannot satisfy sqrt(threshold - nu) * X >= CERTIFY_KAPPA_X within
    X_MAX_CAP are flagged uncertain (truncation-limited accuracy near the
    threshold).
    """
    if prob.kind != "singular":
        raise ValueError("solve_singular_spectrum needs the singular kind")
    x_max = cfg.x_max if cfg.x_max is not None else _auto_x_max(prob)
    hi = prob.threshold - MARGIN
    g_f, n, capped = _fine_grid(prob, x_max, cfg)

    # every eigenvalue below the margin is bracketed on the coarse grid; the
    # k lowest are finished by their Rayleigh quotients
    d_c, e_c = g_f.coarsened().tridiagonal()
    below_c = bisect_eigenvalues(d_c, e_c, below=hi, abstol=BRACKET)
    vals_c, vecs_c, _ = rayleigh_refine(d_c, e_c, below_c[:max(k, 0)])
    d_f, e_f = g_f.tridiagonal()
    count_f = sturm_count(d_f, e_f, hi)
    n_found = min(max(k, 0), count_f)
    if n_found > len(vals_c):
        raise ResolutionError(
            f"grid too coarse: {n_found} singular eigenvalues below the "
            f"margin on the fine grid against {len(vals_c)} on the coarse "
            f"one (n={n}, x_max={x_max:.3g})")
    # the next eigenvalue bounds what was left out
    exhausted = (float(bisect_eigenvalues(d_f, e_f, n_found + 1,
                                          n_found + 1).values[0])
                 if count_f > n_found else hi)
    vals_f, vecs, residuals = _seeded_pairs(d_f, e_f, vecs_c[:, :n_found],
                                            exhausted)
    values, bars = _richardson(vals_f, vals_c, cfg, g_f, "singular")

    zero_cut_count = sturm_count(d_f, e_f, -ZERO_CUT)
    zero_band = sturm_count(d_f, e_f, ZERO_CUT) - zero_cut_count
    meta = {"n": n, "x_max": float(x_max), "count_below_margin": int(count_f),
            "resolution_capped": bool(capped),
            "zero_band_count": int(zero_band),
            "eigvec_rel_residual": relative_residual(d_f, e_f, vecs,
                                                     residuals)}
    return Spectrum(kind="singular", M=prob.M, threshold=prob.threshold,
                    eigenpairs=_eigenpairs(prob, g_f, values, bars, vecs),
                    exhausted_below=exhausted,
                    negative_count=int(zero_cut_count), meta=meta)


def _seeded_pairs(d_f, e_f, coarse_vecs, bound):
    """Eigenpairs of the fine tridiag(d_f, e_f) from the coarse grid's
    eigenvectors (columns of coarse_vecs, ascending): inverse iteration at
    the Rayleigh quotients of their prolongations, checked as rayleigh_refine
    checks bisected brackets, and finished by Rayleigh quotients.  A seed
    from an under-resolved coarse grid can miss its fine eigenvalue by more
    than BRACKET; one more round then starts at the quotients it reached.

    Each residual interval [rho - r, rho + r] holds an eigenvalue; when they
    are disjoint and all lie below `bound`, which is the threshold margin
    when the Sturm count there equals their number and else the next
    eigenvalue, they hold the lowest ones, one each.  Otherwise
    SpectralError."""
    shifts = rayleigh_quotients(d_f, e_f, _prolongate(coarse_vecs))
    vals, vecs, residuals = rayleigh_refine(
        d_f, e_f, Eigenvalues.one_block(shifts, len(d_f)), rounds=2)
    lower, upper = vals - residuals, vals + residuals
    bad = ~np.append(upper[:-1] < lower[1:], upper[-1:] < bound)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SpectralError(
            f"fine eigenvalue {vals[i]:.12g} not certified: its residual "
            f"interval of half-width {residuals[i]:.3g} meets the next "
            f"eigenvalue's or the bound {bound:.12g}")
    return vals, vecs, residuals


def solve_standard_spectrum(prob: WeightedSLProblem, k: int,
                            cfg: SpectralConfig = SpectralConfig()
                            ) -> Spectrum:
    """First k eigenvalues of the standard-weight problem on the Liouville
    grid (LiouvilleProblem.standard_tridiagonal).

    X is where the potential has flattened (cfg.x_max when set), n that of
    the singular kind, and h is halved, up to N_CAP, while a Richardson
    bar exceeds cfg.tol.  By Sylvester's law of inertia the negative count
    and zero band (all that k = 0 takes) are those of the form alone.
    """
    if prob.kind != "standard":
        raise ValueError("solve_standard_spectrum needs the standard kind")
    twin = WeightedSLProblem(M=prob.M, a=prob.a, kind="singular")
    x_max = cfg.x_max if cfg.x_max is not None else _flat_x_max(twin)
    g_f, _, capped = _fine_grid(twin, x_max, cfg)
    d_f, e_f, s_f = g_f.standard_tridiagonal()
    values = bars = vecs = np.empty(0)
    rel_residual = 0.0
    if k:
        # the scaled matrix is graded (||T|| about e^(2X) / h^2): keep the
        # fully bisected values, and take only vectors and residual
        d_c, e_c, _ = g_f.coarsened().standard_tridiagonal()
        vals_c = bisect_eigenvalues(d_c, e_c, 1, k).values
        while True:
            # no value lies below -max a (the form less its potential is a
            # sum of squares), and a resolved one within 3 tol of its coarse
            # partner: that window spares dstebz its search down from ||T||
            floor = -2.0 * float(np.max(np.maximum(
                (g_f.threshold - g_f.V) * np.exp(2 * g_f.x), 0.0))) - 1.0
            top = vals_c[-1] + 4.0 * cfg.tol * max(1.0, abs(vals_c[-1]))
            eig_f = bisect_eigenvalues(d_f, e_f, above=floor, below=top)[:k]
            if len(eig_f) < k:
                eig_f = bisect_eigenvalues(d_f, e_f, 1, k)
            try:
                values, bars = _richardson(eig_f.values, vals_c, cfg, g_f,
                                           "standard")
                break
            except ResolutionError:
                if 2 * len(d_f) > N_CAP:
                    raise
                # the old fine grid is bitwise the new one's coarsening
                vals_c = eig_f.values
                g_f = liouville_transform(twin, x_max, 2 * len(d_f))
                d_f, e_f, s_f = g_f.standard_tridiagonal()
        vecs = inverse_iteration(d_f, e_f, eig_f)
        rel_residual = relative_residual(
            d_f, e_f, vecs, residual_norms(d_f, e_f, vecs, eig_f.values))
        vecs = s_f[:, None] * vecs              # generalized eigenvectors

    negative_count = sturm_count(d_f, e_f, -ZERO_CUT)
    zero_band = sturm_count(d_f, e_f, ZERO_CUT) - negative_count
    exhausted = float(values[-1]) if len(values) else -math.inf
    meta = {"n": len(d_f), "x_max": float(x_max),
            "zero_band_count": int(zero_band),
            "resolution_capped": bool(capped),
            "eigvec_rel_residual": rel_residual}
    return Spectrum(kind="standard", M=prob.M, threshold=math.inf,
                    eigenpairs=_eigenpairs(prob, g_f, values, bars, vecs),
                    exhausted_below=exhausted,
                    negative_count=int(negative_count), meta=meta)


def _eigenpairs(prob: WeightedSLProblem, grid: LiouvilleProblem, values,
                bars, vecs) -> tuple:
    """EigenPairs from the unknowns, node 1 on, in the columns of vecs: u
    positive next to r=1 and normalized in the kind's mass, psi = e^(cx) u;
    singular pairs get their decay fits and uncertain flags.  All pairs
    share one r grid and one x grid.

    Nodes are counted on u, not psi: the two share their sign pattern, but
    u stays bounded while psi may grow toward the origin for eigenvalues
    above 0, which would starve a node cut relative to the maximum."""
    singular = prob.kind == "singular"
    x, h = grid.x, grid.h
    r_desc = np.exp(-x)
    r_grid = r_desc[::-1].copy()
    weight = 1.0 if singular else r_desc * r_desc
    a_half = (prob.M - 2.0) / 2.0
    pairs = []
    for i in range(len(values)):
        u = np.zeros(len(x))
        u[1:1 + len(vecs)] = vecs[:, i]
        if u[1] < 0:
            u = -u
        u = u / math.sqrt(_simpson(weight * u * u, h))
        psi = u * np.exp(a_half * x)
        # psi'(1) = -(c u + u') at x = 0, u' one-sided to second order
        slope = -(a_half * u[0] + np.gradient(u[:3], h, edge_order=2)[0])
        uncertain, theta_fit, theta_an = False, None, None
        if singular:
            kappa = math.sqrt(max(prob.threshold - values[i], 0.0))
            uncertain = kappa * x[-1] < CERTIFY_KAPPA_X
            if values[i] < 0:
                theta_an = theta_analytic(values[i], prob.M)
                theta_fit = _fit_decay(x, u, a_half, None)[0]
        inner = u[1:-1]
        nodes = count_sign_changes(inner,
                                   NODE_TOL * float(np.max(np.abs(inner))))
        pairs.append(EigenPair(
            value=float(values[i]), error_bar=float(bars[i]),
            grid=r_grid, samples=psi[::-1].copy(),
            interior_nodes=nodes, boundary_slope=float(slope),
            decay_exponent=theta_fit, theta_analytic=theta_an,
            uncertain=bool(uncertain),
            x_grid=x, u_samples=u))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# diagnostics on eigenpairs
# ---------------------------------------------------------------------------

def _assert_simple(values):
    """Every eigenvalue is simple: two bisection results closer than the
    certified gap resolution signal a defective solve, not a pair."""
    for a, b in zip(values[:-1], values[1:]):
        if b - a < 100.0 * (EIG_TOL * max(1.0, abs(a)) + 1e-300):
            raise SpectralError(
                f"near-degenerate eigenvalues {a:.12g}, {b:.12g}: below the "
                "gap resolution of the bisection")


def theta_analytic(nu_hat: float, M: float) -> float:
    """Vanishing rate at the origin: psi = O(r^theta) for nu_hat < 0."""
    return (2.0 - M + math.sqrt((M - 2.0) ** 2 - 4.0 * nu_hat)) / 2.0


def _fit_decay(x, u, a_half, window_x):
    """(slope, samples used) of the least-squares fit of ln|psi| against
    ln r deep in the tail; the slope is None when the samples are fewer
    than 8 or change sign."""
    umax = float(np.max(np.abs(u)))
    if window_x is None:
        mask = (np.abs(u) > 1e-11 * umax) & (np.abs(u) < 1e-4 * umax)
        mask &= x > 2.0
    else:
        mask = (x >= window_x[0]) & (x <= window_x[1]) & (np.abs(u) > 0)
    n_used = int(np.count_nonzero(mask))
    if n_used < 8:
        return None, n_used
    xs = x[mask]
    if count_sign_changes(u[mask], 0.0):
        return None, n_used
    # ln|psi| = a_half * x + ln|u|; ln r = -x
    ln_psi = a_half * xs + np.log(np.abs(u[mask]))
    slope = np.polyfit(-xs, ln_psi, 1)[0]
    return float(slope), n_used


@dataclass(frozen=True)
class DecayFit:
    theta_fit: float
    theta_analytic: float
    n_points: int
    window: tuple


def fit_decay_exponent(pair: EigenPair, M: float,
                       window=None) -> DecayFit:
    """Fit the vanishing rate of a singular eigenfunction near the origin.

    `window` is (r_lo, r_hi) inside (0, first node); by default a band deep
    in the tail where the samples are clean power laws is selected.
    """
    if pair.value >= 0:
        raise ValueError("decay fit expects a negative singular eigenvalue")
    if pair.x_grid is None:
        raise ValueError("pair carries no Liouville samples")
    x, u = pair.x_grid, pair.u_samples
    a_half = (M - 2.0) / 2.0
    wx = None
    if window is not None:
        r_lo, r_hi = window
        wx = (max(-math.log(r_hi), 0.0), -math.log(r_lo))
        if count_sign_changes(u[(x >= wx[0]) & (x <= wx[1])], 0.0):
            raise ValueError("window contains a node of the eigenfunction")
    theta, n_pts = _fit_decay(x, u, a_half, wx)
    if theta is None:
        raise ValueError("window has too few usable samples for a fit")
    return DecayFit(theta_fit=theta,
                    theta_analytic=theta_analytic(pair.value, M),
                    n_points=n_pts, window=window or ("auto", "auto"))


def picone_residual(pi: EigenPair, pj: EigenPair, M: float) -> float:
    """Normalized defect of the cross-eigenfunction differential identity.

    For exact eigenpairs, r^(M-1)(psi_i' psi_j - psi_i psi_j') integrates the
    weighted product r^(M-3) psi_i psi_j against the eigenvalue gap; in
    Liouville variables that reads W(x) + (nu_j - nu_i) * int_0^x u_i u_j = 0
    with W the plain Wronskian.  Returns the max defect over all subintervals
    scaled by the natural magnitude of the two terms.
    """
    if pi.x_grid is None or pj.x_grid is None:
        raise ValueError("picone residual needs Liouville-sampled pairs")
    if len(pi.x_grid) != len(pj.x_grid) or \
       abs(pi.x_grid[-1] - pj.x_grid[-1]) > 1e-12:
        raise ValueError("pairs come from different grids")
    x = pi.x_grid
    h = x[1] - x[0]
    ui, uj = pi.u_samples, pj.u_samples
    dui = _diff4(ui, h)
    duj = _diff4(uj, h)
    wr = ui * duj - dui * uj
    cum = _cumulative_simpson(ui * uj, h)
    defect = wr + (pj.value - pi.value) * cum
    scale = max(float(np.max(np.abs(ui))) * float(np.max(np.abs(duj)))
                + float(np.max(np.abs(uj))) * float(np.max(np.abs(dui))),
                1e-300)
    return float(np.max(np.abs(defect)) / scale)


def _simpson(y, h):
    """Composite Simpson integral of uniform samples y with spacing h.

    The point count must be odd (an even number of cells, as on every grid
    here); there the result equals scipy.integrate.simpson(y, dx=h) bit for
    bit.
    """
    if len(y) % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd point count, "
                         f"got {len(y)}")
    return np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) * (h / 3.0)


def _cumulative_simpson(y, h):
    """Running integral of uniform samples y (at least 3), 0 at the start.

    Cell i is integrated with the parabola through samples i..i+2 for even
    i and through i-1..i+1 for odd i and for the last cell; this is
    scipy.integrate.cumulative_simpson(y, dx=h, initial=0) bit for bit.
    """
    def first_cells(f):
        return h / 3 * (5 * f[:-2] / 4 + 2 * f[1:-1] - f[2:] / 4)

    fwd = first_cells(y)
    bwd = first_cells(y[::-1])[::-1]
    cells = np.empty(len(y) - 1)
    cells[:-1:2] = fwd[::2]
    cells[1::2] = bwd[::2]
    cells[-1] = bwd[-1]
    return np.concatenate(([0.0], np.cumsum(cells)))


def _diff4(y, h):
    """Fourth-order centered first derivative on a uniform grid."""
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) \
        / (12 * h)
    d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) \
        / (12 * h)
    d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) \
        / (12 * h)
    return d


def weighted_inner_product(pi: EigenPair, pj: EigenPair) -> float:
    """int_0^1 r^(M-3) psi_i psi_j dr via the Liouville isometry."""
    if pi.x_grid is None or pj.x_grid is None:
        raise ValueError("needs Liouville-sampled pairs")
    h = pi.x_grid[1] - pi.x_grid[0]
    return float(_simpson(pi.u_samples * pj.u_samples, h))


def rayleigh_quotient(w, prob: WeightedSLProblem) -> float:
    """Quadratic form over weighted mass for a trial function.

    `w` is a solver EigenPair (its Liouville samples are used) or a tuple
    (r, values[, derivative]) with w(1) = 0.  Evaluated on the i-th
    eigenfunction this reproduces the i-th eigenvalue up to quadrature
    accuracy.
    """
    if isinstance(w, EigenPair):
        x, u = w.x_grid, w.u_samples
        h = x[1] - x[0]
        a_half = (prob.M - 2.0) / 2.0
        du = _diff4(u, h)
        r = np.exp(-x)
        a_vals = np.asarray(prob.a(r), dtype=float)
        num = _simpson((a_half * u + du) ** 2 - r * r * a_vals * u * u, h)
        if prob.kind == "singular":
            den = _simpson(u * u, h)
        else:
            den = _simpson(r * r * u * u, h)
        return float(num / den)
    r = np.asarray(w[0], dtype=float)
    vals = np.asarray(w[1], dtype=float)
    dvals = np.asarray(w[2], dtype=float) if len(w) > 2 else \
        np.gradient(vals, r, edge_order=2)
    if abs(vals[-1]) > 1e-9 * float(np.max(np.abs(vals))):
        raise ValueError("trial function must vanish at r = 1")
    M = prob.M
    a_vals = np.asarray(prob.a(np.maximum(r, 1e-300)), dtype=float)
    wgt = r ** (M - 1.0)
    num = np.trapezoid(wgt * (dvals ** 2 - a_vals * vals ** 2), r)
    if prob.kind == "singular":
        den_w = np.where(r > 0, r ** (M - 3.0), 0.0)
    else:
        den_w = wgt
    den = np.trapezoid(den_w * vals ** 2, r)
    if den == 0:
        raise ZeroDivisionError("trial function has zero weighted mass")
    return float(num / den)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def spectrum_to_json(spec: Spectrum, path) -> None:
    doc = {
        "kind": spec.kind,
        "M": spec.M,
        "threshold": None if math.isinf(spec.threshold) else spec.threshold,
        "exhausted_below": None if math.isinf(spec.exhausted_below)
        else spec.exhausted_below,
        "negative_count": spec.negative_count,
        "eigenvalues": [
            {
                "value": p.value,
                "error_bar": p.error_bar,
                "nodes": p.interior_nodes,
                "theta_fit": p.decay_exponent,
                "theta_analytic": p.theta_analytic,
                "uncertain": p.uncertain,
            }
            for p in spec.eigenpairs
        ],
        "meta": {k: v for k, v in spec.meta.items()
                 if isinstance(v, (int, float, bool, str))},
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def spectrum_from_json(path) -> Spectrum:
    """Read back what spectrum_to_json wrote: eigenvalues and flags, no
    eigenfunction samples."""
    with open(path) as fh:
        doc = json.load(fh)
    pairs = tuple(
        EigenPair(value=e["value"], error_bar=e["error_bar"],
                  grid=np.empty(0), samples=np.empty(0),
                  interior_nodes=e["nodes"],
                  boundary_slope=math.nan, decay_exponent=e["theta_fit"],
                  theta_analytic=e["theta_analytic"],
                  uncertain=e["uncertain"])
        for e in doc["eigenvalues"])
    thr = doc["threshold"]
    exh = doc["exhausted_below"]
    return Spectrum(kind=doc["kind"], M=doc["M"],
                    threshold=math.inf if thr is None else thr,
                    eigenpairs=pairs,
                    exhausted_below=-math.inf if exh is None else exh,
                    negative_count=doc["negative_count"], meta=doc["meta"])


def eigenfunction_to_csv(pair: EigenPair, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "psi"])
        for r, v in zip(pair.grid, pair.samples):
            w.writerow([f"{r:.17g}", f"{v:.17g}"])
