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
counts and zero bands: each solve asks for all of its counts on its fine
grid in one kernel call.  Richardson bars come from a coarse/fine grid pair.
Eigenvectors come from inverse iteration, from a fixed start where no
closer one is known.  The singular coarse grid is bisected to 1e-4 brackets
and finished by Rayleigh quotients; its vectors, prolongated, are the
shifts (by their Rayleigh quotients) and the start vectors on the fine
grid, whose pairs a Sturm count and disjoint residual intervals certify.
The standard kind's graded matrix is bisected to 1e-300.

A report solves both kinds for one potential, and they share its grids:
each Liouville grid (x, V) a solve builds on its whole interval is kept in
a small memo keyed by the problem (its a, M and kind) and (X, n), with
read-only arrays, and the flat-potential X by the problem.  The standard
kind solves on its singular twin, which compares equal to the singular
problem, so it finds the flat X and the grid of that X already built: the
singular kind's adaptive-X probe is read off that grid.  The memo is only
sound because `a` must be a pure function of r (WeightedSLProblem).

A run sets the fine grid n, the interval length X and the Richardson
tolerance (SpectralConfig).  The rest of the policy is fixed in module
constants: the caps on n and X (N_CAP, X_MAX_CAP), the decay the adaptive X
aims at and the one below which a pair is flagged uncertain (KAPPA_X_TARGET,
CERTIFY_KAPPA_X), the band below the threshold that no reported eigenvalue
enters (MARGIN), and the node, zero and simple-eigenvalue cuts (NODE_TOL,
ZERO_CUT, EIG_TOL).  The dense oracle and the Morse report count with the
same MARGIN, ZERO_CUT and NODE_TOL.

Normalization is an in-house composite Simpson rule on the uniform
Liouville grid, so the module needs numpy and the LAPACK kernels only: the
runtime imports numpy, scipy's top-level package, the two compiled LAPACK
modules the kernels module loads from their files (not the scipy.linalg
package) and the standard library, and no other part of scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._kernels import (BRACKET, SpectralError, bisect_eigenvalues,
                       inverse_iteration, rayleigh_quotients,
                       rayleigh_refine, relative_residual, residual_norms,
                       sturm_count)

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
    and the eigenvalue-weight kind ("standard" or "singular").

    `a` must be a pure function of r, elementwise on arrays: the solvers
    keep the grids they build from it for the next solve of an equal
    problem, which holds the same `a` object."""

    M: float
    a: Callable
    kind: str

    def __post_init__(self):
        if not 2 <= self.M < math.inf:
            raise ValueError(f"M={self.M} must be finite and >= 2")
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
        B^(-1/2) for the lumped mass B = h e^(-2x), a half cell at X.

        The scaled off-diagonal grows like e^(2X) / h^2, and the counts and
        bisection square it: SpectralError when the square overflows (X
        past about 172 at n = 4096)."""
        h, c2 = self.h, self.threshold
        w = np.full(len(self.x) - 1, h)
        w[-1] = 0.5 * h
        d = w * (self.V[1:] - 0.5 * c2) + 2.0 / h
        d[-1] += math.sqrt(c2) - 1.0 / h
        e = np.full(len(w) - 1, 0.25 * h * c2 - 1.0 / h)
        with np.errstate(over="ignore"):
            s = np.exp(self.x[1:]) / np.sqrt(w)
            d, e = d * s * s, e * s[:-1] * s[1:]
            if not np.isfinite(np.max(e * e, initial=0.0)):
                raise SpectralError(
                    f"x_max={self.x[-1]:g} over n={len(w)} cells: the "
                    "squared off-diagonal of the standard kind overflows")
        return d, e, s

    def coarsened(self, stride: int = 2):
        """Every stride-th node, stride a power of two that divides the
        cell count n: bitwise the grid of n // stride cells that
        liouville_transform builds on (0, X)."""
        if stride & (stride - 1) or (len(self.x) - 1) % stride:
            raise ValueError(f"a grid of {len(self.x) - 1} cells cannot be "
                             f"coarsened by {stride}: the stride must be a "
                             "power of two that divides an even cell count")
        return LiouvilleProblem(x=self.x[::stride], V=self.V[::stride],
                                h=stride * self.h, threshold=self.threshold)


def _prolongate(w):
    """Columns of w, unknowns at the interior nodes of a grid, carried to the
    grid of twice its cells: coarse node j is fine node 2j, and odd fine
    nodes take the cubic stencil (-1, 9, 9, -1)/16, with w extended oddly
    past both Dirichlet ends.  The result is column-major, as inverse
    iteration takes its start vectors and rayleigh_quotients sums fastest."""
    zero = np.zeros((1, w.shape[1]))
    wp = np.concatenate((-w[:1], zero, w, zero, -w[-1:]))
    u = np.empty((2 * len(w) + 1, w.shape[1]), order="F")
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
    h = x_max / n
    if h * h == 0.0:
        raise SpectralError(f"x_max={x_max:g} over n={n} cells: the squared "
                            "step underflows to 0")
    x = np.linspace(0.0, x_max, n + 1)
    r = np.exp(-x)
    a_vals = np.asarray(prob.a(r), dtype=float)
    if not np.all(np.isfinite(a_vals)):
        raise SpectralError("potential not evaluable on the Liouville grid")
    V = prob.threshold - r * r * a_vals
    return LiouvilleProblem(x=x, V=V, h=h, threshold=prob.threshold)


# three grids: the most a singular solve builds before the standard solve
# of its report asks again for the first (_auto_x_max's)
@functools.lru_cache(maxsize=3)
def _grid(prob: WeightedSLProblem, x_max: float, n: int) -> LiouvilleProblem:
    """liouville_transform(prob, x_max, n), built once while it is among the
    last three grids asked for; its arrays are read-only."""
    grid = liouville_transform(prob, x_max, n)
    grid.x.flags.writeable = grid.V.flags.writeable = False
    return grid


def _probe(prob: WeightedSLProblem, x_max: float, n: int, cells: int):
    """The grid of `cells` cells on (0, x_max).  When n is `cells` times a
    power of two it is every (n / cells)-th node of the memoized grid of n
    cells, bitwise (LiouvilleProblem.coarsened), and the solve that needs
    that grid next finds it built."""
    stride, rest = divmod(n, cells)
    if stride and not rest and not stride & (stride - 1):
        return _grid(prob, x_max, n).coarsened(stride)
    return liouville_transform(prob, x_max, cells)


@functools.lru_cache(maxsize=2)
def _flat_x_max(prob: WeightedSLProblem) -> float:
    """X past which the singular-kind potential V is flat: 8 beyond the last
    x where e^(-2x) |a| exceeds 1e-10 max(1, threshold), in [20, X_MAX_CAP]."""
    xs = np.linspace(0.0, X_MAX_CAP, 4097)
    w = np.exp(-2 * xs) * np.abs(prob.a(np.exp(-xs)))
    tol = 1e-10 * max(1.0, prob.threshold)
    above = np.nonzero(w > tol)[0]
    x_flat = xs[above[-1]] if len(above) else 0.0
    return min(X_MAX_CAP, max(20.0, x_flat + 8.0))


def _auto_x_max(prob: WeightedSLProblem, n: int) -> float:
    """Pick X so the potential has flattened and target decay is reached,
    from the eigenvalues of a 1024-cell probe read off (_probe) the grid of
    n cells on the flat X, which the standard kind solves on."""
    x0 = _flat_x_max(prob)
    d, e = _probe(prob, x0, n, 1024).tridiagonal()
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
    on a PROBE_N-cell probe of V, read off the grid of the configured n
    when _probe can) and whether n hit the cap."""
    n_cfg = cfg.n + cfg.n % 2
    v_min = float(np.min(_probe(prob, x_max, n_cfg, PROBE_N).V))
    n, capped = _resolution(cfg.n, x_max, v_min, prob.threshold)
    return _grid(prob, x_max, n), n, capped


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
    inverse-iteration vectors.  On the fine grid one call of Sturm counts
    gives the counts below the margin and below -ZERO_CUT and ZERO_CUT (the
    negative count and the zero band); the coarse vectors, prolongated
    (_prolongate), give its k lowest eigenpairs by inverse iteration from
    them at their Rayleigh quotients (_seeded_pairs).  The two grids give
    Richardson-extrapolated values and error bars; disagreement beyond
    cfg.tol, or more fine than coarse eigenvalues among the k lowest,
    raises ResolutionError.  Two eigenvalues closer than 2e-4, whose
    brackets overlap, or a fine pair the certificate rejects, raise
    SpectralError.  Pairs whose decay rate cannot satisfy
    sqrt(threshold - nu) * X >= CERTIFY_KAPPA_X within X_MAX_CAP are flagged
    uncertain (truncation-limited accuracy near the threshold).
    """
    if prob.kind != "singular":
        raise ValueError("solve_singular_spectrum needs the singular kind")
    x_max = cfg.x_max if cfg.x_max is not None else \
        _auto_x_max(prob, cfg.n + cfg.n % 2)
    hi = prob.threshold - MARGIN
    g_f, n, capped = _fine_grid(prob, x_max, cfg)

    # every eigenvalue below the margin is bracketed on the coarse grid; the
    # k lowest are finished by their Rayleigh quotients
    d_c, e_c = g_f.coarsened().tridiagonal()
    below_c = bisect_eigenvalues(d_c, e_c, below=hi, abstol=BRACKET)
    vals_c, vecs_c = rayleigh_refine(d_c, e_c, below_c[:max(k, 0)])
    d_f, e_f = g_f.tridiagonal()
    count_f, zero_cut_count, zero_top = sturm_count(d_f, e_f,
                                                    (hi, -ZERO_CUT, ZERO_CUT))
    n_found = min(max(k, 0), count_f)
    if n_found > len(vals_c):
        raise ResolutionError(
            f"grid too coarse: {n_found} singular eigenvalues below the "
            f"margin on the fine grid against {len(vals_c)} on the coarse "
            f"one (n={n}, x_max={x_max:.3g})")
    # the next eigenvalue bounds what was left out
    exhausted = (float(bisect_eigenvalues(d_f, e_f, n_found + 1,
                                          n_found + 1)[0])
                 if count_f > n_found else hi)
    vals_f, vecs, residuals = _seeded_pairs(d_f, e_f, vecs_c[:, :n_found],
                                            exhausted)
    values, bars = _richardson(vals_f, vals_c, cfg, g_f, "singular")

    zero_band = zero_top - zero_cut_count
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
    eigenvectors (columns of coarse_vecs, ascending): inverse iteration from
    their prolongations at the prolongations' Rayleigh quotients, checked as
    rayleigh_refine checks bisected brackets, and finished by Rayleigh
    quotients.  A seed from an under-resolved coarse grid can miss its fine
    eigenvalue by more than BRACKET; one more round then starts from the
    vectors it reached, at their quotients.

    Each residual interval [rho - r, rho + r] holds an eigenvalue; when they
    are disjoint and all lie below `bound`, which is the threshold margin
    when the Sturm count there equals their number and else the next
    eigenvalue, they hold the lowest ones, one each.  Otherwise
    SpectralError."""
    seeds = _prolongate(coarse_vecs)
    shifts = rayleigh_quotients(d_f, e_f, seeds)
    vals, vecs = rayleigh_refine(d_f, e_f, shifts, starts=seeds)
    residuals = residual_norms(d_f, e_f, vecs, vals)
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
    bar exceeds cfg.tol.  The flat X and the first grid are those of the
    singular twin, the memoized ones when a singular solve of the same
    problem has just built them.  By Sylvester's law of inertia the
    negative count and zero band (all that k = 0 takes, one call of Sturm
    counts on the last grid) are those of the form alone.  A grid whose
    scaled off-diagonal squares past the float range is refused
    (SpectralError) before any count.
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
        vals_c = bisect_eigenvalues(d_c, e_c, 1, k)
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
                values, bars = _richardson(eig_f, vals_c, cfg, g_f,
                                           "standard")
                break
            except ResolutionError:
                if 2 * len(d_f) > N_CAP:
                    raise
                # the old fine grid is bitwise the new one's coarsening
                vals_c = eig_f
                g_f = liouville_transform(twin, x_max, 2 * len(d_f))
                d_f, e_f, s_f = g_f.standard_tridiagonal()
        vecs = inverse_iteration(d_f, e_f, eig_f)
        rel_residual = relative_residual(
            d_f, e_f, vecs, residual_norms(d_f, e_f, vecs, eig_f))
        vecs = s_f[:, None] * vecs              # generalized eigenvectors

    negative_count, zero_top = sturm_count(d_f, e_f, (-ZERO_CUT, ZERO_CUT))
    zero_band = zero_top - negative_count
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
    singular pairs get their uncertain flags.  All pairs share one r grid
    and one x grid.

    Nodes are counted on u, not psi: the two share their sign pattern, but
    u stays bounded while psi may grow toward the origin for eigenvalues
    above 0, which would starve a node cut relative to the maximum."""
    singular = prob.kind == "singular"
    x, h = grid.x, grid.h
    r_desc = np.exp(-x)
    r_grid = r_desc[::-1].copy()
    weight = 1.0 if singular else r_desc * r_desc
    a_half = (prob.M - 2.0) / 2.0
    growth = np.exp(a_half * x)
    # u'(0) one-sided to second order: np.gradient's edge_order=2 weights
    w0, w1, w2 = -1.5 / h, 2.0 / h, -0.5 / h
    pairs = []
    for i in range(len(values)):
        u = np.zeros(len(x))
        u[1:1 + len(vecs)] = vecs[:, i]
        if u[1] < 0:
            u = -u
        u = u / math.sqrt(_simpson(weight * u * u, h))
        psi = u * growth
        # psi'(1) = -(c u + u') at x = 0
        slope = -(a_half * u[0] + (w0 * u[0] + w1 * u[1] + w2 * u[2]))
        kappa = math.sqrt(max(prob.threshold - values[i], 0.0))
        uncertain = singular and kappa * x[-1] < CERTIFY_KAPPA_X
        inner = u[1:-1]
        nodes = count_sign_changes(inner,
                                   NODE_TOL * float(np.max(np.abs(inner))))
        pairs.append(EigenPair(
            value=float(values[i]), error_bar=float(bars[i]),
            grid=r_grid, samples=psi[::-1].copy(),
            interior_nodes=nodes, boundary_slope=float(slope),
            uncertain=bool(uncertain),
            x_grid=x, u_samples=u))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# the simplicity check, the decay rate and the quadrature
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
