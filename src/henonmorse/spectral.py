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
Eigenvectors come from inverse iteration, from a fixed start where no
closer one is known.  The standard kind's graded matrix is bisected to
1e-300.

The singular kind cuts its half-line at X, past which V is the threshold
c^2, and closes each grid there with the exact decaying tail: the last
diagonal entry of its matrix T(sigma) depends on sigma
(LiouvilleProblem.closed), its eigenpairs are the fixed points
sigma = lambda_i(T(sigma)), and a count below s is taken on T(s), one
kernel call per shift.  A singular solve bisects one grid, the probe (the
coarsest power-of-two coarsening of the fine grid that the resolution rule
allows), to 1e-4 brackets on T(threshold - MARGIN); its eigenvectors,
prolongated, start the fixed points of the coarse grid, and the coarse
vectors, prolongated once more, those of the fine grid.  On each, a Sturm
count at the margin and disjoint residual intervals certify the pairs.
Where they are all the fixed points below the margin, the intervals also
give the negative count and the zero band, without another count.

A report solves both kinds for one potential on one X and one fine grid:
the last fine grid built (x, V, read-only) is kept, keyed by M, a and the
configured X and n (_report_grid), so the second kind of a report finds it
built, and the probe and the coarse grid are every few nodes of it.  The
memo is only sound because `a` must be a pure function of r
(WeightedSLProblem).

A run sets the fine grid n, the interval length X (by default where the
potential is flat) and the Richardson tolerance (SpectralConfig).  The
rest of the policy is fixed in module constants: the cap on n (N_CAP), the
length past which no flat X is sought (X_MAX_CAP), the band below the
threshold that no reported eigenvalue enters (MARGIN), and the node, zero
and simple-eigenvalue cuts (NODE_TOL, ZERO_CUT, EIG_TOL).  The dense oracle
and the Morse report count with the same MARGIN, ZERO_CUT and NODE_TOL.

Normalization is an in-house composite Simpson rule on the uniform
Liouville grid for the standard kind, and the h-weighted sum over the
half-line, tail included, for the singular kind, so the module needs numpy
and the LAPACK kernels only: the runtime imports numpy, scipy's top-level
package, the two compiled LAPACK modules the kernels module loads from
their files (not the scipy.linalg package) and the standard library, and
no other part of scipy.
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
X_MAX_CAP = 60.0         # the flat-potential X is sought up to this
MARGIN = 1e-6            # eigenvalues are reported below threshold - MARGIN
NODE_TOL = 1e-8          # node-count cut, relative to max |u|
ZERO_CUT = 1e-7          # |value| below this counts as zero
EIG_TOL = 1e-13          # relative gap resolution of the bisection, and,
                         # times 4/h^2, the closure move a pair ends below


class ResolutionError(SpectralError):
    """The coarse and fine grids disagree beyond the Richardson tolerance:
    the grid cannot resolve the requested eigenvalues."""


@dataclass(frozen=True)
class WeightedSLProblem:
    """Operator data: dimension parameter M, bounded potential a on (0, 1],
    and the eigenvalue-weight kind ("standard" or "singular").

    `a` must be a pure function of r, elementwise on arrays: the solvers
    keep the last grid they build from it for the next solve with the same
    M and `a` object, of either kind."""

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
    x_max: float | None = None    # None: where the potential is flat
    tol: float = 5e-4             # max relative Richardson error bar


@dataclass(frozen=True)
class EigenPair:
    value: float
    error_bar: float
    grid: np.ndarray              # r, ascending
    samples: np.ndarray           # psi(r), unit norm in the problem's weight
    interior_nodes: int
    boundary_slope: float         # psi'(1)
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
    """Uniform discretization of the Liouville form on (0, X), u(0) = 0.
    The singular kind continues it past X, where V is the threshold c^2,
    on the same step (tail, closed)."""

    x: np.ndarray          # all nodes 0..n
    V: np.ndarray          # potential at all nodes
    h: float
    threshold: float

    def tridiagonal(self):
        """(diag, off) over the interior nodes, Dirichlet at X: read-only
        arrays, built once per grid."""
        return self._dirichlet

    @functools.cached_property
    def _dirichlet(self):
        d = 2.0 / self.h ** 2 + self.V[1:-1]
        e = np.full(len(d) - 1, -1.0 / self.h ** 2)
        d.flags.writeable = e.flags.writeable = False
        return d, e

    def tail(self, sigma):
        """(rho, mass) of the discrete tail past X at sigma < c^2,
        elementwise.  On V = c^2 the decaying solution of the stencil is
        u_j = rho^(j-n+1) u_(n-1) for j >= n-1, with rho + 1/rho = 2 + delta,
        delta = h^2 (c^2 - sigma), taken without cancellation as
        1 / (1 + delta/2 + sqrt(delta + delta^2/4)) < 1; mass is
        rho^2 / (1 - rho^2), the tail's h-weighted sum of u^2 over
        h u_(n-1)^2, and also the derivative of rho / h^2 in sigma."""
        delta = self.h ** 2 * (self.threshold - sigma)
        root = (delta * (1.0 + 0.25 * delta)) ** 0.5
        rho = 1.0 / (1.0 + 0.5 * delta + root)
        return rho, 0.5 * rho / root

    def corner(self, sigma):
        """rho(sigma) / h^2, elementwise: what T(sigma) takes off the last
        diagonal entry of tridiagonal() (closed)."""
        return self.tail(sigma)[0] / self.h ** 2

    def closed(self, sigma: float):
        """(diag, off) of T(sigma): tridiagonal() with its corner(sigma) off
        its last diagonal entry, which eliminates the tail exactly (Lentini
        & Keller, SIAM J. Numer. Anal. 17, 1980).

        The tail block of the half-line matrix less sigma is positive
        definite for sigma < c^2, and T(sigma) - sigma is its Schur
        complement, so by Haynsworth's inertia additivity the Sturm count
        of T(s) below s is the number of eigenvalues below s of the whole
        half-line matrix: of the fixed points sigma = lambda_i(T(sigma))."""
        d, e = self.tridiagonal()
        d = d.copy()
        d[-1] -= self.corner(sigma)
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


def _extended(w, ratio):
    """Columns of w, unknowns at the interior nodes 1..n-1 of a closed grid,
    with nodes -1 and 0 before them, odd about the Dirichlet end x = 0, and
    nodes n and n+1 after them, on each column's tail of the given ratio
    (LiouvilleProblem.tail)."""
    return np.concatenate((-w[:1], np.zeros((1, w.shape[1])), w,
                           ratio * w[-1:], ratio * ratio * w[-1:]))


def _prolongate(w, ratio):
    """Columns of w, unknowns at the interior nodes of a closed grid, carried
    to the grid of twice its cells: coarse node j is fine node 2j, and odd
    fine nodes take the cubic stencil (-1, 9, 9, -1)/16 on w _extended by
    its tail ratios.  The result is column-major, as inverse iteration takes
    its start vectors and rayleigh_quotients sums fastest."""
    wp = _extended(w, ratio)
    u = np.empty((2 * len(w) + 1, w.shape[1]), order="F")
    u[::2] = (9.0 * (wp[1:-2] + wp[2:-1]) - (wp[:-3] + wp[3:])) / 16.0
    u[1::2] = w
    return u


def liouville_transform(prob: WeightedSLProblem, x_max: float,
                        n: int = SpectralConfig.n) -> LiouvilleProblem:
    """Discretize the singular problem in x = -ln r.

    The transform u(x) = r^((M-2)/2) psi(r) maps the singular Rayleigh
    quotient isometrically onto the half-line form, with
    V(x) = threshold - e^(-2x) a(e^(-x)).  Where V has flattened to the
    threshold by x_max, the singular solves close the grid there with the
    exact discrete tail (LiouvilleProblem.closed).
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


@functools.lru_cache(maxsize=1)
def _report_grid(M: float, a: Callable, x_max: float | None, n: int):
    """The fine Liouville grid both kinds of the problem (M, a) solve on,
    with read-only arrays, and whether its n hit the cap.

    X is x_max, else the flat X.  The grid of n cells on X (n rounded up to
    even) is the fine grid unless _resolution, on that grid's own min(V),
    raises n; only then is a second grid, of that n, built.  The last fine
    grid is kept, keyed by (M, a, x_max, n), so the second kind of a
    report finds the first one's built: sound only because `a` must be a
    pure function of r (WeightedSLProblem)."""
    prob = WeightedSLProblem(M=M, a=a, kind="singular")
    if x_max is None:
        x_max = _flat_x_max(prob)
    grid = liouville_transform(prob, x_max, n + n % 2)
    n, capped = _resolution(n, x_max, float(np.min(grid.V)), prob.threshold)
    if n != len(grid.x) - 1:
        grid = liouville_transform(prob, x_max, n)
    grid.x.flags.writeable = grid.V.flags.writeable = False
    return grid, capped


def _flat_x_max(prob: WeightedSLProblem) -> float:
    """X past which the singular-kind potential V is flat: 8 beyond the last
    x where e^(-2x) |a| exceeds 1e-10 max(1, threshold), in [20, X_MAX_CAP]."""
    xs = np.linspace(0.0, X_MAX_CAP, 4097)
    w = np.exp(-2 * xs) * np.abs(prob.a(np.exp(-xs)))
    tol = 1e-10 * max(1.0, prob.threshold)
    above = np.nonzero(w > tol)[0]
    x_flat = xs[above[-1]] if len(above) else 0.0
    return min(X_MAX_CAP, max(20.0, x_flat + 8.0))


def _x_probe(grid: LiouvilleProblem, k: int):
    """The probe on the fine grid's X, and the lowest min(k, count)
    eigenvectors of its T(hi), hi = threshold - MARGIN.

    The probe is grid.coarsened(s), s the largest power of two, at least 2,
    that divides n and leaves at least max(128, n_req) cells, n_req the
    cells the resolution rule asks for on the fine grid's min(V)
    (_cells_required): 128 to 512 cells at n = 4096 on the acceptance
    matrix, 375 at n = 3000 at the reference point.  Every eigenvalue of
    T(hi) below hi is bracketed there, as many as there are fixed points
    below hi, and inverse iteration from the fixed start finds their
    vectors."""
    n, s = len(grid.x) - 1, 2
    need = max(128.0, _cells_required(grid.x[-1], float(np.min(grid.V)),
                                      grid.threshold))
    while not n % (2 * s) and n // (2 * s) >= need:
        s *= 2
    probe = grid.coarsened(s)
    hi = grid.threshold - MARGIN
    d, e = probe.closed(hi)
    vecs = rayleigh_refine(d, e, bisect_eigenvalues(
        d, e, below=hi, abstol=BRACKET))[1]
    return probe, vecs[:, :k]


def _cells_required(x_max: float, v_min: float, threshold: float) -> float:
    """Cells that resolve the fastest local oscillation on (0, x_max):
    two per unit of x and of sqrt(max(threshold - min V, 1))."""
    return 2.0 * x_max * math.sqrt(max(threshold - v_min, 1.0))


def _resolution(n_cfg: int, x_max: float, v_min: float, threshold: float):
    """Grid size of at least _cells_required cells, doubled from n_cfg, up
    to N_CAP; even, so that every other node makes the coarse grid."""
    n_req = _cells_required(x_max, v_min, threshold)
    n = n_cfg + n_cfg % 2
    while n < min(n_req, N_CAP):
        n *= 2
    return min(n, N_CAP), n_req > N_CAP


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

    The half-line is cut at X (the flat X, or cfg.x_max) and closed there
    by its exact tail: on each grid the eigenpairs are the fixed points
    sigma = lambda_i(T(sigma)) of LiouvilleProblem.closed, and a count at
    a shift s is taken on T(s).  Only the probe (_x_probe), a coarsening of
    the fine grid (_report_grid), is bisected.  Its vectors, prolongated,
    start the k lowest pairs of the every-other-node coarsening of the fine
    grid (_coarse_pairs), and the coarse vectors, prolongated (_prolongate),
    those of the fine grid (_fixed_pairs), certified by residual intervals
    and a count.
    The fine grid is counted once, at the margin.  When that count equals
    the number of certified pairs, each residual interval holds one fixed
    point and there are no others below the margin, so the negative count
    and the zero band are the numbers of intervals wholly below -ZERO_CUT
    and ZERO_CUT; T(-ZERO_CUT) or T(ZERO_CUT) is counted (one call of Sturm
    counts) only where an interval meets the cut or k leaves fixed points
    out.
    The two grids give Richardson-extrapolated values and error bars;
    disagreement beyond cfg.tol, or more fine than coarse eigenvalues among
    the k lowest, raises ResolutionError.  Two eigenvalues closer than 2e-4,
    whose brackets overlap, or a pair the certificate rejects, raise
    SpectralError.
    """
    if prob.kind != "singular":
        raise ValueError("solve_singular_spectrum needs the singular kind")
    k = max(k, 0)
    hi = prob.threshold - MARGIN
    g_f, capped = _report_grid(prob.M, prob.a, cfg.x_max, cfg.n)
    n, x_max = len(g_f.x) - 1, g_f.x[-1]
    probe, probe_vecs = _x_probe(g_f, k)
    g_c = g_f.coarsened()
    vals_c, vecs_c = _coarse_pairs(g_c, probe, probe_vecs, k)
    count_f = sturm_count(*g_f.closed(hi), [hi])[0]
    n_found = min(k, count_f)
    if n_found > len(vals_c):
        raise ResolutionError(
            f"grid too coarse: {n_found} singular eigenvalues below the "
            f"margin on the fine grid against {len(vals_c)} on the coarse "
            f"one (n={n}, x_max={x_max:.3g})")
    # the next eigenvalue of T(hi) bounds what was left out from below
    exhausted = (float(bisect_eigenvalues(*g_f.closed(hi), n_found + 1,
                                          n_found + 1)[0])
                 if count_f > n_found else hi)
    vals_f, vecs, residuals = _fixed_pairs(g_f, _prolongate(
        vecs_c[:, :n_found], g_c.tail(vals_c[:n_found])[0]), exhausted)
    values, bars = _richardson(vals_f, vals_c, cfg, g_f, "singular")
    lower, upper = vals_f - residuals, vals_f + residuals

    def below(s):
        # fixed points below s: none past the margin, where the half-line's
        # continuous spectrum begins (the threshold is 0 at M = 2); where
        # the pairs are all of them below the margin, one in each residual
        # interval, the intervals wholly below s, unless one meets s; else
        # the count of T(s) below s
        if not s < hi:
            return count_f
        if n_found == count_f and not np.any((lower < s) & (s <= upper)):
            return int(np.count_nonzero(upper < s))
        return sturm_count(*g_f.closed(s), [s])[0]

    # the count rises with s: none at ZERO_CUT when the one at -ZERO_CUT
    # holds them all
    zero_cut_count = below(-ZERO_CUT)
    zero_band = (below(ZERO_CUT) if zero_cut_count < count_f
                 else count_f) - zero_cut_count
    meta = {"n": n, "x_max": float(x_max), "count_below_margin": int(count_f),
            "resolution_capped": bool(capped),
            "zero_band_count": int(zero_band),
            "eigvec_rel_residual": relative_residual(*g_f.tridiagonal(),
                                                     vecs, residuals)}
    return Spectrum(kind="singular", M=prob.M, threshold=prob.threshold,
                    eigenpairs=_eigenpairs(prob, g_f, values, bars, vecs,
                                           g_f.tail(vals_f)),
                    exhausted_below=exhausted,
                    negative_count=int(zero_cut_count), meta=meta)


def _coarse_pairs(grid: LiouvilleProblem, probe: LiouvilleProblem,
                  probe_vecs, k: int):
    """The lowest min(k, count) fixed-point pairs of the coarse grid, count
    being its number of them below hi = threshold - MARGIN (one Sturm count
    on T(hi)): values and unit vectors, one per column.

    The probe, a power-of-two coarsening of the grid, passes its
    eigenvectors of its T(hi) (columns of probe_vecs, ascending) down one
    level at a time (_prolongate), each level extending them by its own
    tail ratio at hi, to start the lowest ones.  Those the probe leaves out
    (its cells are coarser) are bisected on T(hi) by index and start from
    their inverse-iteration vectors.  All are certified below hi when they are
    all of them, else below the next eigenvalue of T(hi), bisected by its
    index."""
    hi = grid.threshold - MARGIN
    d, e = grid.closed(hi)
    count = sturm_count(d, e, [hi])[0]
    want = min(k, count)
    s = min(probe_vecs.shape[1], want)
    starts = probe_vecs[:, :s]
    stride = (len(grid.x) - 1) // (len(probe.x) - 1)
    while stride > 1:
        starts = _prolongate(starts, grid.coarsened(stride).tail(hi)[0])
        stride //= 2
    bound = hi
    if want and count > s:
        after = bisect_eigenvalues(d, e, s + 1, want + (count > want))
        if want > s:
            starts = np.hstack((starts,
                                rayleigh_refine(d, e, after[:want - s])[1]))
        if count > want:
            bound = float(after[-1])
    return _fixed_pairs(grid, starts, bound)[:2]


def _fixed_point(grid: LiouvilleProblem, q, w):
    """For each entry, the sigma <= hi = threshold - MARGIN at which
    q - w rho(sigma) / h^2 equals sigma, or hi if it lies above hi: the
    fixed point of the Rayleigh quotient on T(sigma) of a vector whose
    quotient on grid.tridiagonal() is q, the share of its last entry in its
    squared norm being w.

    F(sigma) = q - w rho / h^2 - sigma falls with slope -(1 + w mass)
    (LiouvilleProblem.tail) and is concave, so Newton's method from
    min(q, hi), where F <= 0 unless the root lies above hi, descends onto
    the root; it ends where no step descends.  A fast-decaying pair, whose
    w / h^2 (more than w rho / h^2, as rho < 1) is lost in q's rounding,
    takes no step."""
    hi, h2 = grid.threshold - MARGIN, grid.h ** 2
    points = []
    for q_i, w_i in zip(q.tolist(), w.tolist()):
        sigma = min(q_i, hi)
        if q_i - w_i / h2 != q_i:
            while True:
                rho, mass = grid.tail(sigma)
                step = (q_i - w_i * rho / h2 - sigma) / (1.0 + w_i * mass)
                if not sigma + step < sigma:
                    break
                sigma += step
        points.append(sigma)
    return np.array(points)


def _fixed_pairs(grid: LiouvilleProblem, starts, bound):
    """Fixed-point pairs sigma = lambda_i(T(sigma)) of the closed grid from
    one start vector each (columns of starts, ascending): the values, the
    unit vectors and their residual norms on T(value), certified below
    `bound`.

    A vector's value is its fixed point (_fixed_point).  A round runs
    inverse iteration on T(value) at the value from the vector, checked as
    rayleigh_refine checks its brackets, and the new vector's fixed point
    is the new value.  A start from another grid can miss its value by
    more than BRACKET; rayleigh_refine then takes one more round on the
    same matrix.  The new vector, an eigenvector of T(shift), has on
    T(value) a residual of at most its own and |rho(value) - rho(shift)| /
    h^2 |u_(n-1)|: the closure moved.  A pair takes rounds while that move
    exceeds EIG_TOL 4 / h^2 (the scale of ||T||) and the last round lowered
    it: one from a fast-decaying start, a few from a slowly decaying
    eigenvector of another closure, as the probe's of T(hi).

    The interval [v - r, v + r] about a value v, r its vector's residual on
    T(v), holds an eigenvalue of T(v), so f_i(v) = lambda_i(T(v)) - v lies
    in [-r, r] for some i.  T(sigma) falls as sigma rises, so f_i falls
    with slope <= -1, and its root, a fixed point, lies within r of v.
    When the intervals are disjoint and all lie below `bound`, which is the
    threshold margin when the count there equals their number and else the
    next eigenvalue of T(hi), at most the next fixed point, they hold the
    lowest fixed points, one each.  Otherwise SpectralError."""
    d, e = grid.tridiagonal()
    vals = _fixed_point(grid, rayleigh_quotients(d, e, starts),
                        starts[-1] ** 2 / np.sum(starts * starts, axis=0))
    vecs = np.array(starts, order="F")
    moved = np.full(len(vals), np.inf)
    todo = np.arange(len(vals))
    while len(todo):
        corner = grid.corner(vals[todo])
        quotients, v = rayleigh_refine(d, e, vals[todo], starts=vecs[:, todo],
                                       corners=corner)
        w = v[-1] ** 2
        new = _fixed_point(grid, quotients + w * corner, w)
        step = np.abs((grid.corner(new) - corner) * v[-1])
        better = step < moved[todo]
        todo, step = todo[better], step[better]
        vals[todo], vecs[:, todo] = new[better], v[:, better]
        moved[todo] = step
        todo = todo[step > EIG_TOL * 4.0 / grid.h ** 2]

    residuals = residual_norms(d, e, vecs, vals, grid.corner(vals))
    lower, upper = vals - residuals, vals + residuals
    bad = ~np.append(upper[:-1] < lower[1:], upper[-1:] < bound)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SpectralError(
            f"eigenvalue {vals[i]:.12g} of order {len(d)} not certified: "
            f"its residual interval of half-width {residuals[i]:.3g} meets "
            f"the next eigenvalue's or the bound {bound:.12g}")
    return vals, vecs, residuals


def solve_standard_spectrum(prob: WeightedSLProblem, k: int,
                            cfg: SpectralConfig = SpectralConfig()
                            ) -> Spectrum:
    """First k eigenvalues of the standard-weight problem on the Liouville
    grid (LiouvilleProblem.standard_tridiagonal).

    X is where the potential has flattened (cfg.x_max when set), n that of
    the singular kind, and h is halved, up to N_CAP, while a Richardson
    bar exceeds cfg.tol.  The first grid is the singular kind's fine grid
    (_report_grid), built already when a singular solve of the same M and
    a has just asked for it.  By Sylvester's law of inertia the
    negative count and zero band (all that k = 0 takes, one call of Sturm
    counts on the last grid) are those of the form alone.  A grid whose
    scaled off-diagonal squares past the float range is refused
    (SpectralError) before any count.
    """
    if prob.kind != "standard":
        raise ValueError("solve_standard_spectrum needs the standard kind")
    g_f, capped = _report_grid(prob.M, prob.a, cfg.x_max, cfg.n)
    x_max = g_f.x[-1]
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
                g_f = liouville_transform(WeightedSLProblem(
                    M=prob.M, a=prob.a, kind="singular"), x_max, 2 * len(d_f))
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
                bars, vecs, tail=None) -> tuple:
    """EigenPairs from the unknowns, node 1 on, in the columns of vecs: u
    positive next to r=1 and normalized in the kind's mass, psi = e^(cx) u.
    A singular pair's (rho, mass) `tail` (LiouvilleProblem.tail, one entry
    per pair) gives u at X, rho u_(n-1), and the mass past X: its norm is
    the h-weighted sum of u^2 over the half-line.  All pairs share one r
    grid and one x grid.

    Nodes are counted on u, not psi: the two share their sign pattern, but
    u stays bounded while psi may grow toward the origin for eigenvalues
    above 0, which would starve a node cut relative to the maximum."""
    if not len(values):
        return ()
    x, h = grid.x, grid.h
    r_desc = np.exp(-x)
    r_grid = r_desc[::-1].copy()
    a_half = (prob.M - 2.0) / 2.0
    growth = np.exp(a_half * x)
    # u'(0) one-sided to second order: np.gradient's edge_order=2 weights
    w0, w1, w2 = -1.5 / h, 2.0 / h, -0.5 / h
    pairs = []
    for i in range(len(values)):
        # the sign is set before the zero ends are placed: no -0 in them
        v = vecs[:, i] if vecs[0, i] >= 0 else -vecs[:, i]
        u = np.zeros(len(x))
        u[1:1 + len(v)] = v
        if tail is None:
            u = u / math.sqrt(_simpson(r_desc * r_desc * u * u, h))
        else:
            rho, mass = tail[0][i], tail[1][i]
            u[-1] = rho * v[-1]
            u = u / math.sqrt(h * (np.dot(v, v) + mass * v[-1] ** 2))
        psi = u * growth
        # psi'(1) = -(c u + u') at x = 0
        slope = -(a_half * u[0] + (w0 * u[0] + w1 * u[1] + w2 * u[2]))
        inner = u[1:-1]
        nodes = count_sign_changes(inner,
                                   NODE_TOL * float(np.max(np.abs(inner))))
        pairs.append(EigenPair(
            value=float(values[i]), error_bar=float(bars[i]),
            grid=r_grid, samples=psi[::-1].copy(),
            interior_nodes=nodes, boundary_slope=float(slope),
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
