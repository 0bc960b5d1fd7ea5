"""Diagnostics the tests apply to solver output: the decay-rate fit, the
Picone residual, weighted inner products, Rayleigh quotients, and the
physical-variable profile of the transform-consistency check.  No report
computes any of them."""

import numpy as np
from scipy.integrate import cumulative_simpson

from henonmorse.dimension import generalized_dimension
from henonmorse.radial import RadialProfile, solve_nodal_power
from henonmorse.spectral import (EigenPair, WeightedSLProblem, _simpson,
                                 count_sign_changes)


def fit_decay_exponent(pair: EigenPair, M: float) -> tuple[float, int]:
    """(theta_fit, n_points): the vanishing rate of a negative singular
    eigenfunction near the origin, the slope of the least-squares fit of
    ln|psi| against ln r on n_points samples, to compare with
    theta_analytic(pair.value, M).

    The samples are the tail ones between 1e-11 and 1e-4 of max |u| beyond
    x = 2, where they are clean power laws.  Fewer than 8 samples, or
    samples that change sign, are a ValueError.
    """
    x, u = pair.x_grid, pair.u_samples
    au = np.abs(u)
    mask = (au > 1e-11 * au.max()) & (au < 1e-4 * au.max()) & (x > 2.0)
    n_points = int(np.count_nonzero(mask))
    if n_points < 8 or count_sign_changes(u[mask], 0.0):
        raise ValueError("window has too few usable samples for a fit")
    # ln|psi| = c x + ln|u| with c = (M-2)/2, and ln r = -x
    xs = x[mask]
    ln_psi = (M - 2.0) / 2.0 * xs + np.log(au[mask])
    return float(np.polyfit(-xs, ln_psi, 1)[0]), n_points


def picone_residual(pi: EigenPair, pj: EigenPair, M: float) -> float:
    """Normalized defect of the cross-eigenfunction differential identity.

    For exact eigenpairs, r^(M-1)(psi_i' psi_j - psi_i psi_j') integrates the
    weighted product r^(M-3) psi_i psi_j against the eigenvalue gap; in
    Liouville variables that reads W(x) + (nu_j - nu_i) * int_0^x u_i u_j = 0
    with W the plain Wronskian.  Returns the max defect over all subintervals
    scaled by the natural magnitude of the two terms.  Both pairs come from
    one grid.
    """
    x = pi.x_grid
    h = x[1] - x[0]
    ui, uj = pi.u_samples, pj.u_samples
    dui = _diff4(ui, h)
    duj = _diff4(uj, h)
    wr = ui * duj - dui * uj
    cum = cumulative_simpson(ui * uj, dx=h, initial=0.0)
    defect = wr + (pj.value - pi.value) * cum
    scale = max(float(np.max(np.abs(ui))) * float(np.max(np.abs(duj)))
                + float(np.max(np.abs(uj))) * float(np.max(np.abs(dui))),
                1e-300)
    return float(np.max(np.abs(defect)) / scale)


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
    M = prob.M
    a_vals = np.asarray(prob.a(np.maximum(r, 1e-300)), dtype=float)
    wgt = r ** (M - 1.0)
    num = np.trapezoid(wgt * (dvals ** 2 - a_vals * vals ** 2), r)
    if prob.kind == "singular":
        den_w = np.power(r, M - 3.0, out=np.zeros_like(r), where=r > 0)
    else:
        den_w = wgt
    den = np.trapezoid(den_w * vals ** 2, r)
    if den == 0:
        raise ZeroDivisionError("trial function has zero weighted mass")
    return float(num / den)


def henon_profile(N: int, alpha: float, p: float, m: int) -> RadialProfile:
    """Nodal radial solution of -laplace(u) = |x|^alpha |u|^(p-1) u in the
    unit ball, pulled back from the transformed profile; a RadialProfile in
    the physical variable r, with M = N.

    With s = (2+alpha)/2 and v the M(N, alpha)-dimensional power profile,
    u(r) = s^(2/(p-1)) v(r^s); zeros pull back as r_i = t_i^(1/s).
    """
    dmap = generalized_dimension(N, alpha)
    base = solve_nodal_power(dmap.M, p, m)
    s = dmap.exponent
    amp = s ** (2.0 / (p - 1.0))
    grid_r = base.grid ** (1.0 / s)
    # u'(r) = amp * v'(t) * s * r^(s-1), with s >= 1 since alpha >= 0
    derivative_u = amp * s * base.derivative * grid_r ** (s - 1.0)
    return RadialProfile(M=float(N), grid=grid_r, values=amp * base.values,
                         derivative=derivative_u,
                         zeros=base.zeros ** (1.0 / s),
                         critical_points=base.critical_points ** (1.0 / s),
                         extremal_values=amp * base.extremal_values,
                         nodal_zones=m, p=base.p)
