"""Nodal radial solutions of -(t^(M-1) v')' = t^(M-1) |v|^(p-1) v on [0, 1].

solve_nodal_power integrates the regular initial value problem v(0) = 1
(Dormand-Prince 5(4)) to its m-th zero and moves that zero to 1 by the
scaling symmetry v -> gamma^(2/(p-1)) v(gamma t), which carries every start
v(0) onto this one.  Tolerances, the step budget, the bound in t and the
cut of the qualitative checks are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dimension import critical_exponent
from .spectral import count_sign_changes

PROFILE_RTOL, PROFILE_ATOL = 1e-10, 1e-12  # integrator tolerances
ZERO_TOL = 1e-12           # zeros are refined to |v| < ZERO_TOL |v(0)|
POWER_MAX_STEPS = 600_000  # step budget of a profile
POWER_T_MAX = 1e10         # the m-th zero is sought on t < POWER_T_MAX
CHECK_TOL = 1e-7           # validate_profile's cut, relative to max |v|


class IntegrationError(RuntimeError):
    """The IVP integration or its rescaling could not deliver a profile."""


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


def _integrate(M, p, m, t_max, rtol, atol):
    """Integrate v'' + (M-1)/t v' + |v|^(p-1) v = 0 from the regular start
    v(0) = 1, v'(0) = 0, v''(0) = -1/M by adaptive Dormand-Prince 5(4), to
    the m-th zero of v or to t_max.

    Returns arrays of the accepted steps' t, v and v', of the zeros of v,
    and of the critical points of v with v there.  A zero is refined to
    |v| < ZERO_TOL and a critical point to |v'| <= 1e-10 max |v'| of its
    step; refinement re-takes RK steps from the left node, so event
    locations carry the integrator's accuracy, not interpolation accuracy.
    A non-finite value, a float overflow, a step size underflow or a spent
    budget of POWER_MAX_STEPS accepted steps raises IntegrationError where
    it occurs.
    """
    max_steps = POWER_MAX_STEPS
    m1 = -(M - 1.0)
    q = p - 1.0
    t, v, dv = 0.0, 1.0, 0.0
    ts, vs, dvs = [t], [v], [dv]    # every accepted step
    zeros, crits = [], []           # t, (t, v)
    # the loop's names are local, and |v|, |v'| carry over from the
    # accepted step; a conditional expression stands for each max and min
    # of two floats, with the builtins' results, NaN included
    rk_step, isfinite = _rk_step, math.isfinite
    add_t, add_v, add_dv = ts.append, vs.append, dvs.append
    av, adv = 1.0, 0.0
    try:
        acc = -1.0 / M  # the regular limit of v'' at t = 0
        h = min(1e-4, 0.1 * (2.0 * max(atol, rtol) / abs(acc)) ** 0.5)
        while t < t_max:
            if len(ts) >= max_steps:
                raise IntegrationError(
                    f"step budget of {max_steps} steps exhausted at "
                    f"t={t:.6g} (t_max={t_max:g})")
            if h < 1e-15 * (1.0 if 1.0 > t else t):
                raise IntegrationError(
                    "step size underflow (stiff or blow-up region reached)")
            if t + h > t_max:
                h = t_max - t
            vn, dvn, accn, errv, erra = rk_step(q, m1, t, v, dv, h, acc)
            if not (isfinite(vn) and isfinite(dvn) and isfinite(accn)):
                raise IntegrationError(
                    "nonlinearity returned a non-finite value")
            avn, advn = abs(vn), abs(dvn)
            dv_scale = advn if advn > adv else adv
            err_v = abs(errv) / (atol + rtol * (avn if avn > av else av))
            err_a = abs(erra) / (atol + rtol * dv_scale)
            err = err_a if err_a > err_v else err_v
            if not err <= 1.0:          # rejected, NaN included
                h *= max(0.9 * err ** -0.2, 0.2)
                continue
            if dv != 0.0 and (dv > 0.0) != (dvn > 0.0) \
                    and len(crits) < m + 2:
                tc, vc, _ = _refine_event(q, m1, t, v, dv, acc, h, True,
                                          dv_scale, 1e-10)
                crits.append((tc, vc))
            if (v > 0.0) != (vn > 0.0):
                tz, vz, dvz = _refine_event(q, m1, t, v, dv, acc, h, False,
                                            1.0, ZERO_TOL)
                zeros.append(tz)
                if len(zeros) >= m:
                    add_t(tz)
                    add_v(vz)
                    add_dv(dvz)
                    break
            t, v, dv, acc, av, adv = t + h, vn, dvn, accn, avn, advn
            add_t(t)
            add_v(v)
            add_dv(dv)
            grow = 0.9 * err ** -0.2 if err > 0.0 else 5.0
            h *= 5.0 if 5.0 < grow else grow
    except OverflowError:
        raise IntegrationError(f"|v|^(p-1) overflows a float (p={p:g})") \
            from None
    return (np.array(ts), np.array(vs), np.array(dvs), np.array(zeros),
            *np.reshape(crits, (-1, 2)).T)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """A validated nodal radial solution, in the transformed (Emden)
    variable, sampled on its solver grid.

    `grid` carries the integrator's accepted steps mapped onto [0, 1];
    `evaluate` interpolates between them with the stored derivative (cubic
    Hermite).  The interpolant, not the integrator, sets the error between
    steps: against a profile at rtol 1e-13, relative to max |v|, it is
    3.7e-11 at the nodes and 3.4e-9 at the step midpoints at
    (M, p, m) = (3, 3, 2), and 1.5e-11 against 5.4e-9 at (2.5, 3, 2).
    ROADMAP.md item 17 plans the fix: a quintic interpolant in v, v', v''.
    """

    M: float
    grid: np.ndarray
    values: np.ndarray
    derivative: np.ndarray
    zeros: np.ndarray
    critical_points: np.ndarray
    extremal_values: np.ndarray
    nodal_zones: int
    p: float                        # f(u) = |u|^(p-1) u
    meta: dict = field(default_factory=dict)

    def evaluate(self, t):
        return _hermite(self.grid, self.values, self.derivative,
                        np.asarray(t, dtype=float))

    def evaluate_derivative(self, t):
        return _hermite(self.grid, self.values, self.derivative,
                        np.asarray(t, dtype=float), derivative=True)


def _hermite(x, y, dy, q, derivative=False):
    """Vectorized cubic Hermite interpolation on a strictly increasing grid.

    Query j takes the interval [x_i, x_(i+1)] with x_i <= q_j < x_(i+1),
    the first one below x_1 and the last one from x_(-2) on.  A monotone
    1-D query array (the Liouville grid r = e^(-x) descends) takes them by
    runs: one searchsorted of the interior nodes into the queries counts
    each interval's queries, and np.repeat spreads the interval's data over
    them.  Any other query (unsorted, NaN inside, a scalar) finds its
    interval by its own searchsorted and gathers its data.  The arithmetic
    is the same either way, so are the values, bitwise."""
    scalar = q.ndim == 0
    qf = np.atleast_1d(q)
    step = -1 if qf.ndim == 1 and len(qf) > 1 and qf[0] > qf[-1] else 1
    lo, hi = (qf[1:], qf[:-1]) if step < 0 else (qf[:-1], qf[1:])
    if not scalar and qf.ndim == 1 and (lo <= hi).all():
        # ends[i] queries lie below x_i; the first interval also takes those
        # below x_0, the last those from x_(-1) on
        ends = np.searchsorted(qf[::step], x)
        ends[0], ends[-1] = 0, len(qf)
        counts = (ends[1:] - ends[:-1])[::step]

        def pick(a):
            return np.repeat(a[::step], counts)
    else:
        idx = np.clip(np.searchsorted(x, qf, side="right") - 1, 0,
                      len(x) - 2)

        def pick(a):
            return a[idx]
    h = pick(x[1:] - x[:-1])
    s = (qf - pick(x[:-1])) / h
    y0, y1 = pick(y[:-1]), pick(y[1:])
    d0, d1 = pick(dy[:-1]), pick(dy[1:])
    if derivative:
        g00 = 6 * s * s - 6 * s
        g10 = 3 * s * s - 4 * s + 1
        g01 = -6 * s * s + 6 * s
        g11 = 3 * s * s - 2 * s
        out = g00 * y0 / h + g10 * d0 + g01 * y1 / h + g11 * d1
    else:
        # h00 y0 + h10 h d0 + h01 y1 + h11 h d1 with h00 = (1 + 2s)(1 - s)^2,
        # h10 = s (1 - s)^2, h01 = s^2 (3 - 2s) and h11 = s^2 (s - 1),
        # accumulated in place in that order
        two_s = 2 * s
        om2 = 1 - s
        om2 *= om2
        s2 = s * s
        out = two_s + 1
        out *= om2
        out *= y0
        t = s * om2
        t *= h
        t *= d0
        out += t
        np.subtract(3, two_s, out=t)
        t *= s2
        t *= y1
        out += t
        np.subtract(s, 1, out=t)
        t *= s2
        t *= h
        t *= d1
        out += t
    return out[0] if scalar else out


def solve_nodal_power(M: float, p: float, m: int, *,
                      rtol: float = PROFILE_RTOL, atol: float = PROFILE_ATOL
                      ) -> RadialProfile:
    """Radial solution with exactly m nodal zones for f(u) = |u|^(p-1) u.

    Integrates the IVP with v(0)=1 to its m-th zero T_m and rescales by the
    symmetry v -> T_m^(2/(p-1)) v(T_m t).  A non-finite or out-of-range
    argument, and a p at or above critical_exponent(M), where no such
    solution exists, is a ValueError; an m-th zero not found below
    POWER_T_MAX, or a rescaling beyond the float range (p near 1), is an
    IntegrationError.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 2 <= M < math.inf:
        raise ValueError(f"M={M} must be finite and >= 2")
    if not 1 < p < math.inf:
        raise ValueError(f"p={p} must be finite and > 1")
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0 < tol < math.inf:
            raise ValueError(f"{name}={tol} must be finite and > 0")
    if p >= critical_exponent(M):
        raise ValueError(f"p={p:g} is not below the critical exponent "
                         f"(M+2)/(M-2)={critical_exponent(M):g} of M={M:g}")
    ts, vs, dvs, zeros, crit_ts, crit_vs = _integrate(M, p, m, POWER_T_MAX,
                                                      rtol, atol)
    if len(zeros) < m:
        raise IntegrationError(
            f"zero #{m} not found before t_max={POWER_T_MAX:g}")
    t_m = float(zeros[-1])
    try:
        amp = t_m ** (2.0 / (p - 1.0))
        if math.isinf(amp * t_m):   # the scale of v'
            raise OverflowError
    except OverflowError:
        raise IntegrationError(f"rescaling by T_m^(2/(p-1)) overflows a "
                               f"float (T_m={t_m:g}, p={p:g})") from None
    grid = ts / t_m
    values = amp * vs
    derivative = amp * t_m * dvs
    grid[-1] = 1.0
    values[-1] = 0.0
    zeros = zeros / t_m
    zeros[-1] = 1.0
    extremal = np.concatenate(([values[0]], np.abs(amp * crit_vs)))
    meta = {"raw_final_zero": t_m, "p": float(p), "rtol": rtol,
            "atol": atol, "zero_tol": ZERO_TOL}
    return RadialProfile(M=float(M), grid=grid, values=values,
                         derivative=derivative, zeros=zeros,
                         critical_points=crit_ts[:m - 1] / t_m,
                         extremal_values=extremal[:m],
                         nodal_zones=m, p=float(p), meta=meta)


# ---------------------------------------------------------------------------
# qualitative validation
# ---------------------------------------------------------------------------

def validate_profile(prof: RadialProfile) -> list[str]:
    """Check the qualitative structure a nodal solution must carry, with
    values below CHECK_TOL max |v| counted as zero: m zeros, the last at 1,
    alternating signs from a positive v(0), a decreasing first zone, one
    critical point per later zone, strictly falling extremal values |v| and
    a flat start.  Returns one message per failed check, none on a pass;
    a wrong zero count is the only message, since the zones the other
    checks read are bounded by the zeros."""
    m = prof.nodal_zones
    if len(prof.zeros) != m:
        return [f"expected {m} zeros, recorded {len(prof.zeros)}"]
    msgs = []
    scale = float(np.max(np.abs(prof.values)))

    if not (abs(prof.zeros[-1] - 1.0) < 1e-12
            and abs(prof.evaluate(1.0)) < CHECK_TOL * scale):
        msgs.append("profile does not vanish at t=1")
    if not prof.values[0] > 0:
        msgs.append(f"v(0)={prof.values[0]:.6g} is not positive")

    # sign alternation: every clearly-nonzero sample inside zone i must
    # carry the sign (-1)^i
    bounds = np.concatenate(([0.0], prof.zeros))
    for i in range(len(bounds) - 1):
        inside = (prof.grid > bounds[i]) & (prof.grid < bounds[i + 1]) \
            & (np.abs(prof.values) > CHECK_TOL * scale)
        if np.any(np.sign(prof.values[inside]) != (-1.0) ** i):
            msgs.append(f"sign error inside nodal zone {i}")
            break

    inside = (prof.grid > 0) & (prof.grid < prof.zeros[0])
    if not np.all(prof.derivative[inside] <= CHECK_TOL * scale):
        msgs.append("profile is not decreasing in its first nodal zone")

    for i in range(m - 1):
        lo, hi = prof.zeros[i], prof.zeros[i + 1]
        n_in = int(np.count_nonzero((prof.critical_points > lo)
                                    & (prof.critical_points < hi)))
        if n_in != 1:
            msgs.append(f"zone ({lo:.6g}, {hi:.6g}) has {n_in} critical "
                        f"points, expected 1")

    ext = prof.extremal_values
    if len(ext) > 1 and not np.all(np.diff(ext) < 0):
        msgs.append("extremal values are not ordered as expected")

    slope0 = float(prof.derivative[0])
    if not abs(slope0) <= CHECK_TOL * max(scale, 1.0):
        msgs.append(f"initial slope {slope0:.3e} above tolerance")
    return msgs


def auxiliary_z(prof: RadialProfile) -> tuple[np.ndarray, int]:
    """(z, interior zero count) of z = t v' + 2/(p-1) v, sampled on
    prof.grid.

    z vanishes exactly m times in (0, 1) for an m-nodal solution.
    """
    p = prof.p
    z = prof.grid * prof.derivative + 2.0 / (p - 1.0) * prof.values
    inner = (prof.grid > 0.0) & (prof.grid < 1.0)
    return z, count_sign_changes(z[inner], 1e-12 * float(np.max(np.abs(z))))


def linearized_potential(prof: RadialProfile) -> Callable:
    """Potential a(t) = f'(v(t)) = p |v(t)|^(p-1) of the linearization along
    a profile."""
    p = prof.p

    def a(t):
        return p * np.abs(prof.evaluate(t)) ** (p - 1.0)

    return a
