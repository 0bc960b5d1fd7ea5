"""Nodal radial solutions of -(t^(M-1) v')' = t^(M-1) |v|^(p-1) v on [0, 1].

Every profile comes from one integration of the regular initial value
problem (integrate_emden_ivp, Dormand-Prince 5(4)) to its m-th zero, moved
to 1 by the scaling symmetry v -> gamma^(2/(p-1)) v(gamma t).  Tolerances,
the step budget and the cut of the qualitative checks are the module
constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dimension import critical_exponent, generalized_dimension
from .spectral import count_sign_changes

PROFILE_RTOL, PROFILE_ATOL = 1e-10, 1e-12  # integrator tolerances
ZERO_TOL = 1e-12           # zeros are refined to |v| < ZERO_TOL |v(0)|
POWER_MAX_STEPS = 600_000  # step budget of a profile
CHECK_TOL = 1e-7           # validate_profile's cut, relative to max |v|


class IntegrationError(RuntimeError):
    """The IVP integrator could not deliver what was asked of it."""


@dataclass(frozen=True)
class EmdenTrajectory:
    """Raw adaptive-step IVP output with refined zero and critical events."""

    ts: np.ndarray
    vs: np.ndarray
    dvs: np.ndarray
    zeros: np.ndarray
    zero_slopes: np.ndarray
    critical_points: np.ndarray
    critical_values: np.ndarray


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


def integrate_emden_ivp(M: float, p: float, v0: float, t_max: float, *,
                        rtol: float = PROFILE_RTOL,
                        atol: float = PROFILE_ATOL, max_zeros: int = 64,
                        max_steps: int = POWER_MAX_STEPS) -> EmdenTrajectory:
    """Integrate v'' + (M-1)/t v' + |v|^(p-1) v = 0 from the regular start
    at 0 by adaptive Dormand-Prince 5(4).

    v(0)=v0, v'(0)=0, v''(0) = -|v0|^(p-1) v0/M (no later stage sits at
    t = 0).  The trajectory holds every accepted step, each zero of v with
    v' there and each critical point of v with v there.  A zero is refined
    to |v| < ZERO_TOL * |v0| and a critical point to |v'| <= 1e-10 max |v'|
    of its step; refinement re-takes RK steps from the left node, so event
    locations carry the integrator's accuracy, not interpolation accuracy.
    Stops after max_zeros zeros or at t_max.  A non-finite value, a float
    overflow, a step size underflow or a spent budget of max_steps accepted
    steps raises IntegrationError where it occurs.
    """
    if v0 == 0:
        raise ValueError("v0 must be nonzero; v0=0 is the trivial solution")
    if M < 2:
        raise ValueError("M must be >= 2")
    if p <= 1:
        raise ValueError("p must be > 1")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")

    vscale = abs(v0)
    m1 = -(M - 1.0)
    q = p - 1.0
    t, v, dv = 0.0, v0, 0.0
    steps, zeros, crits = [(t, v, dv)], [], []  # (t, v, v'), (t, v'), (t, v)
    try:
        acc = -(abs(v0) ** q * v0) / M  # the regular limit of v'' at t = 0
        h = 1e-4
        if acc != 0.0 and math.isfinite(acc):
            h = min(h, 0.1 * (2.0 * max(atol, rtol * vscale) / abs(acc))
                    ** 0.5)
        while t < t_max:
            if len(steps) >= max_steps:
                raise IntegrationError(
                    f"step budget of {max_steps} steps exhausted at "
                    f"t={t:.6g} (t_max={t_max:g})")
            if h < 1e-15 * max(t, 1.0):
                raise IntegrationError(
                    "step size underflow (stiff or blow-up region reached)")
            if t + h > t_max:
                h = t_max - t
            vn, dvn, accn, errv, erra = _rk_step(q, m1, t, v, dv, h, acc)
            if not (math.isfinite(vn) and math.isfinite(dvn)
                    and math.isfinite(accn)):
                raise IntegrationError(
                    "nonlinearity returned a non-finite value")
            sc_v = atol + rtol * max(abs(v), abs(vn))
            sc_d = atol + rtol * max(abs(dv), abs(dvn))
            err = max(abs(errv) / sc_v, abs(erra) / sc_d)
            if not err <= 1.0:          # rejected, NaN included
                h *= max(0.9 * err ** -0.2, 0.2)
                continue
            if dv != 0.0 and (dv > 0.0) != (dvn > 0.0) \
                    and len(crits) < max_zeros + 2:
                tc, vc, _ = _refine_event(q, m1, t, v, dv, acc, h, True,
                                          max(abs(dv), abs(dvn)), 1e-10)
                crits.append((tc, vc))
            if (v > 0.0) != (vn > 0.0):
                tz, vz, dvz = _refine_event(q, m1, t, v, dv, acc, h, False,
                                            vscale, ZERO_TOL)
                zeros.append((tz, dvz))
                if len(zeros) >= max_zeros:
                    steps.append((tz, vz, dvz))
                    break
            t, v, dv, acc = t + h, vn, dvn, accn
            steps.append((t, v, dv))
            h *= min(0.9 * err ** -0.2, 5.0) if err > 0.0 else 5.0
    except OverflowError:
        raise IntegrationError(f"|v|^(p-1) overflows a float (v0={v0:g}, "
                               f"p={p:g})") from None
    return EmdenTrajectory(*np.reshape(steps, (-1, 3)).T,
                           *np.reshape(zeros, (-1, 2)).T,
                           *np.reshape(crits, (-1, 2)).T)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProfile:
    """A validated nodal radial solution sampled on its solver grid.

    `grid` carries the integrator's accepted steps mapped onto [0, 1];
    `evaluate` interpolates between them with the stored derivative (cubic
    Hermite), which keeps interpolation error at the integrator's own order.
    """

    variable: str                   # "emden" | "physical"
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
    """Vectorized cubic Hermite interpolation on a strictly increasing grid."""
    scalar = q.ndim == 0
    qf = np.atleast_1d(q)
    idx = np.clip(np.searchsorted(x, qf, side="right") - 1, 0, len(x) - 2)
    h = x[idx + 1] - x[idx]
    s = (qf - x[idx]) / h
    y0, y1 = y[idx], y[idx + 1]
    d0, d1 = dy[idx], dy[idx + 1]
    if derivative:
        g00 = 6 * s * s - 6 * s
        g10 = 3 * s * s - 4 * s + 1
        g01 = -6 * s * s + 6 * s
        g11 = 3 * s * s - 2 * s
        out = g00 * y0 / h + g10 * d0 + g01 * y1 / h + g11 * d1
    else:
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
    return out[0] if scalar else out


def solve_nodal_power(M: float, p: float, m: int, *,
                      rtol: float = PROFILE_RTOL, atol: float = PROFILE_ATOL,
                      t_max: float = 1e10) -> RadialProfile:
    """Radial solution with exactly m nodal zones for f(u) = |u|^(p-1) u.

    Integrates the IVP with v(0)=1 to its m-th zero T_m and rescales by the
    symmetry v -> T_m^(2/(p-1)) v(T_m t).  A p at or above
    critical_exponent(M), where no such solution exists, is a ValueError.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if p >= critical_exponent(M):
        raise ValueError(f"p={p:g} is not below the critical exponent "
                         f"(M+2)/(M-2)={critical_exponent(M):g} of M={M:g}")
    traj = integrate_emden_ivp(M, p, 1.0, t_max, rtol=rtol, atol=atol,
                               max_zeros=m)
    if len(traj.zeros) < m:
        raise IntegrationError(f"zero #{m} not found before t_max={t_max:g}")
    t_m = traj.zeros[m - 1]
    beta = 2.0 / (p - 1.0)
    amp = t_m ** beta
    grid = traj.ts / t_m
    values = amp * traj.vs
    derivative = amp * t_m * traj.dvs
    grid[-1] = 1.0
    values[-1] = 0.0
    zeros = traj.zeros / t_m
    zeros[-1] = 1.0
    crits = traj.critical_points / t_m
    extremal = np.concatenate(([values[0]],
                               np.abs(amp * traj.critical_values)))
    meta = {"raw_final_zero": float(t_m), "p": float(p), "rtol": rtol,
            "atol": atol, "zero_tol": ZERO_TOL}
    return RadialProfile(variable="emden", M=float(M), grid=grid,
                         values=values, derivative=derivative, zeros=zeros,
                         critical_points=crits[:m - 1],
                         extremal_values=extremal[:m],
                         nodal_zones=m, p=float(p), meta=meta)


def henon_profile(N: int, alpha: float, p: float, m: int,
                  **solver_kwargs) -> RadialProfile:
    """Nodal radial solution of -laplace(u) = |x|^alpha |u|^(p-1) u in the
    unit ball, pulled back from the transformed profile.

    With s = (2+alpha)/2 and v the M(N, alpha)-dimensional power profile,
    u(r) = s^(2/(p-1)) v(r^s); zeros pull back as r_i = t_i^(1/s).
    """
    dmap = generalized_dimension(N, alpha)
    base = solve_nodal_power(dmap.M, p, m, **solver_kwargs)
    s = dmap.exponent
    amp = s ** (2.0 / (p - 1.0))
    grid_r = base.grid ** (1.0 / s)
    values_u = amp * base.values
    # u'(r) = amp * v'(t) * s * r^(s-1), with s >= 1 since alpha >= 0
    derivative_u = amp * s * base.derivative * grid_r ** (s - 1.0)
    meta = dict(base.meta)
    meta.update({"N": int(N), "alpha": float(alpha), "amplitude": float(amp),
                 "emden_M": dmap.M})
    return RadialProfile(variable="physical", M=float(N), grid=grid_r,
                         values=values_u, derivative=derivative_u,
                         zeros=base.zeros ** (1.0 / s),
                         critical_points=base.critical_points ** (1.0 / s),
                         extremal_values=amp * base.extremal_values,
                         nodal_zones=m, p=base.p, meta=meta)


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


@dataclass(frozen=True)
class AuxiliaryZ:
    grid: np.ndarray
    values: np.ndarray
    interior_zero_count: int


def auxiliary_z(prof: RadialProfile) -> AuxiliaryZ:
    """z = t v' + 2/(p-1) v on the profile grid, with its interior zero count.

    Defined for profiles in the transformed variable; z vanishes exactly m
    times in (0, 1) for an m-nodal solution.
    """
    if prof.variable != "emden":
        raise ValueError("auxiliary_z expects a profile in the transformed "
                         "(emden) variable")
    p = prof.p
    z = prof.grid * prof.derivative + 2.0 / (p - 1.0) * prof.values
    inner = (prof.grid > 0.0) & (prof.grid < 1.0)
    count = count_sign_changes(z[inner], 1e-12 * float(np.max(np.abs(z))))
    return AuxiliaryZ(grid=prof.grid, values=z, interior_zero_count=count)


def linearized_potential(prof: RadialProfile) -> Callable:
    """Potential a(t) = f'(v(t)) = p |v(t)|^(p-1) of the linearization along
    the profile."""
    p = prof.p

    def a(t):
        return p * np.abs(prof.evaluate(t)) ** (p - 1.0)

    return a
