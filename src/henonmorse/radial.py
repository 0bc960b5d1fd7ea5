"""Nodal radial solutions of -(t^(M-1) v')' = t^(M-1) |v|^(p-1) v on [0, 1].

Every profile comes from one initial value problem integrator,
_kernels.integrate_radial, started regularly at t=0: one integration to the
m-th zero, moved to 1 by the scaling symmetry
v -> gamma^(2/(p-1)) v(gamma t).  An integration that cannot finish
(non-finite values, a float overflow, step size underflow, a spent step
budget) raises IntegrationError.  Tolerances, the step budget and the cut
of the qualitative checks are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from .dimension import generalized_dimension
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
    status: int

    @property
    def reached_target(self) -> bool:
        return self.status == _kernels.OK_EVENTS


def integrate_emden_ivp(M: float, p: float, v0: float, t_max: float, *,
                        rtol: float = PROFILE_RTOL,
                        atol: float = PROFILE_ATOL, max_zeros: int = 64,
                        max_steps: int = POWER_MAX_STEPS) -> EmdenTrajectory:
    """Integrate v'' + (M-1)/t v' + |v|^(p-1) v = 0 from the regular start
    at 0 (_kernels.integrate_radial).

    v(0)=v0, v'(0)=0, v''(0) = -|v0|^(p-1) v0/M.  Each sign change of v is
    refined to |v| < ZERO_TOL * |v0|; sign changes of v' are refined to
    critical points.  Stops after max_zeros zeros or at t_max.  A non-finite
    value, a float overflow, a step size underflow or a spent budget of
    max_steps accepted steps raises IntegrationError.
    """
    if v0 == 0:
        raise ValueError("v0 must be nonzero; v0=0 is the trivial solution")
    if M < 2:
        raise ValueError("M must be >= 2")
    if p <= 1:
        raise ValueError("p must be > 1")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")

    try:
        status, ts, vs, dvs, zt, zdv, ct, cv = _kernels.integrate_radial(
            float(p), float(M), float(v0), float(t_max), float(rtol),
            float(atol), int(max_zeros), int(max_steps), ZERO_TOL)
    except OverflowError:
        raise IntegrationError(f"|v|^(p-1) overflows a float (v0={v0:g}, "
                               f"p={p:g})") from None
    if status == _kernels.FAIL_NONFINITE:
        raise IntegrationError("nonlinearity returned a non-finite value")
    if status == _kernels.FAIL_UNDERFLOW:
        raise IntegrationError(
            "step size underflow (stiff or blow-up region reached)")
    if status == _kernels.FAIL_STEPS:
        raise IntegrationError(
            f"step budget of {int(max_steps)} steps exhausted at "
            f"t={ts[-1]:.6g} (t_max={t_max:g})")
    return EmdenTrajectory(ts=ts, vs=vs, dvs=dvs, zeros=zt, zero_slopes=zdv,
                           critical_points=ct, critical_values=cv,
                           status=status)


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
    symmetry v -> T_m^(2/(p-1)) v(T_m t).  For M > 2 the subcritical range is
    p < (M+2)/(M-2); outside it the solver still runs and sets the
    `supercritical` flag in meta.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    supercritical = bool(M > 2 and p >= (M + 2) / (M - 2))
    traj = integrate_emden_ivp(M, p, 1.0, t_max, rtol=rtol, atol=atol,
                               max_zeros=m)
    if not traj.reached_target:
        raise IntegrationError(
            f"zero #{m} not found before t_max={t_max:g} "
            f"(p may be too close to or beyond the critical range "
            f"at this budget)")
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
            "atol": atol, "zero_tol": ZERO_TOL,
            "supercritical": supercritical}
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
    a flat start.  Returns one message per failed check, none on a pass."""
    msgs = []
    m = prof.nodal_zones
    scale = float(np.max(np.abs(prof.values)))

    if len(prof.zeros) != m:
        msgs.append(f"expected {m} zeros, recorded {len(prof.zeros)}")
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
