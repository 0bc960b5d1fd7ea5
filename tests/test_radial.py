"""Nodal profile construction, validation and the auxiliary function."""

import dataclasses
import json
import re

import numpy as np
import pytest

from henonmorse.cli import _profile_doc, _write_csv, _write_json
from henonmorse.radial import (IntegrationError, auxiliary_z,
                               henon_profile, integrate_emden_ivp,
                               linearized_potential, solve_nodal_power,
                               validate_profile)

# frozen from an independent high-order adaptive run (rtol 1e-12) of the
# v(0)=1 initial value problem at M=3, p=3
T1_REF = 6.896848619376449
T2_REF = 35.96194003077796


def test_ivp_basic_power_case():
    traj = integrate_emden_ivp(3.0, 3.0, 1.0, 40.0, max_zeros=1)
    assert len(traj.zeros) == 1
    assert traj.zeros[0] == pytest.approx(T1_REF, rel=1e-8)
    assert traj.zero_slopes[0] < 0
    # the solution decreases from v(0)=1 right away
    assert np.all(traj.vs[1:8] < 1.0)


def test_integrator_zero_locations_against_step_halving():
    # the same integration at tighter tolerance is the independent check
    loose = integrate_emden_ivp(3.0, 3.0, 1.0, 1e3, rtol=1e-8, atol=1e-10,
                                max_zeros=2, max_steps=200000)
    tight = integrate_emden_ivp(3.0, 3.0, 1.0, 1e3, rtol=1e-12, atol=1e-14,
                                max_zeros=2, max_steps=400000)
    assert len(loose.zeros) == len(tight.zeros) == 2
    assert np.allclose(loose.zeros, tight.zeros, rtol=1e-7)
    assert np.allclose(tight.zeros, [T1_REF, T2_REF], rtol=1e-9)


def test_integrator_nonfinite_rhs_reported():
    # an infinite value at t = 0 must not shrink the first step to nothing
    # (a step-size underflow) before the step that exposes it
    for bad in (float("nan"), float("inf")):
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate_emden_ivp(3.0, 3.0, bad, 1e3, max_zeros=2,
                                max_steps=1000)


def test_critical_points_located():
    traj = integrate_emden_ivp(3.0, 3.0, 1.0, 1e3, max_zeros=2)
    assert len(traj.critical_points) == 1
    # interior minimum between the two zeros, negative value
    assert traj.zeros[0] < traj.critical_points[0] < traj.zeros[1]
    assert traj.critical_values[0] < 0


def test_ivp_rejects_trivial_start():
    with pytest.raises(ValueError):
        integrate_emden_ivp(2.0, 2.5, 0.0, 10.0)
    for p in (1.0, 0.5):
        with pytest.raises(ValueError, match="p must be > 1"):
            integrate_emden_ivp(2.0, p, 1.0, 10.0)


def test_ivp_spent_step_budget_is_an_error():
    # 60 steps end at t = 0.878, well before the first zero near 6.9
    with pytest.raises(IntegrationError,
                       match=r"budget of 60 steps exhausted at t=0\.878"):
        integrate_emden_ivp(3.0, 3.0, 1.0, 40.0, max_zeros=1, max_steps=60)
    # a start whose |v0|^(p-1) exceeds the float range fails by name too
    for v0 in (1e200, 1e160):
        with pytest.raises(IntegrationError, match="overflows a float"):
            integrate_emden_ivp(3.0, 3.0, v0, 1e3, max_zeros=1)
    # no step meets a tolerance of 1e-300: rejections shrink h below 1e-15
    with pytest.raises(IntegrationError, match="step size underflow"):
        integrate_emden_ivp(3.0, 3.0, 1.0, 10.0, rtol=1e-300, atol=1e-300)


def test_ivp_second_derivative_at_origin():
    # regular start: v''(0) = -|v0|^(p-1) v0/M = -1/3 for M=3, v0=1
    traj = integrate_emden_ivp(3.0, 3.0, 1.0, 0.02, max_zeros=1)
    t, v = traj.ts, traj.vs
    small = (t > 0) & (t < 0.02)
    est = 2.0 * (v[small] - 1.0) / t[small] ** 2
    assert est[-1] == pytest.approx(-1.0 / 3.0, rel=1e-4)


def test_ivp_energy_monotonicity():
    # F(v0) - F(v(t)) - (v'(t))^2/2 equals (M-1) int_0^t v'^2/s ds >= 0
    traj = integrate_emden_ivp(3.0, 3.0, 1.0, 30.0, max_zeros=2)
    t, v, dv = traj.ts, traj.vs, traj.dvs
    F = lambda u: 0.25 * np.abs(u) ** 4
    lhs = F(1.0) - F(v) - 0.5 * dv ** 2
    integrand = np.where(t > 0, dv ** 2 / np.where(t > 0, t, 1.0), 0.0)
    rhs = 2.0 * np.concatenate(
        ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1])
                          * np.diff(t))))
    assert np.all(lhs >= -1e-10)
    assert np.max(np.abs(lhs - rhs)) < 5e-3 * max(1.0, np.max(np.abs(lhs)))


def test_solve_nodal_power_regression():
    prof = solve_nodal_power(3.0, 3.0, 2)
    assert prof.nodal_zones == 2
    assert prof.zeros[-1] == 1.0
    assert prof.zeros[0] == pytest.approx(T1_REF / T2_REF, rel=1e-8)
    assert prof.values[0] == pytest.approx(T2_REF, rel=1e-8)  # T^(2/(p-1))
    assert prof.values[-1] == 0.0
    assert validate_profile(prof) == []


def test_solve_nodal_power_single_zone():
    prof = solve_nodal_power(4.0, 2.2, 1)
    assert prof.nodal_zones == 1
    assert np.all(prof.values[:-1] > 0)
    assert np.all(prof.derivative[1:] < 0)
    assert len(prof.critical_points) == 0
    assert validate_profile(prof) == []


def test_solve_nodal_power_budget_error():
    with pytest.raises(IntegrationError):
        solve_nodal_power(3.0, 4.9, 2, t_max=100.0)


def test_supercritical_p_is_refused():
    # for M > 2 no nodal radial solution exists at p >= (M+2)/(M-2)
    # (Pohozaev's identity): refused before any integration
    for p in (5.0, 5.5):
        with pytest.raises(ValueError,
                           match=r"critical exponent \(M\+2\)/\(M-2\)=5 "):
            solve_nodal_power(3.0, p, 1)


def test_residual_shrinks_under_solver_refinement():
    # defect of the integral form of the equation over each solver step,
    # flux(b) - flux(a) + int_a^b s^(M-1) |v|^(p-1) v ds, with the integral
    # from Simpson on the interpolant; tightening the solver tolerances
    # shrinks the steps and with them the weighted defect norm
    def defect_norm(rtol):
        prof = solve_nodal_power(3.0, 3.0, 2, rtol=rtol, atol=rtol * 1e-2)
        t, v, dv = prof.grid, prof.values, prof.derivative
        flux = t ** 2 * dv
        mid = 0.5 * (t[:-1] + t[1:])
        vm = prof.evaluate(mid)
        g = lambda s, w: s ** 2 * np.abs(w) ** 2 * w
        h = np.diff(t)
        integral = h / 6.0 * (g(t[:-1], v[:-1]) + 4 * g(mid, vm)
                              + g(t[1:], v[1:]))
        defect = np.diff(flux) + integral
        return float(np.sqrt(np.sum(defect ** 2))
                     / np.max(np.abs(flux)))

    loose, tight = defect_norm(1e-6), defect_norm(1e-10)
    assert tight < 0.05 * loose
    assert tight < 1e-7


def test_henon_profile_alpha_zero_identity():
    hp = henon_profile(4, 0.0, 2.5, 2)
    base = solve_nodal_power(4.0, 2.5, 2)
    assert np.array_equal(hp.grid, base.grid)
    assert np.array_equal(hp.values, base.values)
    assert hp.variable == "physical"


def test_henon_profile_amplitude_and_zero_pullback():
    # u(r) = ((2+alpha)/2)^(2/(p-1)) v(r^((2+alpha)/2)): at N=3, alpha=2,
    # p=3 the amplitude is exactly 2 (verified below via the equation
    # itself, not just bookkeeping)
    hp = henon_profile(3, 2.0, 3.0, 1)
    base = solve_nodal_power(2.5, 3.0, 1)
    assert hp.values[0] / base.values[0] == pytest.approx(2.0, rel=1e-13)
    assert np.allclose(hp.zeros, base.zeros ** 0.5, rtol=0, atol=1e-15)

    hp2 = henon_profile(3, 2.0, 3.0, 2)
    b2 = solve_nodal_power(2.5, 3.0, 2)
    assert np.allclose(hp2.zeros, b2.zeros ** 0.5, rtol=0, atol=1e-15)


def test_henon_profile_solves_physical_equation():
    # quadrature residual of -(r^(N-1) u')' = r^(N-1+alpha) |u|^(p-1) u
    N, alpha, p = 3, 2.0, 3.0
    hp = henon_profile(N, alpha, p, 1)
    r = np.linspace(0.02, 0.98, 1500)
    flux = r ** (N - 1) * hp.evaluate_derivative(r)
    dflux = np.gradient(flux, r, edge_order=2)
    u = hp.evaluate(r)
    rhs = r ** (N - 1 + alpha) * np.abs(u) ** (p - 1) * u
    rel = np.sqrt(np.trapezoid((dflux + rhs) ** 2, r)
                  / np.trapezoid(rhs ** 2, r))
    assert rel < 2e-4
    # the amplitude from the remark with exponent 1/(p-1) fails by a factor
    wrong = hp.values[0] / 2 ** 0.5
    assert abs(wrong / solve_nodal_power(2.5, p, 1).values[0] - 1.0) > 0.1


def test_validate_profile_detects_injected_fault():
    prof = solve_nodal_power(3.0, 3.0, 2)
    bad_values = prof.values.copy()
    idx = np.searchsorted(prof.grid, 0.1)  # inside the first (positive) zone
    bad_values[idx] = -bad_values[idx]
    bad = dataclasses.replace(prof, values=bad_values)
    # the sign check names the zone, and no other check fails
    assert validate_profile(bad) == ["sign error inside nodal zone 0"]


def _flipped(arr, i, value=None):
    out = arr.copy()
    out[i] = -out[i] if value is None else value
    return out


@pytest.mark.parametrize("fault, message", [
    pytest.param(lambda pr: {"zeros": pr.zeros[:1]},
                 r"expected 2 zeros, recorded 1", id="zero-count"),
    pytest.param(lambda pr: {"values": _flipped(pr.values, -1, 1.0)},
                 r"profile does not vanish at t=1", id="boundary"),
    pytest.param(lambda pr: {"values": _flipped(pr.values, 0)},
                 r"v\(0\)=-35\.9619 is not positive", id="start-sign"),
    pytest.param(lambda pr: {"derivative": _flipped(
                     pr.derivative, np.searchsorted(pr.grid, 0.1))},
                 r"profile is not decreasing in its first nodal zone",
                 id="first-zone"),
    pytest.param(lambda pr: {"critical_points": pr.critical_points[:0]},
                 r"zone \(0\.191782, 1\) has 0 critical points, expected 1",
                 id="critical-points"),
    pytest.param(lambda pr: {"extremal_values": pr.extremal_values[::-1]},
                 r"extremal values are not ordered as expected",
                 id="extremal-order"),
    pytest.param(lambda pr: {"derivative": _flipped(pr.derivative, 0, 1.0)},
                 r"initial slope 1\.000e\+00 above tolerance",
                 id="initial-slope"),
])
def test_validate_profile_names_each_fault(fault, message):
    # each fault, injected into a valid m = 2 profile, fails its own check
    # and no other; test_validate_profile_detects_injected_fault injects the
    # sign fault
    prof = solve_nodal_power(3.0, 3.0, 2)
    msgs = validate_profile(dataclasses.replace(prof, **fault(prof)))
    assert len(msgs) == 1 and re.fullmatch(message, msgs[0]), msgs


def test_validate_profile_m1_vacuous_critical_check():
    prof = solve_nodal_power(2.0, 3.0, 1)
    # no interior zones to check, so no critical-point message
    assert validate_profile(prof) == []


def test_auxiliary_z_counts():
    for (M, p, m) in ((3.0, 3.0, 2), (2.0, 2.2, 1), (4.0, 2.2, 3)):
        prof = solve_nodal_power(M, p, m)
        z = auxiliary_z(prof)
        assert z.interior_zero_count == m
        assert z.values[0] == pytest.approx(
            2.0 / (p - 1.0) * prof.values[0])


def test_auxiliary_z_alternates_at_profile_zeros():
    prof = solve_nodal_power(3.0, 3.0, 3)
    z = auxiliary_z(prof)
    # z(t_i) = t_i v'(t_i): alternating, starting negative
    vals = prof.zeros[:-1] * prof.evaluate_derivative(prof.zeros[:-1])
    assert np.all(np.sign(vals) == [-1.0, 1.0])


def test_linearized_potential_matches_power_formula():
    prof = solve_nodal_power(3.0, 3.0, 2)
    a = linearized_potential(prof)
    t = np.linspace(0, 1, 7)
    expect = 3.0 * np.abs(prof.evaluate(t)) ** 2
    assert np.allclose(a(t), expect, rtol=1e-12)


def test_profile_serialization(tmp_path):
    # the profile.csv/profile.json pair solve publishes, from the cli writers
    prof = solve_nodal_power(3.0, 3.0, 2)
    csv_path = tmp_path / "p.csv"
    json_path = tmp_path / "p.json"
    _write_csv(csv_path, ["t", "v", "v_prime"],
               zip(prof.grid, prof.values, prof.derivative))
    _write_json(_profile_doc(prof), json_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,v,v_prime"
    doc = json.loads(json_path.read_text())
    assert doc["nodal_zones"] == 2
    assert doc["rows"] == len(csv_path.read_text().splitlines()) - 1
    assert len(doc["zeros"]) == 2
    assert doc["nonlinearity"] == "power(p=3)" and doc["coupling"] == 1.0
    assert doc["solver"]["rtol"] == 1e-10
