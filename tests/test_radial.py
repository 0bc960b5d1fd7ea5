"""Nodal profile construction, validation and the auxiliary function."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from henonmorse import radial
from henonmorse.cli import _profile_doc, _write_csv, _write_json
from henonmorse.dimension import generalized_dimension
from henonmorse.radial import (POWER_MAX_STEPS, PROFILE_ATOL, PROFILE_RTOL,
                               ZERO_TOL, IntegrationError, _integrate,
                               _refine_event, _rk_step, auxiliary_z,
                               linearized_potential, solve_nodal_power,
                               validate_profile)
from henonmorse.spectral import WeightedSLProblem, zero_potential

from conftest import MATRIX
from diagnostics import henon_profile

# frozen from an independent high-order adaptive run (rtol 1e-12) of the
# v(0)=1 initial value problem at M=3, p=3
T1_REF = 6.896848619376449
T2_REF = 35.96194003077796


def test_ivp_basic_power_case():
    ts, vs, dvs, zeros, _, _ = _integrate(3.0, 3.0, 1, 40.0, PROFILE_RTOL,
                                          PROFILE_ATOL)
    assert len(zeros) == 1
    assert zeros[0] == pytest.approx(T1_REF, rel=1e-8)
    # the last step is the zero, crossed downwards
    assert ts[-1] == zeros[0] and dvs[-1] < 0
    # the solution decreases from v(0)=1 right away
    assert np.all(vs[1:8] < 1.0)


def test_integrator_zero_locations_against_step_halving():
    # the same integration at tighter tolerance is the independent check
    loose = _integrate(3.0, 3.0, 2, 1e3, 1e-8, 1e-10)[3]
    tight = _integrate(3.0, 3.0, 2, 1e3, 1e-12, 1e-14)[3]
    assert len(loose) == len(tight) == 2
    assert np.allclose(loose, tight, rtol=1e-7)
    assert np.allclose(tight, [T1_REF, T2_REF], rtol=1e-9)


def _scaled_rk_step(factor):
    """_rk_step taking its steps from factor * v: the stand-in for a start
    the IVP v(0) = 1 never reaches."""
    def step(q, m1, t, v, dv, h, k1a):
        return _rk_step(q, m1, t, factor * v, dv, h, k1a)
    return step


def test_integrator_nonfinite_rhs_reported(monkeypatch):
    # a non-finite stage value is reported by name at the step that shows it
    for bad in (float("nan"), float("inf")):
        monkeypatch.setattr(radial, "_rk_step", _scaled_rk_step(bad))
        with pytest.raises(IntegrationError, match="non-finite"):
            _integrate(3.0, 3.0, 2, 1e3, PROFILE_RTOL, PROFILE_ATOL)


def test_critical_points_located():
    _, _, _, zeros, crit_ts, crit_vs = _integrate(3.0, 3.0, 2, 1e3,
                                                  PROFILE_RTOL, PROFILE_ATOL)
    assert len(crit_ts) == 1
    # interior minimum between the two zeros, negative value
    assert zeros[0] < crit_ts[0] < zeros[1]
    assert crit_vs[0] < 0


def test_ivp_spent_step_budget_is_an_error(monkeypatch):
    # 60 steps end at t = 0.878, well before the first zero near 6.9; the
    # budget is read when the integration starts
    with monkeypatch.context() as patch:
        patch.setattr(radial, "POWER_MAX_STEPS", 60)
        with pytest.raises(IntegrationError,
                           match=r"budget of 60 steps exhausted at t=0\.878"):
            _integrate(3.0, 3.0, 1, 40.0, PROFILE_RTOL, PROFILE_ATOL)
    # a v whose |v|^(p-1) exceeds the float range fails by name too
    for factor in (1e200, 1e160):
        with monkeypatch.context() as patch:
            patch.setattr(radial, "_rk_step", _scaled_rk_step(factor))
            with pytest.raises(IntegrationError, match="overflows a float"):
                _integrate(3.0, 3.0, 1, 1e3, PROFILE_RTOL, PROFILE_ATOL)
    # no step meets a tolerance of 1e-300: rejections shrink h below 1e-15
    with pytest.raises(IntegrationError, match="step size underflow"):
        _integrate(3.0, 3.0, 1, 10.0, 1e-300, 1e-300)


def _reference_emden_ivp(M, p, v0, t_max, *, rtol=PROFILE_RTOL,
                         atol=PROFILE_ATOL, max_zeros=64,
                         max_steps=POWER_MAX_STEPS):
    """The integrator as it stood before its loop was trimmed (then the
    public integrate_emden_ivp), its argument checks and docstring left
    out, returning the arrays _integrate returns: the reference the
    trimmed loop must reproduce bitwise."""
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
    return (*np.reshape(steps, (-1, 3)).T, np.reshape(zeros, (-1, 2))[:, 0],
            *np.reshape(crits, (-1, 2)).T)


@pytest.mark.parametrize("M, p, m", sorted(
    {(generalized_dimension(N, alpha).M, p, m)
     for N, alpha, p, m in MATRIX}
    | {(3.0, float(p), 2) for p in np.linspace(2.0, 4.9, 16)}))
def test_trimmed_ivp_loop_is_bitwise_the_reference(M, p, m):
    # the acceptance matrix and the benchmark sweep, as solve_nodal_power
    # integrates them
    new = _integrate(M, p, m, 1e10, PROFILE_RTOL, PROFILE_ATOL)
    ref = _reference_emden_ivp(M, p, 1.0, 1e10, max_zeros=m)
    for name, a, b in zip(("t", "v", "v'", "zeros", "critical points",
                           "critical values"), new, ref, strict=True):
        assert np.array_equal(a, b), name


def test_ivp_second_derivative_at_origin():
    # regular start: v''(0) = -1/M = -1/3 for M=3
    t, v = _integrate(3.0, 3.0, 1, 0.02, PROFILE_RTOL, PROFILE_ATOL)[:2]
    small = (t > 0) & (t < 0.02)
    est = 2.0 * (v[small] - 1.0) / t[small] ** 2
    assert est[-1] == pytest.approx(-1.0 / 3.0, rel=1e-4)


def test_ivp_energy_monotonicity():
    # F(1) - F(v(t)) - (v'(t))^2/2 equals (M-1) int_0^t v'^2/s ds >= 0
    t, v, dv = _integrate(3.0, 3.0, 2, 30.0, PROFILE_RTOL, PROFILE_ATOL)[:3]
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


def test_solve_nodal_power_budget_error(monkeypatch):
    monkeypatch.setattr(radial, "POWER_T_MAX", 100.0)
    with pytest.raises(IntegrationError,
                       match=r"zero #2 not found before t_max=100$"):
        solve_nodal_power(3.0, 4.9, 2)


def test_supercritical_p_is_refused():
    # for M > 2 no nodal radial solution exists at p >= (M+2)/(M-2)
    # (Pohozaev's identity): refused before any integration
    for p in (5.0, 5.5):
        with pytest.raises(ValueError,
                           match=r"critical exponent \(M\+2\)/\(M-2\)=5 "):
            solve_nodal_power(3.0, p, 1)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: solve_nodal_power(NAN, 3.0, 1), "M=nan", id="M-nan"),
    pytest.param(lambda: solve_nodal_power(INF, 3.0, 1), "M=inf", id="M-inf"),
    pytest.param(lambda: solve_nodal_power(3.0, NAN, 1), "p=nan", id="p-nan"),
    pytest.param(lambda: solve_nodal_power(3.0, INF, 1), "p=inf", id="p-inf"),
    pytest.param(lambda: solve_nodal_power(2.0, 1.0, 1), "p=1.0", id="p-1"),
    pytest.param(lambda: solve_nodal_power(2.0, 0.5, 1), "p=0.5",
                 id="p-0.5"),
    pytest.param(lambda: solve_nodal_power(3.0, 3.0, 1, rtol=NAN),
                 "rtol=nan", id="rtol-nan"),
    pytest.param(lambda: solve_nodal_power(3.0, 3.0, 1, atol=INF),
                 "atol=inf", id="atol-inf"),
    pytest.param(lambda: generalized_dimension(NAN, 0.0), "N=nan",
                 id="N-nan"),
    pytest.param(lambda: generalized_dimension(3, NAN), "alpha=nan",
                 id="alpha-nan"),
    pytest.param(lambda: generalized_dimension(3, INF), "alpha=inf",
                 id="alpha-inf"),
    pytest.param(lambda: WeightedSLProblem(NAN, zero_potential, "singular"),
                 "M=nan", id="problem-M-nan"),
    pytest.param(lambda: WeightedSLProblem(INF, zero_potential, "standard"),
                 "M=inf", id="problem-M-inf"),
])
def test_library_refuses_a_non_finite_or_out_of_range_argument(call,
                                                               message):
    # NaN fails every comparison, so a bound alone lets it through; each
    # refusal names the argument before anything is solved
    with pytest.raises(ValueError, match=rf"^{re.escape(message)} must be "
                                         r"finite and [>=]+ \d$"):
        call()


def test_near_linear_p_whose_rescaling_overflows_is_an_error():
    # T_1^(2/(p-1)) leaves the float range below about p = 1.0032 at M = 3;
    # at p = 1.00323 it is finite, and T_1^(2/(p-1)+1), the scale of v',
    # is not
    with pytest.raises(IntegrationError, match=re.escape(
            "rescaling by T_m^(2/(p-1)) overflows a float (T_m=3.14336, "
            "p=1.002)")):
        solve_nodal_power(3.0, 1.002, 1)
    with pytest.raises(IntegrationError, match="rescaling by T_m"):
        solve_nodal_power(3.0, 1.00323, 1)
    prof = solve_nodal_power(3.0, 1.004, 1)
    assert np.all(np.isfinite(prof.values))
    assert validate_profile(prof) == []


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
        z, zero_count = auxiliary_z(prof)
        assert zero_count == m
        assert z[0] == pytest.approx(
            2.0 / (p - 1.0) * prof.values[0])


def test_auxiliary_z_alternates_at_profile_zeros():
    prof = solve_nodal_power(3.0, 3.0, 3)
    z, zero_count = auxiliary_z(prof)
    assert zero_count == 3
    # z(t_i) = t_i v'(t_i) at each interior zero t_i of v: the samples on
    # either side of it carry that sign, alternating from negative; with
    # z(0) > 0 and z(1) = v'(1) < 0 that makes the three sign changes
    for t_i, sign in zip(prof.zeros[:-1], (-1.0, 1.0)):
        assert np.sign(t_i * prof.evaluate_derivative(t_i)) == sign
        j = np.searchsorted(prof.grid, t_i)
        assert prof.grid[j - 1] < t_i < prof.grid[j]
        assert np.sign(z[j - 1]) == np.sign(z[j]) == sign
    assert z[0] > 0 > z[-1]


def test_linearized_potential_matches_power_formula():
    prof = solve_nodal_power(3.0, 3.0, 2)
    a = linearized_potential(prof)
    t = np.linspace(0, 1, 7)
    expect = 3.0 * np.abs(prof.evaluate(t)) ** 2
    assert np.allclose(a(t), expect, rtol=1e-12)


@pytest.mark.parametrize("derivative", [False, True])
def test_interval_runs_are_bitwise_the_gathered_values(derivative,
                                                       monkeypatch):
    # monotone queries take their intervals by runs (np.repeat of each
    # interval's data), any other query by its own search (a gather); the
    # arithmetic is the same, and so are the bits: on a descending
    # Liouville grid and ascending, at the profile's nodes, outside [0, 1],
    # on one and two queries, on repeated ones, and against scalar queries
    prof = solve_nodal_power(3.0, 3.0, 2)
    repeats = []
    real_repeat = np.repeat
    monkeypatch.setattr(np, "repeat", lambda *args, **kwargs: (
        repeats.append(1), real_repeat(*args, **kwargs))[1])

    def at(q):
        return radial._hermite(prof.grid, prof.values, prof.derivative, q,
                               derivative)

    r = np.exp(-np.linspace(0.0, 23.6, 513))
    outside = np.linspace(-0.5, 1.5, 101)
    for q in (r, r[::-1], prof.grid, prof.grid[::-1], outside,
              outside[::-1], r[:1], r[:2], r[1::-1],
              real_repeat(prof.grid[:5], 3)):
        q = np.ascontiguousarray(q)
        repeats.clear()
        runs = at(q)
        assert len(repeats) == 6 and runs.flags.c_contiguous
        scalars = [at(np.float64(t)) for t in q]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert np.array(scalars).tobytes() == runs.tobytes()
        if len(q) > 2:
            perm = np.random.default_rng(0).permutation(len(q))
            repeats.clear()
            gathered = np.empty_like(runs)
            gathered[perm] = at(q[perm])
            assert not repeats
            assert gathered.tobytes() == runs.tobytes()


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
    assert set(doc) == {"variable", "M", "nonlinearity", "coupling",
                        "nodal_zones", "rows", "zeros", "critical_points",
                        "extremal_values", "solver"}
    assert doc["variable"] == "emden"
    assert doc["nodal_zones"] == 2
    assert doc["rows"] == len(csv_path.read_text().splitlines()) - 1
    assert len(doc["zeros"]) == 2
    assert doc["nonlinearity"] == "power(p=3)" and doc["coupling"] == 1.0
    assert doc["solver"]["rtol"] == 1e-10
