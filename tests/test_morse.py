"""Morse assembly: tables, index formulas, degeneracy, bounds, predictions."""

import dataclasses
import math

import numpy as np
import pytest

from henonmorse.dimension import (angular_threshold, degeneracy_targets,
                                  eigenvalue_pullback, generalized_dimension)
from henonmorse.morse import (BETA_PLANAR, asymptotic_prediction,
                              beltrami_eigen, beltrami_multiplicity,
                              degeneracy_scan, lower_bound, morse_index,
                              symmetric_morse_index)
from henonmorse.radial import linearized_potential, solve_nodal_power
from henonmorse.spectral import (EigenPair, SpectralError, Spectrum,
                                 WeightedSLProblem, solve_singular_spectrum,
                                 solve_standard_spectrum)


def synthetic_spectrum(values, M, kind="singular"):
    pairs = tuple(
        EigenPair(value=float(v), error_bar=0.0, grid=np.empty(0),
                  samples=np.empty(0), interior_nodes=i,
                  boundary_slope=math.nan)
        for i, v in enumerate(values))
    thr = ((M - 2.0) / 2.0) ** 2 if kind == "singular" else math.inf
    return Spectrum(kind=kind, M=M, threshold=thr, eigenpairs=pairs,
                    exhausted_below=thr - 1e-6 if kind == "singular"
                    else -math.inf,
                    negative_count=sum(1 for v in values if v < -1e-7),
                    meta={"zero_band_count": sum(1 for v in values
                                                 if abs(v) <= 1e-7)})


def test_beltrami_eigenvalues():
    assert beltrami_eigen(3, 0) == 0
    assert beltrami_eigen(3, 1) == 2
    assert beltrami_eigen(2, 5) == 25
    for N in (2, 3, 4, 7):
        lams = [beltrami_eigen(N, j) for j in range(12)]
        assert all(b > a for a, b in zip(lams, lams[1:]))


def test_beltrami_multiplicities():
    assert beltrami_multiplicity(5, 0) == 1
    assert all(beltrami_multiplicity(2, j) == 2 for j in range(1, 25))
    for j in range(1, 21):
        assert beltrami_multiplicity(3, j) == 2 * j + 1
    # sum over N=3 orders telescopes to a perfect square
    for jtop in range(0, 12):
        total = sum(beltrami_multiplicity(3, j) for j in range(jtop + 1))
        assert total == (jtop + 1) ** 2
    # large order stays exact
    assert beltrami_multiplicity(9, 40) > 0


def test_beltrami_table():
    assert beltrami_multiplicity(4, 0) == 1
    assert [beltrami_eigen(4, j) for j in range(7)] == [
        j * (4 + j - 2) for j in range(7)]


def test_morse_index_synthetic_example():
    dm = generalized_dimension(3, 0.0)
    spec = synthetic_spectrum([-2.5, -0.5], 3.0)
    rep = morse_index(spec, dm)
    assert rep.radial_morse == 2
    assert [e.contribution for e in rep.per_eigenvalue] == [4, 1]
    assert rep.total == 5
    assert rep.per_eigenvalue[0].contributing_j == (0, 1)
    assert not any(e.integer_collision for e in rep.per_eigenvalue)
    # pullback consistency carried on each row
    assert rep.per_eigenvalue[0].lambda_hat_rad == pytest.approx(-2.5)


def test_morse_index_empty():
    dm = generalized_dimension(4, 1.0)
    spec = synthetic_spectrum([], dm.M)
    rep = morse_index(spec, dm, m=1)
    assert rep.total == 0 and rep.radial_morse == 0


def test_morse_index_refuses_truncated_spectrum():
    import dataclasses
    dm = generalized_dimension(3, 0.0)
    spec = synthetic_spectrum([-2.5], 3.0)
    truncated = dataclasses.replace(spec, negative_count=2)
    with pytest.raises(SpectralError, match="negative_count"):
        morse_index(truncated, dm)


def test_morse_index_boundary_alpha2():
    # nu just below -(M-1) with alpha=2 puts J just above (2+alpha)/2 = 2
    dm = generalized_dimension(3, 2.0)
    eps = 1e-3
    spec = synthetic_spectrum([-(dm.M - 1.0) - eps], dm.M)
    rep = morse_index(spec, dm, m=1)
    assert rep.per_eigenvalue[0].J > 2.0
    assert rep.per_eigenvalue[0].contributing_j == (0, 1, 2)


def test_morse_index_integer_collision_flagged():
    dm = generalized_dimension(3, 0.0)
    # a value within 1e-8 of the j=1 target -2: J within 1e-8/3 of 1
    spec = synthetic_spectrum([-2.0 - 1e-8], 3.0)
    rep = morse_index(spec, dm, m=1)
    entry = rep.per_eigenvalue[0]
    assert entry.integer_collision
    # the strict rule at an exact hit excludes the boundary order
    assert entry.contributing_j == (0,)
    assert rep.total == 1


def test_two_threshold_formulas_agree_at_alpha_zero():
    # the general J formula collapses onto the untransformed one at alpha=0
    rng = np.random.default_rng(2)
    for N in (2, 3, 5):
        dm = generalized_dimension(N, 0.0)
        for nu in -rng.uniform(0.01, 30.0, size=20):
            lam = eigenvalue_pullback(nu, dm)
            direct = math.sqrt(((N - 2) / 2) ** 2 - lam) - (N - 2) / 2
            assert angular_threshold(nu, dm) == pytest.approx(direct,
                                                              rel=1e-12)


def test_degeneracy_scan_synthetic_hit():
    dm = generalized_dimension(3, 1.0)
    tgt = degeneracy_targets(dm, 2)
    spec = synthetic_spectrum([tgt[0], -0.123], dm.M)
    std = synthetic_spectrum([-5.0, -0.2], dm.M, kind="standard")
    rep = degeneracy_scan(spec, std, dm, tol=1e-9)
    assert rep.nonradial_hits == ((1, 1, 0.0),)
    assert not rep.radially_degenerate
    # tol = 0 finds nothing on generic floats
    spec2 = synthetic_spectrum([-1.234567, -0.4321], dm.M)
    rep2 = degeneracy_scan(spec2, std, dm, tol=0.0)
    assert rep2.nonradial_hits == ()


def test_degeneracy_scan_radial_routes():
    dm3 = generalized_dimension(3, 0.0)
    sing = synthetic_spectrum([-2.0, 1e-9], dm3.M)
    rep = degeneracy_scan(sing, None, dm3)
    assert rep.radially_degenerate and rep.source == "singular"
    dm2 = generalized_dimension(2, 1.0)
    sing2 = synthetic_spectrum([-3.0], dm2.M)
    std2 = synthetic_spectrum([-1.0, 1e-9], dm2.M, kind="standard")
    rep2 = degeneracy_scan(sing2, std2, dm2)
    assert rep2.radially_degenerate and rep2.source == "standard"
    with pytest.raises(ValueError):
        degeneracy_scan(sing2, None, dm2)


def planar_standard(values, negative_count, zero_band):
    """A standard spectrum as the solver leaves it: the counts always, the
    values only when some were asked for."""
    spec = synthetic_spectrum(values, 2.0, kind="standard")
    return dataclasses.replace(spec, negative_count=negative_count,
                               meta={"zero_band_count": zero_band})


@pytest.mark.parametrize("values", [[-4.0, -1.0, 1e-9, 3.0], []],
                         ids=["values", "count-only"])
def test_planar_radial_degeneracy_from_counts(values):
    dm = generalized_dimension(2, 1.0)
    sing = synthetic_spectrum([-3.0, -0.5], dm.M)
    rep = degeneracy_scan(sing, planar_standard(values, 2, 1), dm)
    assert rep.radially_degenerate and rep.radial_offender == 3
    assert rep.source == "standard"
    rep0 = degeneracy_scan(sing, planar_standard(values, 2, 0), dm)
    assert not rep0.radially_degenerate and rep0.radial_offender is None


def test_planar_radial_degeneracy_needs_the_zero_band():
    dm = generalized_dimension(2, 1.0)
    sing = synthetic_spectrum([-3.0], dm.M)
    std = dataclasses.replace(planar_standard([], 1, 0), meta={})
    with pytest.raises(ValueError, match="zero_band_count"):
        degeneracy_scan(sing, std, dm)


def test_power_case_nondegenerate():
    prof = solve_nodal_power(2.5, 3.0, 2)
    a = linearized_potential(prof)
    dm = generalized_dimension(3, 2.0)
    sing = solve_singular_spectrum(
        WeightedSLProblem(M=dm.M, a=a, kind="singular"), 3)
    std = solve_standard_spectrum(
        WeightedSLProblem(M=dm.M, a=a, kind="standard"), 2)
    rep = degeneracy_scan(sing, std, dm)
    assert not rep.radially_degenerate


def test_symmetric_index_full_rotation():
    dm = generalized_dimension(3, 0.0)
    spec = synthetic_spectrum([-2.5, -0.5], 3.0)
    rep = morse_index(spec, dm)
    assert rep.total > rep.radial_morse
    assert symmetric_morse_index(rep) == rep.radial_morse
    # cyclic groups are planar, and their order is positive
    for q in (1, 2):
        with pytest.raises(ValueError, match="N = 2"):
            symmetric_morse_index(rep, q)
    # in the plane, q = 1 leaves every harmonic invariant: the total
    dm2 = generalized_dimension(2, 0.0)
    rep2 = morse_index(synthetic_spectrum([-2.5, -0.5], 2.0), dm2)
    assert rep2.total > rep2.radial_morse
    assert symmetric_morse_index(rep2, 1) == rep2.total
    assert symmetric_morse_index(rep2) == rep2.radial_morse
    for q in (0, -3):
        with pytest.raises(ValueError, match="q >= 1"):
            symmetric_morse_index(rep2, q)


def test_symmetric_index_planar_cyclic():
    # N=2, alpha=3, m=2: orders 1 and 2 never survive the cyclic group of
    # order 4;
    # whether anything beyond the radial part survives depends on how far
    # the first eigenvalue sits below the threshold
    dm = generalized_dimension(2, 3.0)
    prof = solve_nodal_power(dm.M, 3.0, 2)
    sing = solve_singular_spectrum(
        WeightedSLProblem(M=dm.M, a=linearized_potential(prof),
                          kind="singular"), 2)
    rep = morse_index(sing, dm, m=2)
    js = rep.per_eigenvalue[0].contributing_j
    q = 4
    got = symmetric_morse_index(rep, q)
    # independent evaluation of the same double sum, from the invariant
    # multiplicity of each order: 1 at j = 0, 2 where q | j, else 0
    table = [1] + [2 if j % q == 0 else 0 for j in range(1, js[-1] + 1)]
    expect = sum(table[j] for e in rep.per_eigenvalue
                 for j in e.contributing_j)
    assert got == expect
    assert table[1] == 0 and table[2] == 0
    # a rotation order beyond every contributing j leaves only the radial
    # part; profiles this far from the limit exponent carry J_1 > 4, so
    # q = 4 itself retains a j = 4k contribution and exceeds radial_morse
    q_big = js[-1] + 1
    assert symmetric_morse_index(rep, q_big) == rep.radial_morse
    assert got > rep.radial_morse


def test_lower_bound_values():
    assert lower_bound(3, 0.0, 2, True) == 5
    assert lower_bound(2, 3.0, 2, True) == 6
    assert lower_bound(3, 0.0, 1, False) == 0
    assert lower_bound(3, 0.0, 1, True) == 1
    # without the superlinearity hypothesis: (m-1) * sum_(j=0)^(1+[a/2]) N_j
    assert lower_bound(3, 0.0, 2, False) == 4
    assert lower_bound(2, 3.0, 3, False) == 2 * (1 + 2 + 2)


def test_lower_bound_alpha_growth():
    # the floor is non-decreasing in alpha and unbounded along even alphas
    for N in (2, 3, 5):
        vals = [lower_bound(N, a, 2, False) for a in
                np.linspace(0, 20, 41)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        evens = [lower_bound(N, 2.0 * k, 2, False) for k in range(12)]
        assert all(b > a for a, b in zip(evens, evens[1:]))


def test_asymptotic_prediction_values():
    assert asymptotic_prediction(3, 0.0, 2) == 5
    assert asymptotic_prediction(2, 0.0, 2) == 12
    assert asymptotic_prediction(3, 1.0, 2) == 8
    # N=2 only covers two nodal zones
    with pytest.raises(ValueError):
        asymptotic_prediction(2, 1.0, 3)
    # exceptional alpha values are refused rather than interpolated
    alpha_exc = 2.0 * (6.0 / BETA_PLANAR - 1.0)
    with pytest.raises(ValueError, match="exceptional"):
        asymptotic_prediction(2, alpha_exc, 2)
    # nearby non-exceptional alphas work
    assert asymptotic_prediction(2, alpha_exc + 1e-3, 2) > 0
    # an alpha a hair off an even integer is ambiguous between branches
    with pytest.raises(ValueError, match="even"):
        asymptotic_prediction(3, 2.0 + 1e-11, 2)


def test_asymptotic_prediction_even_vs_odd_branch():
    # even alpha uses the split branch
    assert asymptotic_prediction(3, 2.0, 2) == \
        2 * (1 + 3) + 1 * beltrami_multiplicity(3, 2)
    assert asymptotic_prediction(3, 2.5, 2) == 2 * (1 + 3 + 5)


def test_morse_report_bounds_and_prediction_fields():
    dm = generalized_dimension(3, 0.0)
    spec = synthetic_spectrum([-2.5, -0.5], 3.0)
    rep = morse_index(spec, dm, m=2)
    assert rep.bounds["with_f3"] == 5
    assert rep.bounds["general"] == 4
    assert rep.prediction == 5
    assert rep.total >= rep.bounds["with_f3"]
