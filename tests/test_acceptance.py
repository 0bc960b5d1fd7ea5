"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers.  The shared (N, alpha, p, m) matrix comes from
conftest.matrix_data and is restricted to subcritical combinations."""

import math

import numpy as np
from conftest import (piecewise_linear_weighted_integrals,
                      random_piecewise_linear)
from diagnostics import (fit_decay_exponent, henon_profile, picone_residual,
                         weighted_inner_product)
from henonmorse.dimension import generalized_dimension
from henonmorse.morse import (asymptotic_prediction, lower_bound,
                              morse_index)
from henonmorse.oracle import dense_oracle_spectrum, resolves
from henonmorse.radial import (auxiliary_z, linearized_potential,
                               solve_nodal_power)
from henonmorse.spectral import (SpectralConfig, WeightedSLProblem,
                                 solve_singular_spectrum,
                                 solve_standard_spectrum, theta_analytic,
                                 zero_potential)

BESSEL_J0_FIRST_ZERO = 2.404825557695773


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_radial_morse_and_nondegeneracy(matrix_data):
    data, elapsed = matrix_data
    for (N, alpha, p, m), entry in data.items():
        spec = entry["singular"]
        neg = [pr.value for pr in spec.eigenpairs if pr.value < 0]
        assert spec.negative_count == m, (N, alpha, p, m, neg)
        assert len(neg) == m
        assert all(abs(v) > 1e-5 for v in neg), (N, alpha, p, m, neg)
        assert spec.meta["zero_band_count"] == 0
    # runtime budget covers the profile + singular solves of the matrix
    assert elapsed < 60.0
    _report(1, f"{len(data)} matrix points, exactly m negative singular "
               f"eigenvalues each, min |nu|>1e-5, core time "
               f"{elapsed:.1f}s")


def test_criterion_02_eigenvalue_ordering(matrix_data):
    data, _ = matrix_data
    from henonmorse.dimension import angular_threshold
    for (N, alpha, p, m), entry in data.items():
        spec = entry["singular"]
        dmap = entry["dmap"]
        M = dmap.M
        neg = [pr.value for pr in spec.eigenpairs if pr.value < 0]
        for i, v in enumerate(neg, start=1):
            if i <= m - 1:
                assert v < -(M - 1.0) - 1e-6, (N, alpha, p, m, i, v)
                assert angular_threshold(v, dmap) > dmap.exponent
            else:
                assert -(M - 1.0) + 1e-6 < v < -1e-6, (N, alpha, p, m, i, v)
                assert angular_threshold(v, dmap) < dmap.exponent
    _report(2, "nu_i < -(M-1) for i<=m-1 and -(M-1) < nu_m < 0 on the "
               "whole matrix (equivalently J_i vs (2+alpha)/2)")


def test_criterion_03_analytic_spectral_sanity():
    prob2 = WeightedSLProblem(M=2.0, a=zero_potential, kind="standard")
    nu1_disc = solve_standard_spectrum(prob2, 1).values[0]
    target = BESSEL_J0_FIRST_ZERO ** 2
    rel2 = abs(nu1_disc - target) / target
    assert rel2 < 1e-3

    prob3 = WeightedSLProblem(M=3.0, a=zero_potential, kind="standard")
    nu1_ball = solve_standard_spectrum(prob3, 1).values[0]
    rel3 = abs(nu1_ball - math.pi ** 2) / math.pi ** 2
    assert rel3 < 1e-3

    prob4 = WeightedSLProblem(M=4.0, a=zero_potential, kind="singular")
    spec4 = solve_singular_spectrum(prob4, 5)
    assert len(spec4.eigenpairs) == 0
    assert spec4.exhausted_below >= 1.0 - 1e-6 - 1e-15
    _report(3, f"Bessel rel {rel2:.1e}, pi^2 rel {rel3:.1e}, M=4 singular "
               f"empty below {spec4.exhausted_below:.6f}")


def test_criterion_04_negative_count_equivalence(matrix_data):
    data, _ = matrix_data
    for (N, alpha, p, m), entry in data.items():
        s_neg = entry["singular"].negative_count
        n_neg = entry["standard"].negative_count
        assert s_neg == n_neg == m, (N, alpha, p, m, s_neg, n_neg)
        assert entry["standard"].meta["zero_band_count"] == 0
    _report(4, "standard and singular negative counts agree (= m) on every "
               "matrix potential")


def test_criterion_05_oracle_equivalence(matrix_data):
    data, _ = matrix_data
    points = [key for key in data if key[3] == 2 and key[2] == 2.2]
    assert len(points) >= 12
    worst = 0.0
    checked = 0
    for key in points:
        entry = data[key]
        prob = WeightedSLProblem(M=entry["dmap"].M, a=entry["potential"],
                                 kind="singular")
        orc = dense_oracle_spectrum(prob, n=2400)
        # the pairs whose decay the oracle's cut resolves
        compared = [pr for pr in entry["singular"].eigenpairs
                    if resolves(prob.threshold, pr.value)]
        assert len(compared) >= 2
        for i, pr in enumerate(compared):
            assert i < len(orc.eigenpairs)
            rel = abs(pr.value - orc.values[i]) / abs(orc.values[i])
            worst = max(worst, rel)
            checked += 1
            assert rel < 1e-4, (key, i, pr.value, orc.values[i])
    _report(5, f"{len(points)} matrix points, {checked} eigenvalues, worst "
               f"oracle deviation {worst:.2e} < 1e-4")


def test_criterion_06_transform_consistency():
    worst = 0.0
    for (N, alpha) in ((3, 2.0), (2, 4.0)):
        p, m = 3.0, 2
        dmap = generalized_dimension(N, alpha)
        base = solve_nodal_power(dmap.M, p, m)
        a_emden = linearized_potential(base)
        nu = solve_singular_spectrum(
            WeightedSLProblem(M=dmap.M, a=a_emden, kind="singular"),
            m).values[:m]

        u = henon_profile(N, alpha, p, m)

        def a_physical(r):
            return p * r ** alpha * np.abs(u.evaluate(r)) ** (p - 1.0)

        lam = solve_singular_spectrum(
            WeightedSLProblem(M=float(N), a=a_physical, kind="singular"),
            m).values[:m]
        expect = dmap.exponent ** 2 * np.asarray(nu)
        rel = np.max(np.abs(lam - expect) / np.abs(expect))
        worst = max(worst, rel)
        assert rel < 1e-5, (N, alpha, lam, expect)
    _report(6, f"direct-in-r vs transformed eigenvalues: worst rel diff "
               f"{worst:.2e} < 1e-5")


def test_criterion_07_structural_eigenfunctions(matrix_data):
    data, _ = matrix_data
    # node counts and pairwise orthogonality across a set of matrix points
    for key in [(3, 0.0, 3.0, 2), (2, 4.0, 2.2, 3), (5, 2.7, 2.2, 2)]:
        spec = data[key]["singular"]
        pairs = [pr for pr in spec.eigenpairs if pr.value < 0]
        for i, pr in enumerate(pairs, start=1):
            assert pr.interior_nodes == i - 1, (key, i)
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                assert abs(weighted_inner_product(pairs[i],
                                                  pairs[j])) < 1e-8

    # Picone defect under one grid refinement, on the reference case
    prob = WeightedSLProblem(M=3.0, a=data[(3, 0.0, 3.0, 2)]["potential"],
                             kind="singular")
    res = {}
    for n in (16384, 32768):
        spec = solve_singular_spectrum(prob, 2,
                                       SpectralConfig(n=n, x_max=30.0))
        res[n] = picone_residual(spec.eigenpairs[0], spec.eigenpairs[1], 3.0)
    assert res[32768] < 1e-6
    assert res[32768] < res[16384]

    # decay exponent of the first eigenpair within 2 percent
    fits = []
    for key in [(3, 0.0, 3.0, 2), (3, 2.7, 3.0, 1)]:
        spec = data[key]["singular"]
        first, M = spec.eigenpairs[0], data[key]["dmap"].M
        theta_fit, _ = fit_decay_exponent(first, M)
        theta = theta_analytic(first.value, M)
        rel = abs(theta_fit - theta) / theta
        fits.append(rel)
        assert rel < 0.02, (key, theta_fit, theta)
    _report(7, f"nodes=i-1, orthogonality <1e-8, picone refined "
               f"{res[32768]:.1e} < 1e-6, decay fits "
               f"{max(fits):.3f} < 0.02")


def test_criterion_08_desk_scale_asymptotics():
    # closed-form branch values are exact
    assert asymptotic_prediction(3, 0.0, 2) == 5
    assert asymptotic_prediction(2, 0.0, 2) == 12

    # desk-scale realization at p = 4.9: nu_2 sits within a few 1e-8 of its
    # p -> p* limit -(M-1) = -2 (the j=1 degeneracy target), so J_2 pins to
    # 1 within the integer-collision tolerance and only j=0 counts
    dmap = generalized_dimension(3, 0.0)
    prof = solve_nodal_power(3.0, 4.9, 2, rtol=1e-12, atol=1e-14)
    prob = WeightedSLProblem(M=3.0, a=linearized_potential(prof),
                             kind="singular")
    spec = solve_singular_spectrum(
        prob, 2, SpectralConfig(n=262144, x_max=40.0))
    rep = morse_index(spec, dmap, m=2)
    e1, e2 = rep.per_eigenvalue
    assert 1.0 < e1.J < 2.0
    assert 0.0 < e2.J < 1.0 + 1e-7
    assert e2.J < 1.0 or e2.integer_collision
    assert e2.contribution == 1
    assert rep.total == 5

    # sweep substitute: the gap |nu_2 + (M-1)| shrinks from p=2 to p=4.9
    prof2 = solve_nodal_power(3.0, 2.0, 2)
    spec2 = solve_singular_spectrum(
        WeightedSLProblem(M=3.0, a=linearized_potential(prof2),
                          kind="singular"), 2)
    gap_start = abs(spec2.values[1] + 2.0)
    gap_end = abs(spec.values[1] + 2.0)
    assert gap_end < gap_start
    _report(8, f"p=4.9 total=5 (J={e1.J:.4f}, {e2.J:.9f}, collision "
               f"{e2.integer_collision}); gap {gap_start:.3f} -> "
               f"{gap_end:.1e}; closed forms 5 and 12 exact")


def test_criterion_09_lower_bound_compliance(matrix_data):
    data, _ = matrix_data
    assert lower_bound(3, 0.0, 2, True) == 5
    assert lower_bound(2, 3.0, 2, True) == 6
    for (N, alpha, p, m), entry in data.items():
        rep = morse_index(entry["singular"], entry["dmap"], m=m)
        bound = rep.bounds["with_f3"]
        assert rep.total >= bound, (N, alpha, p, m, rep.total, bound)
    _report(9, "computed totals >= superlinear lower bound on the whole "
               "matrix; spot values 5 and 6 confirmed")


def test_criterion_10_auxiliary_zero_count(matrix_data):
    data, _ = matrix_data
    for (N, alpha, p, m), entry in data.items():
        _, zero_count = auxiliary_z(entry["profile"])
        assert zero_count == m, (N, alpha, p, m)
    _report(10, "z = t v' + 2v/(p-1) has exactly m interior zeros on every "
                "matrix profile")


def test_criterion_11_inequality_suite(matrix_data):
    data, _ = matrix_data
    quad_tol = 1e-9
    rng = np.random.default_rng(2024)
    # Hardy and Poincare on 50 random piecewise-linear functions each,
    # with exact segment integrals
    for _ in range(50):
        for M in (2.5, 3.0, 5.0):
            r, w = random_piecewise_linear(rng)
            grad2, mass_std, mass_sing = \
                piecewise_linear_weighted_integrals(r, w, M)
            assert grad2 / mass_sing >= ((M - 2) / 2) ** 2 - quad_tol
            assert mass_std <= grad2 / (M - 1.0) + quad_tol
        # Poincare also at the planar edge case
        r, w = random_piecewise_linear(rng)
        grad2, mass_std, _ = piecewise_linear_weighted_integrals(r, w, 2.0)
        assert mass_std <= grad2 + quad_tol

    # radial growth bound on all computed eigenfunctions with M > 2
    checked = 0
    for entry in data.values():
        M = entry["dmap"].M
        if M <= 2.0 + 1e-12:
            continue
        for pr in entry["singular"].eigenpairs:
            x, u = pr.x_grid, pr.u_samples
            h = x[1] - x[0]
            du = np.gradient(u, h, edge_order=2)
            a_half = (M - 2.0) / 2.0
            grad_norm = math.sqrt(np.trapezoid((a_half * u + du) ** 2,
                                               dx=h))
            bound = grad_norm * pr.grid[1:] ** (-a_half) / math.sqrt(M - 2.0)
            assert np.all(np.abs(pr.samples[1:])
                          <= bound * (1 + 1e-6) + quad_tol)
            checked += 1
    assert checked > 30
    _report(11, f"Hardy/Poincare on 50 random trial functions per M and "
                f"radial growth bound on {checked} eigenfunctions, no "
                f"violation beyond 1e-9")
