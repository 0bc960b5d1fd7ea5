"""Eigensolver checks: analytic cases, structure of eigenpairs, identities."""

import collections
import itertools
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import simpson

from henonmorse._kernels import (BRACKET, bisect_eigenvalues,
                                 rayleigh_refine, sturm_count)
from henonmorse.dimension import generalized_dimension
from henonmorse.radial import linearized_potential, solve_nodal_power
from henonmorse import spectral
from henonmorse.spectral import (ResolutionError, SpectralConfig,
                                 SpectralError, WeightedSLProblem, _simpson,
                                 count_sign_changes, liouville_transform,
                                 solve_singular_spectrum,
                                 solve_standard_spectrum, theta_analytic,
                                 zero_potential)

from diagnostics import (fit_decay_exponent, picone_residual,
                         rayleigh_quotient, weighted_inner_product)

BESSEL_J0_FIRST_ZERO = 2.404825557695773

# the six (N, alpha, p, m) points of the CLI benchmark, and the desk point
CLI_POINTS = ((3, 0.0, 3.0, 2), (2, 1.0, 3.0, 2), (5, 0.0, 2.2, 1),
              (3, 2.7, 3.0, 3), (2, 0.0, 2.2, 1), (3, 1.0, 3.0, 2))
DESK_POINT = (3, 0.0, 4.9, 2)


def singular_problem(N, alpha, p, m):
    dmap = generalized_dimension(N, alpha)
    a = linearized_potential(solve_nodal_power(dmap.M, p, m))
    return WeightedSLProblem(M=dmap.M, a=a, kind="singular")


def test_standard_bessel_disc():
    prob = WeightedSLProblem(M=2.0, a=zero_potential, kind="standard")
    spec = solve_standard_spectrum(prob, 2)
    target = BESSEL_J0_FIRST_ZERO ** 2
    assert spec.values[0] == pytest.approx(target, rel=1e-3)
    assert spec.values[0] == pytest.approx(target, rel=1e-7)


def test_standard_ball_sine():
    prob = WeightedSLProblem(M=3.0, a=zero_potential, kind="standard")
    spec = solve_standard_spectrum(prob, 3)
    assert spec.values[0] == pytest.approx(math.pi ** 2, rel=1e-7)
    # eigenfunction sin(pi r)/r, checked at a few radii
    p1 = spec.eigenpairs[0]
    r = p1.grid[1:-1:512]
    model = np.sin(math.pi * r) / r
    scale = p1.samples[1:-1:512] / model
    assert np.std(scale) / abs(np.mean(scale)) < 1e-5
    # all eigenvalues positive without a potential
    assert np.all(spec.values > 0)
    assert spec.negative_count == 0


def test_standard_purely_positive_any_m():
    for M in (2.0, 2.5, 4.0):
        prob = WeightedSLProblem(M=M, a=zero_potential, kind="standard")
        spec = solve_standard_spectrum(prob, 2)
        assert np.all(spec.values > 0)


def test_singular_zero_potential_empty():
    prob = WeightedSLProblem(M=4.0, a=zero_potential, kind="singular")
    spec = solve_singular_spectrum(prob, 5)
    assert len(spec.eigenpairs) == 0
    assert spec.exhausted_below >= spec.threshold - 1e-6 - 1e-15
    assert spec.negative_count == 0


def test_liouville_transform_structure():
    prob = WeightedSLProblem(M=4.0, a=zero_potential, kind="singular")
    lp = liouville_transform(prob, 30.0, 512)
    assert lp.threshold == pytest.approx(1.0)
    assert np.allclose(lp.V, 1.0)
    prob2 = WeightedSLProblem(M=2.0, a=lambda r: np.ones_like(r),
                              kind="singular")
    lp2 = liouville_transform(prob2, 30.0, 512)
    assert lp2.threshold == 0.0
    r = np.exp(-lp2.x)
    assert np.allclose(lp2.V, -r * r)
    with pytest.raises(ValueError):
        liouville_transform(
            WeightedSLProblem(M=3.0, a=zero_potential, kind="standard"),
            30.0)
    # (1e-160 / 2048)^2 underflows to 0, and the stencil's 1/h^2 with it
    with pytest.raises(SpectralError, match=r"x_max=1e-160 over n=2048"):
        liouville_transform(prob, 1e-160, 2048)


@pytest.mark.parametrize("x_max, refused", [(172.0, False), (175.0, True),
                                             (200.0, True)])
def test_a_standard_grid_whose_square_overflows_is_refused(x_max, refused):
    # the scaled off-diagonal grows like e^(2X) / h^2: past X = 172 at
    # n = 4096 its square overflows, and every count on it would be wrong
    prob = WeightedSLProblem(M=3.0, a=zero_potential, kind="standard")
    cfg = SpectralConfig(x_max=x_max)
    if refused:
        with pytest.raises(SpectralError, match=rf"x_max={x_max:g} over "
                           r"n=4096 cells: the squared off-diagonal"):
            solve_standard_spectrum(prob, 0, cfg)
    else:
        assert solve_standard_spectrum(prob, 0, cfg).negative_count == 0


@pytest.fixture(scope="module")
def lane_emden_case():
    prof = solve_nodal_power(3.0, 3.0, 2)
    a = linearized_potential(prof)
    prob = WeightedSLProblem(M=3.0, a=a, kind="singular")
    spec = solve_singular_spectrum(prob, 3)
    return prof, prob, spec


@pytest.mark.parametrize("n", [256, 4096, 6000])
def test_coarsened_grid_is_the_half_size_transform(n):
    prob = WeightedSLProblem(M=3.0, a=lambda r: 8.0 / (1.0 + r * r),
                             kind="singular")
    coarse = liouville_transform(prob, 37.3, n).coarsened()
    direct = liouville_transform(prob, 37.3, n // 2)
    assert coarse.h == direct.h
    assert np.array_equal(coarse.x, direct.x)
    for got, want in zip(coarse.tridiagonal(), direct.tridiagonal()):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="even"):
        liouville_transform(prob, 37.3, n + 1).coarsened()
    # so is every stride-th node for a power-of-two stride
    fine = liouville_transform(prob, 37.3, n)
    for stride in (4, 8):
        coarse = fine.coarsened(stride)
        direct = liouville_transform(prob, 37.3, n // stride)
        assert coarse.h == direct.h
        assert np.array_equal(coarse.x, direct.x)
        assert np.array_equal(coarse.V, direct.V)
    for stride in (3, 6):
        with pytest.raises(ValueError, match="power of two"):
            fine.coarsened(stride)


def test_singular_spectrum_shape(lane_emden_case):
    _, _, spec = lane_emden_case
    vals = spec.values
    assert spec.negative_count == 2
    assert vals[0] < -2.0 < vals[1] < 0.0
    assert np.all(np.diff(vals) > 0)          # simple, strictly increasing
    assert [p.interior_nodes for p in spec.eigenpairs[:3]] == [0, 1, 2]


def test_eigenpair_normalization_and_sign(lane_emden_case):
    _, prob, spec = lane_emden_case
    for p in spec.eigenpairs:
        h = p.x_grid[1] - p.x_grid[0]
        # past X the samples go on as u_X rho^j, rho + 1/rho = 2 + delta,
        # delta = h^2 (threshold - nu): the decaying discrete solution
        rho = p.u_samples[-1] / p.u_samples[-2]
        delta = h * h * (prob.threshold - p.value)
        assert rho + 1 / rho - 2 == pytest.approx(delta, rel=1e-2)
        # unit weighted norm via the isometry int r^(M-3) psi^2 = int u^2:
        # the trapezoid rule on (0, X) and on the tail past X
        tail = h * p.u_samples[-1] ** 2 * (0.5 + rho ** 2 / (1 - rho ** 2))
        assert np.trapezoid(p.u_samples ** 2, dx=h) + tail == pytest.approx(
            1.0, rel=1e-8)
        # positive in the nodal zone touching the boundary
        assert p.u_samples[1] > 0
    assert spec.eigenpairs[0].boundary_slope < 0
    # the near-threshold pair keeps a tenth of its mass past X
    assert 0.05 < tail < 0.2


def test_node_counting_synthetic():
    r = np.linspace(0, 1, 500)
    vals = np.cos(3.5 * math.pi * r)  # 3 interior sign changes in (0,1)
    assert count_sign_changes(vals[1:-1], 1e-8) == 3
    assert count_sign_changes(np.ones(100), 1e-8) == 0
    # samples at or below the cut are skipped, not counted as sign changes
    assert count_sign_changes(np.array([1.0, -1e-3, 1.0, -2.0]), 1e-3) == 1


def test_rayleigh_quotient_eigen_consistency(lane_emden_case):
    _, prob, spec = lane_emden_case
    for p in spec.eigenpairs[:2]:
        q = rayleigh_quotient(p, prob)
        assert q == pytest.approx(p.value, rel=1e-6)


def test_standard_pairs_carry_liouville_samples(lane_emden_case):
    # the standard kind is solved on the Liouville grid: its pairs feed the
    # standard branch of the Liouville quotient (mass e^(-2x) u^2)
    _, prob, _ = lane_emden_case
    std_prob = WeightedSLProblem(M=3.0, a=prob.a, kind="standard")
    spec = solve_standard_spectrum(std_prob, 3)
    for i, p in enumerate(spec.eigenpairs):
        assert p.x_grid is not None
        assert len(p.u_samples) == len(p.x_grid) == spec.meta["n"] + 1
        assert p.interior_nodes == i
        assert rayleigh_quotient(p, std_prob) == pytest.approx(p.value,
                                                               rel=1e-6)


def test_standard_grid_halves_h_until_the_bars_pass(lane_emden_case,
                                                   monkeypatch):
    # the 7th and 8th eigenfunctions need a finer grid than n = 4096; the
    # refined solve is the solve on that grid, up to bisection's last bits
    _, prob, _ = lane_emden_case
    std_prob = WeightedSLProblem(M=3.0, a=prob.a, kind="standard")
    refined = solve_standard_spectrum(std_prob, 8, SpectralConfig(n=4096))
    direct = solve_standard_spectrum(std_prob, 8, SpectralConfig(n=8192))
    assert refined.meta["n"] == direct.meta["n"] == 8192
    np.testing.assert_allclose(refined.values, direct.values, rtol=1e-12)
    monkeypatch.setattr(spectral, "N_CAP", 4096)
    with pytest.raises(ResolutionError, match="standard eigenvalue"):
        solve_standard_spectrum(std_prob, 8, SpectralConfig(n=4096))
    # no grid meets this tolerance: the fine values leave the window around
    # the coarse ones and are bisected by index before the bars are refused
    monkeypatch.setattr(spectral, "N_CAP", 8192)
    with pytest.raises(ResolutionError, match="standard eigenvalue"):
        solve_standard_spectrum(std_prob, 2, SpectralConfig(tol=1e-12))


@pytest.mark.parametrize("n", [2048, 4096, 8192])
def test_standard_count_at_the_desk_point(n):
    # p = 4.9 near the critical exponent: the origin well is 1.8e12 deep in
    # r but shallow on the Liouville grid, and the count is the singular 2
    a = linearized_potential(solve_nodal_power(3.0, 4.9, 2))
    spec = solve_standard_spectrum(
        WeightedSLProblem(M=3.0, a=a, kind="standard"), 0,
        SpectralConfig(n=n))
    assert spec.negative_count == 2
    assert spec.meta["zero_band_count"] == 0
    assert spec.meta["n"] == n and not spec.meta["resolution_capped"]


def test_rayleigh_quotient_symbolic_cases():
    # w = 1 - r^2, a = 0, M = 3, standard weight:
    #   num = int r^2 (2r)^2 = 4/5, den = int r^2 (1-r^2)^2 = 8/105
    #   quotient = 21/2
    prob = WeightedSLProblem(M=3.0, a=zero_potential, kind="standard")
    r = np.linspace(0, 1, 20001)
    q = rayleigh_quotient((r, 1 - r ** 2), prob)
    assert q == pytest.approx(10.5, rel=1e-6)
    # w = 1 - r: num = int r^2 = 1/3, den = int r^2(1-r)^2 = 1/30
    q2 = rayleigh_quotient((r, 1 - r, -np.ones_like(r)), prob)
    assert q2 == pytest.approx(10.0, rel=1e-6)


def test_rayleigh_quotient_variational_bound(lane_emden_case):
    _, prob, spec = lane_emden_case
    probN = WeightedSLProblem(M=3.0, a=prob.a, kind="standard")
    nu1 = solve_standard_spectrum(probN, 1).values[0]
    rng = np.random.default_rng(8)
    r = np.linspace(0, 1, 4001)
    for _ in range(10):
        w = np.polyval(rng.normal(size=4), r) * (1 - r)
        assert rayleigh_quotient((r, w), probN) >= nu1 - 1e-6 * abs(nu1)


def test_decay_exponent_formula_cases():
    assert theta_analytic(-4.0, 2.0) == pytest.approx(2.0)   # sqrt(-nu)
    assert theta_analytic(-1e-12, 4.0) == pytest.approx(0.0, abs=1e-12)
    assert theta_analytic(-2.0, 3.0) == pytest.approx(1.0)


def test_decay_exponent_fit(lane_emden_case):
    _, _, spec = lane_emden_case
    p1 = spec.eigenpairs[0]
    theta = theta_analytic(p1.value, 3.0)
    theta_fit, _ = fit_decay_exponent(p1, 3.0)
    assert abs(theta_fit - theta) / theta < 0.02


def test_automatic_decay_window_reports_its_sample_count(lane_emden_case):
    # the automatic band holds the tail samples between 1e-11 and 1e-4 of
    # max |u| beyond x = 2; the fit reports how many it used
    _, _, spec = lane_emden_case
    for p in spec.eigenpairs[:2]:
        assert p.value < 0
        x, u = p.x_grid, np.abs(p.u_samples)
        band = (u > 1e-11 * u.max()) & (u < 1e-4 * u.max()) & (x > 2.0)
        _, n_points = fit_decay_exponent(p, 3.0)
        assert n_points == np.count_nonzero(band) >= 8


def test_picone_identity_residuals():
    prof = solve_nodal_power(3.0, 3.0, 2)
    prob = WeightedSLProblem(M=3.0, a=linearized_potential(prof),
                             kind="singular")
    res = {}
    for n in (16384, 32768):
        spec = solve_singular_spectrum(prob, 2,
                                       SpectralConfig(n=n, x_max=30.0))
        p1, p2 = spec.eigenpairs
        assert picone_residual(p1, p1, 3.0) < 1e-12
        res[n] = picone_residual(p1, p2, 3.0)
    assert res[32768] < 1e-6
    assert res[32768] < 0.4 * res[16384]      # second-order shrinkage


def _samples(n):
    return np.random.default_rng(n).standard_normal(n), 60.0 / (n - 1)


@pytest.mark.parametrize("n", [5, 2049, 4097, 8193])
def test_simpson_equals_scipy(n):
    y, h = _samples(n)
    assert _simpson(y, h) == simpson(y, dx=h)


def test_simpson_refuses_even_point_count():
    with pytest.raises(ValueError, match="odd point count"):
        _simpson(np.ones(4096), 0.1)


def test_weighted_orthogonality(lane_emden_case):
    _, _, spec = lane_emden_case
    p1, p2 = spec.eigenpairs[0], spec.eigenpairs[1]
    assert abs(weighted_inner_product(p1, p2)) < 1e-8


def test_grid_too_coarse_raises():
    prof = solve_nodal_power(3.0, 3.0, 2)
    prob = WeightedSLProblem(M=3.0, a=linearized_potential(prof),
                             kind="singular")
    with pytest.raises(ResolutionError, match="coarse"):
        solve_singular_spectrum(prob, 2,
                                SpectralConfig(n=256, x_max=40.0, tol=1e-9))


def test_exhausted_below_when_k_leaves_eigenvalues_out():
    # three eigenvalues lie below the margin here; a k=1 solve bounds the
    # unsolved rest by the second one, on the fine grid
    prof = solve_nodal_power(3.0, 3.0, 2)
    prob = WeightedSLProblem(M=3.0, a=linearized_potential(prof),
                             kind="singular")
    one = solve_singular_spectrum(prob, 1)
    count = one.meta["count_below_margin"]
    assert len(one.eigenpairs) == 1 < count
    grid = liouville_transform(prob, one.meta["x_max"], one.meta["n"])
    hi = prob.threshold - spectral.MARGIN
    d, e = grid.closed(hi)
    assert [count] == sturm_count(d, e, [hi])
    # the second eigenvalue of T(hi), at most the second fixed point
    second = bisect_eigenvalues(d, e, 2, 2)[0]
    assert one.exhausted_below == pytest.approx(second, rel=1e-14)
    # the same eigenvalue, Richardson-extrapolated, from a k=2 solve, whose
    # lowest one the k=1 solve returns
    two = solve_singular_spectrum(prob, 2).eigenpairs
    assert abs(one.exhausted_below - two[1].value) <= 1.5 * two[1].error_bar
    assert one.eigenpairs[0].value == pytest.approx(two[0].value, rel=1e-13)
    assert one.eigenpairs[0].interior_nodes == 0


@pytest.mark.parametrize("point, index, value", [
    ((3, 0.0, 3.0, 2), 2, 0.2467582), ((5, 2.7, 3.0, 1), 1, 0.4034010)])
def test_near_threshold_values_take_the_far_field(point, index, value):
    # two values within 0.01 of the threshold, whose eigenfunctions keep a
    # tenth of their mass past the flat X: the exact tail there gives the
    # half-line values a shooting integration with the exact decaying
    # solution past X finds, to 7 digits
    spec = solve_singular_spectrum(singular_problem(*point), point[3] + 2)
    assert round(spec.values[index], 7) == value
    assert spec.meta["x_max"] < 30.0


@pytest.mark.parametrize("point", CLI_POINTS + (DESK_POINT,))
def test_counts_between_published_values_are_their_indices(point):
    # the count of T(s) below s is the number of fixed points below s: 0
    # below the first published value, i between the i-th and the next
    prob = singular_problem(*point)
    spec = solve_singular_spectrum(prob, 6)
    grid = liouville_transform(prob, spec.meta["x_max"], spec.meta["n"])
    vals = spec.values
    shifts = np.append(vals[0] - 1.0, 0.5 * (vals[:-1] + vals[1:]))
    assert [sturm_count(*grid.closed(s), [s])[0] for s in shifts] == \
        list(range(len(vals)))


def test_pairs_of_one_spectrum_share_their_grids(lane_emden_case):
    _, prob, spec = lane_emden_case
    std = solve_standard_spectrum(
        WeightedSLProblem(M=3.0, a=prob.a, kind="standard"), 2)
    for first, second in (spec.eigenpairs[:2], std.eigenpairs[:2]):
        assert first.grid is second.grid
        assert first.x_grid is second.x_grid
        assert first.samples is not second.samples


# ---------------------------------------------------------------------------
# the fine singular grid, seeded from its coarsening
# ---------------------------------------------------------------------------

def test_prolongation_is_fourth_order_and_exact_on_cubics():
    # once, as the coarse vectors go to the fine grid, and twice, as a
    # 512-cell probe's go to the coarse grid at n = 4096, each time with
    # the tail ratio of the grid the vectors are on
    def error(cells, times):
        xc = np.linspace(0.0, 1.0, cells + 1)
        xf = np.linspace(0.0, 1.0, (cells << times) + 1)[1:-1]
        # sin(pi x) is odd about x = 0, as the reflection assumes, and
        # exp(-3x) goes on past x = 1 by the ratio of its tail
        u = np.column_stack((np.sin(np.pi * xc[1:-1]),
                             np.exp(-3.0 * xc[1:-1])))
        for level in range(times):
            u = spectral._prolongate(u, np.array(
                [0.0, math.exp(-3.0 / (cells << level))]))
        near, far = xf <= 0.5, xf >= 0.5
        return max(np.max(np.abs(u[near, 0] - np.sin(np.pi * xf[near]))),
                   np.max(np.abs(u[far, 1] - np.exp(-3.0 * xf[far]))))

    for times in (1, 2):
        assert error(32, times) < error(16, times) / 12
    # away from the ends the stencil reproduces a cubic, also chained
    xc, xf = np.linspace(0.0, 1.0, 17), np.linspace(0.0, 1.0, 33)
    xff = np.linspace(0.0, 1.0, 65)

    def cubic(x):
        return 1 + x - 3 * x ** 2 + 2 * x ** 3

    u = spectral._prolongate(cubic(xc[1:-1])[:, None], np.ones(1))
    np.testing.assert_allclose(u[3:-3, 0], cubic(xf[4:-4]), rtol=0,
                               atol=1e-14)
    np.testing.assert_array_equal(u[1::2, 0], cubic(xc[1:-1]))
    uu = spectral._prolongate(u, np.ones(1))[:, 0]
    assert uu.shape == (63,)
    np.testing.assert_allclose(uu[9:-9], cubic(xff[10:-10]), rtol=0,
                               atol=1e-14)
    np.testing.assert_array_equal(uu[1::2], u[:, 0])


def _fixed_points_by_counts(grid, count):
    """The lowest `count` fixed points sigma = lambda_i(T(sigma)) of a
    closed grid, each bisected to adjacent floats on Sturm counts alone:
    the count of T(s) below s is the number of fixed points below s."""
    d, e = grid.tridiagonal()
    floor = float(np.min(d)) - 2.0 * abs(e[0]) - 1.0 / grid.h ** 2 - 1.0
    points = []
    for i in range(count):
        lo, up = floor, grid.threshold - spectral.MARGIN
        while lo < 0.5 * (lo + up) < up:
            mid = 0.5 * (lo + up)
            if sturm_count(*grid.closed(mid), [mid])[0] > i:
                up = mid
            else:
                lo = mid
        points.append(lo)
    return np.array(points)


@pytest.mark.parametrize("point", CLI_POINTS + (DESK_POINT,))
def test_published_values_match_bisection_of_both_grids(point):
    prob = singular_problem(*point)
    spec = solve_singular_spectrum(prob, 6)
    grid = liouville_transform(prob, spec.meta["x_max"], spec.meta["n"])
    hi = prob.threshold - spectral.MARGIN
    count = min(6, sturm_count(*grid.closed(hi), [hi])[0])
    fine = _fixed_points_by_counts(grid, count)
    coarse = _fixed_points_by_counts(grid.coarsened(), count)
    reference = (4.0 * fine - coarse) / 3.0
    assert len(spec.values) == len(reference) >= 1
    # bisection's Sturm counts are exact for a matrix within a few ulp of
    # T(s), so the reference is itself good to about eps ||T||_1 only: the
    # two differ by up to 3.5e-12 at (2, 1, 3, 2), where the published
    # fine values hold 1e-14 (the extended-precision test below)
    d, e = grid.tridiagonal()
    slack = 2.0 * np.finfo(float).eps * (np.max(np.abs(d)) + 2 * abs(e[0]))
    np.testing.assert_array_less(
        np.abs(spec.values - reference),
        1e-12 * np.maximum(1.0, np.abs(reference)) + slack)


def _sturm_counts_longdouble(d, e, shifts):
    """Eigenvalues of tridiag(d, e) below each shift, by the LDL^T pivots
    in extended precision."""
    s = np.asarray(shifts, dtype=np.longdouble)
    e2 = e.astype(np.longdouble) ** 2
    q = np.longdouble(d[0]) - s
    below = (q < 0).astype(int)
    for di, e2i in zip(d[1:].astype(np.longdouble), e2):
        q = di - s - e2i / q
        below += q < 0
    return below


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs extended precision")
def test_seeded_fine_values_are_eigenvalues_of_the_fine_matrix():
    prob = singular_problem(*CLI_POINTS[1])
    spec = solve_singular_spectrum(prob, 6)
    grid = liouville_transform(prob, spec.meta["x_max"], spec.meta["n"])
    hi = prob.threshold - spectral.MARGIN
    coarse = grid.coarsened()
    d_c, e_c = coarse.closed(hi)
    vals_c, vecs_c, _ = spectral._fixed_pairs(coarse, rayleigh_refine(
        d_c, e_c, bisect_eigenvalues(d_c, e_c, below=hi, abstol=BRACKET))[1],
        hi)
    vals = spectral._fixed_pairs(grid, spectral._prolongate(
        vecs_c, coarse.tail(vals_c)[0]), hi)[0]
    assert len(vals) == spec.meta["count_below_margin"] == 2
    # each window of half-width 1e-14 max(1, |nu|) holds one fixed point:
    # the counts of T(s) below s at its ends differ by one
    win = 1e-14 * np.maximum(1.0, np.abs(vals))
    below = np.array([_sturm_counts_longdouble(*grid.closed(s), [s])[0]
                      for s in np.concatenate((vals - win, vals + win))])
    np.testing.assert_array_equal(below[2:] - below[:2], [1, 1])
    np.testing.assert_array_equal(below[:2], [0, 1])


@pytest.mark.parametrize("point", CLI_POINTS + (DESK_POINT,))
def test_fine_grid_counts_are_the_dstebz_counts(point):
    # the counts the solves publish (at the margin and at -+ZERO_CUT, each
    # singular one on T(s) at its shift s) and counts on and beside each
    # eigenvalue, on both fine grids: no grid splits, and each count is
    # bitwise that of a dstebz value window (-inf, shift), which bisects
    # nothing at abstol=inf
    prob = singular_problem(*point)
    sing = solve_singular_spectrum(prob, 6)
    std = solve_standard_spectrum(
        WeightedSLProblem(M=prob.M, a=prob.a, kind="standard"), 0)
    cut = [-spectral.ZERO_CUT, spectral.ZERO_CUT]
    grid = liouville_transform(prob, sing.meta["x_max"], sing.meta["n"])
    d_t, e_t, _ = liouville_transform(prob, std.meta["x_max"],
                                      std.meta["n"]).standard_tridiagonal()
    hi = prob.threshold - spectral.MARGIN

    def dstebz_counts(d, e, shifts):
        counts = sturm_count(d, e, shifts)
        assert counts == [len(bisect_eigenvalues(d, e, below=s,
                                                 abstol=np.inf))
                          for s in shifts]
        return counts

    def beside(eig):
        return [x for v in eig for x in (np.nextafter(v, -np.inf), v,
                                         np.nextafter(v, np.inf))]

    # no singular count is taken past the margin (M = 2 puts ZERO_CUT there)
    published = [dstebz_counts(*grid.closed(s), [s])[0]
                 for s in np.minimum([hi] + cut, hi)]
    d_s, e_s = grid.closed(hi)
    dstebz_counts(d_s, e_s, beside(bisect_eigenvalues(d_s, e_s, below=hi)))
    dstebz_counts(d_t, e_t, cut + beside(bisect_eigenvalues(d_t, e_t, 1, 4)))
    assert published == [sing.meta["count_below_margin"], sing.negative_count,
                         sing.negative_count + sing.meta["zero_band_count"]]
    assert sturm_count(d_t, e_t, cut)[0] == std.negative_count


def _counting(fn, name, calls):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_a_singular_solve_bisects_only_the_probe(lane_emden_case,
                                                 monkeypatch):
    # k above the count: only the probe is bisected, and the coarse and
    # the fine grid each take one Sturm count, at the margin; the pairs are
    # then all the fixed points below it, one in each residual interval,
    # and no interval meets -ZERO_CUT or ZERO_CUT, so the intervals give the
    # negative count and the zero band
    _, prob, _ = lane_emden_case
    calls = collections.Counter()
    for name in ("bisect_eigenvalues", "sturm_count"):
        monkeypatch.setattr(spectral, name,
                            _counting(getattr(spectral, name), name, calls))
    spec = solve_singular_spectrum(prob, 5)
    assert spec.meta["count_below_margin"] == len(spec.eigenpairs) == 3
    assert calls == {"bisect_eigenvalues": 1, "sturm_count": 2}
    assert spec.negative_count == 2 and spec.meta["zero_band_count"] == 0


def _fine_shifts(monkeypatch, rows):
    """The shifts of the Sturm counts taken on matrices of `rows` rows."""
    shifts = []
    real = spectral.sturm_count

    def recorded(d, e, at):
        if len(d) == rows:
            shifts.extend(at)
        return real(d, e, at)

    monkeypatch.setattr(spectral, "sturm_count", recorded)
    return shifts


def test_k_below_the_margin_count_counts_at_the_zero_cut(lane_emden_case,
                                                         monkeypatch):
    # k = 1 of the 3 fixed points below the margin: the intervals cannot
    # place the two left out, so T(-ZERO_CUT) and T(ZERO_CUT) are counted,
    # and the counts are those of the k = 5 solve
    _, prob, spec = lane_emden_case
    shifts = _fine_shifts(monkeypatch, spec.meta["n"] - 1)
    one = solve_singular_spectrum(prob, 1)
    hi = prob.threshold - spectral.MARGIN
    assert shifts == [hi, -spectral.ZERO_CUT, spectral.ZERO_CUT]
    assert one.meta["count_below_margin"] == 3 > len(one.eigenpairs)
    assert one.negative_count == spec.negative_count == 2
    assert one.meta["zero_band_count"] == spec.meta["zero_band_count"] == 0


@pytest.mark.parametrize("index, cut", [(1, -1), (2, 1)])
def test_an_interval_that_meets_the_zero_cut_counts_there(
        lane_emden_case, monkeypatch, index, cut):
    # a fine residual interval widened to reach 0 from the value -1.99
    # meets -ZERO_CUT, one reaching 0 from 0.247 meets ZERO_CUT: that cut
    # is counted on T(cut), the other is read off the intervals, and the
    # counts are unchanged
    _, prob, spec = lane_emden_case
    rows = spec.meta["n"] - 1
    real = spectral._fixed_pairs

    def widened(grid, starts, bound):
        vals, vecs, residuals = real(grid, starts, bound)
        if len(grid.x) - 2 == rows:
            residuals = residuals.copy()
            residuals[index] = abs(vals[index])
        return vals, vecs, residuals

    monkeypatch.setattr(spectral, "_fixed_pairs", widened)
    shifts = _fine_shifts(monkeypatch, rows)
    again = solve_singular_spectrum(prob, 5)
    hi = prob.threshold - spectral.MARGIN
    assert shifts == [hi, cut * spectral.ZERO_CUT]
    assert again.negative_count == spec.negative_count == 2
    assert again.meta["zero_band_count"] == spec.meta["zero_band_count"] == 0


@pytest.mark.parametrize("point", CLI_POINTS + (DESK_POINT,))
def test_seeded_coarse_pairs_are_the_bisected_ones(point):
    # the coarse level seeded from the probe's vectors, carried up one
    # doubling at a time, against pairs started from bisection of T(hi) to
    # BRACKET and inverse iteration from the fixed start, the start of the
    # pairs the probe leaves out
    prob = singular_problem(*point)
    cfg = SpectralConfig()
    hi = prob.threshold - spectral.MARGIN
    grid = spectral._report_grid(prob.M, prob.a, cfg.x_max, cfg.n)[0]
    stride, vecs = spectral._probe(grid, 6)
    while stride > 2:
        vecs = spectral._prolongate(vecs, grid.coarsened(stride).tail(hi)[0])
        stride //= 2
    coarse = grid.coarsened()
    vals, vecs, _, count, bound = spectral._level(coarse, vecs, 6)
    d, e = coarse.closed(hi)
    ref_vals, ref_vecs, _ = spectral._fixed_pairs(coarse, rayleigh_refine(
        d, e, bisect_eigenvalues(d, e, below=hi, abstol=BRACKET)[:6])[1], hi)
    assert len(vals) == len(ref_vals) == count >= 1
    assert bound == hi
    np.testing.assert_allclose(vals, ref_vals, rtol=1e-13, atol=0)
    sign = np.sign(np.sum(vecs * ref_vecs, axis=0))
    np.testing.assert_allclose(vecs, ref_vecs * sign, rtol=0, atol=1e-7)


@pytest.mark.parametrize("kept", [0, 2])
def test_coarse_pairs_the_probe_leaves_out_are_bisected(lane_emden_case,
                                                        monkeypatch, kept):
    # a probe with fewer vectors than the coarse grid's count: the coarse
    # grid bisects the missing indices, and the solve does not change
    _, prob, spec = lane_emden_case
    real = spectral._probe

    def short(grid, k):
        stride, vecs = real(grid, k)
        return stride, vecs[:, :kept]

    monkeypatch.setattr(spectral, "_probe", short)
    calls = collections.Counter()
    monkeypatch.setattr(spectral, "bisect_eigenvalues", _counting(
        spectral.bisect_eigenvalues, "bisect_eigenvalues", calls))
    again = solve_singular_spectrum(prob, 5)
    assert calls == {"bisect_eigenvalues": 2}
    np.testing.assert_allclose(again.values, spec.values, rtol=1e-13)
    np.testing.assert_allclose(
        [p.error_bar for p in again.eigenpairs],
        [p.error_bar for p in spec.eigenpairs], rtol=1e-8)


def test_a_set_x_max_is_probed_on_that_x(lane_emden_case, monkeypatch):
    # with X given, the probe is read off the grid of n cells on X: its
    # coarsest power-of-two coarsening, at least 2, that keeps the cells
    # the resolution rule asks for, and 128 (the 256-cell grid at n = 4096,
    # the 375-cell grid at n = 3000); the solve is the one on the flat X
    # when X is the flat X
    _, prob, _ = lane_emden_case
    real = spectral.bisect_eigenvalues
    for n, probe_rows in ((4096, 255), (3000, 374)):
        flat = solve_singular_spectrum(prob, 3, SpectralConfig(n=n))
        x_max = flat.meta["x_max"]
        need = max(128.0, spectral._cells_required(x_max, float(np.min(
            liouville_transform(prob, x_max, n).V)), prob.threshold))
        cells = n // 2
        while not cells % 2 and cells // 2 >= need:
            cells //= 2
        assert cells - 1 == probe_rows
        sizes = []

        def recorded(d, e, *args, **kwargs):
            sizes.append(len(d))
            return real(d, e, *args, **kwargs)

        monkeypatch.setattr(spectral, "bisect_eigenvalues", recorded)
        given = solve_singular_spectrum(prob, 3,
                                        SpectralConfig(n=n, x_max=x_max))
        monkeypatch.setattr(spectral, "bisect_eigenvalues", real)
        assert sizes == [probe_rows]
        assert given.meta["x_max"] == x_max
        assert given.meta["n"] == flat.meta["n"] == n
        np.testing.assert_allclose(given.values, flat.values, rtol=1e-13)


def test_a_standard_count_evaluates_the_potential_twice(lane_emden_case):
    # once for the flat-potential X, once on the fine grid, which is also
    # the resolution probe
    _, prob, _ = lane_emden_case
    sizes = []

    def a(r):
        sizes.append(np.size(r))
        return prob.a(r)

    spec = solve_standard_spectrum(
        WeightedSLProblem(M=3.0, a=a, kind="standard"), 0)
    assert spec.meta["n"] == 4096
    assert sizes[1:] == [4097] and len(sizes) == 2


@pytest.mark.parametrize("m, cfg, sizes", [
    pytest.param(2, SpectralConfig(), [4097, 4097], id="2-2"),
    pytest.param(1, SpectralConfig(), [4097, 4097], id="1-2"),
    pytest.param(2, SpectralConfig(n=3000), [4097, 3001], id="2-3000"),
    pytest.param(2, SpectralConfig(n=128, tol=1e-2), [4097, 129, 257],
                 id="2-128")])
def test_a_report_builds_each_grid_once(m, cfg, sizes):
    # a singular solve and then a standard one, as a report makes them,
    # evaluate the potential on the flat-X scan and on the grid of n cells
    # on the flat X, which both kinds solve on, and again on the fine grid
    # only where the resolution rule doubles n (128 -> 256 here); the
    # probe and the coarse grid are read off the fine grid
    prof = solve_nodal_power(3.0, 3.0, m)
    potential = linearized_potential(prof)
    evaluated = []

    def a(r):
        evaluated.append(np.size(r))
        return potential(r)

    kinds = ((solve_singular_spectrum, "singular", m + 2),
             (solve_standard_spectrum, "standard", 0))
    shared = [solve(WeightedSLProblem(M=3.0, a=a, kind=kind), k, cfg)
              for solve, kind, k in kinds]
    assert evaluated == sizes
    assert shared[0].meta["x_max"] == shared[1].meta["x_max"]
    assert shared[0].meta["n"] == shared[1].meta["n"] == sizes[-1] - 1
    # the same spectra, bitwise, from solves that share nothing
    alone = []
    for solve, kind, k in kinds:
        spectral._report_grid.cache_clear()
        alone.append(solve(WeightedSLProblem(
            M=3.0, a=linearized_potential(prof), kind=kind), k, cfg))
    assert pickle.dumps(shared) == pickle.dumps(alone)


def test_memoized_grids_are_read_only(lane_emden_case):
    _, prob, spec = lane_emden_case
    grid = spectral._report_grid(prob.M, prob.a, None, spec.meta["n"])[0]
    for values in (grid.x, grid.V, spec.eigenpairs[0].x_grid):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


@pytest.mark.parametrize("n", [128, 256, 3000, 4096, 8192])
def test_fine_grid_n_is_the_resolution_of_the_configured_grid(
        lane_emden_case, n):
    # n is _resolution on the min(V) of the configured grid on X itself,
    # the one grid built unless n doubles (as at n = 128 and 256)
    _, prob, _ = lane_emden_case
    spec = solve_singular_spectrum(prob, 1, SpectralConfig(n=n, tol=1e-2))
    x_max = spec.meta["x_max"]
    grid = liouville_transform(prob, x_max, n)
    assert spec.meta["n"] == spectral._resolution(
        n, x_max, float(np.min(grid.V)), prob.threshold)[0]


def test_more_fine_than_coarse_eigenvalues_is_a_resolution_error(
        lane_emden_case, monkeypatch):
    # the coarse level cut to two of its three pairs: the fine level
    # bisects the third, whose Richardson bar is infinite (ResolutionError),
    # so the fine grid becomes the coarse one and h is halved; the counts
    # are unchanged
    _, prob, spec = lane_emden_case
    n = spec.meta["n"]
    real = spectral._level

    def cut(grid, starts, k):
        vals, vecs, residuals, count, bound = real(grid, starts, k)
        if len(grid.x) - 1 == n // 2:
            return vals[:2], vecs[:, :2], residuals[:2], count, bound
        return vals, vecs, residuals, count, bound

    monkeypatch.setattr(spectral, "_level", cut)
    again = solve_singular_spectrum(prob, 5)
    assert again.meta["n"] == 2 * n
    assert again.meta["count_below_margin"] == len(again.eigenpairs) == 3
    assert again.negative_count == spec.negative_count == 2
    assert again.meta["zero_band_count"] == spec.meta["zero_band_count"]
    bars = np.array([p.error_bar for p in spec.eigenpairs])
    assert np.all(np.abs(again.values - spec.values) <= 2.0 * bars)
    # with no finer grid allowed, the refused bar is the error
    monkeypatch.setattr(spectral, "N_CAP", n)
    with pytest.raises(ResolutionError, match="bar inf"):
        solve_singular_spectrum(prob, 5)


def test_a_seed_off_by_more_than_a_bracket_takes_one_more_round(
        lane_emden_case, monkeypatch):
    # on each grid the lowest pair's seed quotient and its first round's
    # quotient are pushed 3 brackets off: the first round's vector has a
    # residual above BRACKET on T(value), so the pair takes one more round,
    # which gives the unpushed values
    _, prob, spec = lane_emden_case
    real, real_solve = spectral.rayleigh_quotients, spectral.inverse_iteration
    seeded, rounds = [False], collections.defaultdict(list)

    def pushed(d, e, vecs, *corners):
        q = real(d, e, vecs, *corners)
        # the seed quotients (no corner) and the next ones, the first round's
        if not corners or seeded[0]:
            q[0] += 3 * BRACKET
            seeded[0] = not corners
        return q

    def recorded(d, e, values, *args):
        rounds[len(d)].append(np.array(values))
        return real_solve(d, e, values, *args)

    monkeypatch.setattr(spectral, "rayleigh_quotients", pushed)
    monkeypatch.setattr(spectral, "inverse_iteration", recorded)
    again = solve_singular_spectrum(prob, 3)
    np.testing.assert_allclose(again.values, spec.values, rtol=1e-13)
    n = spec.meta["n"]
    assert sorted(rounds) == [n // 2 - 1, n - 1]
    for first, second, *_ in rounds.values():
        # the lowest pair and the slowly decaying third take a second round
        assert len(first) == 3 and len(second) == 2
        assert second[0] < spec.values[1] < second[1]


def test_a_shift_missed_in_both_rounds_is_refused(lane_emden_case,
                                                  monkeypatch):
    # fine-grid quotients that drift by 3 brackets a round never settle:
    # after the seed's and two rounds' quotients, the residual on T(value)
    # still exceeds BRACKET
    _, prob, spec = lane_emden_case
    rows = spec.meta["n"] - 1
    real = spectral.rayleigh_quotients
    drift = itertools.count(1)

    def drifting(d, e, vecs, *corners):
        q = real(d, e, vecs, *corners)
        if len(d) == rows:
            q[0] += 3 * BRACKET * next(drift)
        return q

    monkeypatch.setattr(spectral, "rayleigh_quotients", drifting)
    with pytest.raises(SpectralError, match=r"eigenvalue -8\.55\d* of order "
                       rf"{rows} not settled: .* after 2 rounds"):
        solve_singular_spectrum(prob, 3)
    assert next(drift) == 4


@pytest.mark.parametrize("k, widen", [(3, 10.0), (1, 7.0)])
def test_residual_intervals_that_meet_are_refused(lane_emden_case,
                                                  monkeypatch, k, widen):
    # the eigenvalues are -8.55, -1.99 and 0.247: intervals of half-width
    # 10 overlap, and one of half-width 7 about the first reaches the
    # second, which bounds a k=1 solve; the intervals are widened after the
    # rounds, which settled
    _, prob, spec = lane_emden_case
    rows = spec.meta["n"] - 1
    real = spectral._certify

    def wide(vals, residuals, bound, order):
        return real(vals, residuals + widen * (order == rows), bound, order)

    monkeypatch.setattr(spectral, "_certify", wide)
    with pytest.raises(SpectralError, match="not certified"):
        solve_singular_spectrum(prob, k)


def test_carried_pairs_take_one_round_unless_their_closure_moves(
        monkeypatch):
    # at the reference point (k = 4, three pairs), the coarse grid's pairs,
    # carried from the probe's eigenvectors of T(hi), take one round each,
    # and the slowly decaying nu_3 ~ 0.2467 two more, as its closure moves;
    # the fine grid's take one each and nu_3 one more.  No round re-runs
    # the grid's pairs whose shifts missed by more than BRACKET
    prob = singular_problem(*CLI_POINTS[0])
    real = spectral.inverse_iteration
    values = collections.Counter()

    def counted(d, e, shifts, *args):
        values[len(d) + 1] += len(shifts)
        return real(d, e, shifts, *args)

    monkeypatch.setattr(spectral, "inverse_iteration", counted)
    spec = solve_singular_spectrum(prob, 4)
    assert spec.meta["n"] == 4096 and len(spec.eigenpairs) == 3
    assert sorted(values) == [2048, 4096]
    assert values[2048] <= 5
    assert values[4096] == 4


@pytest.mark.parametrize("p", [3.0, 4.9])
def test_eigenvector_residuals_are_relative_to_the_matrix(p):
    a = linearized_potential(solve_nodal_power(3.0, p, 2))
    for solve, kind in ((solve_singular_spectrum, "singular"),
                        (solve_standard_spectrum, "standard")):
        spec = solve(WeightedSLProblem(M=3.0, a=a, kind=kind), 3)
        assert "eigvec_residual" not in spec.meta
        assert 0.0 < spec.meta["eigvec_rel_residual"] < 1e-12
