"""Kernel-level checks: eigen-kernels against closed forms and LAPACK
counts."""

import gc
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from henonmorse import _kernels as K
from henonmorse.radial import linearized_potential, solve_nodal_power
from henonmorse.spectral import (SpectralError, WeightedSLProblem,
                                 liouville_transform)


def random_tridiag(rng, n):
    return rng.normal(size=n) * 3.0, rng.normal(size=n - 1)


def dstebz_count(d, e, sigma):
    """The count as a dstebz value-window call (-inf, sigma) gives it, with
    abstol=+inf so that it bisects nothing."""
    m, *_, info = K.dstebz(d, e, 1, -np.inf, np.nextafter(sigma, -np.inf),
                           0, 0, np.inf, b"B")
    assert info == 0
    return int(m)


SIGMAS = (-4.0, -1.0, 0.0, 0.3, 2.0)


def test_sturm_count_matches_lapack():
    rng = np.random.default_rng(42)
    for n in (5, 50, 500, 4095, 4096, 4097, 9000):
        d, e = random_tridiag(rng, n)
        full = eigvalsh_tridiagonal(d, e)
        expected = [int((full < sigma).sum()) for sigma in SIGMAS]
        assert [K.sturm_count(d, e, [sigma])[0] for sigma in SIGMAS] == \
            expected
        # several shifts, odd and even in number, in any order
        assert K.sturm_count(d, e, SIGMAS) == expected
        assert K.sturm_count(d, e, SIGMAS[::-1][1:]) == expected[::-1][1:]


ZERO_PIVOT_E = np.array([1.0, 0.5, 2.0, 1.5])
ZERO_PIVOT_D = [
    [2.0, 1.0, 3.0, -1.0, 2.5],   # first pivot 2 - 2 is exactly 0
    [3.0, 3.0, 1.0, -1.0, 2.5],   # second pivot (3 - 2) - 1/1 is exactly 0
    # the first pivot is exactly 0 at the shift the count is taken at, the
    # float just below sigma = 2: the count is 2, and 3 without LAPACK's
    # pivot floor (as dlarrc counts)
    [np.nextafter(2.0, -np.inf), 1.0, 3.0, -1.0, 2.5],
]


@pytest.mark.parametrize("d", ZERO_PIVOT_D)
def test_sturm_count_through_an_exactly_zero_pivot(d):
    d = np.array(d)
    full = eigvalsh_tridiagonal(d, ZERO_PIVOT_E)
    expected = int((full < 2.0).sum())
    assert K.sturm_count(d, ZERO_PIVOT_E, [2.0]) == [expected]
    assert K.sturm_count(d, ZERO_PIVOT_E, [2.0, 0.0, 2.0]) == \
        [expected, int((full < 0.0).sum()), expected]
    if d[0] < 2.0:
        assert expected == 2


def _shifts_at_and_beside(values):
    return [x for v in values
            for x in (v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf))]


def test_sturm_count_is_the_dstebz_count_bitwise():
    # shifts on, just below and just above eigenvalues and diagonal entries,
    # on random and graded matrices, integer ones with exactly zero pivots,
    # ones whose PIVMIN is huge (e^2 up to 1e308) and the zero-pivot ones
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(40):
        n = int(rng.integers(2, 40))
        d, e = random_tridiag(rng, n)
        ints = (rng.integers(-3, 4, n) * 1.0,
                rng.choice([-2.0, -1.0, 1.0, 2.0], n - 1))
        huge = np.where(rng.random(n - 1) < 0.3, 1e154, ints[1])
        g = np.exp(np.linspace(0.0, 60.0, n))
        cases += [(d, e), ints, (ints[0], huge),
                  (d * g, e * np.sqrt(g[:-1] * g[1:]))]
    cases += [(np.array(d), ZERO_PIVOT_E) for d in ZERO_PIVOT_D]
    for d, e in cases:
        full = eigvalsh_tridiagonal(d, e)
        shifts = (_shifts_at_and_beside(full) + _shifts_at_and_beside(d)
                  + [0.0, np.inf])
        assert K.sturm_count(d, e, shifts) == \
            [dstebz_count(d, e, s) for s in shifts]


def dstebz_first_split(d, e):
    """The last row of the first block dstebz splits tridiag(d, e) into."""
    *_, isplit, info = K.dstebz(d, e, 2, 0.0, 0.0, 1, 1, np.inf, b"B")
    assert info == 0
    return int(isplit[0])


def test_sturm_count_refuses_the_matrices_dstebz_splits():
    # zero off-diagonal entries, entries at LAPACK's split floor, and a row
    # split off alone: refused, naming the row dstebz's first block ends at
    rng = np.random.default_rng(11)
    cases = [(np.array([1.0, 5.0, 6.0]), np.array([0.0, 2.0 ** 500]))]
    for _ in range(40):
        n = int(rng.integers(2, 40))
        d, e = random_tridiag(rng, n)
        cut = rng.random(n - 1) < 0.5
        cut[rng.integers(n - 1)] = True
        cases += [(d, np.where(cut, 0.0, e)),
                  (d, np.where(cut, e * 10.0 ** rng.uniform(-170, -150), e))]
    for d, e in cases:
        row = dstebz_first_split(d, e)
        assert row < len(d)
        with pytest.raises(SpectralError,
                           match=f"order {len(d)} splits after row {row}$"):
            K.sturm_count(d, e, [0.0])


@pytest.mark.parametrize("d, e, sigma, expected", [
    ([2.0, 2.0, 2.0], [1.0, 1.0], 2.0, 1),   # eigenvalues 2, 2 -+ sqrt(2)
    ([2.0, 2.0], [1.0], 3.0, 1),             # eigenvalues 1 and 3
    ([2.0, 2.0], [1.0], 1.0, 0),
    ([5.0], [], 5.0, 0),                     # one row
    ([5.0], [], 5.5, 1),
])
def test_sturm_count_is_strict_at_an_exact_eigenvalue(d, e, sigma, expected):
    assert K.sturm_count(np.array(d), np.array(e), [sigma]) == [expected]


def test_sturm_count_refuses_a_mismatched_off_diagonal():
    # the LAPACK call reads n - 1 entries of it
    for d, e in (([], []), ([1.0, 2.0, 3.0], [1.0]), ([1.0], [1.0]),
                 ([1.0, 2.0], [1.0, 1.0])):
        with pytest.raises(ValueError, match="n - 1 off-diagonal"):
            K.sturm_count(np.array(d), np.array(e), [0.0])


def test_dlaebz_refuses_arrays_it_cannot_take():
    # it passes bare addresses: dtype, contiguity and lengths are checked
    d, e = np.full(6, 2.0), np.full(5, -1.0)
    ab = np.array([0.0, 1.0])
    for args in ((d.astype(np.float32), e, e * e, ab), (d, e[::2], e * e, ab),
                 (d, e, (e * e)[:4], ab), (d, e, e * e, ab.astype(int))):
        with pytest.raises(ValueError, match="contiguous float64"):
            K.dlaebz(args[0], args[1], args[2], 1e-300, args[3])


def test_sturm_count_leaves_no_reference_cycles():
    # ndarray.ctypes.data_as pointers form cycles that hold memory until the
    # cyclic garbage collector runs
    d, e = random_tridiag(np.random.default_rng(4), 50)
    K.sturm_count(d, e, (0.0, 1.0, 2.0))
    gc.collect()
    gc.disable()
    try:
        K.sturm_count(d, e, (0.0, 1.0, 2.0))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sturm_count_of_entries_whose_products_overflow():
    # |d| past 1.3e154 squares past the float range: the split test's
    # product is inf, which splits, as in dstebz; an off-diagonal entry
    # that squares past it leaves PIVMIN infinite.  Both are refused, and
    # neither raises a warning.
    rng = np.random.default_rng(12)
    for n in (2, 7, 40):
        d, e = random_tridiag(rng, n)
        i = int(rng.integers(n - 1))
        big = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(155, 200)
        # e^2 about 1e300: only the product of the two huge entries splits
        wide = d.copy()
        wide[i:i + 2] = big
        assert dstebz_first_split(wide, e * 1e150) == i + 1
        with pytest.raises(SpectralError, match=f"splits after row {i + 1}$"):
            K.sturm_count(wide, e * 1e150, [0.0])
        over = e.copy()
        over[i] = big
        with pytest.raises(SpectralError, match="off-diagonal overflows"):
            K.sturm_count(d, over, [0.0])


def test_sturm_count_outside_the_gershgorin_interval():
    d, e = random_tridiag(np.random.default_rng(8), 300)
    radius = np.abs(np.concatenate(([0.0], e))) + \
        np.abs(np.concatenate((e, [0.0])))
    assert K.sturm_count(d, e, [float(np.min(d - radius)) - 1.0,
                                float(np.max(d + radius)) + 1.0]) == [0, 300]


def test_value_window_and_index_range_bisection_agree():
    rng = np.random.default_rng(9)
    # every eigenvalue in the window is bisected: keep the windows small
    for n, sigmas in ((7, (-3.0, 0.5)), (300, (-3.0, 0.5)), (4097, (-7.0,))):
        d, e = random_tridiag(rng, n)
        norm_t = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
        for sigma in sigmas:
            below = K.bisect_eigenvalues(d, e, below=sigma)
            assert [len(below)] == K.sturm_count(d, e, [sigma])
            assert np.all(below < sigma)
            ranged = K.bisect_eigenvalues(d, e, 1, len(below))
            assert np.all(np.abs(below - ranged)
                          <= 1e-14 * norm_t)


def test_bisect_eigenvalues_match_closed_form_on_a_fine_grid():
    # -u'' + c u on a Liouville-sized grid: n = 2^18, x_max = 64.  LAPACK's
    # default tolerance (eps * ||T||) misses this bound by about 5x.
    n, h, c = 1 << 18, 2.0 ** -12, 1.0
    d = np.full(n, 2.0 / h ** 2 + c)
    e = np.full(n - 1, -1.0 / h ** 2)
    j = np.arange(1, 5)
    exact = c + 4.0 / h ** 2 * np.sin(j * np.pi / (2 * (n + 1))) ** 2
    vals = K.bisect_eigenvalues(d, e, 1, 4)
    assert np.all(np.abs(vals - exact) <= 1e-9 * exact)


def test_inverse_iteration_returns_orthonormal_eigenvectors():
    rng = np.random.default_rng(3)
    d, e = random_tridiag(rng, 300)
    eig = K.bisect_eigenvalues(d, e, 1, 6)
    vecs = K.inverse_iteration(d, e, eig)
    assert vecs.shape == (300, 6)
    assert np.allclose(vecs.T @ vecs, np.eye(6), atol=1e-12)
    t = d[:, None] * vecs
    t[:-1] += e[:, None] * vecs[1:]
    t[1:] += e[:, None] * vecs[:-1]
    norm_t = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
    res = np.linalg.norm(t - eig * vecs, axis=0)
    assert np.all(res <= 1e-10 * norm_t)


def test_unseeded_inverse_iteration_finds_every_mode_of_a_symmetric_matrix():
    # the order-7 Dirichlet Laplacian is symmetric about its centre: a
    # constant start is orthogonal to its antisymmetric modes, and three
    # solves at shifts bisected to a bracket leave those at overlaps down
    # to 3e-5
    n = 7
    d, e = np.full(n, 2.0), np.full(n - 1, -1.0)
    theta = np.arange(1, n + 1) * np.pi / (n + 1)
    modes = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(np.arange(1, n + 1),
                                                     theta))
    eig = K.bisect_eigenvalues(d, e, 1, n, abstol=K.BRACKET)
    vecs = K.inverse_iteration(d, e, eig)
    assert np.all(np.abs(np.sum(vecs * modes, axis=0)) >= 1 - 1e-12)


def test_inverse_iteration_at_an_eigenvalue_with_an_exact_zero_pivot():
    # 2 is an eigenvalue of the order-7 Dirichlet Laplacian to the last
    # bit, and the LU of T - 2 ends on an exact zero pivot
    d, e = np.full(7, 2.0), np.full(6, -1.0)
    assert K.dgttrf(e, d - 2.0, e)[-1] == 7
    vec = K.inverse_iteration(d, e, [2.0])
    assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-15)
    norm_1 = 4.0
    assert K.residual_norms(d, e, vec, np.array([2.0]))[0] <= 1e-12 * norm_1


def test_bisection_refuses_a_matrix_that_splits():
    # e[2] = 0 splits the matrix into two blocks; the kernels take one
    d = np.array([10.0, 11.0, 12.0, 1.0, 2.0, 3.0])
    e = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
    for window in ({"k_first": 1, "k_last": 5}, {"below": 5.0}):
        with pytest.raises(SpectralError, match="order 6 splits after row 3"):
            K.bisect_eigenvalues(d, e, **window)


def test_rayleigh_refine_matches_closed_form_from_brackets():
    # -u'' + c u on a Liouville-sized grid, bisected only to brackets
    n, h, c = 4096, 50.0 / 4097, 1.0
    d = np.full(n, 2.0 / h ** 2 + c)
    e = np.full(n - 1, -1.0 / h ** 2)
    eig = K.bisect_eigenvalues(d, e, below=c + 0.05, abstol=K.BRACKET)
    j = np.arange(1, len(eig) + 1)
    exact = c + 4.0 / h ** 2 * np.sin(j * np.pi / (2 * (n + 1))) ** 2
    vals, vecs = K.rayleigh_refine(d, e, eig)
    assert len(vals) == 3 and vecs.shape == (n, 3)
    assert np.all(np.abs(eig - exact) <= K.BRACKET)
    assert np.all(np.abs(vals - exact) <= 1e-12 * exact)
    assert np.all(K.residual_norms(d, e, vecs, vals) <= 1e-9)


def test_rayleigh_refine_takes_a_second_round_from_estimated_shifts():
    # shifts 3 brackets off the closed-form eigenvalues: without start
    # vectors they are taken for brackets, and the one round misses; with
    # start vectors a second round at the quotients reached does not
    n, h, c = 4096, 50.0 / 4097, 1.0
    d = np.full(n, 2.0 / h ** 2 + c)
    e = np.full(n - 1, -1.0 / h ** 2)
    j = np.arange(1, 4)
    exact = c + 4.0 / h ** 2 * np.sin(j * np.pi / (2 * (n + 1))) ** 2
    eig = exact + 3 * K.BRACKET
    with pytest.raises(SpectralError, match="outside the bracket"):
        K.rayleigh_refine(d, e, eig)
    starts = K.inverse_iteration(d, e, eig)
    vals, vecs = K.rayleigh_refine(d, e, eig, starts)
    assert np.all(np.abs(vals - exact) <= 1e-12 * exact)
    residuals = K.residual_norms(d, e, vecs, vals)
    assert K.relative_residual(d, e, vecs, residuals) < 1e-15


def dirichlet_laplacian(k):
    """-u'' + u on 4096 cells of h = 2^-6, Dirichlet at both ends: the
    tridiagonal, its k lowest eigenvalues and unit eigenvectors in closed
    form, and ||T||_1.  Its entries, 8193 and -4096, and the row sums
    rayleigh_quotients forms are exact, so the quotients can be held to
    1e-14."""
    n, h, c = 4095, 2.0 ** -6, 1.0
    d = np.full(n, 2.0 / h ** 2 + c)
    e = np.full(n - 1, -1.0 / h ** 2)
    theta = np.arange(1, k + 1) * np.pi / (n + 1)
    values = c + 4.0 / h ** 2 * np.sin(theta / 2) ** 2
    vecs = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(np.arange(1, n + 1),
                                                    theta))
    return d, e, values, vecs, 4.0 / h ** 2 + c


def perturbed(vecs, size, seed):
    noise = np.random.default_rng(seed).normal(size=vecs.shape)
    return np.asfortranarray(vecs + size * noise / np.sqrt(len(vecs)))


def test_seeded_inverse_iteration_matches_closed_form():
    # start vectors 1e-3 off the eigenvectors, shifts within their brackets
    d, e, exact, vecs, norm_t = dirichlet_laplacian(4)
    seeds = perturbed(vecs, 1e-3, 6)
    shifts = exact + 0.5 * K.BRACKET * np.array([1.0, -1.0, 1.0, -1.0])
    vals, got = K.rayleigh_refine(d, e, shifts, starts=seeds)
    residuals = K.residual_norms(d, e, got, vals)
    assert np.all(np.abs(vals - exact) <= 1e-14)
    assert np.all(residuals <= 10 * len(d) * np.finfo(float).eps * norm_t)
    assert got.flags.f_contiguous
    np.testing.assert_allclose(np.abs(got.T @ vecs), np.eye(4), atol=1e-8)


def test_a_seed_that_misses_its_shift_takes_a_second_round(monkeypatch):
    # shifts 3 brackets off: the first round's quotients miss them, and the
    # second starts from its vectors at their quotients
    d, e, exact, vecs, _ = dirichlet_laplacian(3)
    seeds = perturbed(vecs, 1e-3, 7)
    shifts = exact + 3 * K.BRACKET
    calls, real = [], K.inverse_iteration

    def recorded(diag, off, values, starts=None, corners=0.0):
        vecs = real(diag, off, values, starts, corners)
        calls.append((values, starts, vecs))
        return vecs

    monkeypatch.setattr(K, "inverse_iteration", recorded)
    vals = K.rayleigh_refine(d, e, shifts, starts=seeds)[0]
    assert len(calls) == 2
    (_, first_starts, first), (second_shifts, second_starts, _) = calls
    assert first_starts is seeds and second_starts is first
    assert np.all(np.abs(second_shifts - shifts) > K.BRACKET)
    np.testing.assert_array_equal(second_shifts,
                                  K.rayleigh_quotients(d, e, first))
    assert np.all(np.abs(vals - exact) <= 1e-14)


def test_rayleigh_refine_refuses_overlapping_brackets():
    # two equal blocks coupled by 1e-6: every eigenvalue is a pair about
    # 1e-6 apart, far closer than 2 * BRACKET, and the matrix does not split
    d = np.full(6, 2.0)
    e = np.array([-1.0, -1.0, 1e-6, -1.0, -1.0])
    eig = K.bisect_eigenvalues(d, e, below=2.5, abstol=K.BRACKET)
    assert len(eig) == 4
    with pytest.raises(SpectralError, match="overlap"):
        K.rayleigh_refine(d, e, eig)


def test_rayleigh_refine_agrees_with_full_bisection_on_a_lane_emden_grid():
    prof = solve_nodal_power(3.0, 3.0, 2)
    prob = WeightedSLProblem(M=3.0, a=linearized_potential(prof),
                             kind="singular")
    d, e = liouville_transform(prob, 40.0, 4096).tridiagonal()
    hi = prob.threshold - 1e-6
    brackets = K.bisect_eigenvalues(d, e, below=hi, abstol=K.BRACKET)
    full = K.bisect_eigenvalues(d, e, below=hi, abstol=K.ABSTOL)
    vals = K.rayleigh_refine(d, e, brackets)[0]
    assert len(vals) == len(full) == 3
    assert np.all(np.abs(vals - full) <= 1e-10 * np.abs(full))


@pytest.mark.parametrize("routine",
                         ["dstebz", "dlaebz", "dgttrf", "dgttrs"])
def test_lapack_failure_is_a_spectral_error(monkeypatch, routine):
    d, e = random_tridiag(np.random.default_rng(5), 20)
    eig = K.bisect_eigenvalues(d, e, 1, 2)
    count = K.sturm_count(d, e, [0.0])
    starts = K.inverse_iteration(d, e, eig)
    real = getattr(K, routine)

    def failing(*args):
        return real(*args)[:-1] + (1,)

    monkeypatch.setattr(K, routine, failing)
    calls = {
        "dstebz": [lambda: K.bisect_eigenvalues(d, e, 1, 2)],
        # the counting routine, for one shift and for several
        "dlaebz": [lambda: K.sturm_count(d, e, [0.0]),
                   lambda: K.sturm_count(d, e, [0.0, 1.0, 2.0])],
        # inverse iteration, unseeded and seeded: factorization, then solves
        "dgttrf": [lambda: K.inverse_iteration(d, e, eig),
                   lambda: K.rayleigh_refine(d, e, eig),
                   lambda: K.inverse_iteration(d, e, eig, starts),
                   lambda: K.rayleigh_refine(d, e, eig, starts=starts)],
        "dgttrs": [lambda: K.inverse_iteration(d, e, eig),
                   lambda: K.rayleigh_refine(d, e, eig),
                   lambda: K.inverse_iteration(d, e, eig, starts),
                   lambda: K.rayleigh_refine(d, e, eig, starts=starts)],
    }[routine]
    for call in calls:
        with pytest.raises(SpectralError, match=f"{routine}.*info=1"):
            call()
    if routine == "dstebz":
        # counts do not go through dstebz
        assert K.sturm_count(d, e, [0.0]) == count


# The package's LAPACK wrappers must be the objects scipy.linalg.lapack
# exports, whichever is imported first, and the scipy.linalg package must
# still work after henonmorse loaded its modules.
LAPACK_PARITY = """\
import sys
if sys.argv[1] == "scipy":
    import scipy.linalg.lapack
from henonmorse import _kernels, oracle
loaded = _kernels.lapack_module("cython_lapack")
import scipy.linalg
import scipy.linalg.lapack as lapack
from scipy.linalg import cython_lapack
same = [_kernels.dstebz is lapack.dstebz,
        _kernels.dgttrf is lapack.dgttrf, _kernels.dgttrs is lapack.dgttrs,
        oracle.dsterf is lapack.dsterf, oracle.dgtsv is lapack.dgtsv,
        _kernels._flapack is lapack._flapack, loaded is cython_lapack]
works = list(scipy.linalg.eigvalsh_tridiagonal([2.0, 2.0], [1.0])) == [1, 3]
print(same, works)
"""


@pytest.mark.parametrize("first", ["henonmorse", "scipy"])
def test_lapack_routines_are_the_ones_scipy_exports(first):
    src = os.path.dirname(os.path.dirname(K.__file__))
    proc = subprocess.run([sys.executable, "-c", LAPACK_PARITY, first],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == f"{[True] * 7} True"


@pytest.mark.parametrize("name", ["_flapack", "cython_lapack"])
def test_missing_lapack_module_is_an_import_error(tmp_path, monkeypatch,
                                                  name):
    monkeypatch.setattr(K, "LINALG_DIR", str(tmp_path))
    monkeypatch.delitem(sys.modules, f"scipy.linalg.{name}", raising=False)
    with pytest.raises(ImportError, match=f"scipy\\.linalg\\.{name}"):
        K.lapack_module(name)
    assert f"scipy.linalg.{name}" not in sys.modules
