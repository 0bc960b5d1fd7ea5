"""Kernel-level checks: eigen-kernels against closed forms and LAPACK
counts, the integrator against step halving."""

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


def test_sturm_count_matches_lapack():
    rng = np.random.default_rng(42)
    # 4095..4097 and 9000 straddle the row chunks of the recurrence
    for n in (5, 50, 500, 4095, 4096, 4097, 9000):
        d, e = random_tridiag(rng, n)
        full = eigvalsh_tridiagonal(d, e)
        for sigma in (-4.0, -1.0, 0.0, 0.3, 2.0):
            assert K.sturm_count(d, e, sigma) == int((full < sigma).sum())


@pytest.mark.parametrize("d", [
    [2.0, 1.0, 3.0, -1.0, 2.5],   # first pivot 2 - 2 is exactly 0
    [3.0, 3.0, 1.0, -1.0, 2.5],   # second pivot (3 - 2) - 1/1 is exactly 0
])
def test_sturm_count_through_an_exactly_zero_pivot(d):
    d = np.array(d)
    e = np.array([1.0, 0.5, 2.0, 1.5])
    full = eigvalsh_tridiagonal(d, e)
    assert K.sturm_count(d, e, 2.0) == int((full < 2.0).sum())


@pytest.mark.parametrize("d, e, sigma, expected", [
    ([1.0, 2.0, 3.0], [0.0, 0.0], 2.0, 1),   # sigma is an eigenvalue
    ([2.0, 2.0], [1.0], 3.0, 1),             # eigenvalues 1 and 3
    ([2.0, 2.0], [1.0], 1.0, 0),
    ([5.0], [], 5.0, 0),                     # one row: no LAPACK call
    ([5.0], [], 5.5, 1),
])
def test_sturm_count_is_strict_at_an_exact_eigenvalue(d, e, sigma, expected):
    assert K.sturm_count(np.array(d), np.array(e), sigma) == expected


def test_sturm_count_outside_the_gershgorin_interval():
    d, e = random_tridiag(np.random.default_rng(8), 300)
    radius = np.abs(np.concatenate(([0.0], e))) + \
        np.abs(np.concatenate((e, [0.0])))
    assert K.sturm_count(d, e, float(np.min(d - radius)) - 1.0) == 0
    assert K.sturm_count(d, e, float(np.max(d + radius)) + 1.0) == 300


def test_value_window_and_index_range_bisection_agree():
    rng = np.random.default_rng(9)
    # every eigenvalue in the window is bisected: keep the windows small
    for n, sigmas in ((7, (-3.0, 0.5)), (300, (-3.0, 0.5)), (4097, (-7.0,))):
        d, e = random_tridiag(rng, n)
        norm_t = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e))
        for sigma in sigmas:
            below = K.bisect_eigenvalues(d, e, below=sigma)
            assert len(below) == K.sturm_count(d, e, sigma)
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
    vals, vecs, residuals = K.rayleigh_refine(d, e, eig)
    assert len(vals) == 3 and vecs.shape == (n, 3)
    assert np.all(np.abs(eig - exact) <= K.BRACKET)
    assert np.all(np.abs(vals - exact) <= 1e-12 * exact)
    assert residuals.shape == (3,) and np.all(residuals <= 1e-9)


def test_rayleigh_refine_takes_a_second_round_from_estimated_shifts():
    # shifts 3 brackets off the closed-form eigenvalues: one round misses,
    # a second round at the quotients it reached does not
    n, h, c = 4096, 50.0 / 4097, 1.0
    d = np.full(n, 2.0 / h ** 2 + c)
    e = np.full(n - 1, -1.0 / h ** 2)
    j = np.arange(1, 4)
    exact = c + 4.0 / h ** 2 * np.sin(j * np.pi / (2 * (n + 1))) ** 2
    eig = exact + 3 * K.BRACKET
    with pytest.raises(SpectralError, match="outside the bracket"):
        K.rayleigh_refine(d, e, eig)
    vals, vecs, residuals = K.rayleigh_refine(d, e, eig, rounds=2)
    assert np.all(np.abs(vals - exact) <= 1e-12 * exact)
    assert K.relative_residual(d, e, vecs, residuals) < 1e-15


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


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lapack_failure_is_a_spectral_error(monkeypatch, routine):
    d, e = random_tridiag(np.random.default_rng(5), 20)
    eig = K.bisect_eigenvalues(d, e, 1, 2)
    real = getattr(K, routine)

    def failing(*args):
        return real(*args)[:-1] + (1,)

    monkeypatch.setattr(K, routine, failing)
    with pytest.raises(SpectralError, match=f"{routine}.*info=1"):
        if routine == "dstebz":
            K.bisect_eigenvalues(d, e, 1, 2)
        else:
            K.inverse_iteration(d, e, eig)
    if routine == "dstebz":
        with pytest.raises(SpectralError, match="dstebz.*info=1"):
            K.sturm_count(d, e, 0.0)
    else:
        with pytest.raises(SpectralError, match="dstein.*info=1"):
            K.rayleigh_refine(d, e, eig)


def test_integrator_zero_locations_against_step_halving():
    # the same integration at tighter tolerance is the independent check
    loose = K.integrate_radial(3.0, 3.0, 1.0, 1e3, 1e-8, 1e-10, 2, 200000,
                               1e-12)
    tight = K.integrate_radial(3.0, 3.0, 1.0, 1e3, 1e-12, 1e-14, 2, 400000,
                               1e-13)
    assert loose[0] == K.OK_EVENTS and tight[0] == K.OK_EVENTS
    z_loose, z_tight = loose[4], tight[4]
    assert np.allclose(z_loose, z_tight, rtol=1e-7)
    # frozen reference values from an independent high-order adaptive solver
    assert np.allclose(z_tight, [6.896848619376449, 35.96194003077796],
                       rtol=1e-9)


def test_integrator_nonfinite_rhs_reported():
    # an infinite value at t = 0 must not shrink the first step to nothing
    # (a step-size underflow) before the step that exposes it
    for bad in (float("nan"), float("inf")):
        out = K.integrate_radial(3.0, 3.0, bad, 1e3, 1e-10, 1e-12, 2, 1000,
                                 1e-12)
        assert out[0] == K.FAIL_NONFINITE, bad


def test_critical_points_located():
    out = K.integrate_radial(3.0, 3.0, 1.0, 1e3, 1e-10, 1e-12, 2, 200000,
                             1e-12)
    crit_t, crit_v = out[6], out[7]
    assert len(crit_t) == 1
    # interior minimum between the two zeros, negative value
    assert out[4][0] < crit_t[0] < out[4][1]
    assert crit_v[0] < 0


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
same = [_kernels.dstebz is lapack.dstebz, _kernels.dstein is lapack.dstein,
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
    assert proc.stdout.split("\n")[0] == f"{[True] * 6} True"


@pytest.mark.parametrize("name", ["_flapack", "cython_lapack"])
def test_missing_lapack_module_is_an_import_error(tmp_path, monkeypatch,
                                                  name):
    monkeypatch.setattr(K, "LINALG_DIR", str(tmp_path))
    monkeypatch.delitem(sys.modules, f"scipy.linalg.{name}", raising=False)
    with pytest.raises(ImportError, match=f"scipy\\.linalg\\.{name}"):
        K.lapack_module(name)
    assert f"scipy.linalg.{name}" not in sys.modules
