"""Dense r-grid oracle: independence checks against the production solvers."""

import gc
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dsterf

from henonmorse import oracle
from henonmorse.oracle import dense_oracle_spectrum
from henonmorse.radial import linearized_potential, solve_nodal_power
from henonmorse.spectral import (SpectralConfig, SpectralError,
                                 WeightedSLProblem, solve_singular_spectrum,
                                 zero_potential)

# the points of the benchmark's cli workload, all on the acceptance matrix
CLI_POINTS = ((3, 0.0, 3.0, 2), (2, 1.0, 3.0, 2), (5, 0.0, 2.2, 1),
              (3, 2.7, 3.0, 3), (2, 0.0, 2.2, 1), (3, 1.0, 3.0, 2))


@pytest.fixture(scope="module")
def case():
    prof = solve_nodal_power(3.0, 3.0, 2)
    prob = WeightedSLProblem(M=3.0, a=linearized_potential(prof),
                             kind="singular")
    return prob


def test_oracle_matches_liouville_solver(case):
    spec = solve_singular_spectrum(case, 2)
    orc = dense_oracle_spectrum(case, n=2000)
    assert orc.negative_count == spec.negative_count == 2
    for sv, ov in zip(spec.values[:2], orc.values[:2]):
        assert abs(sv - ov) / abs(ov) < 1e-4


def test_oracle_nodes_and_normalization(case):
    orc = dense_oracle_spectrum(case, n=2000)
    assert [p.interior_nodes for p in orc.eigenpairs[:2]] == [0, 1]
    p = orc.eigenpairs[0]
    wgt = np.where(p.grid > 0, p.grid ** (3.0 - 3.0), 0.0)
    nrm = np.trapezoid(wgt * p.samples ** 2, p.grid)
    assert nrm == pytest.approx(1.0, rel=1e-3)


def test_oracle_epsilon_convergence(case):
    a = dense_oracle_spectrum(case, n=2000, epsilon_cut=1e-8)
    b = dense_oracle_spectrum(case, n=2000, epsilon_cut=5e-9)
    for i in range(2):
        move = abs(a.values[i] - b.values[i])
        assert move < a.eigenpairs[i].error_bar


def test_oracle_eigenfunction_round_trip(case):
    spec = solve_singular_spectrum(case, 2, SpectralConfig(n=8192))
    orc = dense_oracle_spectrum(case, n=3500)
    for i in range(2):
        pl, po = spec.eigenpairs[i], orc.eigenpairs[i]
        sel = pl.grid >= 1e-4
        f2 = np.interp(pl.grid[sel], po.grid, po.samples)
        f1 = pl.samples[sel] / np.max(np.abs(pl.samples[sel]))
        f2 = f2 / np.max(np.abs(f2))
        if np.dot(f1, f2) < 0:
            f2 = -f2
        assert np.max(np.abs(f1 - f2)) < 1e-4


def test_oracle_refuses_the_standard_kind():
    # the standard solver is checked against Bessel zeros and by the
    # Sylvester count equality instead
    prob = WeightedSLProblem(M=2.0, a=zero_potential, kind="standard")
    with pytest.raises(ValueError, match="singular kind only"):
        dense_oracle_spectrum(prob, n=200)


def test_oracle_size_guard():
    prob = WeightedSLProblem(M=3.0, a=zero_potential, kind="singular")
    with pytest.raises(ValueError, match="4000"):
        dense_oracle_spectrum(prob, n=4001)
    with pytest.raises(ValueError, match="epsilon"):
        dense_oracle_spectrum(prob, n=100, epsilon_cut=0.5)


def full_spectrum(prob, n, epsilon_cut, grading):
    """Reference: every eigenvalue of the oracle's matrix, from dsterf."""
    *_, d, e = oracle._assemble(prob, n, epsilon_cut, grading)
    spectrum, info = dsterf(d, e)
    assert info == 0
    return spectrum


def one_grid(prob, n, epsilon_cut):
    """(values, negative count, exhausted_below) of the oracle's window on
    the one grid of n cells, with no Richardson partner."""
    return oracle._oracle_values(
        prob, *oracle._assemble(prob, n, epsilon_cut, 4.0)[2:])


@pytest.mark.parametrize("point", CLI_POINTS)
def test_oracle_window_matches_full_spectrum(matrix_data, point):
    data, _ = matrix_data
    entry = data[point]
    prob = WeightedSLProblem(M=entry["dmap"].M, a=entry["potential"],
                             kind="singular")
    for n in (1000, 2000):       # the two grids of the default oracle
        values, negative, exhausted = one_grid(prob, n, 1e-10)
        ref = full_spectrum(prob, n, 1e-10, 4.0)
        ref_vals = ref[ref <= prob.threshold - 1e-6]
        assert negative == np.count_nonzero(ref <= -1e-7)
        assert exhausted == prob.threshold - 1e-6
        assert len(values) == len(ref_vals) >= point[3]
        np.testing.assert_allclose(values, ref_vals, rtol=1e-10, atol=0)


def test_oracle_keeps_the_bound_states_of_a_large_epsilon_cut(case):
    # at epsilon_cut 1e-2 the graded matrix has ||T|| ~ 1e21, and dstemr's
    # splitting test would decouple its lower rows
    values, negative, _ = one_grid(case, 2000, 1e-2)
    ref = full_spectrum(case, 2000, 1e-2, 4.0)
    assert negative == 2
    np.testing.assert_allclose(values, ref[ref <= case.threshold - 1e-6],
                               rtol=1e-10, atol=0)


def test_oracle_allocates_no_square_array(case):
    # one n x n float64 array at n = 2000 takes 32 MB
    dense_oracle_spectrum(case, n=200)
    tracemalloc.start()
    try:
        dense_oracle_spectrum(case, n=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_oracle_solve_leaves_no_garbage(case):
    # ndarray.ctypes.data_as pointers form reference cycles, which the
    # cyclic garbage collector frees only when it runs
    dense_oracle_spectrum(case, n=200)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        dense_oracle_spectrum(case, n=200)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert garbage == []


def test_oracle_lapack_failure_raises(case, monkeypatch):
    monkeypatch.setattr(oracle, "_dstemr", lambda *args: (np.empty(0), 7))
    with pytest.raises(SpectralError, match="dstemr failed with info=7"):
        dense_oracle_spectrum(case, n=200)


def test_oracle_pairs_share_their_grid(case):
    first, second = dense_oracle_spectrum(case, n=200).eigenpairs[:2]
    assert first.grid is second.grid
    assert first.samples is not second.samples
