"""Weighted-space inequalities used as numerical sanity rails: the Hardy and
Poincare bounds on random piecewise-linear trial functions (exact segment
integrals, no quadrature error) and the pointwise radial growth bound on
computed eigenfunctions."""

import math

import numpy as np
import pytest

from conftest import (piecewise_linear_weighted_integrals,
                      random_piecewise_linear)
from diagnostics import rayleigh_quotient
from henonmorse.radial import linearized_potential, solve_nodal_power
from henonmorse.spectral import (WeightedSLProblem, solve_singular_spectrum,
                                 zero_potential)

QUAD_TOL = 1e-9


@pytest.mark.parametrize("M", [2.5, 3.0, 4.0, 5.0])
def test_hardy_inequality_exact_piecewise_linear(M):
    rng = np.random.default_rng(int(10 * M))
    thr = ((M - 2.0) / 2.0) ** 2
    for _ in range(50):
        r, w = random_piecewise_linear(rng)
        grad2, _, mass_sing = piecewise_linear_weighted_integrals(r, w, M)
        assert grad2 / mass_sing >= thr - QUAD_TOL


@pytest.mark.parametrize("M", [2.0, 2.5, 3.0, 4.0])
def test_poincare_inequality_exact_piecewise_linear(M):
    rng = np.random.default_rng(int(100 * M))
    for _ in range(50):
        r, w = random_piecewise_linear(rng)
        grad2, mass_std, _ = piecewise_linear_weighted_integrals(r, w, M)
        assert mass_std <= grad2 / (M - 1.0) + QUAD_TOL


@pytest.mark.parametrize("M", [2.5, 3.0])
def test_hardy_through_rayleigh_quotient(M):
    # same bound probed through the public quotient on a dense sampling,
    # which includes r = 0, where the weight r^(M-3) of M < 3 is infinite
    prob = WeightedSLProblem(M=M, a=zero_potential, kind="singular")
    rng = np.random.default_rng(77)
    thr = ((M - 2.0) / 2.0) ** 2
    for _ in range(20):
        nodes_r, nodes_w = random_piecewise_linear(rng)
        r = np.unique(np.concatenate((np.linspace(0, 1, 8001), nodes_r)))
        w = np.interp(r, nodes_r, nodes_w)
        q = rayleigh_quotient((r, w), prob)
        assert q >= thr - 1e-4


def test_radial_growth_bound_on_eigenfunctions():
    # |psi(t)| <= ||psi'||_M * t^(-(M-2)/2) / sqrt(M-2) for M > 2
    prof = solve_nodal_power(3.0, 3.0, 2)
    prob = WeightedSLProblem(M=3.0, a=linearized_potential(prof),
                             kind="singular")
    spec = solve_singular_spectrum(prob, 2)
    M = 3.0
    for p in spec.eigenpairs:
        x, u = p.x_grid, p.u_samples
        h = x[1] - x[0]
        du = np.gradient(u, h, edge_order=2)
        a_half = (M - 2.0) / 2.0
        # int r^(M-1) psi'^2 dr = int (a_half u + u')^2 dx
        grad_norm = math.sqrt(np.trapezoid((a_half * u + du) ** 2, dx=h))
        bound = grad_norm * p.grid[1:] ** (-(M - 2.0) / 2.0) \
            / math.sqrt(M - 2.0)
        assert np.all(np.abs(p.samples[1:]) <= bound * (1 + 1e-6) + QUAD_TOL)
