"""Closed-form transformation relations."""

import math

import numpy as np
import pytest

from henonmorse.dimension import (angular_threshold, degeneracy_targets,
                                  eigenvalue_pullback, generalized_dimension)


def test_generalized_dimension_values():
    assert generalized_dimension(3, 2.0).M == pytest.approx(2.5)
    for N in (2, 3, 5, 9):
        assert generalized_dimension(N, 0.0).M == pytest.approx(float(N))
    for alpha in (0.0, 0.5, 3.0, 40.0):
        assert generalized_dimension(2, alpha).M == pytest.approx(2.0)


def test_dimension_map_invariants():
    rng = np.random.default_rng(0)
    for _ in range(50):
        N = int(rng.integers(2, 12))
        alpha = float(rng.uniform(0, 10))
        dm = generalized_dimension(N, alpha)
        assert 2.0 - 1e-12 <= dm.M <= N + 1e-12
        assert dm.c * dm.exponent ** 2 == pytest.approx(1.0, rel=1e-14)
        # M = N exactly when alpha = 0, except the plane where M is pinned
        assert (dm.M == pytest.approx(N)) == (alpha == 0 or N == 2)
    with pytest.raises(ValueError):
        generalized_dimension(1, 0.0)
    with pytest.raises(ValueError):
        generalized_dimension(3, -0.5)


def test_eigenvalue_pullback():
    dm0 = generalized_dimension(4, 0.0)
    assert eigenvalue_pullback(-1.7, dm0) == pytest.approx(-1.7)
    dm = generalized_dimension(3, 2.0)
    assert eigenvalue_pullback(-1.0, dm) == pytest.approx(-4.0)
    # threshold maps onto threshold
    eps = 1e-9
    lam = eigenvalue_pullback(dm.hardy_threshold - eps, dm)
    physical_threshold = ((dm.N - 2) / 2) ** 2
    assert lam < physical_threshold
    assert lam == pytest.approx(physical_threshold - dm.exponent ** 2 * eps)
    with pytest.raises(ValueError):
        eigenvalue_pullback(dm.hardy_threshold, dm)


def test_pullback_monotone_linear():
    dm = generalized_dimension(5, 1.3)
    nus = np.sort(np.random.default_rng(1).uniform(-20, 0, size=30))
    lams = [eigenvalue_pullback(v, dm) for v in nus]
    assert np.all(np.diff(lams) > 0)
    assert lams[0] == pytest.approx(dm.exponent ** 2 * nus[0], rel=1e-15)


def test_angular_threshold_values():
    dm = generalized_dimension(3, 0.0)
    assert angular_threshold(0.0, dm) == 0.0
    assert angular_threshold(-2.5, dm) == pytest.approx(
        math.sqrt(0.25 + 2.5) - 0.5, rel=1e-14)
    for N, alpha in ((3, 0.0), (2, 4.0), (5, 2.7)):
        dm = generalized_dimension(N, alpha)
        assert angular_threshold(-(dm.M - 1.0), dm) == pytest.approx(
            dm.exponent, rel=1e-13)
    with pytest.raises(ValueError):
        angular_threshold(0.1, dm)


def test_angular_threshold_decreasing_and_stable_near_zero():
    dm = generalized_dimension(4, 1.5)
    nus = -np.logspace(-14, 1, 40)
    js = np.array([angular_threshold(v, dm) for v in nus])
    assert np.all(js > 0)
    assert np.all(np.diff(js) > 0)  # nus ascending toward 0 => J decreasing
    # tiny eigenvalues keep full relative accuracy (no cancellation)
    a = (dm.M - 2.0) / 2.0
    tiny = -1e-13
    expect = dm.exponent * (-tiny) / (2 * a)
    assert angular_threshold(tiny, dm) == pytest.approx(expect, rel=1e-10)


def test_degeneracy_targets():
    assert degeneracy_targets(generalized_dimension(3, 0.0), 1)[0] == \
        pytest.approx(-2.0)
    assert degeneracy_targets(generalized_dimension(2, 0.0), 1)[0] == \
        pytest.approx(-1.0)
    assert degeneracy_targets(generalized_dimension(3, 2.0), 1)[0] == \
        pytest.approx(-0.5)
    tg = degeneracy_targets(generalized_dimension(4, 1.0), 8)
    assert np.all(np.diff(tg) < 0)
    assert all(t < 0 for t in tg)


def test_target_threshold_identity():
    # hitting target j gives angular threshold exactly j
    rng = np.random.default_rng(5)
    for _ in range(20):
        N = int(rng.integers(2, 9))
        alpha = float(rng.uniform(0, 8))
        dm = generalized_dimension(N, alpha)
        for j, tgt in enumerate(degeneracy_targets(dm, 10), start=1):
            assert angular_threshold(tgt, dm) == pytest.approx(j, rel=1e-12)

