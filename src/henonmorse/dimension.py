"""Change of variables between the physical N-dimensional problem with weight
|x|^alpha and the autonomous radial problem in generalized dimension M.

All relations are closed-form; this module has no numerics beyond float
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DimensionMap:
    """Bundle of the (N, alpha) -> (M, c) transformation constants.

    M = 2(N+alpha)/(2+alpha) is the generalized dimension, c = (2/(2+alpha))^2
    the coupling left in front of the nonlinearity, and ``exponent`` the power
    of the radius map t = r^exponent.
    """

    N: int
    alpha: float
    M: float = field(init=False)
    c: float = field(init=False)
    exponent: float = field(init=False)

    def __post_init__(self):
        if not 2 <= self.N < math.inf:
            raise ValueError(f"N={self.N} must be finite and >= 2")
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha={self.alpha} must be finite and >= 0")
        object.__setattr__(self, "M", 2.0 * (self.N + self.alpha)
                           / (2.0 + self.alpha))
        object.__setattr__(self, "c", (2.0 / (2.0 + self.alpha)) ** 2)
        object.__setattr__(self, "exponent", (2.0 + self.alpha) / 2.0)

    @property
    def hardy_threshold(self) -> float:
        """((M-2)/2)^2, the sub-threshold ceiling of the transformed problem."""
        return ((self.M - 2.0) / 2.0) ** 2


def generalized_dimension(N: int, alpha: float) -> DimensionMap:
    """Map (N, alpha) to the transformation bundle; M = N iff alpha = 0."""
    return DimensionMap(N=N, alpha=float(alpha))


def critical_exponent(M: float) -> float:
    """(M+2)/(M-2) for M > 2, else inf: by Pohozaev's identity a nodal radial
    solution of the power problem exists only below it."""
    return (M + 2.0) / (M - 2.0) if M > 2 else math.inf


def eigenvalue_pullback(nu_hat: float, dmap: DimensionMap) -> float:
    """Pull a transformed eigenvalue back to the physical problem.

    Returns ((2+alpha)/2)^2 * nu_hat; only defined below the transformed
    threshold ((M-2)/2)^2, which maps onto ((N-2)/2)^2.
    """
    if nu_hat >= dmap.hardy_threshold:
        raise ValueError(
            f"nu_hat={nu_hat} is not below the threshold "
            f"{dmap.hardy_threshold}")
    return dmap.exponent ** 2 * nu_hat


def angular_threshold(nu_hat: float, dmap: DimensionMap) -> float:
    """Largest angular order fed by a nonpositive transformed eigenvalue.

    J = ((2+alpha)/2) * (sqrt(((M-2)/2)^2 - nu_hat) - (M-2)/2), evaluated in
    the cancellation-free conjugate form so that tiny |nu_hat| stay exact:
    spherical-harmonic orders j with j < J contribute to the Morse index.
    """
    if nu_hat > 0:
        raise ValueError("angular threshold is defined for nu_hat <= 0")
    if nu_hat == 0.0:
        return 0.0
    a = (dmap.M - 2.0) / 2.0
    root = math.sqrt(a * a - nu_hat)
    return dmap.exponent * (-nu_hat) / (root + a)


def degeneracy_targets(dmap: DimensionMap, j_max: int) -> list[float]:
    """Transformed-eigenvalue values at which angular order j turns critical.

    Entry j-1 is -(2/(2+alpha))^2 * j * (N-2+j); hitting it means the
    linearization has a kernel element of angular order j.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    return [-dmap.c * j * (dmap.N - 2 + j) for j in range(1, j_max + 1)]

