"""Closed-form density thresholds.

The sharp density parameters for sampled modulus problems with Gaussian decay
come in two flavours: a one-sided threshold (samples of |f| on a time set only)
and a weak-pair threshold (samples on both sides, asking whether both global
moduli can differ at once).  Both are explicit piecewise-algebraic functions of
the decay rate A.  This module also provides the split-parameter optimization
that produces the weak threshold and the Fourier uniqueness density bounds for
the Gaussian class E(a,b).
"""

from __future__ import annotations

import numpy as np

SQRT2_INV = 1.0 / np.sqrt(2.0)
SQRT3_HALF = np.sqrt(3.0) / 2.0
ORACLE_GRID_SIZE = 4096  # scan points of weak_bound_oracle on [A^2, 1]


class DomainError(ValueError):
    """Parameter outside the domain where a threshold formula is defined."""


def _check_unit_interval(A: float) -> float:
    A = float(A)
    if not 0.0 < A < 1.0:
        raise DomainError(f"decay rate must lie in (0, 1), got {A}")
    return A


def one_sided_threshold(A: float) -> float:
    """Sharp density parameter for the time-side-only sampled modulus problem.

    Two branches: 2/A below 1/sqrt(2), then 4*sqrt(1 - A^2).  Continuous at the
    branch point, strictly decreasing on (0, 1).
    """
    A = _check_unit_interval(A)
    if A < SQRT2_INV:
        return 2.0 / A
    return 4.0 * np.sqrt(1.0 - A * A)


def weak_pair_threshold(A: float) -> float:
    """Sharp density parameter below which non-weak sampled pairs exist.

    Three branches meeting continuously at A = 1/3 and A = sqrt(3)/2; constant 2
    on the top branch where the plain uniqueness threshold takes over.  The
    lowest, sqrt((3 - s)^3 / (2 (1 - s))) with s = sqrt(1 - 8 A^2), is taken
    with 1 - s = 8 A^2 / (1 + s), which does not cancel as A goes to 0.
    """
    A = _check_unit_interval(A)
    if A < 1.0 / 3.0:
        s = np.sqrt(1.0 - 8.0 * A * A)
        return float((3.0 - s) * np.sqrt((3.0 - s) * (1.0 + s)) / (4.0 * A))
    if A < SQRT3_HALF:
        return 4.0 * np.sqrt(1.0 - A * A)
    return 2.0


def pauli_threshold(A: float) -> float:
    """Density parameter for the two-sided sampled problem: max of the one-sided
    threshold and the decay-transfer floor 2."""
    return max(one_sided_threshold(A), 2.0)


def split_bound_argmax(A: float) -> float:
    """Maximizer x_A of (1-x)*(A/sqrt(x) + sqrt(x)/A)^2 over x in [A^2, 1]."""
    A = _check_unit_interval(A)
    if A < 1.0 / 3.0:
        return (1.0 + np.sqrt(1.0 - 8.0 * A * A)) / 4.0
    return A * A


def gaussian_rate_base(A: float) -> float:
    """Base Gaussian rate sigma_A used by the product constructions.

    Equals 1/(2A) below 1/sqrt(2) (maximizing the admissible zero density) and
    A above, for 0 < A < 1.  The frequency-matched construction uses it below
    sqrt(3)/2 only and switches to the g == 0 branch from there on.
    """
    A = _check_unit_interval(A)
    if A < SQRT2_INV:
        return 1.0 / (2.0 * A)
    return A


def weak_bound_oracle(A: float) -> tuple[float, float]:
    """Brute-force maximization of (1-x)*(A/sqrt(x) + sqrt(x)/A)^2 on [A^2, 1].

    Uniform scan of ``ORACLE_GRID_SIZE`` points followed by golden-section
    refinement around the grid argmax (derivative-free; robust when the
    maximizer sits on the boundary x = A^2).  Returns (max value, argmax).
    """
    A = _check_unit_interval(A)

    def g(x):
        # t * t, not t ** 2: the scan and the scalar refinement round alike
        t = A / np.sqrt(x) + np.sqrt(x) / A
        return (1.0 - x) * (t * t)

    lo, hi = A * A, 1.0
    xs = np.linspace(lo, hi, ORACLE_GRID_SIZE)
    vals = g(xs)
    k = int(np.argmax(vals))
    left = xs[max(k - 1, 0)]
    right = xs[min(k + 1, ORACLE_GRID_SIZE - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = left, right
    c_ = b_ - invphi * (b_ - a_)
    d_ = a_ + invphi * (b_ - a_)
    for _ in range(90):
        if g(c_) > g(d_):
            b_ = d_
        else:
            a_ = c_
        c_ = b_ - invphi * (b_ - a_)
        d_ = a_ + invphi * (b_ - a_)
    x_star = 0.5 * (a_ + b_)
    # boundary maximizer: golden refinement cannot move below the grid edge
    if g(lo) >= g(x_star):
        x_star = lo
    return float(g(x_star)), float(x_star)


def uniqueness_density_bounds(a: float, b: float) -> tuple[float, float]:
    """Critical densities (time, frequency) for joint vanishing in E(a, b),
    the class with |f| <~ e^{-a pi x^2} and |fhat| <~ e^{-b pi xi^2}.

    Symmetric under swapping a and b, and the product of the two bounds equals
    1 - a*b exactly.  Raises DomainError unless a, b > 0 and a*b < 1.
    """
    if not (a > 0 and b > 0):
        raise DomainError(f"decay rates must be positive, got a={a}, b={b}")
    if not a * b < 1:
        raise DomainError(f"need a*b < 1, got a*b={a * b}")
    return float(np.sqrt(a * (1.0 / b - a))), float(np.sqrt(b * (1.0 / a - b)))
