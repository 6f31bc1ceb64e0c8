"""Closed-form density thresholds and the tail-spacing criticality classifier.

The sharp density parameters for sampled modulus problems with Gaussian decay
come in two flavours: a one-sided threshold (samples of |f| on a time set only)
and a weak-pair threshold (samples on both sides, asking whether both global
moduli can differ at once).  Both are explicit piecewise-algebraic functions of
the decay rate A.  This module also provides the split-parameter optimization
that produces the weak threshold, the Fourier uniqueness density bounds for the
Gaussian class E(a,b), and a finite-window estimator of the supercritical /
subcritical dichotomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sequences import SampledSet

SQRT2_INV = 1.0 / np.sqrt(2.0)
SQRT3_HALF = np.sqrt(3.0) / 2.0


class DomainError(ValueError):
    """Parameter outside the domain where a threshold formula is defined."""


@dataclass(frozen=True)
class DecayParams:
    """Gaussian decay rates (a, b): |f| <~ e^{-a pi x^2}, |fhat| <~ e^{-b pi xi^2}."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise DomainError(f"decay rates must be positive, got a={self.a}, b={self.b}")
        if not self.a * self.b < 1:
            raise DomainError(f"need a*b < 1, got a*b={self.a * self.b}")


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents (p, q) used by the criticality classifier."""

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p > 1 and self.q > 1):
            raise DomainError(f"exponents must exceed 1, got p={self.p}, q={self.q}")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12:
            raise DomainError(f"1/p + 1/q must equal 1, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class SplitDecayParams:
    """Split decay rates (a1, b1), (a2, b2) with the derived optimization variables.

    s, t are the rate sums, eta and nu the products, and x = sqrt(eta*nu) is the
    single variable the weak-pair bound is eventually optimized over.
    """

    a1: float
    a2: float
    b1: float
    b2: float

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "b1", "b2"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive")

    @property
    def s(self) -> float:
        return self.a1 + self.a2

    @property
    def t(self) -> float:
        return self.b1 + self.b2

    @property
    def eta(self) -> float:
        return self.a1 * self.a2

    @property
    def nu(self) -> float:
        return self.b1 * self.b2

    @property
    def x(self) -> float:
        return float(np.sqrt(self.eta * self.nu))

    @property
    def time_bound_sq(self) -> float:
        """S^2 = s(t/nu - s), the squared time-side density bound."""
        return self.s * (self.t / self.nu - self.s)

    @property
    def freq_bound_sq(self) -> float:
        """T^2 = t(s/eta - t), the squared frequency-side density bound."""
        return self.t * (self.s / self.eta - self.t)


@dataclass(frozen=True)
class CriticalityVerdict:
    """Finite-window verdict on the supercritical/subcritical dichotomy."""

    label: str  # "supercritical" | "subcritical" | "indeterminate"
    statistics: dict = field(default_factory=dict)  # half-line -> (liminf_est, limsup_est, margin)
    window: tuple = (0, 0)

    def __post_init__(self) -> None:
        if self.label not in ("supercritical", "subcritical", "indeterminate"):
            raise ValueError(f"unknown label {self.label!r}")


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
    on the top branch where the plain uniqueness threshold takes over.
    """
    A = _check_unit_interval(A)
    if A < 1.0 / 3.0:
        s = np.sqrt(1.0 - 8.0 * A * A)
        return float(np.sqrt((3.0 - s) ** 3 / (2.0 * (1.0 - s))))
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
    A above.  Defined for 0 < A < sqrt(3)/2; beyond that the constructions
    switch to the g == 0 branch.
    """
    A = float(A)
    if not 0.0 < A < SQRT3_HALF:
        raise DomainError(f"rate base defined for A in (0, sqrt(3)/2), got {A}")
    if A < SQRT2_INV:
        return 1.0 / (2.0 * A)
    return A


def weak_bound_oracle(A: float, grid_size: int = 4096) -> tuple[float, float]:
    """Brute-force maximization of (1-x)*(A/sqrt(x) + sqrt(x)/A)^2 on [A^2, 1].

    Uniform grid scan followed by golden-section refinement around the grid
    argmax (derivative-free; robust when the maximizer sits on the boundary
    x = A^2).  Returns (max value, argmax).
    """
    A = _check_unit_interval(A)
    if grid_size < 1000:
        raise ValueError(f"grid_size must be >= 1000, got {grid_size}")

    def g(x: np.ndarray) -> np.ndarray:
        return (1.0 - x) * (A / np.sqrt(x) + np.sqrt(x) / A) ** 2

    lo, hi = A * A, 1.0
    xs = np.linspace(lo, hi, grid_size)
    vals = g(xs)
    k = int(np.argmax(vals))
    left = xs[max(k - 1, 0)]
    right = xs[min(k + 1, grid_size - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = left, right
    c_ = b_ - invphi * (b_ - a_)
    d_ = a_ + invphi * (b_ - a_)
    for _ in range(90):
        if g(np.array([c_]))[0] > g(np.array([d_]))[0]:
            b_ = d_
        else:
            a_ = c_
        c_ = b_ - invphi * (b_ - a_)
        d_ = a_ + invphi * (b_ - a_)
    x_star = 0.5 * (a_ + b_)
    # boundary maximizer: golden refinement cannot move below the grid edge
    if g(np.array([lo]))[0] >= g(np.array([x_star]))[0]:
        x_star = lo
    return float(g(np.array([x_star]))[0]), float(x_star)


def uniqueness_density_bounds(params: DecayParams) -> tuple[float, float]:
    """Critical densities (time, frequency) for joint vanishing in E(a, b).

    Symmetric under swapping a and b, and the product of the two bounds equals
    1 - a*b exactly.
    """
    a, b = params.a, params.b
    return float(np.sqrt(a * (1.0 / b - a))), float(np.sqrt(b * (1.0 / a - b)))


def _half_line_spacing_stats(points: np.ndarray, p: float) -> np.ndarray:
    """Spacing statistics |x_j|^(p-1) * (x_{j+1} - x_j) along one half-line.

    Returned in outward order (tail toward infinity last).  The weight sits on
    the inner gap endpoint for the positive half and on the outer (more
    negative) endpoint for the negative half, matching the two-sided
    j -> +-inf convention.
    """
    if len(points) < 2:
        return np.empty(0)
    negative = points[0] < 0
    outward = np.sort(np.abs(points))
    gaps = np.diff(outward)
    weights = outward[1:] if negative else outward[:-1]
    return weights ** (p - 1.0) * gaps


def _tail_estimate(stats: np.ndarray, window: int) -> tuple[float, float, float]:
    """(liminf_conf, limsup_conf, margin) from the tail window of a statistic.

    Fits s_k ~ c0 + c1/k over the window and extrapolates to k -> inf.  The
    margin is the extrapolation distance plus fit noise, applied directionally:
    a statistic still drifting toward its limit widens the confidence interval
    instead of producing a false verdict, while a divergent statistic keeps a
    useful lower bound (its window minimum).
    """
    w = stats[-window:]
    n_tail = len(w)
    k = np.arange(len(stats) - n_tail + 1, len(stats) + 1, dtype=float)
    design = np.column_stack([np.ones(n_tail), 1.0 / k])
    coef, *_ = np.linalg.lstsq(design, w, rcond=None)
    limit = float(coef[0])
    resid = float(np.sqrt(np.mean((design @ coef - w) ** 2)))
    margin = abs(limit - float(w[-1])) + 2.0 * resid
    sup_conf = max(float(np.max(w)), limit + margin)
    inf_conf = max(min(float(np.min(w)), limit - margin), 0.0)
    return inf_conf, sup_conf, margin


def classify_pair(
    lam: SampledSet,
    mu: SampledSet,
    hp: HolderPair,
    bound: float = 0.5,
    window: int = 64,
) -> CriticalityVerdict:
    """Classify a sampling pair as supercritical, subcritical, or indeterminate.

    Estimates the tail limsup/liminf of the spacing statistic per half-line and
    tests alpha^(1/p) * beta^(1/q) against ``bound``.  Any finite-window
    estimate near the critical value is reported as indeterminate; the margins
    come from the tail drift and the extrapolation distance.
    """
    stats: dict = {}
    sup_parts: dict = {}
    inf_parts: dict = {}
    for name, s in (("lambda", lam), ("mu", mu)):
        for half_name, half in (("-", s.negative), ("+", s.positive)):
            if len(half) < window + 1:
                raise ValueError(
                    f"half-line {name}{half_name} has {len(half)} points, "
                    f"need at least {window + 1} for a window of {window}"
                )
            seq = _half_line_spacing_stats(half, hp.p if name == "lambda" else hp.q)
            inf_e, sup_e, marg = _tail_estimate(seq, window)
            stats[f"{name}{half_name}"] = (inf_e, sup_e, marg)
            sup_parts.setdefault(name, []).append(sup_e)
            inf_parts.setdefault(name, []).append(inf_e)

    alpha_up = max(sup_parts["lambda"])
    beta_up = max(sup_parts["mu"])
    alpha_low = max(min(inf_parts["lambda"]), 0.0)
    beta_low = max(min(inf_parts["mu"]), 0.0)

    up_stat = alpha_up ** (1.0 / hp.p) * beta_up ** (1.0 / hp.q)
    low_stat = alpha_low ** (1.0 / hp.p) * beta_low ** (1.0 / hp.q)

    if up_stat < bound:
        label = "supercritical"
    elif low_stat > bound:
        label = "subcritical"
    else:
        label = "indeterminate"
    return CriticalityVerdict(label=label, statistics=stats, window=(window, len(lam.points)))
