"""Numerical Fourier transforms for rapidly decaying smooth evaluators.

Normalization: fhat(xi) = integral f(x) e^{-2 pi i x xi} dx.  For entire
integrands with Gaussian decay the periodized trapezoid rule on a uniform grid
is spectrally accurate, so the error estimate is heuristic: a Richardson
difference between node counts plus a tail bound from the fitted decay
envelope.  Estimates are diagnostics, not certified bounds.

``phase_sum`` is the one place a phase matrix exp(-+2 pi i x t) is formed:
the transforms here, the interpolation cross matrices, and the assembled
interpolants all reduce to its quadrature sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ToleranceNotMetError(RuntimeError):
    """Quadrature error estimate exceeded the requested tolerance."""

    def __init__(self, achieved: float, requested: float):
        super().__init__(f"quadrature error estimate {achieved:.3e} exceeds tolerance {requested:.3e}")
        self.achieved = achieved
        self.requested = requested


class DegenerateFitError(ValueError):
    """Envelope regression has a rank-deficient design."""


class InsufficientDataError(ValueError):
    """Too few finite samples for the requested fit."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Window, node count, and budget for the uniform-grid trapezoid transform."""

    half_width: float = 8.0
    nodes: int = 2048
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.nodes % 2 or self.nodes < 16:
            raise ValueError("node count must be even and >= 16")

    def grid(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.nodes + 1)

    def weights(self) -> np.ndarray:
        h = 2.0 * self.half_width / self.nodes
        w = np.full(self.nodes + 1, h)
        w[0] = w[-1] = h / 2.0
        return w


@dataclass(frozen=True)
class EnvelopeFit:
    """log|f(x)| ~ intercept - rate * pi * x^2 over the fitted window."""

    rate: float
    intercept: float
    residual: float
    window: tuple


@dataclass(frozen=True)
class TransformResult:
    xi: np.ndarray
    values: np.ndarray
    error: np.ndarray

    @property
    def max_error(self) -> float:
        return float(np.max(self.error)) if len(np.atleast_1d(self.error)) else 0.0


def envelope_fit(x: np.ndarray, log_mag: np.ndarray, weights: np.ndarray | None = None) -> EnvelopeFit:
    """Weighted least squares of log|f| against -pi*x^2.

    Non-finite samples are dropped (callers mask zeros beforehand).  Raises
    when fewer than 8 finite samples remain or when the x^2 design column is
    nearly constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(log_mag, dtype=float)
    finite = np.isfinite(y)
    x, y = x[finite], y[finite]
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)[finite]
    if len(x) < 8:
        raise InsufficientDataError(f"need >= 8 finite samples, got {len(x)}")
    col = -np.pi * x * x
    if np.std(col) < 1e-12 * max(1.0, np.max(np.abs(col))):
        raise DegenerateFitError("x^2 design column has near-zero variance")
    design = np.column_stack([np.ones_like(col), col])
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    fit = design @ coef
    resid = float(np.max(np.abs(fit - y)))
    return EnvelopeFit(rate=float(coef[1]), intercept=float(coef[0]), residual=resid,
                       window=(float(np.min(np.abs(x))), float(np.max(np.abs(x)))))


def _tail_bound(x: np.ndarray, fx: np.ndarray) -> float:
    """Bound on the neglected |x| > T mass from the fitted outer envelope."""
    t_edge = np.max(np.abs(x))
    outer = np.abs(x) >= 0.7 * t_edge
    mags = np.abs(fx[outer])
    live = mags > 0
    if np.count_nonzero(live) < 8:
        # no usable envelope: fall back to edge-value times window scale
        edge = np.abs(fx[np.argmax(np.abs(x))])
        return float(edge * t_edge)
    try:
        env = envelope_fit(x[outer][live], np.log(mags[live]))
    except (DegenerateFitError, InsufficientDataError):
        edge = np.abs(fx[np.argmax(np.abs(x))])
        return float(edge * t_edge)
    if env.rate <= 0:
        return float("inf")
    # 2 * int_T^inf e^{kappa - r pi x^2} dx <= e^{kappa - r pi T^2}/(pi r T)
    log_tail = env.intercept - env.rate * np.pi * t_edge**2
    return float(np.exp(log_tail) / (np.pi * env.rate * t_edge))


def phase_sum(values: np.ndarray, spec: QuadratureSpec, targets, inverse: bool = False,
              coeffs: np.ndarray | None = None, coarse: bool = False):
    """Quadrature sums sum_n w_n v(x_n) e^{-+2 pi i x_n t} over spec.grid().

    ``values`` holds node values on ``spec.grid()``, one function per row
    (shape (nodes+1,) or (k, nodes+1)); each result row holds that function's
    sums at the ``targets`` (real or complex), with the + sign when
    ``inverse``.  ``coeffs`` ((k,) or (k, r)) first combines the weighted
    rows, coeffs.T @ (w * values), so a linear combination costs one phase
    product.  With ``coarse`` the every-other-node sum (the half-count rule,
    the Richardson partner) is returned as well, taken from the same matrix.
    """
    sign = 2.0j * np.pi if inverse else -2.0j * np.pi
    # formed in place: one matrix-sized buffer instead of three temporaries,
    # with bit-for-bit the values of the out-of-place expression
    phases = np.outer(spec.grid(), targets).astype(complex, copy=False)
    phases *= sign
    np.exp(phases, out=phases)
    weighted = values * spec.weights()
    if coeffs is not None:
        weighted = coeffs.T @ weighted
    fine = weighted @ phases
    if not coarse:
        return fine
    # the half-count trapezoid weights are exactly twice the fine ones
    return fine, (2.0 * weighted[..., ::2]) @ phases[::2]


def transform_values(fx: np.ndarray, spec: QuadratureSpec, xi, inverse: bool = False,
                     strict: bool = False) -> TransformResult:
    """Transform from precomputed node values fx on spec.grid().

    Complex frequencies are allowed (the transform of a Gaussian-decaying
    integrand continues analytically off the real axis)."""
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=complex))
    fine, coarse = phase_sum(fx, spec, xi_arr, inverse=inverse, coarse=True)
    err = np.abs(fine - coarse) + _tail_bound(spec.grid(), fx)
    if strict and float(np.max(err)) > spec.tolerance:
        raise ToleranceNotMetError(float(np.max(err)), spec.tolerance)
    return TransformResult(xi=xi_arr, values=fine, error=err)


def transform(f, spec: QuadratureSpec, xi, inverse: bool = False, strict: bool = False) -> TransformResult:
    """Numerical Fourier transform of an evaluator f over [-T, T].

    ``f`` must accept an ndarray of points and return complex values.  With
    ``strict`` the transform raises when its own error estimate misses the
    spec tolerance.
    """
    fx = np.asarray(f(spec.grid()), dtype=complex)
    return transform_values(fx, spec, xi, inverse=inverse, strict=strict)


@dataclass(frozen=True)
class HardyReport:
    passed: bool
    time_ok: bool
    freq_ok: bool
    sup_time: float
    sup_freq: float


def _side_check(grid: np.ndarray, vals: np.ndarray, rate: float,
                floor: float) -> tuple[bool, float]:
    """Sup of |f| e^{rate pi x^2} with a stabilization test on the outer third."""
    mags = np.abs(vals)
    keep = mags > floor
    if np.count_nonzero(keep) < 6:
        return False, float("inf")
    order = np.argsort(np.abs(grid[keep]))
    r = np.abs(grid[keep])[order]
    with np.errstate(divide="ignore"):
        stat_log = np.log(mags[keep])[order] + rate * np.pi * r * r
    if not np.all(stat_log < np.inf):
        return False, float("inf")
    running = np.maximum.accumulate(stat_log)
    cut = int(2 * len(r) / 3)
    stabilized = running[-1] <= running[cut] + 1e-12
    return bool(stabilized), float(np.exp(running[-1]))


def hardy_check(f_vals: np.ndarray, fhat_vals: np.ndarray, rate: float,
                x_grid: np.ndarray, xi_grid: np.ndarray,
                floor: float = 0.0) -> HardyReport:
    """Empirical Gaussian-class membership test at the given rate.

    Passes iff both weighted statistics are finite and attain their running
    sup before the outer third of the grid (non-increasing trend).  ``floor``
    drops grid values at or below a caller-declared noise level, so quadrature
    noise on the transform side cannot masquerade as growth; it defaults to
    keeping everything.
    """
    t_ok, sup_t = _side_check(np.asarray(x_grid), np.asarray(f_vals), rate, floor)
    f_ok, sup_f = _side_check(np.asarray(xi_grid), np.asarray(fhat_vals), rate, floor)
    return HardyReport(passed=t_ok and f_ok, time_ok=t_ok, freq_ok=f_ok,
                       sup_time=sup_t, sup_freq=sup_f)
