"""Growth-indicator estimation along rays and the indicator-level checks.

The order-2 indicator of a model is estimated as the slope of log|value|
against r^2 along the ray, using the upper envelope of windowed slopes (a
limsup is a sup of tail behaviour, so the max over sliding sub-windows is the
faithful finite-data surrogate; a single global fit would be dragged down by
oscillation dips near zero rays).  Rays through zeros, the tail's included, are
masked with shrinking exclusion disks of radius c/(1 + rho).

Order convention: Gaussian-bearing, quartic, or odd models are order-2 objects
of z and are sampled at z = r e^{i theta} with abscissa r^2.  A plain pure
product is treated as an object of its own squared variable: it is sampled at
w = r e^{i theta} with abscissa r, which is the same order-2 normalization
transported through z -> z^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .entire_models import ProductModel
from .sequences import SampledSet, separation_check


class AllMaskedError(ValueError):
    """Zero-exclusion mask removed every grid node."""


@dataclass(frozen=True)
class IndicatorEstimate:
    theta: float
    h_hat: float
    residual: float
    window: tuple
    n_masked: int = 0
    spread: float = 0.0  # slope spread across sub-windows; an uncertainty proxy

    @property
    def uncertainty(self) -> float:
        return self.residual + self.spread


def _is_order2_in_z(model: ProductModel) -> bool:
    return bool(model.quartic or model.gauss_rate != 0.0 or model.parity != 0)


def _on_zero_ray(model: ProductModel, zeros: np.ndarray, theta: float) -> bool:
    if len(zeros) == 0:
        return False
    # the zeros' rays folded to [0, pi): a quartic model's also lie on the imaginary axis
    zero_angles = [0.0, np.pi / 2.0] if model.quartic else [0.0]
    ang = abs((theta + np.pi) % np.pi)  # fold to [0, pi)
    return any(min(abs(ang - a), np.pi - abs(ang - a)) < 0.05 for a in zero_angles)


def _zero_ray_mask(zeros: np.ndarray, r: np.ndarray, on_zero_ray: bool) -> np.ndarray:
    """True where the node is kept; excludes disk neighbourhoods of zeros on the ray."""
    keep = np.ones(len(r), dtype=bool)
    if not on_zero_ray:
        return keep
    # half the measured separation keeps the exclusion disks disjoint
    c = 0.5 * (separation_check(SampledSet(points=zeros)) if len(zeros) >= 2 else 0.5)
    for rho in zeros:
        keep &= np.abs(r - rho) >= c / (1.0 + rho)
    return keep


def indicator_estimate(model: ProductModel, theta: float) -> IndicatorEstimate:
    """Estimate the ray growth rate of the model at angle theta.

    The ray is sampled out to 0.92 * 12 (order 2) or 0.92 * 40, at the zeros'
    gap midpoints on a zero ray; the slope is the upper envelope over 6
    half-overlapping sub-windows of the abscissa.
    """
    order2 = _is_order2_in_z(model)
    r_max = 0.92 * (12.0 if order2 else 40.0)
    # one unit past the grid covers the exclusion disks of zeros just beyond it
    zeros = model.zeros_upto(r_max + 1.0)
    r_lo = max(0.08 * r_max, 0.5)
    zs = zeros[(zeros > r_lo) & (zeros < r_max)]
    on_zero_ray = _on_zero_ray(model, zeros, theta)
    if on_zero_ray and len(zs) >= 9:
        # gap midpoints carry the product's envelope between the log dips
        r = 0.5 * (zs[:-1] + zs[1:])
    else:
        r = np.linspace(r_lo, r_max, 320)
    keep = _zero_ray_mask(zeros, r, on_zero_ray)
    pts = r * np.exp(1j * theta)
    y = model.log_abs(pts)
    keep &= np.isfinite(y)
    if not np.any(keep):
        raise AllMaskedError(f"mask removed all {len(r)} nodes at theta={theta}")
    t = (r * r if order2 else r)[keep]
    y = y[keep]
    n_masked = int(len(r) - len(t))

    # sliding windows over the abscissa range, upper envelope of fitted slopes
    lo, hi = float(np.min(t)), float(np.max(t))
    windows = 6
    width = (hi - lo) * 2.0 / (windows + 1)
    starts = lo + np.arange(windows) * (width / 2.0)
    sel = (t >= starts[:, None]) & (t <= starts[:, None] + width)
    sel = sel[np.count_nonzero(sel, axis=1) >= 4]
    if not len(sel):
        sel = np.ones((1, len(t)), dtype=bool)
    slopes, resids = _window_fits(sel, t, y)
    best = int(np.argmax(slopes))
    spread = float(np.max(slopes) - np.min(slopes))
    return IndicatorEstimate(theta=float(theta), h_hat=float(slopes[best]),
                             residual=float(resids[best]), window=(lo, hi),
                             n_masked=n_masked, spread=spread)


def _window_fits(sel: np.ndarray, t: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares slopes and RMS residuals of y against t, one per row of ``sel``.

    Each row's fit is taken about its own means: y reaches hundreds in
    magnitude along a ray, and uncentred sums would round away the residuals
    of nearly straight rows.
    """
    count = np.count_nonzero(sel, axis=1)
    dt = np.where(sel, t - (sel @ t / count)[:, None], 0.0)
    dy = np.where(sel, y - (sel @ y / count)[:, None], 0.0)
    slopes = np.einsum("ij,ij->i", dt, dy) / np.einsum("ij,ij->i", dt, dt)
    resid = dy - slopes[:, None] * dt
    return slopes, np.sqrt(np.einsum("ij,ij->i", resid, resid) / count)


def trig_convexity_check(estimates: list[IndicatorEstimate]) -> tuple[bool, float]:
    """Order-2 sine-interpolation convexity over all sampled angle triples.

    Estimate uncertainties are propagated through the interpolation
    coefficients, so nearly-degenerate spans (where the sine denominator
    vanishes and would amplify noise without bound) do not produce spurious
    violations; spans with denominator below 0.05 are skipped outright.
    Returns (ok, worst violation beyond the allowance, which includes a
    slack of 1e-9).
    """
    p, slack = 2.0, 1e-9
    est = sorted(estimates, key=lambda e: e.theta)
    worst = -np.inf
    n = len(est)
    for i in range(n):
        for k in range(i + 2, n):
            t1, t2 = est[i].theta, est[k].theta
            span = t2 - t1
            if not 0 < span < np.pi / p - 1e-12:
                continue
            denom = np.sin(p * span)
            if denom < 0.05:
                continue
            for j in range(i + 1, k):
                t = est[j].theta
                c1 = np.sin(p * (t2 - t)) / denom
                c2 = np.sin(p * (t - t1)) / denom
                bound = c1 * est[i].h_hat + c2 * est[k].h_hat
                allowance = (est[j].uncertainty + abs(c1) * est[i].uncertainty
                             + abs(c2) * est[k].uncertainty + slack)
                worst = max(worst, est[j].h_hat - bound - allowance)
    if worst == -np.inf:
        worst = 0.0
    return bool(worst <= 0.0), float(worst)


def measured_zero_plane_density(model: ProductModel) -> float:
    """Density of the model's zeros in the product's squared variable.

    For a quartic model with zeros following sqrt(m/D) the squared-variable
    zeros are linear with slope D, which is the coefficient multiplying
    pi*|sin 2 theta| in the model's indicator.  The fit runs over every zero,
    the tail's included, up to the last retained zero or 12, whichever is
    farther.
    """
    zeros = model.zeros_upto(max(model.zeros[-1] if len(model.zeros) else 0.0, 12.0))
    if len(zeros) < 4:
        return 0.0
    w = zeros**2 if model.quartic else zeros
    idx = np.arange(1, len(w) + 1, dtype=float)
    design = np.column_stack([w, np.ones_like(w)])
    coef, *_ = np.linalg.lstsq(design, idx, rcond=None)
    return float(coef[0])


def zero_density_indicator_check(model: ProductModel, density: float) -> tuple[bool, float]:
    """Check D pi sin(2 theta) + h(0) cos(2 theta) <= max{h(theta), h(-theta)}.

    ``density`` is D, the density of the model's positive real zeros in the
    squared variable.  The check runs at 13 angles over [0, pi/2] with an
    allowance of the three estimates' uncertainties plus 5% of max(1, |rhs|).
    Returns (ok, margin): margin is the worst allowance-adjusted gap,
    nonnegative iff the inequality held at every sampled angle.
    """
    p, slack = 2.0, 0.05
    h0 = indicator_estimate(model, 0.0)
    margin = np.inf
    ok = True
    for th in np.linspace(0.0, np.pi / p, 13):
        # at theta = 0 both rays are the real axis, whose estimate is h0: the
        # rays at +-0 differ only in the sign of zero imaginary parts
        hp_est, hm_est = ((h0, h0) if th == 0.0 else
                          (indicator_estimate(model, th), indicator_estimate(model, -th)))
        lhs = density * np.pi * np.sin(p * th) + h0.h_hat * np.cos(p * th)
        rhs = max(hp_est.h_hat, hm_est.h_hat)
        allowance = h0.uncertainty + hp_est.uncertainty + hm_est.uncertainty + slack * max(1.0, abs(rhs))
        gap = rhs + allowance - lhs
        margin = min(margin, gap)
        ok = ok and gap >= 0.0
    return bool(ok), float(margin)


def fourier_decay_predicate(model: ProductModel) -> float:
    """Fit the Gaussian envelope rate of the model's transform.

    The model's time decay is its Gaussian rate a and its indicator carries
    m pi |sin 2 theta| from the zeros, so its transform should decay at the
    rate b(m) = a/(a^2 + m^2).  The transform is evaluated at 48 equally
    spaced frequencies in [0.3, xi_max], where e^{-pi b(m) xi_max^2} =
    e^{-30}, and the rate is fitted to the upper envelope per xi^2 bin,
    which steps over oscillation dips.  Returns the fitted rate.
    """
    a = model.gauss_rate
    if a <= 0:
        raise ValueError("model needs a positive Gaussian rate")
    m = measured_zero_plane_density(model)

    t_win = float(np.sqrt(15.0 * np.log(10.0) / (a * np.pi))) + 1.0
    quad = fourier.QuadratureSpec(half_width=t_win, nodes=4096)
    rate_guess = a / (a * a + m * m)
    xi_max = float(np.sqrt(30.0 / (np.pi * rate_guess)))
    xi = np.linspace(0.3, xi_max, 48)
    res = fourier.transform(model.values, quad, xi)
    mags = np.abs(res.values)
    usable = mags > 30.0 * np.maximum(res.error, 1e-300)
    if np.count_nonzero(usable) < 10:
        raise fourier.InsufficientDataError("too few frequency samples above the quadrature noise")
    xi_u, mag_u = xi[usable], mags[usable]
    # the asymptotic rate emerges in the far field; drop the prefactor-dominated
    # inner range when enough outer samples survive
    outer = xi_u >= 0.55 * xi_u[-1]
    if np.count_nonzero(outer) >= 10:
        xi_u, mag_u = xi_u[outer], mag_u[outer]
    # upper envelope per xi^2 bin to step over sign-change dips
    nbins = 14
    edges = np.linspace(xi_u[0] ** 2, xi_u[-1] ** 2, nbins + 1)
    bx, by = [], []
    for i in range(nbins):
        sel = (xi_u**2 >= edges[i]) & (xi_u**2 <= edges[i + 1])
        if np.count_nonzero(sel):
            j = np.argmax(mag_u[sel])
            bx.append(xi_u[sel][j])
            by.append(np.log(mag_u[sel][j]))
    fit = fourier.envelope_fit(np.array(bx), np.array(by))
    return fit.rate
