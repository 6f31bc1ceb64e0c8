"""Gaussian-times-canonical-product models with exact Gamma-function tails.

A model is z^sigma * e^{-gamma pi z^2} * P(z), where P is an even product
over prescribed positive zeros, so it is real on the real line.  Two product
kinds are supported:

* plain:   P(z) = prod (1 - z^2/rho_n^2), zeros at +-rho_n (sinc family);
* quartic: P(z) = prod (1 - z^4/rho_n^4), zeros at +-rho_n and +-i rho_n.

The quartic kind is the computable form of even products taken in the squared
variable: writing w = z^2, it is a plain product in w with zeros rho_n^2, which
is how the constructions put prescribed real zeros on functions of order two
without giving up a convergent product.

Past its retained zeros a product may continue regularly from m0 on, at
rho_m = sqrt(m/D) (quartic) or rho_m = m/D (plain).  In the product variable
w = D z^2 (quartic) or w = D z (plain) that continuation is exactly
prod_{m >= m0} (1 - w^2/m^2) = Gamma(m0)^2 / (Gamma(m0 - w) Gamma(m0 + w))
(DLMF 5.8.5): a Hurwitz-zeta series near the origin, log-Gamma beyond, so the
only error is rounding.  Both are computed here with numpy: log Gamma from
Stirling's series (DLMF 5.11.1) for Binet's function, carried to small
arguments by its one-step recurrence and to the left half-plane by reflection
(DLMF 5.5.3); zeta(2k, m0) by a direct sum and the Euler-Maclaurin remainder
(DLMF 2.10.1).  Evaluation is carried out in a scaled
mantissa/log-magnitude representation so that retained zeros evaluate to an
exact 0 and Gaussian factors spanning hundreds of orders of magnitude never
overflow.

A call multiplies out only the retained factors (1 - s/R_n) within its reach,
R_n < 4 max|s| in s = z^2 (plain) or z^4 (quartic); those are the only ones
that can vanish.  The retained factors past the reach enter together through
one log power series in t = s/R_{n0}, |t| <= 1/4, the rule the regular tail
uses near the origin, so a call costs about (near zeros + series terms) x
points.  Calls with fewer points or far zeros than series terms multiply every
factor out.

A call's time goes more to numpy calls than to arithmetic, so the kernel makes
few: near factors are formed in blocks of whole chunks and the renormalisation
after each chunk takes a mask only once a mantissa has vanished, both with the
bits of one chunk at a time, and the tail series is summed in place with
``np.polyval``'s bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .jsonfile import json_numbers, json_value

LOG_HUGE = 700.0  # conservative double-precision overflow threshold for exp
_FACTOR_BLOCK = 1 << 16  # entries of one block of product factors (1 MiB complex)
POINT_RANGE = 1e75  # largest |x| a run evaluates at: z^4 is 1e300, in most models' range

# -- log-Gamma and Hurwitz zeta ----------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_24
_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                       -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                       -236364091 / 2730])
_TWO_K = 2.0 * np.arange(1, len(_BERNOULLI) + 1)
# B_2k/(2k(2k - 1)): the coefficient of w^(1 - 2k) in Stirling's series
_STIRLING = _BERNOULLI / (_TWO_K * (_TWO_K - 1.0))
_STIRLING_CONST = 0.5 * math.log(2.0 * math.pi) - 0.5
_LOG_PI = math.log(math.pi)
# Stirling's series is summed where |w| >= 7; smaller arguments are shifted
_STIRLING_MIN = 7.0
# the smallest |w| at which k terms of the series reach 2e-17, k = 1..11
_STIRLING_REACH = tuple(float((abs(c) / 2e-17) ** (1.0 / (k - 1.0)))
                        for c, k in zip(_STIRLING[1:], _TWO_K[1:]))


def _binet_series(w: np.ndarray, r: float) -> np.ndarray:
    """Binet's function J(w) = log Gamma(w) - (w - 1/2) log w + w - log(2 pi)/2
    by Stirling's series (DLMF 5.11.1), for |w| >= r >= 7 off the negative
    real axis; the series stops where its next term falls under 2e-17 at r."""
    terms = next((k for k, reach in enumerate(_STIRLING_REACH, 1) if r >= reach),
                 len(_STIRLING))
    u = 1.0 / w
    v = u * u
    powers = np.empty((terms,) + w.shape, dtype=w.dtype)
    powers[0] = u
    for k in range(1, terms):
        np.multiply(powers[k - 1], v, out=powers[k])
    return _STIRLING[:terms] @ powers


def _log_gamma_right(u: np.ndarray) -> np.ndarray:
    """Principal log Gamma(u), real or complex, for Re u >= 1/2 or |u| >= 7.

    log Gamma(u) = (u - 1/2) log u - u + log(2 pi)/2 + J(u) with Binet's J.
    Where |u| < 7, J(u) = J(u + n) + sum_{j < n} B(u + j) from
    log Gamma(w + 1) = log Gamma(w) + log w, with n taking Re u past 7, and
    B(w) = (w + 1/2) log(1 + 1/w) - 1 = atanh(t)/t - 1, t = 1/(2w + 1).
    Each B is small, and so is every term at small |u|, so log Gamma keeps
    its absolute accuracy around its zeros 1 and 2, where a shifted Stirling
    sum and the logs of the shift would cancel.
    """
    r = np.abs(u)
    if np.iscomplexobj(u):
        # numpy's complex log is several times slower than this
        log_u = np.empty_like(u)
        log_u.real = np.log(r)
        log_u.imag = np.arctan2(u.imag, u.real)
    else:
        log_u = np.log(u)
    out = (u - 0.5) * (log_u - 1.0) + _STIRLING_CONST
    lift = r < _STIRLING_MIN
    if not lift.any():
        return out + _binet_series(u, float(r.min(initial=np.inf)))
    ul = u[lift]
    count = math.floor(_STIRLING_MIN - float(ul.real.min())) + 1
    out += _binet_series(np.where(lift, u + count, u), _STIRLING_MIN)
    t = 1.0 / ((2.0 * ul + 1.0)[:, None] + 2.0 * np.arange(count))
    out[lift] += (np.arctanh(t) / t - 1.0).sum(axis=1)
    return out


def _log_gamma_complex(z: np.ndarray) -> np.ndarray:
    """Principal log Gamma(z) for complex z, the branch of
    ``scipy.special.loggamma``: continuous off the negative real axis and real
    on the positive one.

    Left of Re z = 1/2 (with |Im z| <= 7) it reflects, DLMF 5.5.3:
    log pi - log sin(pi z) - log Gamma(1 - z), plus the 2 pi i
    floor(Re z/2 + 1/4) that puts the principal logs on the continuous
    branch.  sin(pi z) is (-1)^n sin(pi (z - n)) with n = round(Re z), so its
    argument is exact and it keeps its relative accuracy near the poles.
    """
    z = np.asarray(z, dtype=complex)
    reflect = (z.real < 0.5) & (np.abs(z.imag) <= _STIRLING_MIN)
    if not reflect.any():
        return _log_gamma_right(z)
    zr = z[reflect]
    u = z.copy()
    u[reflect] = 1.0 - zr
    out = _log_gamma_right(u)
    n = np.rint(zr.real)
    log_sin = np.log(np.power(-1.0, n) * np.sin(np.pi * (zr - n)))
    branch = np.copysign(2.0 * np.pi, zr.imag) * np.floor(0.5 * zr.real + 0.25)
    out[reflect] = (_LOG_PI + 1j * branch) - log_sin - out[reflect]
    return out


def _log_gamma_real(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log |Gamma(x)|, sign of Gamma(x)) for real x; (inf, 0) at the poles
    x = 0, -1, -2, ...

    Left of 1/2, with x = r - n and r in [-1/2, 1/2]:
    Gamma(x) = Gamma(1 + r)/(x (x + 1) ... (x + n)), every factor exact, for
    n <= 30, so that the log stays accurate near the poles, where the logs of
    the reflection formula would cancel; beyond, the reflection
    log |Gamma(x)| = log pi - log |sin pi r| - log Gamma(1 - x) (DLMF 5.5.3).
    """
    x = np.asarray(x, dtype=float)
    sign = np.ones_like(x)
    left = x < 0.5
    if not np.any(left):
        return _log_gamma_right(x), sign
    n = -np.rint(x)
    r = x + n
    near = left & (n <= 30.0)
    far = n > 30.0
    out = _log_gamma_right(np.where(near, 1.0 + r, np.where(far, 1.0 - x, x)))
    with np.errstate(divide="ignore"):
        if np.any(near):
            nn = n[near]
            j = np.arange(nn.max() + 1.0)
            factors = np.where(j <= nn[:, None], x[near][:, None] + j, 1.0).prod(axis=1)
            out[near] -= np.log(np.abs(factors))
            sign[near] = np.sign(factors)
        if np.any(far):
            sin = np.sin(np.pi * r[far])
            out[far] = _LOG_PI - np.log(np.abs(sin)) - out[far]
            sign[far] = np.sign(sin) * np.power(-1.0, n[far])
    return out, sign


def _hurwitz_zeta(s: np.ndarray, a: float) -> np.ndarray:
    """Hurwitz zeta(s, a) = sum_{n >= 0} (a + n)^-s for real s > 1 and a >= 1.

    The first eight terms summed directly, the rest by Euler-Maclaurin
    summation (DLMF 2.10.1) at M = a + 8:
    M^(1-s)/(s-1) + M^-s/2 + sum_j B_2j/(2j)! (s)_(2j-1) M^(1-s-2j), j <= 12.
    For s <= 60 the first term left out is below 1e-19 of the sum, which is
    at least a^-s.
    """
    s = np.asarray(s, dtype=float)
    big = a + 8.0
    direct = ((a + np.arange(8.0)) ** -s[:, None]).sum(axis=1)
    # (s)_{2j-1}/((2j)! M^(2j-1)), j = 1..12, as s/(2M) times the ratios
    # (s + 2j - 1)(s + 2j)/((2j + 1)(2j + 2) M^2) of consecutive terms
    ratios = np.empty((s.size, len(_BERNOULLI)))
    ratios[:, 0] = s / (2.0 * big)
    odd = s[:, None] + (_TWO_K[:-1] - 1.0)
    np.multiply(odd, odd + 1.0, out=ratios[:, 1:])
    ratios[:, 1:] *= 1.0 / ((_TWO_K[:-1] + 1.0) * (_TWO_K[:-1] + 2.0) * (big * big))
    np.cumprod(ratios, axis=1, out=ratios)
    edge = big ** -s
    return direct + big * edge / (s - 1.0) + edge * (0.5 + ratios @ _BERNOULLI)


@functools.lru_cache(maxsize=64)
def _tail_series(m0: int) -> np.ndarray:
    """Coefficients zeta(2k, m0)/k, k = 30..1, of -log(tail)/w^2 in powers of
    w^2; 30 terms reach rounding level for |w| <= m0/2.  Cached, read-only:
    the models of one run mostly share their m0."""
    k = np.arange(30, 0, -1)
    out = _hurwitz_zeta(2.0 * k, m0) / k
    out.flags.writeable = False
    return out


class NotAZeroError(ValueError):
    """Requested zero is not retained in the model."""


@dataclass(frozen=True)
class EvalResult:
    """Model value plus its log-magnitude and rounding error estimate.

    ``log_magnitude`` is the natural log of |value| (-inf at exact zeros) and
    stays finite where the value itself is not representable and reads inf.
    """

    value: np.ndarray
    log_magnitude: np.ndarray
    error_bound: np.ndarray


@dataclass(frozen=True)
class ProductModel:
    """Entire function z^parity * e^{-gauss_rate*pi*z^2} * product.

    ``zeros`` are the retained positive zeros, strictly increasing.  A
    ``tail_start`` m0 > 0 continues the product past them with the factors
    (1 - w^2/m^2), m >= m0, in w = tail_scale * z^2 (quartic) or
    tail_scale * z (plain); m0 = 0 means a finite product.
    """

    zeros: np.ndarray = field(default_factory=lambda: np.empty(0))
    gauss_rate: float = 0.0
    parity: int = 0
    tail_start: int = 0
    tail_scale: float = 1.0
    quartic: bool = False

    def __post_init__(self) -> None:
        z = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", z)
        if len(z) and (np.any(z <= 0) or np.any(np.diff(z) <= 0)):
            raise ValueError("zeros must be strictly increasing and positive")
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity}")
        if self.gauss_rate < 0:
            raise ValueError("gauss_rate must be >= 0")
        if self.tail_start < 0 or (self.tail_start and not 0 < self.tail_scale < np.inf):
            raise ValueError("tail_start must be >= 0, and a tail's scale positive and finite")
        with np.errstate(over="ignore", divide="ignore"):  # squaring such a zero overflows
            poles = self._factor_poles
            bad = ~(np.isfinite(poles) & np.isfinite(1.0 / poles))
        if bad.any():
            raise ValueError(f"the zero {z[bad][0]} has the factor pole {poles[bad][0]:.3g}; "
                             "a pole and its reciprocal must be finite doubles")

    # -- internal squared-variable data ------------------------------------

    @cached_property
    def _factor_poles(self) -> np.ndarray:
        """R_n in the factor (1 - s/R_n); computed as nested squares so that
        evaluation at a retained zero cancels bitwise."""
        q = self.zeros * self.zeros
        return q * q if self.quartic else q

    def _s_of(self, z: np.ndarray) -> np.ndarray:
        u = z * z
        return u * u if self.quartic else u

    def _log_tail(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray | float, np.ndarray]:
        """(log, sign, size) of prod_{m >= m0} (1 - w^2/m^2).

        The log is real for real ``w``; off the real axis its imaginary part
        is the tail's phase.  On the real axis (imaginary part exactly 0, in
        either dtype) the tail's sign is returned apart, 0 at its zeros.
        ``size``, the magnitude of the summed terms, sets the log's rounding.
        """
        m0 = self.tail_start
        far = np.abs(w) > 0.5 * m0
        near = np.where(far, 0.0, w)
        near = near * near
        # term k is below (m0 + 1) q^k, q = |w|^2/m0^2 <= 1/4: stop where that
        # falls under 1e-17; with its factor 1/(k(2k - 1)) counted, 30 terms
        # reach 1e-17 at q = 1/4 for any m0 below 40000
        q = max(float(np.max(np.abs(near), initial=0.0)) / m0**2, 1e-300)
        terms = min(30, max(1, math.ceil(math.log(1e-17 / (m0 + 1)) / math.log(q))))
        # Horner in place, with np.polyval's operations and bits
        coeffs = _tail_series(m0)[-terms:]
        acc = np.full_like(near, coeffs[0])
        for c in coeffs[1:]:
            acc *= near
            acc += c
        out = -near * acc
        size = np.abs(out)
        if not np.any(far):
            return out, 1.0, size
        wf = w[far]
        axis = np.imag(wf) == 0.0
        lo, hi = np.empty_like(wf), np.empty_like(wf)
        sign_far = np.ones(wf.shape)
        # one helper call per kind for both arguments m0 -+ w
        x = np.real(wf[axis])
        if x.size:
            lg, sg = _log_gamma_real(np.concatenate([m0 - x, m0 + x]))
            lo[axis], hi[axis] = lg[: x.size], lg[x.size:]
            # the sign is +0 at the poles, which are the tail's zeros
            sign_far[axis] = sg[: x.size] * sg[x.size:] + 0.0
        off = wf[~axis]
        if off.size:
            lg = _log_gamma_complex(np.concatenate([m0 - off, m0 + off]))
            lo[~axis], hi[~axis] = lg[: off.size], lg[off.size:]
        sign = np.ones(w.shape)
        log_m0 = 2.0 * math.lgamma(m0)
        out[far], sign[far] = log_m0 - lo - hi, sign_far
        size[far] = log_m0 + np.abs(lo) + np.abs(hi)
        return out, sign, size

    # -- evaluation ----------------------------------------------------------

    def _far_log(self, s: np.ndarray, top: float, skip: np.ndarray | None
                 ) -> tuple[int, np.ndarray | None]:
        """(n0, log of prod_{n >= n0} (1 - s/R_n)) for the factors beyond the points' reach.

        n0 is the first factor with R_n >= 4 ``top`` (``top`` = max |s|),
        raised past every skip index.  With t = s/R_{n0} and r_n = R_{n0}/R_n
        <= 1 the log is -sum_j t^j c_j, c_j = sum_{n >= n0} r_n^j / j, the
        |q| <= 1/4 power-series rule of the regular tail.  Term j is below
        N q^j for the N far factors and q = max |t|; the series stops where
        that falls under 1e-17.  It costs N x terms for the coefficients and
        points x terms for the sum, against N x points for the factors, so it
        is taken only when both N and the points outnumber the terms; else
        the log is None and n0 is the factor count.
        """
        poles = self._factor_poles
        n = len(poles)
        n0 = int(np.searchsorted(poles, 4.0 * top))
        if skip is not None:
            n0 = max(n0, int(skip.max(initial=-1)) + 1)
        far = n - n0
        if far < 2 or s.size < 2:
            return n, None
        q = max(top / poles[n0], 1e-300)
        terms = max(1, math.ceil(math.log(1e-17 / far) / math.log(q)))
        if min(far, s.size) <= terms:
            return n, None
        r = poles[n0] / poles[n0:]
        coeffs = np.cumprod(np.broadcast_to(r, (terms, far)), axis=0).sum(axis=1)
        coeffs /= np.arange(1, terms + 1)
        # Horner in t, scaled by a reciprocal multiply like the factors
        t = s * (1.0 / poles[n0])
        acc = np.full_like(t, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= t
            acc += c
        acc *= -t
        return n0, acc

    def _scaled_product(self, s: np.ndarray, skip: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Product of retained factors as (mantissa, log-scale) at a 1-D array ``s``.

        The mantissa is real for real ``s`` and complex otherwise.  ``skip``
        holds one factor index per point (-1 for none); that factor is taken
        as exactly 1, which removes a vanishing factor without a second loop.

        Factors within the points' reach (``_far_log``'s n0) are multiplied
        out.  They are formed points-major, (factors, points), in blocks of
        whole chunks of at most _FACTOR_BLOCK entries (one chunk where a chunk
        alone is larger), so a block is one subtract, one reciprocal multiply
        and one skip fix-up across all its points, and memory stays linear in
        the points.  Each chunk is reduced by ``np.multiply.reduce`` over its
        rows, a C-contiguous slice of the block, which multiplies each point's
        factors in index order, as a row-wise product would.  The mantissa is
        then renormalised into preallocated arrays; the ufuncs take a mask only
        once some mantissa is exactly 0, so that only the nonzero ones take a
        log and a reciprocal.  The factors beyond the reach enter through
        their log series.
        """
        m = np.ones(s.size, dtype=s.dtype)
        e = np.zeros(s.size)
        poles = self._factor_poles
        if len(poles) == 0:
            return m, e
        top = float(np.abs(s).max(initial=0.0))
        # chunk size keeps each partial product far from overflow
        chunk = int(min(max(200.0 / max(np.log10(1.0 + top / poles[0]), 1.0), 1), 64))
        inv = 1.0 / poles
        n, far_log = self._far_log(s, top, skip)
        rows = chunk * max(1, _FACTOR_BLOCK // (chunk * max(s.size, 1)))
        block = np.empty((min(rows, n), s.size), dtype=s.dtype)
        a, log_a = np.empty(s.size), np.empty(s.size)
        mask = np.empty(s.size, dtype=bool)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            factors = block[: stop - start]
            # (rho^2 - s)/rho^2 via reciprocal multiply: complex division is not
            # correctly rounded, and retained zeros must cancel to an exact 0
            np.subtract(poles[start:stop, None], s, out=factors)
            factors *= inv[start:stop, None]
            if skip is not None:
                cols = np.flatnonzero((skip >= start) & (skip < stop))
                factors[skip[cols] - start, cols] = 1.0
            for first in range(0, stop - start, chunk):
                # the ufunc reductions behind np.prod and ndarray.min, without
                # their Python wrappers, which cost more than a few points' work
                m *= np.multiply.reduce(factors[first:first + chunk], axis=0)
                np.abs(m, out=a)
                # a mask only once a mantissa has vanished, at a retained zero
                positive = np.minimum.reduce(a, initial=1.0) > 0.0
                live = True if positive else np.greater(a, 0.0, out=mask)
                np.log(a, out=log_a, where=live)
                np.add(e, log_a, out=e, where=live)
                # numpy divides complex by real as a reciprocal multiply; doing
                # so explicitly keeps real and complex points bit-identical
                np.divide(1.0, a, out=a, where=live)
                np.multiply(m, a, out=m, where=live)
        if far_log is not None:
            # a retained zero's log-scale stops where its mantissa vanished
            np.add(e, far_log.real, out=e, where=m != 0)
            if np.iscomplexobj(far_log):
                m *= np.exp(1j * far_log.imag)
        return m, e

    def _smooth_log(self, z: np.ndarray) -> tuple[np.ndarray | float, np.ndarray, np.ndarray]:
        """(mantissa factor, log-scale, log-term size) of parity, Gaussian and
        tail; the factor is real at real points, where the phase is 0."""
        u = z * z
        log_scale = -self.gauss_rate * np.pi * np.real(u)
        arg = -self.gauss_rate * np.pi * np.imag(u)
        size = self.gauss_rate * np.pi * np.abs(u)
        m = 1.0
        if self.tail_start:
            tail, m, tail_size = self._log_tail(self.tail_scale * (u if self.quartic else z))
            log_scale = log_scale + np.real(tail)
            arg = arg + np.imag(tail)
            size = size + tail_size
        if np.iscomplexobj(z):
            m = np.exp(1j * arg) * m
        if self.parity:
            m = m * z
        return m, log_scale, size

    @cached_property
    def point_range(self) -> float:
        """The model's range: the largest |z| at which s/min(1, R_1) and
        (gauss_rate pi + tail_scale) |z^2|, which bounds the Gaussian's exponent
        and the tail's argument, stay within 1e304, the largest double less
        room for sums."""
        c = float(self.gauss_rate) * math.pi + (float(self.tail_scale) if self.tail_start else 0.0)
        r = (1e304 * min([1.0, *self._factor_poles[:1]])) ** (0.25 if self.quartic else 0.5)
        return float(min(r, math.sqrt(1e304 / c) if c else math.inf))

    def eval(self, z: np.ndarray) -> EvalResult:
        """Evaluate the model at a 1-D array of real or complex points.

        Real points stay in real arithmetic until the value is cast to
        complex, and the values are those at the points cast to complex.
        Raises ValueError naming the first point (NaN too) past ``point_range``.
        """
        z = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
        inside = np.abs(z) <= self.point_range
        if not inside.all():
            raise ValueError(f"z = {z[~inside][0]} is past the model's range "
                             f"|z| <= {self.point_range:.3g}")
        m, e = self._scaled_product(self._s_of(z))
        m2, e2, size = self._smooth_log(z)
        # rounding: half an ulp per retained factor, and a few ulps of each
        # log term summed into the scale, where terms of that size cancel
        err = 5e-16 * max(len(self.zeros), 1) + 1e-15 * (np.abs(e) + size)
        m = m * m2
        e = e + e2
        a = np.abs(m)
        dead = a == 0.0
        with np.errstate(divide="ignore"):
            log_mag = np.where(a > 0, np.log(a + dead) + e, -np.inf)
        overflow = log_mag > LOG_HUGE
        with np.errstate(over="ignore", under="ignore"):
            value = (m * np.exp(np.where(overflow | dead, 0.0, e))).astype(complex, copy=False)
        value[overflow] = np.inf
        return EvalResult(value, log_mag, err)

    def values(self, z) -> np.ndarray:
        """Plain complex values (overflow points become inf)."""
        return self.eval(z).value

    def log_abs(self, z) -> np.ndarray:
        """log |model(z)|; -inf at exact zeros, finite even where exp overflows."""
        return self.eval(z).log_magnitude

    # -- zeros, derivatives, divided basis ----------------------------------

    def zeros_upto(self, radius: float) -> np.ndarray:
        """All retained zeros merged with the tail's positive zeros up to ``radius``."""
        if not self.tail_start:
            return self.zeros
        top = self.tail_scale * (radius * radius if self.quartic else radius)
        m = np.arange(self.tail_start, math.floor(top) + 1, dtype=float)
        rho = np.sqrt(m / self.tail_scale) if self.quartic else m / self.tail_scale
        return np.union1d(self.zeros, rho[rho <= radius])

    def _zero_index(self, lam: np.ndarray) -> np.ndarray:
        """Indices of the retained zeros matching |lam|; raises for any other value."""
        mag = np.abs(lam)
        z = np.append(self.zeros, np.inf)  # sentinel past the last zero
        hi = np.minimum(np.searchsorted(z, mag), len(z) - 1)
        lo = np.maximum(hi - 1, 0)
        k = np.where(mag - z[lo] <= z[hi] - mag, lo, hi)
        miss = ~(np.abs(z[k] - mag) <= 1e-12 * np.maximum(1.0, mag))
        if np.any(miss):
            raise NotAZeroError(f"{lam[miss][0]} is not a retained zero of the model")
        return k

    def derivative_at_zero(self, lam: np.ndarray) -> np.ndarray:
        """Exact product-rule derivatives, real, at a 1-D array of retained
        real zeros lam = +-rho_k, all from one pass of the product with each
        point's vanishing factor skipped."""
        k = self._zero_index(lam)
        rho = self.zeros[k]
        sign = np.where(lam >= 0, 1.0, -1.0)
        z = sign * rho
        m, e = self._scaled_product(self._s_of(z), skip=k)
        m2, e2, _ = self._smooth_log(z)
        dfactor = -sign * (4.0 if self.quartic else 2.0) / rho
        return dfactor * (m * m2 * np.exp(e + e2))

    def divided_basis_eval(self, lam: np.ndarray, z: np.ndarray, deriv: np.ndarray) -> np.ndarray:
        """Cardinal function model(z) / (model'(lam) * (z - lam)).

        The vanishing factor is cancelled against (z - lam) algebraically, so
        the removable singularity never appears; the result is 1 at lam and 0
        at every other retained zero.  ``lam``, ``z`` and ``deriv`` are 1-D
        arrays of one length, ``deriv`` holding model'(lam) as
        ``derivative_at_zero`` gives it: every point comes from one pass of
        the product with its own vanishing factor skipped.  The result is
        real at real ``z``; dividing by ``deriv`` as a reciprocal multiply
        gives the bits of numpy's complex division by deriv + 0j.
        """
        k = self._zero_index(lam)
        rho = self.zeros[k]
        sign = np.where(lam >= 0, 1.0, -1.0)
        u = z * z
        q = rho * rho
        # (1 - u/q) / (z -+ rho) = -(z +- rho)/q
        ratio = -(z + sign * rho) * (1.0 / q)
        if self.quartic:
            ratio = ratio * (1.0 + u * (1.0 / q))
        m, e = self._scaled_product(self._s_of(z), skip=k)
        m2, e2, _ = self._smooth_log(z)
        return ratio * m * m2 * np.exp(e + e2) * (1.0 / deriv)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """The model's JSON object, as pair and model files store it."""
        return {
            "c_re": 1.0,
            "c_im": 0.0,
            "theta": 0.0,
            "gamma": float(self.gauss_rate),
            "sigma": int(self.parity),
            "zeros": self.zeros.tolist(),
            "tail_start": int(self.tail_start),
            "tail_scale": float(self.tail_scale),
            "meta": {"quartic": bool(self.quartic)},
        }

    @staticmethod
    def from_dict(obj: dict) -> "ProductModel":
        """The model ``to_dict`` described, from its parsed JSON object."""
        json_value(obj, dict, "a model")
        for key in ("T2", "T4"):
            if key in obj:
                raise ValueError(f"model JSON carries the truncated-tail key {key!r} of the "
                                 "old format; rebuild the pair with `construct`")
        for key, value in (("c_re", 1.0), ("c_im", 0.0), ("theta", 0.0)):
            if json_value(obj[key], float, f"a model's {key!r}") != value:
                raise ValueError(f"model JSON sets {key!r} to {obj[key]!r}; the models "
                                 f"are real, with {key} = {value}")
        # other meta entries, such as the "family" of older sinc files, are labels
        meta = json_value(obj.get("meta", {}), dict, "a model's meta")
        return ProductModel(
            zeros=json_numbers(obj["zeros"], "a model's 'zeros'"),
            gauss_rate=json_value(obj["gamma"], float, "a model's 'gamma'"),
            parity=json_value(obj["sigma"], int, "a model's 'sigma'"),
            tail_start=json_value(obj["tail_start"], int, "a model's 'tail_start'"),
            tail_scale=json_value(obj["tail_scale"], float, "a model's 'tail_scale'"),
            quartic=json_value(meta.get("quartic", False), bool, "a model's meta 'quartic'"),
        )


# -- builders ---------------------------------------------------------------


def sinc_product(count: int = 2000) -> ProductModel:
    """sin(pi z)/(pi z): ``count`` retained integer zeros and the exact tail."""
    n = np.arange(1, count + 1, dtype=float)
    return ProductModel(zeros=n, tail_start=count + 1)


def profile_tail_start(last: float, half_density: float, first: int = 1) -> int:
    """First m >= ``first`` whose profile zero sqrt(m/D) lies past ``last``.

    The margin of 1e-12 keeps the tail's first zero off a last zero that sits
    on the profile itself, where floor(D last^2) + 1 can round to that zero's
    own index.
    """
    last = last * (1.0 + 1e-12)
    m = max(first, int(half_density * last * last))
    while np.sqrt(m / half_density) <= last:
        m += 1
    return m


def profile_product(zeros: np.ndarray, half_density: float, gauss_rate: float = 0.0,
                    parity: int = 0) -> ProductModel:
    """Quartic model vanishing at +-zeros (and +-i zeros), continued exactly
    along the square-root profile sqrt(m/D) from the first m >= len(zeros) + 1
    whose zero lies past the last given one."""
    zeros = np.asarray(zeros, dtype=float)
    start = profile_tail_start(zeros[-1] if len(zeros) else 0.0, half_density, len(zeros) + 1)
    return ProductModel(zeros=zeros, gauss_rate=gauss_rate, parity=parity, tail_start=start,
                        tail_scale=half_density, quartic=True)
