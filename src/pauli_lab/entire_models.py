"""Gaussian-times-canonical-product models with controlled truncation.

A model is c * e^{i theta} * z^sigma * e^{-gamma pi z^2} * P(z), where P is a
truncated even product over prescribed positive zeros.  Two product kinds are
supported:

* plain:   P(z) = prod (1 - z^2/rho_n^2), zeros at +-rho_n (sinc family);
* quartic: P(z) = prod (1 - z^4/rho_n^4), zeros at +-rho_n and +-i rho_n.

The quartic kind is the computable form of even products taken in the squared
variable: writing w = z^2, it is a plain product in w with zeros rho_n^2, which
is how the constructions put prescribed real zeros on functions of order two
without giving up a convergent product.

Truncation is handled by a second-order log correction built from the tail
sums of the analytically specified zero continuation; the reported error bound
is the first omitted tail order.  Evaluation is carried out in a scaled
mantissa/log-magnitude representation so that retained zeros evaluate to an
exact 0 and Gaussian factors spanning hundreds of orders of magnitude never
overflow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import polygamma

LOG_HUGE = 700.0  # conservative double-precision overflow threshold for exp


class NotAZeroError(ValueError):
    """Requested zero is not retained in the model."""


@dataclass(frozen=True)
class EvalResult:
    """Model value plus its log-magnitude and truncation error estimate.

    ``log_magnitude`` is the natural log of |value| (-inf at exact zeros) and
    stays meaningful when ``overflow`` marks points where the value itself is
    not representable.
    """

    value: np.ndarray
    log_magnitude: np.ndarray
    error_bound: np.ndarray
    overflow: np.ndarray


@dataclass(frozen=True)
class ProductModel:
    """Entire function c * e^{i*phase} * z^parity * e^{-gauss_rate*pi*z^2} * product.

    ``zeros`` are the retained positive zeros, strictly increasing.  The tail
    sums describe the omitted continuation in the product's own squared
    variable: with R_n = rho_n^2 (plain) or rho_n^4 (quartic),
    tail_t2 = sum_tail 1/R_n and tail_t4 = sum_tail 1/R_n^2.
    ``tail_next_zero`` is the first omitted rho of the continuation (0 if
    unknown).
    """

    zeros: np.ndarray = field(default_factory=lambda: np.empty(0))
    amplitude: complex = 1.0 + 0.0j
    phase: float = 0.0
    gauss_rate: float = 0.0
    parity: int = 0
    tail_t2: float = 0.0
    tail_t4: float = 0.0
    tail_next_zero: float = 0.0
    quartic: bool = False
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        z = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", z)
        if len(z) and (np.any(z <= 0) or np.any(np.diff(z) <= 0)):
            raise ValueError("zeros must be strictly increasing and positive")
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity}")
        if self.gauss_rate < 0:
            raise ValueError("gauss_rate must be >= 0")
        if not (0 <= self.tail_t2 < math.inf and 0 <= self.tail_t4 < math.inf):
            raise ValueError("tail sums must be nonnegative and finite")

    # -- internal squared-variable data ------------------------------------

    @property
    def _factor_poles(self) -> np.ndarray:
        """R_n in the factor (1 - s/R_n); computed as nested squares so that
        evaluation at a retained zero cancels bitwise."""
        q = self.zeros * self.zeros
        return q * q if self.quartic else q

    def _s_of(self, z: np.ndarray) -> np.ndarray:
        u = z * z
        return u * u if self.quartic else u

    @property
    def _next_pole(self) -> float:
        rho = self.tail_next_zero
        if rho <= 0:
            if len(self.zeros) >= 2:
                rho = 2.0 * self.zeros[-1] - self.zeros[-2]
            elif len(self.zeros) == 1:
                rho = 2.0 * self.zeros[-1]
            else:
                return math.inf
        q = rho * rho
        return q * q if self.quartic else q

    # -- evaluation ----------------------------------------------------------

    def _scaled_product(self, s: np.ndarray, skip: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Product of retained factors as (mantissa, log-scale).

        The mantissa is real for real ``s`` and complex otherwise.  ``skip``
        holds one factor index per point (-1 for none); that factor is taken
        as exactly 1, which removes a vanishing factor without a second loop.
        """
        m = np.ones_like(s)
        e = np.zeros(s.shape, dtype=float)
        poles = self._factor_poles
        n = len(poles)
        if n == 0:
            return m, e
        # chunk size keeps each partial product far from overflow
        worst = 1.0 + float(np.max(np.abs(s))) / poles[0] if s.size else 1.0
        chunk = int(np.clip(200.0 / max(np.log10(worst), 1.0), 4, 64))
        flat = s.reshape(-1)
        mf = m.reshape(-1)
        ef = e.reshape(-1)
        inv = 1.0 / poles
        if skip is not None:
            skip = np.broadcast_to(skip, s.shape).reshape(-1)
        for start in range(0, n, chunk):
            block = poles[start : start + chunk]
            # (rho^2 - s)/rho^2 via reciprocal multiply: complex division is not
            # correctly rounded, and retained zeros must cancel to an exact 0
            factors = (block[None, :] - flat[:, None]) * inv[None, start : start + chunk]
            if skip is not None:
                rows = np.flatnonzero((skip >= start) & (skip < start + chunk))
                factors[rows, skip[rows] - start] = 1.0
            mf *= np.prod(factors, axis=1)
            a = np.abs(mf)
            live = a > 0
            ef[live] += np.log(a[live])
            # numpy divides complex by real as a reciprocal multiply; doing so
            # explicitly keeps real and complex points bit-identical
            mf[live] *= 1.0 / a[live]
        return mf.reshape(s.shape), ef.reshape(s.shape)

    def _smooth_log(self, z: np.ndarray, odd_factor: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(mantissa factor, log-scale) of amplitude, phase, parity, Gaussian, tail.

        ``odd_factor`` replaces z as the parity factor of odd models.
        """
        u = z * z
        s = self._s_of(z)
        log_scale = -self.gauss_rate * np.pi * np.real(u) - (
            np.real(s) * self.tail_t2 + np.real(s * s) * self.tail_t4 / 2.0
        )
        arg = -self.gauss_rate * np.pi * np.imag(u) - (
            np.imag(s) * self.tail_t2 + np.imag(s * s) * self.tail_t4 / 2.0
        )
        m = np.exp(1j * arg)
        if self.phase == 0.0:
            pass
        elif self.phase == np.pi:
            m = -m
        else:
            m = m * np.exp(1j * self.phase)
        m = m * self.amplitude
        if self.parity:
            m = m * (z if odd_factor is None else odd_factor)
        return m, log_scale

    def eval(self, z) -> EvalResult:
        """Evaluate the model; accepts scalars or arrays of real or complex points.

        Real points keep the product in real arithmetic; the values are the
        same as at the points cast to complex.
        """
        z_arr = np.asarray(z, dtype=complex if np.iscomplexobj(z) else float)
        scalar = z_arr.ndim == 0
        z_arr = np.atleast_1d(z_arr)
        s = self._s_of(z_arr)
        m, e = self._scaled_product(s)
        m2, e2 = self._smooth_log(z_arr)
        m = m * m2
        e = e + e2
        with np.errstate(divide="ignore"):
            log_mag = np.where(np.abs(m) > 0, np.log(np.abs(m) + (np.abs(m) == 0)) + e, -np.inf)
        overflow = log_mag > LOG_HUGE
        dead = np.abs(m) == 0.0
        with np.errstate(over="ignore", under="ignore"):
            value = m * np.exp(np.where(overflow | dead, 0.0, e))
        if np.any(overflow):
            value = value.copy()
            value[overflow] = np.inf + 0.0j
        err = self._truncation_bound(s) + 5e-16 * max(len(self.zeros), 1)
        if scalar:
            return EvalResult(value[0], log_mag[0], err[0], overflow[0])
        return EvalResult(value, log_mag, err, overflow)

    def _truncation_bound(self, s: np.ndarray) -> np.ndarray:
        """Relative error from the first omitted tail order."""
        a = np.abs(s)
        nxt = self._next_pole
        if self.tail_t4 > 0 and np.isfinite(nxt):
            t6 = self.tail_t4 / nxt
            return a**3 * t6 / 3.0
        if self.tail_t2 == 0.0 and self.tail_t4 == 0.0 and np.isfinite(nxt):
            # no tail supplied: widened bound, size of the first omitted log term
            return a / nxt
        return np.zeros_like(a)

    def values(self, z) -> np.ndarray:
        """Plain complex values (overflow points become inf)."""
        return self.eval(z).value

    def log_abs(self, z) -> np.ndarray:
        """log |model(z)|; -inf at exact zeros, finite even where exp overflows."""
        return self.eval(z).log_magnitude

    def validity_radius(self, tol: float = 1e-10) -> float:
        """Largest |z| at which the third-order tail term stays below 0.1*tol."""
        nxt = self._next_pole
        if not np.isfinite(nxt):
            return math.inf
        if self.tail_t4 > 0:
            s_max = (0.3 * tol * nxt / self.tail_t4) ** (1.0 / 3.0)
        else:
            s_max = 0.1 * tol * nxt
        return float(s_max ** (0.25 if self.quartic else 0.5))

    # -- zeros, derivatives, divided basis ----------------------------------

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

    def derivative_at_zero(self, lam):
        """Exact product-rule derivative at retained real zeros lam = +-rho_k.

        Accepts a scalar or an array of zeros; all derivatives come from one
        pass of the product with each point's vanishing factor skipped.  For
        odd models, lam = 0 is also accepted (the z factor vanishes there).
        """
        lam_arr = np.asarray(lam, dtype=float)
        flat = np.atleast_1d(lam_arr).ravel()
        origin = (flat == 0.0) & (self.parity == 1)
        k = np.full(flat.shape, -1)
        k[~origin] = self._zero_index(flat[~origin])
        rho = np.ones(flat.shape)
        rho[~origin] = self.zeros[k[~origin]]
        sign = np.where(flat >= 0, 1.0, -1.0)
        z = np.where(origin, 0.0, sign * rho)
        m, e = self._scaled_product(self._s_of(z), skip=k)
        m2, e2 = self._smooth_log(z, odd_factor=np.where(origin, 1.0, z))
        dfactor = np.where(origin, 1.0, -sign * (4.0 if self.quartic else 2.0) / rho)
        out = dfactor * (m * m2 * np.exp(e + e2))
        return complex(out[0]) if lam_arr.ndim == 0 else out.reshape(lam_arr.shape)

    def divided_basis_eval(self, lam, z):
        """Cardinal function model(z) / (model'(lam) * (z - lam)).

        The vanishing factor is cancelled against (z - lam) algebraically, so
        the removable singularity never appears; the result is 1 at lam and 0
        at every other retained zero.  ``lam`` and ``z`` broadcast against
        each other: every point comes from one pass of the product with its
        own vanishing factor skipped, and one ``derivative_at_zero`` call.
        """
        scalar = np.ndim(lam) == 0 and np.ndim(z) == 0
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        z_arr = np.atleast_1d(np.asarray(z, dtype=complex if np.iscomplexobj(z) else float))
        z_arr = np.broadcast_to(z_arr, np.broadcast_shapes(lam_arr.shape, z_arr.shape))
        k = self._zero_index(lam_arr)
        rho = self.zeros[k]
        sign = np.where(lam_arr >= 0, 1.0, -1.0)
        u = z_arr * z_arr
        q = rho * rho
        # (1 - u/q) / (z -+ rho) = -(z +- rho)/q
        ratio = -(z_arr + sign * rho) * (1.0 / q)
        if self.quartic:
            ratio = ratio * (1.0 + u * (1.0 / q))
        m, e = self._scaled_product(self._s_of(z_arr), skip=k)
        m2, e2 = self._smooth_log(z_arr)
        out = ratio * m * m2 * np.exp(e + e2) / self.derivative_at_zero(lam_arr)
        return out[0] if scalar else out

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        meta = dict(self.meta)
        meta["quartic"] = bool(self.quartic)
        meta["tail_next_zero"] = float(self.tail_next_zero)
        payload = {
            "c_re": float(np.real(self.amplitude)),
            "c_im": float(np.imag(self.amplitude)),
            "theta": float(self.phase),
            "gamma": float(self.gauss_rate),
            "sigma": int(self.parity),
            "zeros": [float(x) for x in self.zeros],
            "T2": float(self.tail_t2),
            "T4": float(self.tail_t4),
            "meta": meta,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProductModel":
        obj = json.loads(text)
        meta = dict(obj.get("meta", {}))
        quartic = bool(meta.pop("quartic", False))
        tail_next = float(meta.pop("tail_next_zero", 0.0))
        return cls(
            zeros=np.array(obj["zeros"], dtype=float),
            amplitude=complex(obj["c_re"], obj["c_im"]),
            phase=float(obj["theta"]),
            gauss_rate=float(obj["gamma"]),
            parity=int(obj["sigma"]),
            tail_t2=float(obj["T2"]),
            tail_t4=float(obj["T4"]),
            tail_next_zero=tail_next,
            quartic=quartic,
            meta=meta,
        )


# -- builders ---------------------------------------------------------------


def sinc_product(count: int = 2000) -> ProductModel:
    """Truncated product with zeros at the positive integers: sin(pi z)/(pi z)."""
    n = np.arange(1, count + 1, dtype=float)
    t2 = float(polygamma(1, count + 1))
    t4 = float(polygamma(3, count + 1)) / 6.0
    return ProductModel(zeros=n, tail_t2=t2, tail_t4=t4, tail_next_zero=float(count + 1),
                        meta={"family": "sinc"})


def gaussian_model(rate: float, amplitude: complex = 1.0, phase: float = 0.0,
                   parity: int = 0) -> ProductModel:
    """Zero-free model c * e^{i phase} * z^parity * e^{-rate pi z^2}."""
    return ProductModel(zeros=np.empty(0), amplitude=amplitude, phase=phase,
                        gauss_rate=rate, parity=parity)


def profile_tail_sums(half_density: float, retained: int) -> tuple[float, float, float]:
    """Tail sums for the square-root profile continuation rho_m = sqrt(m/D).

    For the quartic product the squared-variable poles continue linearly as
    m/D, so the tail sums have polygamma closed forms.  Returns
    (t2, t4, next_zero).
    """
    n1 = retained + 1
    t2 = half_density**2 * float(polygamma(1, n1))
    t4 = half_density**4 * float(polygamma(3, n1)) / 6.0
    return t2, t4, math.sqrt(n1 / half_density)


def profile_product(zeros: np.ndarray, half_density: float, gauss_rate: float = 0.0,
                    parity: int = 0, amplitude: complex = 1.0, phase: float = 0.0,
                    meta: dict | None = None) -> ProductModel:
    """Quartic model vanishing at +-zeros (and +-i zeros), with the
    square-root-profile continuation supplying the tail sums."""
    zeros = np.asarray(zeros, dtype=float)
    t2, t4, nxt = profile_tail_sums(half_density, len(zeros))
    return ProductModel(zeros=zeros, amplitude=amplitude, phase=phase,
                        gauss_rate=gauss_rate, parity=parity, tail_t2=t2,
                        tail_t4=t4, tail_next_zero=nxt, quartic=True,
                        meta=meta or {})
