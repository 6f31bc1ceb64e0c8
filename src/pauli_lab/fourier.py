"""Numerical Fourier transforms for rapidly decaying smooth evaluators.

Normalization: fhat(xi) = integral f(x) e^{-2 pi i x xi} dx.  For entire
integrands with Gaussian decay the periodized trapezoid rule on a uniform grid
is spectrally accurate, so the error estimate is heuristic: a Richardson
difference between node counts plus a tail bound from the fitted decay
envelope.  Estimates are diagnostics, not certified bounds.

``phase_sum`` is the one place a phase sum exp(-+2 pi i x t) is taken: the
transforms here, the interpolation cross matrices, and the assembled
interpolants all reduce to its quadrature sums.  Uniform target grids go
through a chirp-z convolution (Rabiner-Schafer-Rader 1969, Bluestein 1970) in
O((nodes + targets) log) time and O(nodes + targets) memory.  Other targets
get a block-factored dense sum: with the nodes cut into blocks of about
sqrt(nodes)/2, each phase is a block phase times an in-block phase, so a
target takes O(sqrt(nodes)) exponentials, and the rest is one matrix
product of the reshaped rows and a reduction over the blocks, taken in
target slices of at most ``DENSE_CHUNK_BYTES``.  A chirp-z sum's factors
that depend only on the grid and the targets are kept for the last
``CHIRP_PLANS`` combinations of grid, targets and sign, and their
exponentials for the last ``CHIRP_PLANS`` grids and targets, so repeated
sums build them once and the two signs share one set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# bytes of block sums and phase factors a dense sum forms at once: beside
# its padded rows, memory stays O(nodes) whatever the number of targets
DENSE_CHUNK_BYTES = 8 << 20
# below this many uniform targets the dense sum is faster than the chirp-z FFTs
CHIRP_MIN_TARGETS = 32
# chirp-z plans kept, and exponential tables: the verify of a product pair
# sums on one grid, that of an assembled pair forward and inverse on its
# grids, where the two signs share one table
CHIRP_PLANS = 2
_SPLITTER = 2.0**27 + 1.0


class DegenerateFitError(ValueError):
    """Envelope regression has a rank-deficient design."""


class InsufficientDataError(ValueError):
    """Too few finite samples for the requested fit."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Window [-half_width, half_width] and node count of the uniform-grid
    trapezoid transform."""

    half_width: float = 8.0
    nodes: int = 2048

    def __post_init__(self) -> None:
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.nodes % 2 or self.nodes < 16:
            raise ValueError("node count must be even and >= 16")

    def grid(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.nodes + 1)

    def weights(self) -> np.ndarray:
        h = 2.0 * self.half_width / self.nodes
        w = np.full(self.nodes + 1, h)
        w[0] = w[-1] = h / 2.0
        return w

    @cached_property
    def _blocks(self) -> tuple:
        """The grid's layout for ``_dense_sum``: (B, A, k, a, delta).

        Node n = a B + b (b < B) sits at x_{aB} + b h + delta_n.  Each phase
        factor is k a t in turns: the first B rows of the columns k, a hold
        k = b, a = h for the in-block phases, the last A rows k = 1,
        a = x_{aB} for the block phases.  B is half the square root of the
        node count: a block phase's rounding falls on its whole block sum,
        and with blocks this short the sums stay as close to long double as
        one exponential per node and target.
        """
        x = self.grid()
        h = 2.0 * self.half_width / self.nodes
        width = int(np.ceil(np.sqrt(len(x)) / 2.0))
        blocks = -(-len(x) // width)
        b = np.arange(width, dtype=float)
        starts = x[::width]
        k = np.concatenate([b, np.ones(blocks)])[:, None]
        a = np.concatenate([np.full(width, h), starts])[:, None]
        # delta = x - x_{aB} - b h: the difference as the exact sum s + e
        # (TwoSum) less b h as the exact sum of b h_hi and b h_lo, whose first
        # term cancels s exactly
        in_block = np.resize(b, len(x))
        start = np.repeat(starts, width)[:len(x)]
        s = x - start
        back = s - x
        e = (x - (s - back)) - (start + back)
        h_hi = _split(h)
        delta = ((s - in_block * h_hi) - in_block * (h - h_hi)) + e
        return width, blocks, k, a, delta


@dataclass(frozen=True)
class EnvelopeFit:
    """log|f(x)| ~ intercept - rate * pi * x^2 over the fitted window."""

    rate: float
    intercept: float


@dataclass(frozen=True)
class TransformResult:
    values: np.ndarray
    error: np.ndarray


def envelope_fit(x: np.ndarray, log_mag: np.ndarray) -> EnvelopeFit:
    """Least squares of log|f| against -pi*x^2, in the centred closed form.

    Non-finite samples are dropped (callers mask zeros beforehand).  Raises
    when fewer than 8 finite samples remain or when the x^2 design column is
    nearly constant.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(log_mag, dtype=float)
    finite = np.isfinite(y)
    x, y = x[finite], y[finite]
    if len(x) < 8:
        raise InsufficientDataError(f"need >= 8 finite samples, got {len(x)}")
    col = -np.pi * x * x
    col_mean, y_mean = col.sum() / len(x), y.sum() / len(x)
    dc = col - col_mean
    ss = dc @ dc
    # the column's standard deviation against its scale
    if np.sqrt(ss / len(x)) < 1e-12 * max(1.0, np.max(np.abs(col))):
        raise DegenerateFitError("x^2 design column has near-zero variance")
    rate = float(dc @ (y - y_mean) / ss)
    return EnvelopeFit(rate=rate, intercept=float(y_mean - rate * col_mean))


def _tail_bound(x: np.ndarray, fx: np.ndarray) -> float:
    """Bound on the neglected |x| > T mass from the fitted outer envelope."""
    t_edge = np.max(np.abs(x))
    outer = np.abs(x) >= 0.7 * t_edge
    mags = np.abs(fx[outer])
    live = mags > 0
    try:
        env = envelope_fit(x[outer][live], np.log(mags[live]))
    except (DegenerateFitError, InsufficientDataError):
        # no usable envelope: fall back to edge-value times window scale
        edge = np.abs(fx[np.argmax(np.abs(x))])
        return float(edge * t_edge)
    if env.rate <= 0:
        return float("inf")
    # 2 * int_T^inf e^{kappa - r pi x^2} dx <= e^{kappa - r pi T^2}/(pi r T)
    log_tail = env.intercept - env.rate * np.pi * t_edge**2
    return float(np.exp(log_tail) / (np.pi * env.rate * t_edge))


def phase_sum(values: np.ndarray, spec: QuadratureSpec, targets, inverse: bool = False,
              coeffs: np.ndarray | None = None):
    """Quadrature sums sum_n w_n v(x_n) e^{-+2 pi i x_n t} over spec.grid().

    ``values`` holds node values on ``spec.grid()``, one function per row
    (shape (nodes+1,) or (k, nodes+1)); each result row holds that function's
    sums at the ``targets`` (real or complex), with the + sign when
    ``inverse``.  ``coeffs`` (shape (k,), for k rows) first combines the
    weighted rows into one, coeffs @ (w * values), so a linear combination
    costs one phase sum and gives one result row.

    Real, equally spaced targets (``CHIRP_MIN_TARGETS`` or more) are summed
    by chirp-z convolution; any other targets by the chunked dense sum.
    """
    sign = 1.0 if inverse else -1.0
    weighted = values * spec.weights()
    if coeffs is not None:
        weighted = coeffs @ weighted
    t = np.ravel(targets)
    uniform = _uniform_targets(t)
    if uniform is None:
        return _dense_sum(weighted, spec, t, sign)
    return _chirp_sum(weighted, spec, *uniform, sign)


def _dense_sum(rows: np.ndarray, spec: QuadratureSpec, t: np.ndarray, sign: float) -> np.ndarray:
    """Block-factored sums of rows over spec.grid() at any real or complex targets.

    Node n = a B + b sits at x_{aB} + b h + delta_n (``spec._blocks``), so
    its phase factors into a block phase x_{aB} t and an in-block phase
    b h t: a target takes A + B ~ 2.5 sqrt(nodes) exponentials instead of
    nodes + 1.  The sums over b are one matrix product of the rows,
    zero-padded to A B and reshaped to (A, B), and the A block sums are then
    reduced.  Both phases are reduced exactly in turns before the
    exponential, and the few-ulp offsets delta_n of the rounded grid enter
    to first order through delta-weighted rows.  Targets go in slices whose
    block sums and phase factors stay within ``DENSE_CHUNK_BYTES``.
    """
    width, blocks, k, a, delta = spec._blocks
    size = len(delta)
    lead = rows.shape[:-1]
    padded = np.empty((2,) + lead + (blocks * width,), dtype=complex)
    padded[..., size:] = 0.0
    padded[0, ..., :size] = rows
    np.multiply(rows, delta, out=padded[1, ..., :size])
    stacked = padded.reshape(-1, width)
    out = np.empty(lead + (len(t),), dtype=complex)
    # per target: the block sums, and about four complex words per phase
    # factor while it is reduced in turns and exponentiated
    step = max(1, DENSE_CHUNK_BYTES // (16 * (len(stacked) + 4 * (blocks + width))))
    off_axis = np.iscomplexobj(t) and np.any(t.imag)
    for first in range(0, len(t), step):
        part = t[first:first + step]
        turns = _turns(k, a, part.real)
        turns -= np.rint(turns)
        phases = turns * (sign * 2.0j * np.pi)
        if off_axis:
            # the modulus e^{-sign 2 pi x Im t} at the positions x = k a
            phases -= (sign * 2.0 * np.pi) * (k * a) * part.imag
        np.exp(phases, out=phases)
        sums = (stacked @ phases[:width]).reshape((2,) + lead + (blocks, len(part)))
        sums[1] *= sign * 2.0j * np.pi * part
        sums[0] += sums[1]
        sums[0] *= phases[width:]
        out[..., first:first + len(part)] = sums[0].sum(axis=-2)
        # freed before the next slice's product is allocated
        del sums
    return out


def _split(c: float) -> float:
    """c cut to its high 26 bits (Veltkamp), so that c - _split(c) is exact."""
    s = c * _SPLITTER
    return s - (s - c)


def _uniform_targets(t: np.ndarray):
    """(centre index, centre value, step, offsets) of a real equally spaced grid.

    ``offsets`` are the exact deviations t - (t_c + (m - c) step), which must
    stay within a few ulps of the grid's largest magnitude; complex targets
    qualify when every imaginary part is zero.  Returns None otherwise.
    """
    if len(t) < CHIRP_MIN_TARGETS:
        return None
    if np.iscomplexobj(t):
        if np.any(t.imag != 0.0):
            return None
        t = t.real
    t = t.astype(float, copy=False)
    step = (t[-1] - t[0]) / (len(t) - 1)
    if step == 0.0 or not np.isfinite(step):
        return None
    c = len(t) // 2
    t_c = float(t[c])
    m = np.arange(len(t)) - c
    # t - t_c as the exact sum s + e (TwoSum); m * step_hi is exact and
    # cancels s exactly, so only the tiny m * step_lo term is rounded
    s = t - t_c
    back = s + t_c
    e = (t - back) + (back - s - t_c)
    step_hi = _split(step)
    offsets = (s - m * step_hi) + (e - m * (step - step_hi))
    tol = 8.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    if not np.max(np.abs(offsets)) <= tol:
        return None
    return c, t_c, float(step), offsets


def _turns(k: np.ndarray, a, b) -> np.ndarray:
    """k * a * b reduced mod 1 for integer-valued k, |k| < 2**53 (elementwise).

    The product a * b is taken exactly as p + e (Dekker); p splits into a
    26-bit high half and a low half, and k into multiples of 2**27 and a
    remainder, so that both high-half products and their reductions are
    exact and only terms of relative size 2**-26 are rounded.
    """
    p = a * b
    a_hi, b_hi = _split(a), _split(b)
    e = ((a_hi * b_hi - p) + a_hi * (b - b_hi) + (a - a_hi) * b_hi) + (a - a_hi) * (b - b_hi)
    hi = _split(p)
    k_low = np.fmod(k, 2.0**27)
    return (np.fmod((k - k_low) * hi, 1.0) + np.fmod(k_low * hi, 1.0)
            + np.fmod(k * ((p - hi) + e), 1.0))


def _cis(turns: np.ndarray) -> np.ndarray:
    return np.exp(2.0j * np.pi * turns)


@lru_cache(maxsize=CHIRP_PLANS)
def _chirp_tables(nodes: int, h: float, count: int, c: int, t_c: float, dt: float) -> tuple:
    """The forward-sign exponentials of ``_chirp_sum`` on one grid and targets.

    Returns (pre-modulation, chirp), read-only, with chirp[j] =
    exp(-2 pi i j^2 h dt/2) for 0 <= j <= nodes/2 + max(c, count - 1 - c):
    one table of chirp turns serves the pre-modulation, the kernel and the
    post-chirp.  The inverse sign takes their conjugates, which equal the
    exponentials of the negated turns (a zero turn's sign of zero aside).
    """
    n = np.arange(nodes + 1) - nodes // 2
    j = np.arange(nodes // 2 + max(c, count - 1 - c) + 1)
    turns = _turns(j * j, h, dt / 2.0)
    tables = (_cis(-(turns[np.abs(n)] + _turns(n, h, t_c))), _cis(-turns))
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=CHIRP_PLANS)
def _chirp_plan(nodes: int, h: float, count: int, c: int, t_c: float, dt: float,
                sign: float) -> tuple:
    """The factors of ``_chirp_sum`` that depend only on the grid and the targets.

    Returns (pre-modulation, n h weights, kernel FFT, post-chirp), read-only.
    """
    pre, chirp = _chirp_tables(nodes, h, count, c, t_c, dt)
    if sign > 0:
        pre, chirp = np.conj(pre), np.conj(chirp)
    n = np.arange(nodes + 1) - nodes // 2
    m = np.arange(count) - c
    size = 1 << (nodes + count - 1).bit_length()
    # kernel at the index differences m - n in [-nodes, count - 1], stored
    # circularly so that the cyclic convolution of length size is the linear one
    q = np.arange(-nodes, count)
    kernel = np.zeros(size, dtype=complex)
    kernel[q] = np.conj(chirp[np.abs(q + (nodes // 2 - c))])
    plan = (pre, n * h, np.fft.fft(kernel), chirp[np.abs(m)])
    for factor in plan:
        factor.flags.writeable = False
    return plan


def _chirp_sum(rows: np.ndarray, spec: QuadratureSpec, c: int, t_c: float, dt: float,
               offsets: np.ndarray, sign: float) -> np.ndarray:
    """Bluestein's chirp-z form of the sums at the targets t_c + (m - c) dt + offsets.

    With centred node and target indices n, m (x_n = n h) the phase
    n h (t_c + m dt) splits into a node modulation n h t_c and the chirp
    n m h dt = (n^2 + m^2 - (m - n)^2) h dt / 2, so the sum over nodes is a
    linear convolution with exp(-+2 pi i k^2 h dt / 2), taken by FFT along the
    last axis for every row at once.  Centring keeps |k| <= (nodes + targets)/2,
    and every phase is reduced exactly in turns before the exponential.  The
    few-ulp offsets enter to first order through the sums of x_n-weighted rows.
    The nodes are taken as exactly n h, which spec.grid() rounds.  The
    factors of the grid and targets come from ``_chirp_plan``.
    """
    nodes, count = spec.nodes, len(offsets)
    h = 2.0 * spec.half_width / nodes
    pre, nh, kernel_fft, post = _chirp_plan(nodes, h, count, c, t_c, dt, sign)
    buf = np.zeros((2,) + rows.shape[:-1] + kernel_fft.shape, dtype=complex)
    buf[..., :nodes + 1] = rows * pre
    buf[1, ..., :nodes + 1] *= nh
    conv = np.fft.ifft(np.fft.fft(buf, axis=-1) * kernel_fft, axis=-1)
    sums = conv[..., :count] * post
    return sums[0] + sums[1] * (sign * 2.0j * np.pi * offsets)


def transform_values(fx: np.ndarray, spec: QuadratureSpec, xi: np.ndarray) -> np.ndarray:
    """Quadrature transform of node values fx on spec.grid(), one function per
    row, at a 1-D array of frequencies.

    Complex frequencies are allowed (the transform of a Gaussian-decaying
    integrand continues analytically off the real axis)."""
    return phase_sum(fx, spec, np.asarray(xi, dtype=complex))


def transform(f, spec: QuadratureSpec, xi) -> TransformResult:
    """Numerical forward Fourier transform of an evaluator f over [-T, T].

    ``f`` must accept an ndarray of points and return complex values.  The
    error per frequency is the Richardson difference against the half-count
    rule, which takes every other node at twice the weight, summed in the
    same pass, plus the tail bound.
    """
    fx = np.asarray(f(spec.grid()), dtype=complex)
    half = np.zeros_like(fx)
    half[::2] = 2.0 * fx[::2]
    fine, coarse = transform_values(np.stack([fx, half]), spec, xi)
    err = np.abs(fine - coarse) + _tail_bound(spec.grid(), fx)
    return TransformResult(values=fine, error=err)


def _side_check(grid: np.ndarray, vals: np.ndarray, rate: float, floor: float) -> bool:
    """Whether the sup of |f| e^{rate pi x^2} is finite and stabilizes before the outer third."""
    mags = np.abs(vals)
    keep = mags > floor
    if np.count_nonzero(keep) < 6:
        return False
    order = np.argsort(np.abs(grid[keep]))
    r = np.abs(grid[keep])[order]
    with np.errstate(divide="ignore"):
        stat_log = np.log(mags[keep])[order] + rate * np.pi * r * r
    if not np.all(stat_log < np.inf):
        return False
    running = np.maximum.accumulate(stat_log)
    cut = int(2 * len(r) / 3)
    return bool(running[-1] <= running[cut] + 1e-12)


def hardy_check(f_vals: np.ndarray, fhat_vals: np.ndarray, rate: float,
                x_grid: np.ndarray, xi_grid: np.ndarray,
                floor: float = 0.0) -> bool:
    """Empirical Gaussian-class membership test at the given rate.

    Passes iff both weighted statistics are finite and attain their running
    sup before the outer third of the grid (non-increasing trend).  ``floor``
    drops grid values at or below a caller-declared noise level, so quadrature
    noise on the transform side cannot masquerade as growth; it defaults to
    keeping everything.
    """
    return (_side_check(np.asarray(x_grid), np.asarray(f_vals), rate, floor)
            and _side_check(np.asarray(xi_grid), np.asarray(fhat_vals), rate, floor))
