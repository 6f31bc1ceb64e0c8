"""Verdicts on sampled and global modulus agreement, and the comparison
functions built from a pair.

The verdicts take sampled values: each ``*_vals``/``sample_*``/``grid_*``
argument is an (f, g) pair of arrays on one point set, as a construction's
``fg`` (time side) and ``fg_hat`` (frequency side) return them, so each
point set is evaluated once whatever checks read it.  Verdicts are
deterministic given the tolerances, and every report carries the grids it was
computed on, since almost-everywhere statements are only ever tested as
sup-on-grid surrogates.
"""

from __future__ import annotations

import numpy as np

from . import CheckFailedError


class PreconditionError(ValueError, CheckFailedError):
    """Input data violates the check's stated precondition."""


def sup_gap(f_vals: np.ndarray, g_vals: np.ndarray) -> float:
    """max | |f| - |g| | over sampled values; 0 for an empty sample."""
    return float(np.max(np.abs(np.abs(f_vals) - np.abs(g_vals)), initial=0.0))


def _sq_gap(f_vals: np.ndarray, g_vals: np.ndarray) -> float:
    """max |f^2 - g^2| over sampled values; 0 for an empty sample."""
    return float(np.max(np.abs(f_vals ** 2 - g_vals ** 2), initial=0.0))


def discrete_check(time_vals, freq_vals, tol: float = 1e-10):
    """Residual maxima of sampled modulus agreement; passes iff both <= tol."""
    res_t = sup_gap(*time_vals)
    res_f = sup_gap(*freq_vals)
    return res_t, res_f, bool(res_t <= tol and res_f <= tol)


def weak_check(time_vals, freq_vals, tol: float = 1e-8) -> dict:
    """Grid-sup verdicts per side.

    weak on a side means the grid gap stays below tol; non_weak requires both
    sides to reach the witness floor 10 * tol, keeping the two verdicts an
    order of magnitude apart so quadrature noise cannot flip them.
    """
    gap_t = sup_gap(*time_vals)
    gap_f = sup_gap(*freq_vals)
    floor = 10.0 * tol
    return {
        "gap_time": gap_t,
        "gap_freq": gap_f,
        "weak_pair_time": bool(gap_t <= tol),
        "weak_pair_freq": bool(gap_f <= tol),
        "weak_pair": bool(gap_t <= tol or gap_f <= tol),
        "full_pair": bool(gap_t <= tol and gap_f <= tol),
        "non_weak": bool(gap_t >= floor and gap_f >= floor),
    }


def h_eval(fg, z: np.ndarray) -> np.ndarray:
    """H(z) = f(z) conj(f(conj z)) - g(z) conj(g(conj z)) at a 1-D array of points.

    ``fg`` takes the points cast to complex.  H is real and equal to
    |f|^2 - |g|^2 on the real line; for a constructed pair it equals
    4 Re(phi conj(psi)) there (polarization).
    """
    z = np.asarray(z, dtype=complex)
    f, g = fg(z)
    f_c, g_c = fg(np.conj(z))
    return f * np.conj(f_c) - g * np.conj(g_c)


def sign_retrieval_check(sample_time, sample_freq, grid_time, grid_freq,
                         tol: float = 1e-8) -> dict:
    """Dichotomy for squared-sample data.

    Requires f^2 = g^2 on the samples (both sides) within tol; then reports
    whether the squared identity extends to the grids ("squared identity
    forced") or fails on both by at least 10 * tol ("counterexample
    persists").
    """
    sq_t = _sq_gap(*sample_time)
    sq_f = _sq_gap(*sample_freq)
    if sq_t > tol or sq_f > tol:
        raise PreconditionError(
            f"squared samples differ (time {sq_t:.3e}, freq {sq_f:.3e}) beyond tol {tol:.1e}")
    wit_t = _sq_gap(*grid_time)
    wit_f = _sq_gap(*grid_freq)
    floor = 10.0 * tol
    if wit_t <= tol and wit_f <= tol:
        verdict = "squared identity forced"
    elif wit_t >= floor and wit_f >= floor:
        verdict = "counterexample persists"
    else:
        verdict = "inconclusive"
    return {"verdict": verdict, "sample_sq_time": sq_t, "sample_sq_freq": sq_f,
            "witness_sq_time": wit_t, "witness_sq_freq": wit_f}


def pair_report(pair, lam_points: np.ndarray, mu_points: np.ndarray,
                time_grid: np.ndarray, freq_grid: np.ndarray,
                discrete_tol: float, weak_tol: float) -> dict:
    """Full verdict bundle for a constructed pair, as ``verify`` writes it:
    residuals and grid gaps per side, verdicts, grids and the weak tolerance.

    Each non-empty point set is evaluated once, through ``pair.fg`` or
    ``pair.fg_hat``; an empty sample set is not evaluated.
    """
    res_t, res_f, disc_ok = discrete_check(
        pair.fg(lam_points) if len(lam_points) else (lam_points, lam_points),
        pair.fg_hat(mu_points) if len(mu_points) else (mu_points, mu_points), discrete_tol)
    weak = weak_check(pair.fg(time_grid), pair.fg_hat(freq_grid), weak_tol)
    verdicts = {
        "discrete_pair": disc_ok,
        "weak_pair_time": weak["weak_pair_time"],
        "weak_pair_freq": weak["weak_pair_freq"],
        "full_pair": weak["full_pair"],
        "non_weak": weak["non_weak"],
    }
    grids = {
        "lambda_count": int(len(lam_points)),
        "mu_count": int(len(mu_points)),
        "time_grid": [float(np.min(time_grid)), float(np.max(time_grid)), int(len(time_grid))],
        "freq_grid": [float(np.min(freq_grid)), float(np.max(freq_grid)), int(len(freq_grid))],
    }
    return {"residuals": {"time": res_t, "freq": res_f},
            "gaps": {"time": weak["gap_time"], "freq": weak["gap_freq"]},
            "verdicts": verdicts, "grids": grids, "tol": weak_tol}
