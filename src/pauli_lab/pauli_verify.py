"""Verdicts on sampled and global modulus agreement, and the comparison
functions built from a pair.

``f``/``g`` style arguments are callables mapping a point array to complex
values; a construction's bound methods fit directly.  Verdicts are
deterministic given the tolerances, and every report carries the grids it was
computed on, since almost-everywhere statements are only ever tested as
sup-on-grid surrogates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class EvaluationRangeError(ValueError):
    """A sample point lies outside the evaluators' validity radius."""


class PreconditionError(ValueError):
    """Input data violates the check's stated precondition."""


@dataclass(frozen=True)
class PairReport:
    residual_time: float
    residual_freq: float
    gap_time: float
    gap_freq: float
    verdicts: dict
    grids: dict
    tol: float

    def to_json(self) -> str:
        payload = {
            "residuals": {"time": self.residual_time, "freq": self.residual_freq},
            "gaps": {"time": self.gap_time, "freq": self.gap_freq},
            "verdicts": self.verdicts,
            "grids": self.grids,
            "tol": self.tol,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _sup_gap(f_vals: np.ndarray, g_vals: np.ndarray) -> float:
    if len(np.atleast_1d(f_vals)) == 0:
        return 0.0
    return float(np.max(np.abs(np.abs(f_vals) - np.abs(g_vals))))


def discrete_check(f, g, f_hat, g_hat, lam_points: np.ndarray, mu_points: np.ndarray,
                   tol: float = 1e-10, validity_radius: float = np.inf):
    """Residual maxima of sampled modulus agreement; passes iff both <= tol."""
    for pts in (lam_points, mu_points):
        if len(pts) and np.max(np.abs(pts)) > validity_radius:
            raise EvaluationRangeError(
                f"sample radius {np.max(np.abs(pts)):.3g} exceeds validity {validity_radius:.3g}")
    res_t = _sup_gap(f(lam_points), g(lam_points)) if len(lam_points) else 0.0
    res_f = _sup_gap(f_hat(mu_points), g_hat(mu_points)) if len(mu_points) else 0.0
    return res_t, res_f, bool(res_t <= tol and res_f <= tol)


def weak_check(f, g, f_hat, g_hat, time_grid: np.ndarray, freq_grid: np.ndarray,
               tol: float = 1e-8, witness_factor: float = 10.0) -> dict:
    """Grid-sup verdicts per side.

    weak on a side means the grid gap stays below tol; non_weak requires both
    sides to exceed the separated witness floor witness_factor * tol, keeping
    the two verdicts an order of magnitude apart so quadrature noise cannot
    flip them.
    """
    gap_t = _sup_gap(f(time_grid), g(time_grid))
    gap_f = _sup_gap(f_hat(freq_grid), g_hat(freq_grid))
    floor = witness_factor * tol
    return {
        "gap_time": gap_t,
        "gap_freq": gap_f,
        "weak_pair_time": bool(gap_t <= tol),
        "weak_pair_freq": bool(gap_f <= tol),
        "weak_pair": bool(gap_t <= tol or gap_f <= tol),
        "full_pair": bool(gap_t <= tol and gap_f <= tol),
        "non_weak": bool(gap_t >= floor and gap_f >= floor),
    }


def h_eval(f, g, z):
    """H(z) = f(z) conj(f(conj z)) - g(z) conj(g(conj z)).

    Real and equal to |f|^2 - |g|^2 on the real line; for a constructed pair
    it equals 4 Re(phi conj(e^{i theta} psi)) there (polarization).
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=complex))
    zc = np.conj(z_arr)
    out = f(z_arr) * np.conj(f(zc)) - g(z_arr) * np.conj(g(zc))
    return out if np.ndim(z) else out[0]


def sign_retrieval_check(f, g, f_hat, g_hat, lam_points: np.ndarray, mu_points: np.ndarray,
                         time_grid: np.ndarray, freq_grid: np.ndarray,
                         tol: float = 1e-8, witness_factor: float = 10.0) -> dict:
    """Dichotomy for squared-sample data.

    Requires f^2 = g^2 on the samples (both sides) within tol; then reports
    whether the squared identity extends to the grids ("squared identity
    forced") or fails on both ("counterexample persists").
    """
    sq_t = float(np.max(np.abs(f(lam_points) ** 2 - g(lam_points) ** 2))) if len(lam_points) else 0.0
    sq_f = float(np.max(np.abs(f_hat(mu_points) ** 2 - g_hat(mu_points) ** 2))) if len(mu_points) else 0.0
    if sq_t > tol or sq_f > tol:
        raise PreconditionError(
            f"squared samples differ (time {sq_t:.3e}, freq {sq_f:.3e}) beyond tol {tol:.1e}")
    wit_t = float(np.max(np.abs(f(time_grid) ** 2 - g(time_grid) ** 2)))
    wit_f = float(np.max(np.abs(f_hat(freq_grid) ** 2 - g_hat(freq_grid) ** 2)))
    floor = witness_factor * tol
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
                discrete_tol: float = 1e-10, weak_tol: float = 1e-8,
                validity_radius: float = np.inf) -> PairReport:
    """Full verdict bundle for a constructed pair."""
    res_t, res_f, disc_ok = discrete_check(pair.f, pair.g, pair.f_hat, pair.g_hat,
                                           lam_points, mu_points, discrete_tol,
                                           validity_radius)
    weak = weak_check(pair.f, pair.g, pair.f_hat, pair.g_hat, time_grid, freq_grid, weak_tol)
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
    return PairReport(residual_time=res_t, residual_freq=res_f,
                      gap_time=weak["gap_time"], gap_freq=weak["gap_freq"],
                      verdicts=verdicts, grids=grids, tol=weak_tol)
