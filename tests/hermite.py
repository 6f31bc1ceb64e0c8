"""Hermite functions normalized as eigenfunctions of the e^{-2 pi i x xi} transform.

psi_k(x) = (2 pi)^(1/4) phi_k(sqrt(2 pi) x), where phi_k are the standard
orthonormal Hermite functions; then psi_hat_k = (-i)^k psi_k.  The transform
tests use them as an independent route to frequency-side values: project in
time, multiply coefficients by (-i)^k, evaluate in frequency.
"""

from __future__ import annotations

import numpy as np


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """psi_k(x) for k = 0..n_max-1, shape (n_max, len(x)).

    Stable normalized recurrence; orthonormal on the line.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.sqrt(2.0 * np.pi) * x
    out = np.zeros((n_max, len(u)))
    scale = (2.0 * np.pi) ** 0.25
    phi_prev = np.pi ** (-0.25) * np.exp(-u * u / 2.0)
    out[0] = scale * phi_prev
    if n_max == 1:
        return out
    phi = np.sqrt(2.0) * u * phi_prev
    out[1] = scale * phi
    for k in range(2, n_max):
        phi, phi_prev = np.sqrt(2.0 / k) * u * phi - np.sqrt((k - 1.0) / k) * phi_prev, phi
        out[k] = scale * phi
    return out


def project(f_vals: np.ndarray, x: np.ndarray, weights: np.ndarray, n_terms: int) -> np.ndarray:
    """Expansion coefficients a_k = integral f psi_k via supplied quadrature weights."""
    basis = hermite_functions(n_terms, x)
    return basis @ (weights * np.asarray(f_vals, dtype=complex))


def series(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate sum a_k psi_k(x)."""
    basis = hermite_functions(len(coeffs), x)
    return np.asarray(coeffs, dtype=complex) @ basis


def series_hat(coeffs: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Frequency side of the expansion: sum a_k (-i)^k psi_k(xi), exact per term."""
    coeffs = np.asarray(coeffs, dtype=complex)
    eig = (-1.0j) ** np.arange(len(coeffs))
    basis = hermite_functions(len(coeffs), xi)
    return (coeffs * eig) @ basis
