"""Counterexample pair constructions.

All pairs have the shape f = Phi + e^{i theta} Psi, g = Phi - e^{i theta} Psi,
with Phi vanishing on one interleaved part of the sampling set and Psi on the
other, so the sampled moduli agree by construction while the global moduli
generically differ.  Three builders:

* time pair: product models, matching samples on a time set only;
* frequency-matched pair: even Phi and odd Psi (both real), whose transforms
  are real and imaginary respectively, so the frequency moduli agree at every
  point, not just on samples;
* non-weak pair: Phi and Psi are assembled interpolants vanishing on split
  time AND frequency sets, so the sampled moduli agree on both sides while
  both global moduli differ.

Decay budget: each part carries Gaussian rate sigma_A + eps, and eps is the
largest power of two keeping the part's zero density under the transform-decay
threshold with 10% headroom, which is what keeps the pair inside the declared
Gaussian class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .entire_models import ProductModel, profile_product
from .interpolation import DensityTooHighError, VanishingFunction, assemble_vanishing_function
from .sequences import SampledSet, half_density, split_parity
from .thresholds import (SQRT2_INV, SQRT3_HALF, gaussian_rate_base, one_sided_threshold,
                         pauli_threshold, split_bound_argmax, weak_pair_threshold)


class ParameterInfeasibleError(ValueError):
    """No decay headroom satisfies the construction inequality."""


class DegeneratePhaseError(ValueError):
    """Phase selection impossible: the cross product vanishes on the grid."""


class ModelEvaluator:
    """Product model with a cached-node numerical transform."""

    def __init__(self, model: ProductModel, quad: fourier.QuadratureSpec):
        self.model = model
        self.quad = quad
        self._nodes = None

    def eval(self, z):
        return self.model.values(z)

    def _node_values(self) -> np.ndarray:
        if self._nodes is None:
            self._nodes = self.model.values(self.quad.grid())
        return self._nodes

    def eval_hat(self, xi):
        res = fourier.transform_values(self._node_values(), self.quad, xi)
        return res.values if np.ndim(xi) else res.values[0]


class ScaledEvaluator:
    """Constant multiple of another evaluator."""

    def __init__(self, base, factor: complex):
        self.base = base
        self.factor = factor

    def eval(self, z):
        return self.factor * self.base.eval(z)

    def eval_hat(self, xi):
        return self.factor * self.base.eval_hat(xi)


@dataclass
class PairConstruction:
    """f = phi + e^{i vartheta} psi and g = phi - e^{i vartheta} psi."""

    phi: object
    psi: object
    vartheta: float
    provenance: dict = field(default_factory=dict)

    @property
    def _rot(self) -> complex:
        return np.exp(1j * self.vartheta) if self.vartheta != 0.0 else 1.0 + 0.0j

    def f(self, x):
        return self.phi.eval(x) + self._rot * self.psi.eval(x)

    def g(self, x):
        return self.phi.eval(x) - self._rot * self.psi.eval(x)

    def f_hat(self, xi):
        return self.phi.eval_hat(xi) + self._rot * self.psi.eval_hat(xi)

    def g_hat(self, xi):
        return self.phi.eval_hat(xi) - self._rot * self.psi.eval_hat(xi)

    def to_json(self) -> str:
        def encode(part):
            if isinstance(part, ModelEvaluator):
                return {"type": "product_model", "model": json.loads(part.model.to_json()),
                        "quad": {"half_width": part.quad.half_width, "nodes": part.quad.nodes}}
            if isinstance(part, ScaledEvaluator):
                inner = encode(part.base)
                return {"type": "scaled", "factor_re": float(np.real(part.factor)),
                        "factor_im": float(np.imag(part.factor)), "base": inner}
            from .interpolation import AssembledInterpolant
            if isinstance(part, (VanishingFunction, AssembledInterpolant)):
                ip = part.interpolant if isinstance(part, VanishingFunction) else part
                return {
                    "type": "interpolant",
                    "lambda": [float(v) for v in ip.problem.lam],
                    "mu": [float(v) for v in ip.problem.mu],
                    "alpha_re": [float(v) for v in ip.alpha.real],
                    "alpha_im": [float(v) for v in ip.alpha.imag],
                    "beta_re": [float(v) for v in ip.beta.real],
                    "beta_im": [float(v) for v in ip.beta.imag],
                    "weight_a": ip.problem.weight_a,
                    "weight_b": ip.problem.weight_b,
                    "inner_cut": ip.problem.inner_cut,
                    "outer_cut": ip.problem.outer_cut,
                    "time_quad": {"half_width": ip.problem.time_quad.half_width,
                                  "nodes": ip.problem.time_quad.nodes},
                    "freq_quad": {"half_width": ip.problem.freq_quad.half_width,
                                  "nodes": ip.problem.freq_quad.nodes},
                    "time_gen": json.loads(ip.problem.time_gen.to_json()),
                    "freq_gen": json.loads(ip.problem.freq_gen.to_json()),
                }
            raise TypeError(f"cannot serialize evaluator {type(part)!r}")

        return json.dumps({"phi": encode(self.phi), "psi": encode(self.psi),
                           "vartheta": self.vartheta, "provenance": self.provenance},
                          indent=2, sort_keys=True)


def _decode_evaluator(obj: dict):
    kind = obj["type"]
    if kind == "product_model":
        model = ProductModel.from_json(json.dumps(obj["model"]))
        quad = fourier.QuadratureSpec(half_width=obj["quad"]["half_width"],
                                      nodes=obj["quad"]["nodes"])
        return ModelEvaluator(model, quad)
    if kind == "scaled":
        return ScaledEvaluator(_decode_evaluator(obj["base"]),
                               complex(obj["factor_re"], obj["factor_im"]))
    if kind == "interpolant":
        from .interpolation import AssembledInterpolant, InterpolationProblem
        lam = np.array(obj["lambda"], dtype=float)
        mu = np.array(obj["mu"], dtype=float)
        problem = InterpolationProblem(
            lam=lam,
            mu=mu,
            alpha=np.zeros(len(lam), dtype=complex),
            beta=np.zeros(len(mu), dtype=complex),
            weight_a=float(obj["weight_a"]), weight_b=float(obj["weight_b"]),
            time_gen=ProductModel.from_json(json.dumps(obj["time_gen"])),
            freq_gen=ProductModel.from_json(json.dumps(obj["freq_gen"])),
            inner_cut=float(obj["inner_cut"]), outer_cut=float(obj["outer_cut"]),
            time_quad=fourier.QuadratureSpec(half_width=obj["time_quad"]["half_width"],
                                             nodes=obj["time_quad"]["nodes"]),
            freq_quad=fourier.QuadratureSpec(half_width=obj["freq_quad"]["half_width"],
                                             nodes=obj["freq_quad"]["nodes"]),
        )
        alpha = np.array(obj["alpha_re"]) + 1j * np.array(obj["alpha_im"])
        beta = np.array(obj["beta_re"]) + 1j * np.array(obj["beta_im"])
        return AssembledInterpolant(problem, alpha, beta)
    raise ValueError(f"unknown evaluator type {kind!r}")


def pair_from_json(text: str) -> PairConstruction:
    obj = json.loads(text)
    return PairConstruction(phi=_decode_evaluator(obj["phi"]),
                            psi=_decode_evaluator(obj["psi"]),
                            vartheta=float(obj["vartheta"]),
                            provenance=dict(obj.get("provenance", {})))


def _default_quad(gauss_rate: float, nodes: int = 2048) -> fourier.QuadratureSpec:
    half_width = float(np.sqrt(40.0 / (gauss_rate * np.pi)))
    return fourier.QuadratureSpec(half_width=half_width, nodes=nodes, tolerance=1e-8)


def select_phase(phi, psi, time_grid: np.ndarray, freq_grid: np.ndarray | None = None,
                 n_sweep: int = 64) -> float:
    """Rotation angle giving a robust witness that both non-identities hold.

    Maximizes, over the rotation, the smaller of the two grid witnesses
    max |Re(phi * conj(e^{i theta} psi))| (time side, and frequency side when a
    grid is supplied).  Candidates favour 0 so real pairs stay real.
    """
    cross = [np.asarray(phi.eval(time_grid)) * np.conj(np.asarray(psi.eval(time_grid)))]
    if freq_grid is not None:
        cross.append(np.asarray(phi.eval_hat(freq_grid)) * np.conj(np.asarray(psi.eval_hat(freq_grid))))
    if all(np.max(np.abs(c)) == 0.0 for c in cross):
        raise DegeneratePhaseError("cross product vanishes on the whole grid")

    def score(theta: float) -> float:
        rot = np.exp(-1j * theta)
        return min(float(np.max(np.abs(np.real(rot * c)))) for c in cross)

    candidates = np.concatenate([[0.0], np.linspace(0.0, 2 * np.pi, n_sweep, endpoint=False)])
    values = [score(t) for t in candidates]
    best = int(np.argmax(values))
    theta = float(candidates[best])
    if values[best] >= score(0.0) * (1.0 + 1e-12) and best != 0:
        # ternary refinement around the sweep winner
        lo = theta - 2 * np.pi / n_sweep
        hi = theta + 2 * np.pi / n_sweep
        for _ in range(60):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if score(m1) < score(m2):
                lo = m1
            else:
                hi = m2
        theta = 0.5 * (lo + hi)
    else:
        theta = 0.0
    return float(theta)


def _pick_headroom(half_density: float, rate_base: float, freq_rate: float,
                   margin: float = 1.1) -> float:
    """Largest eps = 2^-k with half_density * margin < sqrt((base+eps)(1/freq - base - eps))."""
    need = half_density * margin
    best = 0.0
    for k in range(1, 44):
        eps = 2.0**-k
        gamma = rate_base + eps
        bound = np.sqrt(max(gamma * (1.0 / freq_rate - gamma), 0.0))
        if need < bound:
            return eps
        best = max(best, float(bound))
    raise ParameterInfeasibleError(
        f"no eps = 2^-k clears the {margin} headroom margin: {margin} x half density "
        f"{half_density:.4f} = {need:.4f} >= {best:.4f}, the largest "
        f"sqrt((base + eps)(1/A - base - eps)) at rate base {rate_base:.4f}, A = {freq_rate}")


def _null_space_pair(lam: SampledSet, mu: SampledSet, density_cap: float,
                     provenance: dict, nodes: int) -> PairConstruction:
    """g == 0 branch: f is a vanishing interpolant, split evenly so that the
    pair keeps the phi/psi shape (phi = psi = f/2)."""
    d_max = max(half_density(lam.symmetrized().points), half_density(mu.symmetrized().points))
    if d_max >= density_cap:
        raise DensityTooHighError(f"half density {d_max:.3f} reaches the cap {density_cap:.3f}")
    # free choice of rates here: equal rates s give vanishing bounds
    # sqrt(1 - s^2) on both sides, sized to clear the denser set
    arg = 1.0 - (1.05 * d_max) ** 2
    if arg <= 0.0:
        raise DensityTooHighError(f"half density {d_max:.3f} leaves no rate headroom")
    s_rate = min(0.6, float(np.sqrt(arg)))
    a_rate = b_rate = s_rate
    func = assemble_vanishing_function(lam, mu, a_rate, b_rate, nodes=nodes)
    provenance = dict(provenance)
    provenance.update({"branch": "null_space", "rates": [a_rate, b_rate],
                       "carriers": [float(v) for v in func.aux_points],
                       "residual_time": func.residual_time,
                       "residual_freq": func.residual_freq})
    half = ScaledEvaluator(func, 0.5)
    return PairConstruction(phi=half, psi=half, vartheta=0.0, provenance=provenance)


def build_time_pair(lam: SampledSet, decay: float, eps: float | None = None,
                    nodes: int = 2048, model_count: int = 2048) -> PairConstruction:
    """Pair with matching moduli at every point of a two-sided time set.

    The set is symmetrized, parity-split outward per half-line; the even part
    carries the zeros of the even factor, the odd part (plus the origin) the
    zeros of the odd factor.
    """
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    lam_sym = lam.symmetrized()
    d_half = half_density(lam_sym.points)
    cap = one_sided_threshold(decay) / 2.0
    gamma_base = 1.0 / (2.0 * decay) if decay < SQRT2_INV else decay
    if eps is None:
        try:
            eps = _pick_headroom(d_half / 2.0, gamma_base, decay)
        except ParameterInfeasibleError as exc:
            if d_half < cap:
                # below the threshold: the headroom margin is what fails
                raise
            # confirm the failure mode with the split parts' transform decay
            # at the best Gaussian rate
            from .asymptotics import fourier_decay_predicate
            even, _ = split_parity(SampledSet(points=lam_sym.positive))
            probe = _extended_model(even.points, d_half / 2.0, gamma_base, 0, 1024)
            rate = fourier_decay_predicate(probe, decay).fitted_rate
            raise DensityTooHighError(
                f"half density {d_half:.4f} >= threshold {cap:.4f}; frequency "
                f"envelope rate {rate:.3f} {'<' if rate < decay else '>='} {decay}") from exc
    gamma = gamma_base + eps
    even, odd = split_parity(SampledSet(points=lam_sym.positive))
    quad = _default_quad(gamma, nodes)
    phi = ModelEvaluator(_extended_model(even.points, d_half / 2.0, gamma, 0, model_count), quad)
    psi = ModelEvaluator(_extended_model(odd.points, d_half / 2.0, gamma, 1, model_count), quad)
    time_grid = np.linspace(-3.0, 3.0, 241)
    theta = select_phase(phi, psi, time_grid)
    provenance = {"kind": "time_pair", "decay": decay, "eps": eps, "gamma": gamma,
                  "half_density": d_half, "threshold": cap,
                  "seed": lam.meta.get("seed"), "count": len(lam_sym.points)}
    return PairConstruction(phi=phi, psi=psi, vartheta=theta, provenance=provenance)


def _extended_model(zeros_pos: np.ndarray, half_density: float, gamma: float,
                    parity: int, model_count: int) -> ProductModel:
    """Quartic model on the given zeros, extended along the square-root profile
    continuation up to model_count zeros for tail-rule accuracy.

    An empty zero list yields the pure Gaussian (times the parity factor)."""
    zeros_pos = np.sort(np.asarray(zeros_pos, dtype=float))
    n_have = len(zeros_pos)
    if n_have == 0:
        return ProductModel(zeros=np.empty(0), gauss_rate=gamma, parity=parity)
    if n_have >= model_count:
        return profile_product(zeros_pos[:model_count], half_density, gauss_rate=gamma,
                               parity=parity)
    m = np.arange(n_have + 1, model_count + 1, dtype=float)
    extension = np.sqrt(m / half_density)
    extension = extension[extension > zeros_pos[-1] * (1.0 + 1e-12)]
    zeros = np.concatenate([zeros_pos, extension])
    return profile_product(zeros, half_density, gauss_rate=gamma, parity=parity)


def build_frequency_matched_pair(lam: SampledSet, decay: float, eps: float | None = None,
                                 nodes: int = 2048, model_count: int = 2048) -> PairConstruction:
    """Pair whose frequency moduli agree everywhere, sampled moduli agree at
    +-lambda, and time moduli differ.

    Needs a nonnegative half-line set; the even factor is even and real, the
    odd factor odd and real, making one transform real-valued and the other
    imaginary-valued (pointwise orthogonality).
    """
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    if np.any(lam.points < 0):
        raise ValueError("frequency-matched construction expects a set on [0, inf)")
    if decay >= SQRT3_HALF:
        return _null_space_pair(lam.symmetrized(), SampledSet(points=np.empty(0)),
                                pauli_threshold(decay) / 2.0,
                                {"kind": "frequency_matched", "decay": decay}, nodes)
    d_half = half_density(lam.points)
    cap = pauli_threshold(decay) / 2.0
    sigma = gaussian_rate_base(decay)
    if eps is None:
        eps = _pick_headroom(d_half / 2.0, sigma, decay)
    gamma = sigma + eps
    even, odd = split_parity(SampledSet(points=lam.positive))
    quad = _default_quad(gamma, nodes)
    phi = ModelEvaluator(_extended_model(even.points, d_half / 2.0, gamma, 0, model_count), quad)
    psi = ModelEvaluator(_extended_model(odd.points, d_half / 2.0, gamma, 1, model_count), quad)
    provenance = {"kind": "frequency_matched", "decay": decay, "eps": eps, "gamma": gamma,
                  "half_density": d_half, "threshold": cap,
                  "seed": lam.meta.get("seed"), "count": len(lam.points)}
    return PairConstruction(phi=phi, psi=psi, vartheta=0.0, provenance=provenance)


def build_nonweak_pair(lam: SampledSet, mu: SampledSet, decay: float,
                       nodes: int = 4096, tol: float = 1e-9) -> PairConstruction:
    """Pair matching sampled moduli on both sets while both global moduli differ.

    Splits each set by parity; each part pair (time, frequency) is wiped out
    by an assembled vanishing function.  The split decay rates are
    (A, x_A/A) for the even factor and (x_A/A, A) for the odd one, whose
    density budgets add up exactly to the weak-pair threshold.
    """
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    if decay >= SQRT3_HALF:
        return _null_space_pair(lam, mu, weak_pair_threshold(decay) / 2.0,
                                {"kind": "non_weak", "decay": decay}, nodes)
    cap = weak_pair_threshold(decay) / 2.0
    for name, s in (("time", lam), ("frequency", mu)):
        d = half_density(s.symmetrized().points)
        if d >= cap:
            raise DensityTooHighError(f"{name} half density {d:.4f} >= threshold {cap:.4f}")
    x_a = split_bound_argmax(decay)
    a1, b1 = decay, x_a / decay
    a2, b2 = x_a / decay, decay
    if len(lam) == 0 and len(mu) == 0:
        # vacuous sampling: two pure Gaussians at distinct rates
        rate_phi = a1
        rate_psi = a2 if abs(a2 - a1) > 1e-12 else min(1.2 * a1, 0.9 / decay)
        quad = _default_quad(min(rate_phi, rate_psi), nodes)
        phi = ModelEvaluator(ProductModel(zeros=np.empty(0), gauss_rate=rate_phi), quad)
        psi = ModelEvaluator(ProductModel(zeros=np.empty(0), gauss_rate=rate_psi), quad)
        provenance = {"kind": "non_weak", "decay": decay, "branch": "vacuous",
                      "rates": [rate_phi, rate_psi]}
        return PairConstruction(phi=phi, psi=psi, vartheta=0.0, provenance=provenance)
    lam1, lam2 = split_parity(lam.symmetrized())
    mu1, mu2 = split_parity(mu.symmetrized())
    phi = assemble_vanishing_function(lam1, mu1, a1, b1, nodes=nodes, tol=tol)
    psi = assemble_vanishing_function(lam2, mu2, a2, b2, nodes=nodes, tol=tol)
    time_grid = np.linspace(-2.5, 2.5, 201)
    freq_grid = np.linspace(-2.5, 2.5, 201)
    theta = select_phase(phi, psi, time_grid, freq_grid)
    provenance = {"kind": "non_weak", "decay": decay, "rates": [a1, b1, a2, b2],
                  "threshold": cap, "argmax": x_a,
                  "phi_residuals": [phi.residual_time, phi.residual_freq],
                  "psi_residuals": [psi.residual_time, psi.residual_freq],
                  "phi_cut": phi.inner_cut, "psi_cut": psi.inner_cut,
                  "seed": [lam.meta.get("seed"), mu.meta.get("seed")]}
    return PairConstruction(phi=phi, psi=psi, vartheta=theta, provenance=provenance)
