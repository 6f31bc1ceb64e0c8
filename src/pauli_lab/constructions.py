"""Counterexample pair constructions.

All pairs have the shape f = Phi + Psi, g = Phi - Psi, with Phi vanishing on
one interleaved part of the sampling set and Psi on the other, so the sampled
moduli agree by construction while the global moduli generically differ.
Every builder makes Phi and Psi real on the real line, so
|f|^2 - |g|^2 = 4 Phi Psi there.  Three builders:

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
from functools import cached_property

import numpy as np

from . import CheckFailedError, fourier
from .entire_models import ProductModel, profile_product
from .interpolation import (AssembledInterpolant, DensityTooHighError, InterpolationProblem,
                            assemble_vanishing_function, check_points)
from .jsonfile import json_numbers, json_text, json_value
from .sequences import SampledSet, half_density, split_parity
from .thresholds import (SQRT3_HALF, gaussian_rate_base, one_sided_threshold, pauli_threshold,
                         split_bound_argmax, weak_pair_threshold)


class ParameterInfeasibleError(ValueError, CheckFailedError):
    """No decay headroom satisfies the construction inequality."""


class DegeneratePhaseError(ValueError, CheckFailedError):
    """The witness Re(phi * conj(psi)) of |f| != |g| vanishes on every grid."""


class ModelEvaluator:
    """Product model with a cached-node numerical transform."""

    def __init__(self, model: ProductModel, quad: fourier.QuadratureSpec):
        self.model = model
        self.quad = quad

    @property
    def point_range(self) -> float:
        """The largest |z| at which ``eval`` evaluates."""
        return self.model.point_range

    def eval(self, z: np.ndarray) -> np.ndarray:
        """The model at a 1-D array of points."""
        return self.model.values(z)

    @cached_property
    def _node_values(self) -> np.ndarray:
        return self.model.values(self.quad.grid())

    def eval_hat(self, xi: np.ndarray) -> np.ndarray:
        """The model's quadrature transform at a 1-D array of frequencies."""
        return fourier.transform_values(self._node_values, self.quad, xi)


@dataclass
class PairConstruction:
    """f = phi + psi and g = phi - psi."""

    phi: object
    psi: object
    provenance: dict = field(default_factory=dict)

    @staticmethod
    def combine(phi, psi):
        """(f, g) from the values of phi and psi at the same points."""
        return phi + psi, phi - psi

    def fg(self, x):
        """(f, g) at x from one evaluation of each distinct part."""
        phi = self.phi.eval(x)
        return self.combine(phi, phi if self.psi is self.phi else self.psi.eval(x))

    def fg_hat(self, xi):
        """(f hat, g hat) at xi from one transform evaluation of each distinct part."""
        phi = self.phi.eval_hat(xi)
        return self.combine(phi, phi if self.psi is self.phi else self.psi.eval_hat(xi))

    def to_json(self) -> str:
        def encode(part):
            if isinstance(part, ModelEvaluator):
                return {"type": "product_model", "model": part.model.to_dict(),
                        "quad": {"half_width": part.quad.half_width, "nodes": part.quad.nodes}}
            if isinstance(part, AssembledInterpolant):
                p = part.problem
                return {
                    "type": "interpolant",
                    "lambda": p.lam.tolist(),
                    "mu": p.mu.tolist(),
                    "alpha": part.alpha.real.tolist(),
                    "beta": part.beta.real.tolist(),
                    "weight_a": p.weight_a,
                    "weight_b": p.weight_b,
                    "inner_cut": p.inner_cut,
                    "outer_cut": p.outer_cut,
                    "time_quad": {"half_width": p.time_quad.half_width,
                                  "nodes": p.time_quad.nodes},
                    "freq_quad": {"half_width": p.freq_quad.half_width,
                                  "nodes": p.freq_quad.nodes},
                    "time_gen": p.time_gen.to_dict(),
                    "freq_gen": p.freq_gen.to_dict(),
                }
            raise TypeError(f"cannot serialize evaluator {type(part)!r}")

        return json_text({"phi": encode(self.phi), "psi": encode(self.psi),
                          "vartheta": 0.0, "provenance": self.provenance})


def _decode_evaluator(obj, name: str):
    def field(key: str, kind: type = float):
        return json_value(obj[key], kind, f"the {name!r} part's {key!r}")

    def numbers(key: str) -> np.ndarray:
        return json_numbers(obj[key], f"the {name!r} part's {key!r}")

    def quad(key: str) -> fourier.QuadratureSpec:
        spec, where = field(key, dict), f"the {name!r} part's {key!r}"
        return fourier.QuadratureSpec(
            half_width=json_value(spec["half_width"], float, f"{where} half_width"),
            nodes=json_value(spec["nodes"], int, f"{where} nodes"))

    kind = json_value(obj, dict, f"the pair part {name!r}")["type"]
    if kind == "product_model":
        return ModelEvaluator(ProductModel.from_dict(obj["model"]), quad("quad"))
    if kind == "interpolant" and "alpha_re" not in obj:
        lam, mu = numbers("lambda"), numbers("mu")
        problem = InterpolationProblem(
            lam=lam,
            mu=mu,
            alpha=np.zeros(len(lam), dtype=complex),
            beta=np.zeros(len(mu), dtype=complex),
            weight_a=field("weight_a"), weight_b=field("weight_b"),
            time_gen=ProductModel.from_dict(obj["time_gen"]),
            freq_gen=ProductModel.from_dict(obj["freq_gen"]),
            inner_cut=field("inner_cut"), outer_cut=field("outer_cut"),
            time_quad=quad("time_quad"),
            freq_quad=quad("freq_quad"),
        )
        return AssembledInterpolant(problem, numbers("alpha"), numbers("beta"))
    # old formats: "scaled" parts, and interpolants with complex "alpha_re", ... keys
    raise ValueError(f"the pair part {name!r} of type {kind!r} is in an old or unknown "
                     "format; rebuild the pair with `construct`")


def pair_from_json(text: str) -> PairConstruction:
    """The pair ``PairConstruction.to_json`` wrote; identical parts decode to
    one shared evaluator, as ``_null_space_pair`` built them."""
    obj = json_value(json.loads(text), dict, "a pair file")
    if json_value(obj["vartheta"], float, "a pair's 'vartheta'") != 0.0:
        raise ValueError(f"pair JSON sets 'vartheta' to {obj['vartheta']!r}; the pairs "
                         "are f = phi + psi and g = phi - psi, with vartheta = 0.0")
    phi = _decode_evaluator(obj["phi"], "phi")
    psi = phi if obj["psi"] == obj["phi"] else _decode_evaluator(obj["psi"], "psi")
    provenance = json_value(obj.get("provenance", {}), dict, "the pair's provenance")
    return PairConstruction(phi=phi, psi=psi, provenance=provenance)


def select_phase(phi, psi, time_grid: np.ndarray, freq_grid: np.ndarray | None = None) -> None:
    """Check the witness of the non-identities |f| != |g| of f = phi + psi, g = phi - psi.

    Every builder makes phi and psi real on the real line, and the non-weak
    parts' transforms real as well, so |f|^2 - |g|^2 = 4 phi psi.  Raises
    DegeneratePhaseError when the witness max |Re(phi * conj(psi))| vanishes
    on the time grid and on the frequency grid, when one is supplied; the
    frequency grid is read only when the time grid shows no witness.
    """
    def witness(a, b) -> float:
        return np.max(np.abs(np.real(a * np.conj(b))))

    if witness(phi.eval(time_grid), psi.eval(time_grid)) != 0.0:
        return
    if freq_grid is None or witness(phi.eval_hat(freq_grid), psi.eval_hat(freq_grid)) == 0.0:
        raise DegeneratePhaseError("the witness Re(phi * conj(psi)) vanishes on every grid")


def _pick_headroom(half_density: float, rate_base: float, freq_rate: float) -> float:
    """Largest eps = 2^-k with half_density * 1.1 < sqrt((base+eps)(1/freq - base - eps))."""
    margin = 1.1
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
    pair keeps the phi/psi shape (phi = psi = f/2, one shared part)."""
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
                       "carriers": [func.carrier],
                       "residual_time": func.residual_time,
                       "residual_freq": func.residual_freq})
    f = func.interpolant
    # halving the coefficients is exact, so f = phi + psi bit for bit
    half = AssembledInterpolant(f.problem, 0.5 * f.alpha, 0.5 * f.beta)
    return PairConstruction(phi=half, psi=half, provenance=provenance)


def _product_pair(points: SampledSet, decay: float, cap: float, rate_base: float,
                  provenance: dict) -> PairConstruction:
    """Product-model parts of a symmetric (time) or half-line (frequency-matched) set.

    The nonnegative points are parity-split outward; the even part carries
    the zeros of the even factor, the odd part those of the odd factor, both
    at the Gaussian rate ``rate_base`` plus the headroom, and each continued
    along the square-root profile past its last zero (``profile_product``).
    A part with no zeros is the Gaussian (times z when odd).  A half density
    at or above ``cap`` raises DensityTooHighError before anything is built;
    below it the headroom search may still fail, as may ``check_points``.
    """
    check_points("time", points.points, origin=False)
    d_half = half_density(points.points)
    if d_half >= cap:
        raise DensityTooHighError(f"half density {d_half:.4f} >= threshold {cap:.4f}")
    d_part = d_half / 2.0
    eps = _pick_headroom(d_part, rate_base, decay)
    even, odd = split_parity(SampledSet(points=points.positive))
    gamma = rate_base + eps
    quad = fourier.QuadratureSpec(half_width=float(np.sqrt(40.0 / (gamma * np.pi))), nodes=2048)
    phi = ModelEvaluator(profile_product(even.points, d_part, gamma) if len(even)
                         else ProductModel(gauss_rate=gamma), quad)
    # a point 0 is the odd part's first, and the odd factor's z vanishes there
    odd_zeros = odd.points[odd.points > 0]
    psi = ModelEvaluator(profile_product(odd_zeros, d_part, gamma, parity=1) if len(odd_zeros)
                         else ProductModel(gauss_rate=gamma, parity=1), quad)
    provenance.update({"decay": decay, "eps": eps, "gamma": gamma, "half_density": d_half,
                       "threshold": cap, "count": len(points.points)})
    return PairConstruction(phi=phi, psi=psi, provenance=provenance)


def build_time_pair(lam: SampledSet, decay: float) -> PairConstruction:
    """Pair with matching moduli at every point of a two-sided time set.

    The set is symmetrized and split as in ``_product_pair``; ``select_phase``
    checks the witness of |f| != |g| on [-3, 3].
    """
    pair = _product_pair(lam.symmetrized(), decay, one_sided_threshold(decay) / 2.0,
                         gaussian_rate_base(decay), {"kind": "time_pair"})
    select_phase(pair.phi, pair.psi, np.linspace(-3.0, 3.0, 241))
    return pair


def build_frequency_matched_pair(lam: SampledSet, decay: float) -> PairConstruction:
    """Pair whose frequency moduli agree everywhere, sampled moduli agree at
    +-lambda, and time moduli differ.

    Needs a nonnegative half-line set; the even factor is even and real, the
    odd factor odd and real, making one transform real-valued and the other
    imaginary-valued (pointwise orthogonality).
    """
    cap = pauli_threshold(decay) / 2.0
    if np.any(lam.points < 0):
        raise ValueError("frequency-matched construction expects a set on [0, inf)")
    if decay >= SQRT3_HALF:
        return _null_space_pair(lam.symmetrized(), SampledSet(points=np.empty(0)), cap,
                                {"kind": "frequency_matched", "decay": decay}, 2048)
    return _product_pair(lam, decay, cap, gaussian_rate_base(decay),
                         {"kind": "frequency_matched"})


def build_nonweak_pair(lam: SampledSet, mu: SampledSet, decay: float,
                       nodes: int = 4096) -> PairConstruction:
    """Pair matching sampled moduli on both sets while both global moduli differ.

    Splits each set by parity; each part pair (time, frequency) is wiped out
    by an assembled vanishing function.  The split decay rates are
    (A, x_A/A) for the even factor and (x_A/A, A) for the odd one, whose
    density budgets add up exactly to the weak-pair threshold.  Two empty
    sets constrain nothing and raise ValueError.
    """
    cap = weak_pair_threshold(decay) / 2.0
    if decay >= SQRT3_HALF:
        return _null_space_pair(lam, mu, cap, {"kind": "non_weak", "decay": decay}, nodes)
    for name, s in (("time", lam), ("frequency", mu)):
        d = half_density(s.symmetrized().points)
        if d >= cap:
            raise DensityTooHighError(f"{name} half density {d:.4f} >= threshold {cap:.4f}")
    x_a = split_bound_argmax(decay)
    a1, b1 = decay, x_a / decay
    a2, b2 = x_a / decay, decay
    if len(lam) == 0 and len(mu) == 0:
        raise ValueError("the non-weak construction needs a time or a frequency point")
    lam1, lam2 = split_parity(lam.symmetrized())
    mu1, mu2 = split_parity(mu.symmetrized())
    vf_phi = assemble_vanishing_function(lam1, mu1, a1, b1, nodes=nodes)
    vf_psi = assemble_vanishing_function(lam2, mu2, a2, b2, nodes=nodes)
    phi, psi = vf_phi.interpolant, vf_psi.interpolant
    grid = np.linspace(-2.5, 2.5, 201)
    select_phase(phi, psi, grid, grid)
    provenance = {"kind": "non_weak", "decay": decay, "rates": [a1, b1, a2, b2],
                  "threshold": cap, "argmax": x_a,
                  "phi_residuals": [vf_phi.residual_time, vf_phi.residual_freq],
                  "psi_residuals": [vf_psi.residual_time, vf_psi.residual_freq],
                  "phi_cut": vf_phi.window_cut, "psi_cut": vf_psi.window_cut}
    return PairConstruction(phi=phi, psi=psi, provenance=provenance)
