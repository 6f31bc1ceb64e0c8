"""Simultaneous time/frequency interpolation by contraction.

Prescribing f on a windowed time set and fhat on a windowed frequency set is
solved with two cardinal bases: time-side cardinal functions of a generator
vanishing on the time set, and frequency-side cardinal functions of a
generator vanishing on the frequency set (whose time profiles come from the
inverse transform).  Each basis interpolates its own side exactly; the
cross-coupling is beaten by iteration, and once the weighted operator norms of
the two cross maps drop below 1/2 the residual norm at least halves per step.

The feasibility constant is never derived from theory: the window cut L is
chosen by directly measuring the weighted norms, which yields the same
contraction certificate constructively.

All windowed problems here are finite: the sets are truncated at an outer
radius, where the Gaussian weights make the dropped tail's contribution
negligible against the solver tolerance.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fourier
from .entire_models import ProductModel, profile_tail_sums
from .sequences import SampledSet, half_density
from .thresholds import DecayParams, uniqueness_density_bounds


class NoFeasibleWindowError(RuntimeError):
    """No candidate cut achieved contracting cross norms."""

    def __init__(self, diagnostics):
        best = min((max(na, nb) for _, na, nb in diagnostics), default=float("inf"))
        super().__init__(f"no feasible window cut; best max norm {best:.3g} (need < 0.5)")
        self.diagnostics = diagnostics


class SolverFailedError(RuntimeError):
    """Iteration diverged or missed the tolerance within the cap."""


class NullSpaceEmptyError(RuntimeError):
    """Interior constraints admit no nonzero annihilating combination."""


class DensityTooHighError(ValueError):
    """Sampling or vanishing set is denser than the decay parameters allow."""


class CarrierPlacementError(RuntimeError):
    """The window holds too few set points or midgaps for the auxiliary carriers."""


@dataclass(frozen=True)
class InterpolationProblem:
    """Windowed two-sided interpolation data with Gaussian-weighted norms.

    ``lam``/``mu`` hold the window points (inner_cut < |.| <= outer_cut), and
    ``alpha``/``beta`` the aligned target values.  The generators vanish on
    supersets of the respective full sets.
    """

    lam: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    weight_a: float
    weight_b: float
    time_gen: ProductModel
    freq_gen: ProductModel
    inner_cut: float
    outer_cut: float
    time_quad: fourier.QuadratureSpec
    freq_quad: fourier.QuadratureSpec

    def __post_init__(self) -> None:
        if not self.inner_cut < self.outer_cut:
            raise ValueError("need inner_cut < outer_cut")
        if len(self.lam) != len(self.alpha) or len(self.mu) != len(self.beta):
            raise ValueError("targets must align with window points")

    @property
    def lam_weights(self) -> np.ndarray:
        return np.exp(self.weight_a * np.pi * self.lam**2)

    @property
    def mu_weights(self) -> np.ndarray:
        return np.exp(self.weight_b * np.pi * self.mu**2)

    @cached_property
    def time_columns(self) -> np.ndarray:
        """Time-side cardinal functions Phi_lam on the time quadrature nodes."""
        return divided_columns(self.time_gen, self.lam, self.time_quad.grid())

    @cached_property
    def freq_columns(self) -> np.ndarray:
        """Frequency-side cardinal functions What_mu on the frequency quadrature nodes."""
        return divided_columns(self.freq_gen, self.mu, self.freq_quad.grid())

    def data_norm(self, alpha: np.ndarray, beta: np.ndarray) -> float:
        """Weighted l1 norm of a data pair on the window."""
        t = float(self.lam_weights @ np.abs(alpha)) if len(self.lam) else 0.0
        f = float(self.mu_weights @ np.abs(beta)) if len(self.mu) else 0.0
        return t + f

    def restricted(self, inner_cut: float) -> "InterpolationProblem":
        keep_l = np.abs(self.lam) > inner_cut
        keep_m = np.abs(self.mu) > inner_cut
        sub = dataclasses.replace(self, lam=self.lam[keep_l], mu=self.mu[keep_m],
                                  alpha=self.alpha[keep_l], beta=self.beta[keep_m],
                                  inner_cut=inner_cut)
        return self._carry_columns(sub, keep_l, keep_m)

    def with_data(self, alpha: np.ndarray, beta: np.ndarray) -> "InterpolationProblem":
        """The same window and generators with new target values."""
        return self._carry_columns(dataclasses.replace(self, alpha=alpha, beta=beta))

    def _carry_columns(self, other: "InterpolationProblem", keep_l=slice(None),
                       keep_m=slice(None)) -> "InterpolationProblem":
        # each node column depends on its own point only, not on the data, so
        # columns already computed carry over as row subsets
        for name, keep in (("time_columns", keep_l), ("freq_columns", keep_m)):
            if name in self.__dict__:
                other.__dict__[name] = self.__dict__[name][keep]
        return other


@dataclass
class IterationState:
    norms: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    diverged: bool = False
    converged: bool = False

    def record(self, norm: float) -> None:
        if self.norms:
            prev = self.norms[-1]
            self.ratios.append(norm / prev if prev > 0 else 0.0)
            if len(self.ratios) >= 2 and self.ratios[-1] >= 1.0 and self.ratios[-2] >= 1.0:
                self.diverged = True
        self.norms.append(norm)


@dataclass(frozen=True)
class CrossMatrices:
    """psi_at_lambda[i, j] = Psi_{mu_j}(lambda_i); phihat_at_mu[i, j] = Phihat_{lambda_j}(mu_i)."""

    psi_at_lambda: np.ndarray
    phihat_at_mu: np.ndarray
    psi_error: float
    phihat_error: float


def divided_columns(model: ProductModel, lams: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cardinal-function values (len(lams), len(x)) sharing one base evaluation.

    The base model value is divided by (x - lam) * model'(lam) per column, with
    all derivatives from one pass; the quotient is well conditioned because
    the vanishing factor is computed as an exact difference, and nodes
    colliding with lam fall back to the cancelled-factor path.  Real ``x``
    stays in real arithmetic.
    """
    x = np.asarray(x)
    if not len(lams):
        return np.empty((0, len(x)), dtype=complex)
    lams = np.asarray(lams, dtype=float)
    diff = x - lams[:, None]
    out = diff * model.derivative_at_zero(lams)[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(model.values(x), out, out=out)
    near = np.abs(diff) < 1e-9
    for j in np.flatnonzero(np.any(near, axis=1)):
        out[j, near[j]] = model.divided_basis_eval(lams[j], x[near[j]])
    return out


def _cross(cols: np.ndarray, quad: fourier.QuadratureSpec, targets: np.ndarray,
           inverse: bool) -> tuple[np.ndarray, float]:
    """(len(targets), len(cols)) quadrature matrix and its Richardson difference."""
    if not len(cols):
        return np.empty((len(targets), 0), dtype=complex), 0.0
    fine, coarse = fourier.phase_sum(cols, quad, targets, inverse=inverse, coarse=True)
    return fine.T, float(np.max(np.abs(fine - coarse))) if fine.size else 0.0


def build_cross_matrices(problem: InterpolationProblem) -> CrossMatrices:
    """Dense cross-coupling matrices via shared-base quadrature."""
    p = problem
    # frequency-side basis evaluated in time: inverse transform per mu column
    a, a_err = _cross(p.freq_columns, p.freq_quad, p.lam, inverse=True)
    # time-side basis transformed to frequency: forward transform per lambda column
    b, b_err = _cross(p.time_columns, p.time_quad, p.mu, inverse=False)
    return CrossMatrices(psi_at_lambda=a, phihat_at_mu=b, psi_error=a_err, phihat_error=b_err)


def weighted_norms(problem: InterpolationProblem, mats: CrossMatrices) -> tuple[float, float]:
    """Weighted-l1 operator norms of the two cross maps."""
    wl = problem.lam_weights
    wm = problem.mu_weights
    if mats.psi_at_lambda.size:
        n_a = float(np.max((wl @ np.abs(mats.psi_at_lambda)) / wm))
    else:
        n_a = 0.0
    if mats.phihat_at_mu.size:
        n_b = float(np.max((wm @ np.abs(mats.phihat_at_mu)) / wl))
    else:
        n_b = 0.0
    return n_a, n_b


def choose_window_cut(problem: InterpolationProblem, candidates=None,
                      bound: float = 0.5, criterion: str = "each") -> tuple[float, list]:
    """Smallest inner cut whose measured cross norms certify contraction.

    With criterion "each", both weighted norms must fall below ``bound`` (the
    halving certificate).  With "product", the acceptance is
    N_A * N_B < bound^2 with a transient cap: the iteration alternates sides,
    so its two-step ratio is governed by the product of the one-sided norms;
    requiring each below 1/2 is sufficient but not necessary.

    Matrices are assembled once on the widest window; candidate cuts reuse
    them as submatrices.  Raises NoFeasibleWindowError with the measured
    norms when nothing contracts.
    """
    p = problem
    mats = build_cross_matrices(p)
    radii = np.unique(np.abs(np.concatenate([p.lam, p.mu]))) if len(p.lam) + len(p.mu) else np.array([])
    if candidates is None:
        mids = 0.5 * (radii[:-1] + radii[1:]) if len(radii) > 1 else np.array([])
        candidates = np.concatenate([[p.inner_cut], mids])
    diagnostics = []
    wl_full, wm_full = p.lam_weights, p.mu_weights
    for cut in np.sort(np.asarray(candidates, dtype=float)):
        if cut < p.inner_cut or cut >= p.outer_cut:
            continue
        il = np.abs(p.lam) > cut
        im = np.abs(p.mu) > cut
        sub_a = mats.psi_at_lambda[np.ix_(il, im)]
        sub_b = mats.phihat_at_mu[np.ix_(im, il)]
        wl, wm = wl_full[il], wm_full[im]
        n_a = float(np.max((wl @ np.abs(sub_a)) / wm)) if sub_a.size else 0.0
        n_b = float(np.max((wm @ np.abs(sub_b)) / wl)) if sub_b.size else 0.0
        diagnostics.append((float(cut), n_a, n_b))
        if n_a < bound and n_b < bound:
            return float(cut), diagnostics
        if criterion == "product" and n_a * n_b < bound * bound and max(n_a, n_b) < 2.0:
            return float(cut), diagnostics
    raise NoFeasibleWindowError(diagnostics)


class AssembledInterpolant:
    """Evaluator sum_j alpha_j Phi_{lam_j} + sum_k beta_k Psi_{mu_k}.

    The time part evaluates through the generator's cardinal functions; the
    frequency-side basis enters time evaluation through inverse quadrature of
    the problem's node columns and contributes its exact cardinal values on
    the frequency side (and symmetrically for eval_hat).  Coefficients of
    shape (n, k) stack k interpolants; values then come back as (points, k).
    """

    def __init__(self, problem: InterpolationProblem, alpha: np.ndarray, beta: np.ndarray):
        self.problem = problem
        self.alpha = np.asarray(alpha, dtype=complex)
        self.beta = np.asarray(beta, dtype=complex)

    def eval(self, x) -> np.ndarray:
        p = self.problem
        x_arr = np.atleast_1d(np.asarray(x))
        total = np.zeros((len(x_arr),) + self.alpha.shape[1:], dtype=complex)
        if len(p.lam):
            total += (self.alpha.T @ divided_columns(p.time_gen, p.lam, x_arr)).T
        if len(p.mu):
            total += fourier.phase_sum(p.freq_columns, p.freq_quad, x_arr, inverse=True,
                                       coeffs=self.beta).T
        return total if np.ndim(x) else total[0]

    def eval_hat(self, xi) -> np.ndarray:
        p = self.problem
        xi_arr = np.atleast_1d(np.asarray(xi))
        total = np.zeros((len(xi_arr),) + self.alpha.shape[1:], dtype=complex)
        if len(p.lam):
            total += fourier.phase_sum(p.time_columns, p.time_quad, xi_arr,
                                       coeffs=self.alpha).T
        if len(p.mu):
            total += (self.beta.T @ divided_columns(p.freq_gen, p.mu, xi_arr)).T
        return total if np.ndim(xi) else total[0]


@dataclass
class SolveResult:
    interpolant: AssembledInterpolant
    state: IterationState
    alpha_total: np.ndarray
    beta_total: np.ndarray
    verify_time: float
    verify_freq: float


def _iterate(problem: InterpolationProblem, mats: CrossMatrices, alpha0: np.ndarray,
             beta0: np.ndarray, tol: float, max_iter: int):
    """Shared contraction loop for stacked right-hand sides."""
    alpha = np.atleast_2d(np.asarray(alpha0, dtype=complex).T).T
    beta = np.atleast_2d(np.asarray(beta0, dtype=complex).T).T
    n_rhs = alpha.shape[1]
    wl, wm = problem.lam_weights, problem.mu_weights
    states = [IterationState() for _ in range(n_rhs)]
    tot_a = np.zeros_like(alpha)
    tot_b = np.zeros_like(beta)

    def norms(a, b):
        out = np.zeros(n_rhs)
        if len(problem.lam):
            out += wl @ np.abs(a)
        if len(problem.mu):
            out += wm @ np.abs(b)
        return out

    cur_a, cur_b = alpha.copy(), beta.copy()
    for _ in range(max_iter):
        n = norms(cur_a, cur_b)
        for s, v in zip(states, n):
            s.record(float(v))
        if any(s.diverged for s in states):
            break
        tot_a += cur_a
        tot_b += cur_b
        cur_a, cur_b = (
            -mats.psi_at_lambda @ cur_b if mats.psi_at_lambda.size else np.zeros_like(cur_a),
            -mats.phihat_at_mu @ cur_a if mats.phihat_at_mu.size else np.zeros_like(cur_b),
        )
        if np.all(norms(cur_a, cur_b) < tol):
            for s in states:
                s.converged = True
            break
    return tot_a, tot_b, states


def solve(problem: InterpolationProblem, tol: float = 1e-10, max_iter: int = 60,
          mats: CrossMatrices | None = None) -> SolveResult:
    """Run the contraction iteration and independently verify the interpolant.

    Verification re-evaluates the assembled function at the time points and
    re-transforms it with a finer fresh quadrature at the frequency points,
    bypassing the iteration's own matrices.
    """
    if mats is None:
        mats = build_cross_matrices(problem)
    tot_a, tot_b, states = _iterate(problem, mats, problem.alpha, problem.beta, tol, max_iter)
    state = states[0]
    if state.diverged or not state.converged:
        raise SolverFailedError(
            f"contraction failed after {len(state.norms)} steps; norms {state.norms[-3:]}")
    interp = AssembledInterpolant(problem, tot_a[:, 0], tot_b[:, 0])
    v_time = 0.0
    if len(problem.lam):
        v_time = float(np.max(np.abs(interp.eval(problem.lam) - problem.alpha)))
    v_freq = 0.0
    if len(problem.mu):
        fresh_nodes = problem.time_quad.nodes + problem.time_quad.nodes // 2
        fresh = fourier.QuadratureSpec(problem.time_quad.half_width + 0.5,
                                       fresh_nodes + fresh_nodes % 2,
                                       problem.time_quad.tolerance)
        hat = fourier.transform(interp.eval, fresh, problem.mu)
        v_freq = float(np.max(np.abs(hat.values - problem.beta)))
    return SolveResult(interpolant=interp, state=state, alpha_total=tot_a[:, 0],
                       beta_total=tot_b[:, 0], verify_time=v_time, verify_freq=v_freq)


# -- generator assembly -------------------------------------------------------


def vanishing_generator(points_pos: np.ndarray, gauss_rate: float,
                        density: float | None = None) -> ProductModel:
    """Gaussian-times-quartic model vanishing at +-points (square-root profile tail)."""
    pts = np.sort(np.asarray(points_pos, dtype=float))
    if density is None:
        density = half_density(pts)
    # continue the sqrt profile past the last zero, wherever it sits
    t2, t4, nxt = (profile_tail_sums(density, int(np.floor(density * pts[-1]**2)))
                   if len(pts) else (0.0, 0.0, 0.0))
    return ProductModel(zeros=pts, gauss_rate=gauss_rate, tail_t2=t2, tail_t4=t4,
                        tail_next_zero=nxt, quartic=True)


def default_quads(weight_rate: float, outer_radius: float,
                  nodes: int = 4096) -> fourier.QuadratureSpec:
    """Window wide enough that the weighted integrand tail is below rounding."""
    half_width = float(np.sqrt(outer_radius**2 + 38.0 / (weight_rate * np.pi)))
    return fourier.QuadratureSpec(half_width=half_width, nodes=nodes, tolerance=1e-6)


def make_problem(lam_set: SampledSet, mu_set: SampledSet, alpha_map, beta_map,
                 weight_a: float, weight_b: float, inner_cut: float, outer_radius: float,
                 time_gen: ProductModel | None = None, freq_gen: ProductModel | None = None,
                 nodes: int = 4096) -> InterpolationProblem:
    """Windowed problem with generated vanishing models.

    ``alpha_map``/``beta_map`` are callables point -> complex (or None for
    all-zero data).
    """
    lam_win = lam_set.restricted(inner_cut, outer_radius).points
    mu_win = mu_set.restricted(inner_cut, outer_radius).points
    alpha = np.array([alpha_map(v) for v in lam_win], dtype=complex) if alpha_map else np.zeros(len(lam_win), complex)
    beta = np.array([beta_map(v) for v in mu_win], dtype=complex) if beta_map else np.zeros(len(mu_win), complex)
    if time_gen is None:
        time_gen = vanishing_generator(lam_set.symmetrized().positive, weight_a)
    if freq_gen is None:
        freq_gen = vanishing_generator(mu_set.symmetrized().positive, weight_b)
    return InterpolationProblem(
        lam=lam_win, mu=mu_win, alpha=alpha, beta=beta,
        weight_a=weight_a, weight_b=weight_b,
        time_gen=time_gen, freq_gen=freq_gen,
        inner_cut=inner_cut, outer_cut=outer_radius,
        time_quad=default_quads(weight_a, outer_radius, nodes),
        freq_quad=default_quads(weight_b, outer_radius, nodes),
    )


# -- vanishing functions ------------------------------------------------------


@dataclass
class VanishingFunction:
    interpolant: AssembledInterpolant
    aux_points: np.ndarray
    inner_cut: float
    states: list
    constraint_sigma: float
    residual_time: float
    residual_freq: float

    def eval(self, x):
        return self.interpolant.eval(x)

    def eval_hat(self, xi):
        return self.interpolant.eval_hat(xi)


def _carrier_points(lam_pos: np.ndarray, count: int, low: float, high: float) -> np.ndarray:
    """Carrier radii in midgaps of the positive sequence, spread by a stride.

    Midgap placement keeps the carriers disjoint from the set, and spreading
    them over the available gaps keeps the local zero density of the augmented
    generator close to the set's own (a packed block of extra zeros would
    wreck the generator's transform decay).
    """
    inside = lam_pos[(lam_pos >= low) & (lam_pos <= high)]
    if len(inside) < 2:
        raise CarrierPlacementError(
            f"need at least 2 set points in [{low:.3g}, {high:.3g}] to host carriers")
    mids = 0.5 * (inside[:-1] + inside[1:])
    if len(mids) < count:
        raise CarrierPlacementError(f"only {len(mids)} midgaps available for {count} carriers")
    stride = max(len(mids) // count, 1)
    picks = mids[::stride][:count]
    return np.sort(picks)


def _null_combination(con: np.ndarray) -> np.ndarray:
    """Unit vector of the numerical null space of ``con`` nearest the first carrier.

    The rank counts singular values above 1e-8 of the largest; the result is
    the normalized projection of the first unit vector onto the remaining
    right singular directions (of the unit vector with the largest projection
    when the first has none).  The projector depends only on the null space,
    not on the basis LAPACK returns for it, so a small change of ``con``
    moves the combination only slightly whatever the null-space dimension.
    """
    _, svals, vh = np.linalg.svd(con)
    rank = int(np.count_nonzero(svals > 1e-8 * svals[0]))
    null = vh[rank:]
    if not len(null):
        raise NullSpaceEmptyError(
            f"smallest singular value {float(svals[-1]):.3e} leaves no null combination")
    reach = np.linalg.norm(null, axis=0)
    j = 0 if reach[0] > 1e-8 else int(np.argmax(reach))
    combo = null.conj().T @ null[:, j]
    return combo / np.linalg.norm(combo)


def assemble_vanishing_function(lam_set: SampledSet, mu_set: SampledSet,
                                weight_a: float, weight_b: float,
                                aux_count: int | None = None,
                                outer_radius: float | None = None,
                                min_inner_cut: float = 0.0,
                                tol: float = 1e-9, nodes: int = 4096,
                                density_margin: float = 1.0) -> VanishingFunction:
    """Nonzero function vanishing on the time set with transform vanishing on
    the frequency set (within tolerance on the checked window).

    Auxiliary carrier points live in midgaps of the time set inside the
    window; Kronecker problems at the carriers are solved simultaneously and,
    when the window cut leaves interior points, a null-space combination kills
    those finitely many constraints.  With a zero cut there are no interior
    constraints and the first carrier solution is returned directly.
    """
    lam_sym = lam_set.symmetrized()
    mu_sym = mu_set.symmetrized()
    d_lam = half_density(lam_sym.positive)
    d_mu = half_density(mu_sym.positive)
    bound_l, bound_m = uniqueness_density_bounds(DecayParams(weight_a, weight_b))
    if d_lam >= density_margin * bound_l or d_mu >= density_margin * bound_m:
        raise DensityTooHighError(
            f"densities ({d_lam:.3f}, {d_mu:.3f}) reach the vanishing bounds "
            f"({bound_l:.3f}, {bound_m:.3f}) for rates ({weight_a}, {weight_b})")

    if outer_radius is None:
        # keep the weighted quadrature noise floor well under the tolerance
        outer_radius = float(np.sqrt(18.0 / (np.pi * max(weight_a, weight_b))))
    lam_pos = lam_sym.positive

    # carriers and interior counts depend on the cut; iterate to consistency,
    # shifting the carriers outward when a placement spoils the window norms
    requested_aux = aux_count
    aux_low = max(min_inner_cut + 1e-6, 0.0)
    need = requested_aux if requested_aux is not None else 1
    last_window_error = None
    for _ in range(6):
        aux = _carrier_points(lam_pos, need, aux_low, 0.98 * outer_radius)
        zeros_time = np.sort(np.concatenate([lam_pos, aux]))
        time_gen = vanishing_generator(zeros_time, weight_a, density=d_lam)
        freq_gen = vanishing_generator(mu_sym.positive, weight_b, density=d_mu)
        lam_win_set = SampledSet(points=np.unique(np.concatenate([lam_sym.points, aux, -aux])))
        base = make_problem(lam_win_set, mu_sym, None, None, weight_a, weight_b,
                            inner_cut=0.0, outer_radius=outer_radius,
                            time_gen=time_gen, freq_gen=freq_gen, nodes=nodes)
        # the auxiliary carriers must stay inside the window
        cut_cap = float(np.min(aux)) - 1e-9
        radii = np.unique(np.abs(np.concatenate([base.lam, base.mu])))
        mids = 0.5 * (radii[:-1] + radii[1:]) if len(radii) > 1 else np.array([])
        candidates = np.concatenate([[min_inner_cut], mids[(mids < cut_cap) & (mids >= min_inner_cut)]])
        try:
            cut, diagnostics = choose_window_cut(base, candidates=candidates, criterion="product")
        except NoFeasibleWindowError as exc:
            last_window_error = exc
            shifted = lam_pos[lam_pos > float(np.min(aux))]
            if len(shifted) < need + 1:
                raise
            aux_low = float(shifted[0]) + 1e-9
            continue
        n_int = int(np.count_nonzero((lam_sym.points > 0) & (lam_sym.points <= cut)) +
                    np.count_nonzero((mu_sym.points > 0) & (mu_sym.points <= cut)))
        if requested_aux is not None:
            # an explicit carrier budget is binding; shortfalls surface later
            # as an empty null space
            break
        target = n_int + 2 if n_int else 1
        if need >= target and (need > n_int or n_int == 0):
            break
        need = max(target, n_int + 1)
        aux_low = max(aux_low, cut + 1e-6)
    else:
        if last_window_error is not None:
            raise last_window_error
    aux_count = need
    problem = base.restricted(cut)

    mats = build_cross_matrices(problem)
    rhs_a = np.zeros((len(problem.lam), aux_count), dtype=complex)
    for j, v in enumerate(aux):
        rhs_a[np.isclose(np.abs(problem.lam), v, rtol=1e-12), j] = 1.0
    rhs_b = np.zeros((len(problem.mu), aux_count), dtype=complex)
    tot_a, tot_b, states = _iterate(problem, mats, rhs_a, rhs_b, tol, max_iter=60)
    if any(s.diverged or not s.converged for s in states):
        raise SolverFailedError("contraction failed for the auxiliary Kronecker data")

    lam_int = lam_sym.points[(lam_sym.points > 0) & (lam_sym.points <= cut)]
    mu_int = mu_sym.points[(mu_sym.points > 0) & (mu_sym.points <= cut)]
    n_con = len(lam_int) + len(mu_int)
    if n_con == 0:
        combo = np.zeros(aux_count)
        combo[0] = 1.0
        sigma_min = 0.0
    else:
        if aux_count <= n_con:
            raise NullSpaceEmptyError(
                f"{aux_count} auxiliary functions cannot clear {n_con} interior constraints")
        # one evaluation of the stacked auxiliary interpolants at the interior points
        stacked = AssembledInterpolant(problem, tot_a, tot_b)
        con = np.vstack([stacked.eval(lam_int), stacked.eval_hat(mu_int)])
        combo = _null_combination(con)
        sigma_min = float(np.linalg.norm(con @ combo))

    interp = AssembledInterpolant(problem, tot_a @ combo, tot_b @ combo)
    check_l = lam_sym.points[np.abs(lam_sym.points) <= outer_radius]
    res_t = float(np.max(np.abs(interp.eval(check_l)))) if len(check_l) else 0.0
    check_m = mu_sym.points[np.abs(mu_sym.points) <= outer_radius]
    res_f = float(np.max(np.abs(interp.eval_hat(check_m)))) if len(check_m) else 0.0
    return VanishingFunction(interpolant=interp, aux_points=aux, inner_cut=cut,
                             states=states, constraint_sigma=sigma_min,
                             residual_time=res_t, residual_freq=res_f)
