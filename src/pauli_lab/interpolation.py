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

from . import CheckFailedError, fourier
from .entire_models import ProductModel, profile_tail_start
from .sequences import SampledSet, half_density
from .thresholds import DecayParams, uniqueness_density_bounds


# largest re-evaluation gap (``SolveResult.verify_time``/``verify_freq``) of a
# solve that reproduces its data; AC-6 and ``interp`` both hold a solve to it
REEVAL_GAP_TOL = 1e-7


class NoFeasibleWindowError(RuntimeError, CheckFailedError):
    """No candidate cut achieved contracting cross norms."""

    def __init__(self, diagnostics):
        best = min((max(na, nb) for _, na, nb in diagnostics), default=float("inf"))
        super().__init__(f"no feasible window cut; best max norm {best:.3g} (need < 0.5)")
        self.diagnostics = diagnostics


class SolverFailedError(RuntimeError, CheckFailedError):
    """Iteration diverged or missed the tolerance within the cap."""


class NullSpaceEmptyError(RuntimeError, CheckFailedError):
    """Interior constraints admit no nonzero annihilating combination."""


class DensityTooHighError(ValueError, CheckFailedError):
    """Sampling or vanishing set is denser than the decay parameters allow."""


class CarrierPlacementError(RuntimeError, CheckFailedError):
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
    def time_derivs(self) -> np.ndarray:
        """Time generator derivatives at the window points lam."""
        return self.time_gen.derivative_at_zero(self.lam)

    @cached_property
    def freq_derivs(self) -> np.ndarray:
        """Frequency generator derivatives at the window points mu."""
        return self.freq_gen.derivative_at_zero(self.mu)

    @cached_property
    def time_columns(self) -> np.ndarray:
        """Time-side cardinal functions Phi_lam on the time quadrature nodes."""
        return divided_columns(self.time_gen, self.lam, self.time_quad.grid(), self.time_derivs)

    @cached_property
    def freq_columns(self) -> np.ndarray:
        """Frequency-side cardinal functions What_mu on the frequency quadrature nodes."""
        return divided_columns(self.freq_gen, self.mu, self.freq_quad.grid(), self.freq_derivs)

    @cached_property
    def cross(self) -> "CrossMatrices":
        """The window's cross-coupling matrices."""
        return build_cross_matrices(self)

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
        return self._carry(sub, keep_l, keep_m)

    def with_data(self, alpha: np.ndarray, beta: np.ndarray) -> "InterpolationProblem":
        """The same window and generators with new target values."""
        return self._carry(dataclasses.replace(self, alpha=alpha, beta=beta))

    def _carry(self, other: "InterpolationProblem", keep_l=slice(None),
               keep_m=slice(None)) -> "InterpolationProblem":
        # a derivative or node column depends on its own point only, and a
        # cross entry on its own pair of points, none on the data: what is
        # already computed carries over as row subsets and submatrices
        cached = self.__dict__
        for name, keep in (("time_derivs", keep_l), ("freq_derivs", keep_m),
                           ("time_columns", keep_l), ("freq_columns", keep_m)):
            if name in cached:
                other.__dict__[name] = cached[name][keep]
        if "cross" in cached:
            mats = cached["cross"]
            other.__dict__["cross"] = CrossMatrices(mats.psi_at_lambda[keep_l][:, keep_m],
                                                    mats.phihat_at_mu[keep_m][:, keep_l])
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


def divided_columns(model: ProductModel, lams: np.ndarray, x: np.ndarray,
                    derivs: np.ndarray) -> np.ndarray:
    """Cardinal-function values (len(lams), len(x)) sharing one base evaluation.

    The base model value is divided by (x - lam) * model'(lam) per column, with
    ``derivs`` holding model'(lams); the quotient is well conditioned because
    the vanishing factor is computed as an exact difference, and nodes
    colliding with lam fall back to the cancelled-factor path, all of them in
    one call.  Real ``x`` stays in real arithmetic.
    """
    x = np.asarray(x)
    if not len(lams):
        return np.empty((0, len(x)), dtype=complex)
    lams = np.asarray(lams, dtype=float)
    diff = x - lams[:, None]
    out = diff * derivs[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(model.values(x), out, out=out)
    rows, cols = np.nonzero(np.abs(diff) < 1e-9)
    if len(rows):
        out[rows, cols] = model.divided_basis_eval(lams[rows], x[cols], derivs[rows])
    return out


def _cross(cols: np.ndarray, quad: fourier.QuadratureSpec, targets: np.ndarray,
           inverse: bool) -> np.ndarray:
    """(len(targets), len(cols)) quadrature matrix of the columns at the targets."""
    if not len(cols):
        return np.empty((len(targets), 0), dtype=complex)
    return fourier.phase_sum(cols, quad, targets, inverse=inverse).T


def build_cross_matrices(problem: InterpolationProblem) -> CrossMatrices:
    """Dense cross-coupling matrices via shared-base quadrature (``solve``
    checks the interpolant on a fresh, finer quadrature)."""
    p = problem
    return CrossMatrices(
        # frequency-side basis evaluated in time: inverse transform per mu column
        psi_at_lambda=_cross(p.freq_columns, p.freq_quad, p.lam, inverse=True),
        # time-side basis transformed to frequency: forward transform per lambda column
        phihat_at_mu=_cross(p.time_columns, p.time_quad, p.mu, inverse=False))


def _op_norm(mat: np.ndarray, w_rows: np.ndarray, w_cols: np.ndarray) -> float:
    """Weighted-l1 operator norm max_j (w_rows @ |mat|)_j / w_cols_j; 0 if empty."""
    return float(np.max((w_rows @ np.abs(mat)) / w_cols)) if mat.size else 0.0


def choose_window_cut(problem: InterpolationProblem, candidates=None,
                      criterion: str = "each") -> tuple[float, list]:
    """Smallest inner cut whose measured cross norms certify contraction.

    With criterion "each", both weighted norms must fall below 1/2 (the
    halving certificate).  With "product", the acceptance is
    N_A * N_B < 1/4 with a transient cap: the iteration alternates sides,
    so its two-step ratio is governed by the product of the one-sided norms;
    requiring each below 1/2 is sufficient but not necessary.

    The problem's own cross matrices serve every candidate cut as
    submatrices.  Raises NoFeasibleWindowError with the measured norms when
    nothing contracts.
    """
    p = problem
    mats = p.cross
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
        wl, wm = wl_full[il], wm_full[im]
        n_a = _op_norm(mats.psi_at_lambda[np.ix_(il, im)], wl, wm)
        n_b = _op_norm(mats.phihat_at_mu[np.ix_(im, il)], wm, wl)
        diagnostics.append((float(cut), n_a, n_b))
        if n_a < 0.5 and n_b < 0.5:
            return float(cut), diagnostics
        if criterion == "product" and n_a * n_b < 0.25 and max(n_a, n_b) < 2.0:
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
            total += (self.alpha.T @ divided_columns(p.time_gen, p.lam, x_arr, p.time_derivs)).T
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
            total += (self.beta.T @ divided_columns(p.freq_gen, p.mu, xi_arr, p.freq_derivs)).T
        return total if np.ndim(xi) else total[0]


@dataclass
class SolveResult:
    interpolant: AssembledInterpolant
    state: IterationState
    verify_time: float
    verify_freq: float


def _iterate(problem: InterpolationProblem, alpha0: np.ndarray, beta0: np.ndarray,
             tol: float, max_iter: int):
    """Shared contraction loop for stacked right-hand sides, on the problem's
    own cross matrices."""
    mats = problem.cross
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


def solve(problem: InterpolationProblem, tol: float = 1e-10, max_iter: int = 60) -> SolveResult:
    """Run the contraction iteration and independently verify the interpolant.

    Verification re-evaluates the assembled function at the time points and
    re-transforms it with a finer fresh quadrature at the frequency points,
    bypassing the iteration's own matrices.
    """
    tot_a, tot_b, states = _iterate(problem, problem.alpha, problem.beta, tol, max_iter)
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
                                       fresh_nodes + fresh_nodes % 2)
        hat = fourier.transform(interp.eval, fresh, problem.mu)
        v_freq = float(np.max(np.abs(hat.values - problem.beta)))
    return SolveResult(interpolant=interp, state=state, verify_time=v_time, verify_freq=v_freq)


# -- generator assembly -------------------------------------------------------


def vanishing_generator(points_pos: np.ndarray, gauss_rate: float,
                        density: float | None = None) -> ProductModel:
    """Gaussian-times-quartic model vanishing at +-points (square-root profile tail)."""
    pts = np.sort(np.asarray(points_pos, dtype=float))
    if density is None:
        density = half_density(pts)
    # continue the sqrt profile past the last zero, wherever it sits
    start = profile_tail_start(pts[-1], density) if len(pts) else 0
    return ProductModel(zeros=pts, gauss_rate=gauss_rate, tail_start=start,
                        tail_scale=density, quartic=True)


def default_quads(weight_rate: float, outer_radius: float,
                  nodes: int = 4096) -> fourier.QuadratureSpec:
    """Window wide enough that the weighted integrand tail is below rounding."""
    half_width = float(np.sqrt(outer_radius**2 + 38.0 / (weight_rate * np.pi)))
    return fourier.QuadratureSpec(half_width=half_width, nodes=nodes)


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
    """An assembled vanishing function (``interpolant``) and how it was built."""

    interpolant: AssembledInterpolant
    aux_points: np.ndarray
    inner_cut: float
    constraint_sigma: float
    residual_time: float
    residual_freq: float


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
                                nodes: int = 4096) -> VanishingFunction:
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
    if d_lam >= bound_l or d_mu >= bound_m:
        raise DensityTooHighError(
            f"densities ({d_lam:.3f}, {d_mu:.3f}) reach the vanishing bounds "
            f"({bound_l:.3f}, {bound_m:.3f}) for rates ({weight_a}, {weight_b})")

    # keep the weighted quadrature noise floor well under the tolerance
    outer_radius = float(np.sqrt(18.0 / (np.pi * max(weight_a, weight_b))))
    lam_pos = lam_sym.positive

    # carriers and interior counts depend on the cut; iterate to consistency,
    # shifting the carriers outward when a placement spoils the window norms
    aux_low = 1e-6
    need = 1
    freq_gen = vanishing_generator(mu_sym.positive, weight_b, density=d_mu)
    for _ in range(6):
        aux = _carrier_points(lam_pos, need, aux_low, 0.98 * outer_radius)
        zeros_time = np.sort(np.concatenate([lam_pos, aux]))
        time_gen = vanishing_generator(zeros_time, weight_a, density=d_lam)
        lam_win_set = SampledSet(points=np.unique(np.concatenate([lam_sym.points, aux, -aux])))
        base = make_problem(lam_win_set, mu_sym, None, None, weight_a, weight_b,
                            inner_cut=0.0, outer_radius=outer_radius,
                            time_gen=time_gen, freq_gen=freq_gen, nodes=nodes)
        # the auxiliary carriers must stay inside the window
        cut_cap = float(np.min(aux)) - 1e-9
        radii = np.unique(np.abs(np.concatenate([base.lam, base.mu])))
        mids = 0.5 * (radii[:-1] + radii[1:]) if len(radii) > 1 else np.array([])
        candidates = np.concatenate([[0.0], mids[mids < cut_cap]])
        window_error = None
        try:
            cut, _ = choose_window_cut(base, candidates=candidates, criterion="product")
        except NoFeasibleWindowError as exc:
            window_error = exc
            shifted = lam_pos[lam_pos > float(np.min(aux))]
            if len(shifted) < need + 1:
                raise
            aux_low = float(shifted[0]) + 1e-9
            continue
        n_int = int(np.count_nonzero((lam_sym.points > 0) & (lam_sym.points <= cut)) +
                    np.count_nonzero((mu_sym.points > 0) & (mu_sym.points <= cut)))
        target = n_int + 2 if n_int else 1
        if need >= target:
            break
        need = target
        aux_low = max(aux_low, cut + 1e-6)
    else:
        # only a failure of the last placement is final; after a window was
        # found, a carrier shortfall surfaces as an empty null space
        if window_error is not None:
            raise window_error
    aux_count = len(aux)
    problem = base.restricted(cut)

    rhs_a = np.zeros((len(problem.lam), aux_count), dtype=complex)
    for j, v in enumerate(aux):
        rhs_a[np.isclose(np.abs(problem.lam), v, rtol=1e-12), j] = 1.0
    rhs_b = np.zeros((len(problem.mu), aux_count), dtype=complex)
    tot_a, tot_b, states = _iterate(problem, rhs_a, rhs_b, tol=1e-9, max_iter=60)
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
                             constraint_sigma=sigma_min,
                             residual_time=res_t, residual_freq=res_f)
