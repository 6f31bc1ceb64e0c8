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

Vanishing functions (f = 0 on the time set, fhat = 0 on the frequency set,
f = 1 at one carrier point off the time set) use the same bases and cross
matrices but one direct dense solve instead of the iteration, so they need
the two-sided system to be invertible, not contracting; the window cut is
then only a diagnostic of how far the system is from contraction.

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
from .thresholds import uniqueness_density_bounds


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
    """Iteration missed the tolerance within the step cap, or a direct system
    was singular."""


class DensityTooHighError(ValueError, CheckFailedError):
    """Sampling or vanishing set is denser than the decay parameters allow."""


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
    converged: bool = False

    def record(self, norm: float) -> None:
        if self.norms:
            prev = self.norms[-1]
            self.ratios.append(norm / prev if prev > 0 else 0.0)
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
    one call.  Real ``x`` stays in real arithmetic and gives a real block.
    """
    x = np.asarray(x)
    if not len(lams):
        return np.empty((0, len(x)), dtype=np.result_type(x, 1.0))
    lams = np.asarray(lams, dtype=float)
    diff = x - lams[:, None]
    out = diff * derivs[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        if np.iscomplexobj(out):
            np.divide(model.values(x), out, out=out)
        else:
            # numpy divides by c + 0j (Smith's rule) as a * (1/c): the
            # reciprocal multiply keeps the bits of the complex quotient
            np.divide(1.0, out, out=out)
            out *= model.values(x).real
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


def choose_window_cut(problem: InterpolationProblem) -> tuple[float, list]:
    """Smallest inner cut whose measured cross norms certify contraction.

    Both weighted norms must fall below 1/2 (the halving certificate).  The
    candidates are the problem's own inner cut and the midpoints between
    consecutive radii of its points, and its cross matrices serve every
    candidate as submatrices.  Returns the cut with the (cut, N_A, N_B) of
    every candidate tried; raises NoFeasibleWindowError with them when
    nothing contracts.
    """
    p = problem
    mats = p.cross
    radii = np.unique(np.abs(np.concatenate([p.lam, p.mu])))
    candidates = np.concatenate([[p.inner_cut], 0.5 * (radii[:-1] + radii[1:])])
    diagnostics = []
    wl_full, wm_full = p.lam_weights, p.mu_weights
    for cut in candidates:
        il = np.abs(p.lam) > cut
        im = np.abs(p.mu) > cut
        wl, wm = wl_full[il], wm_full[im]
        n_a = _op_norm(mats.psi_at_lambda[np.ix_(il, im)], wl, wm)
        n_b = _op_norm(mats.phihat_at_mu[np.ix_(im, il)], wm, wl)
        diagnostics.append((float(cut), n_a, n_b))
        if n_a < 0.5 and n_b < 0.5:
            return float(cut), diagnostics
    raise NoFeasibleWindowError(diagnostics)


class AssembledInterpolant:
    """Evaluator sum_j alpha_j Phi_{lam_j} + sum_k beta_k Psi_{mu_k}.

    The time part evaluates through the generator's cardinal functions; the
    frequency-side basis enters time evaluation through inverse quadrature of
    the problem's node columns and contributes its exact cardinal values on
    the frequency side (and symmetrically for eval_hat).
    """

    def __init__(self, problem: InterpolationProblem, alpha: np.ndarray, beta: np.ndarray):
        self.problem = problem
        self.alpha = np.asarray(alpha, dtype=complex)
        self.beta = np.asarray(beta, dtype=complex)

    def eval(self, x: np.ndarray) -> np.ndarray:
        """The interpolant at a 1-D array of real or complex points."""
        p = self.problem
        total = np.zeros(len(x), dtype=complex)
        if len(p.lam):
            total += self.alpha @ divided_columns(p.time_gen, p.lam, x, p.time_derivs)
        if len(p.mu):
            total += fourier.phase_sum(p.freq_columns, p.freq_quad, x, inverse=True,
                                       coeffs=self.beta)
        return total

    def eval_hat(self, xi: np.ndarray) -> np.ndarray:
        """The interpolant's transform at a 1-D array of real or complex frequencies."""
        p = self.problem
        total = np.zeros(len(xi), dtype=complex)
        if len(p.lam):
            total += fourier.phase_sum(p.time_columns, p.time_quad, xi, coeffs=self.alpha)
        if len(p.mu):
            total += self.beta @ divided_columns(p.freq_gen, p.mu, xi, p.freq_derivs)
        return total


@dataclass
class SolveResult:
    interpolant: AssembledInterpolant
    state: IterationState
    verify_time: float
    verify_freq: float


def solve(problem: InterpolationProblem, tol: float = 1e-10, max_iter: int = 60) -> SolveResult:
    """Run the contraction iteration and independently verify the interpolant.

    The iteration sums the Neumann series of the cross maps on the problem's
    own cross matrices.  Verification re-evaluates the assembled function at
    the time points and re-transforms it with a finer fresh quadrature at
    the frequency points, bypassing the iteration's own matrices.
    """
    mats = problem.cross
    state = IterationState()
    cur_a = np.asarray(problem.alpha, dtype=complex)
    cur_b = np.asarray(problem.beta, dtype=complex)
    tot_a, tot_b = np.zeros_like(cur_a), np.zeros_like(cur_b)
    for _ in range(max_iter):
        state.record(problem.data_norm(cur_a, cur_b))
        tot_a += cur_a
        tot_b += cur_b
        cur_a, cur_b = -mats.psi_at_lambda @ cur_b, -mats.phihat_at_mu @ cur_a
        if problem.data_norm(cur_a, cur_b) < tol:
            state.converged = True
            break
    if not state.converged:
        raise SolverFailedError(
            f"contraction failed after {len(state.norms)} steps; norms {state.norms[-3:]}")
    interp = AssembledInterpolant(problem, tot_a, tot_b)
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


def _reject_origin(name: str, points: np.ndarray) -> None:
    """Raise CheckFailedError when the named set holds the point 0, where the
    even vanishing generators cannot vanish."""
    if np.any(points == 0.0):
        raise CheckFailedError(f"the {name} set holds the point 0, where the even "
                               f"vanishing generators cannot vanish")


def vanishing_generator(points_pos: np.ndarray, gauss_rate: float,
                        density: float | None = None) -> ProductModel:
    """Gaussian-times-quartic model vanishing at +-points (square-root profile tail)."""
    pts = np.sort(np.asarray(points_pos, dtype=float))
    if density is None:
        density = half_density(pts)
    # continue the sqrt profile past the last zero, wherever it sits; a set
    # of density 0 (a lone carrier zero) has no profile to continue
    start = profile_tail_start(pts[-1], density) if density else 0
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
    all-zero data).  A set whose generator is made here must not hold the
    point 0 (``_reject_origin``).
    """
    lam_win = lam_set.restricted(inner_cut, outer_radius).points
    mu_win = mu_set.restricted(inner_cut, outer_radius).points
    alpha = np.array([alpha_map(v) for v in lam_win], dtype=complex) if alpha_map else np.zeros(len(lam_win), complex)
    beta = np.array([beta_map(v) for v in mu_win], dtype=complex) if beta_map else np.zeros(len(mu_win), complex)
    if time_gen is None:
        _reject_origin("time", lam_set.points)
        time_gen = vanishing_generator(lam_set.symmetrized().positive, weight_a)
    if freq_gen is None:
        _reject_origin("frequency", mu_set.points)
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
    """An assembled vanishing function (``interpolant``) and how it was built.

    ``window_cut`` is the smallest inner cut at which the contraction
    certificate holds on the function's window (``choose_window_cut``), or
    None when none does; the direct solve does not need it.
    """

    interpolant: AssembledInterpolant
    carrier: float
    window_cut: float | None
    residual_time: float
    residual_freq: float


def assemble_vanishing_function(lam_set: SampledSet, mu_set: SampledSet,
                                weight_a: float, weight_b: float,
                                nodes: int = 4096) -> VanishingFunction:
    """Nonzero function vanishing on the time set with transform vanishing on
    the frequency set (within tolerance on the checked window).

    One carrier point c off the time set becomes an extra zero of the time
    generator and an extra time point of the window, with data 1 at +-c and
    0 at every other window point on both sides.  The real coefficients solve
    [[I, Re Psi(lam)], [Re Phihat(mu), I]] [alpha; beta] = [e_c; 0] directly,
    on the window's cross matrices at inner cut 0, so no point is left inside
    a cut.  The carrier is the first midgap of the positive time points in the
    window, half the point when there is only one, and half the outer radius
    when there is none.  Raises SolverFailedError when the system is
    singular, and CheckFailedError when a set holds the point 0: the even
    generators vanish only at +-x with x > 0.
    """
    lam_sym = lam_set.symmetrized()
    mu_sym = mu_set.symmetrized()
    _reject_origin("time", lam_sym.points)
    _reject_origin("frequency", mu_sym.points)
    d_lam = half_density(lam_sym.positive)
    d_mu = half_density(mu_sym.positive)
    bound_l, bound_m = uniqueness_density_bounds(weight_a, weight_b)
    if d_lam >= bound_l or d_mu >= bound_m:
        raise DensityTooHighError(
            f"densities ({d_lam:.3f}, {d_mu:.3f}) reach the vanishing bounds "
            f"({bound_l:.3f}, {bound_m:.3f}) for rates ({weight_a}, {weight_b})")

    # keep the weighted quadrature noise floor well under the tolerance
    outer_radius = float(np.sqrt(18.0 / (np.pi * max(weight_a, weight_b))))
    lam_pos = lam_sym.positive
    inside = lam_pos[(lam_pos > 0.0) & (lam_pos <= outer_radius)]
    if len(inside) > 1:
        carrier = 0.5 * float(inside[0] + inside[1])
    else:
        carrier = 0.5 * float(inside[0] if len(inside) else outer_radius)
    time_gen = vanishing_generator(np.sort(np.append(lam_pos, carrier)), weight_a, density=d_lam)
    freq_gen = vanishing_generator(mu_sym.positive, weight_b, density=d_mu)
    lam_win_set = SampledSet(points=np.unique(np.append(lam_sym.points, [carrier, -carrier])))
    problem = make_problem(lam_win_set, mu_sym, None, None, weight_a, weight_b,
                           inner_cut=0.0, outer_radius=outer_radius,
                           time_gen=time_gen, freq_gen=freq_gen, nodes=nodes)
    try:
        window_cut, _ = choose_window_cut(problem)
    except NoFeasibleWindowError:
        window_cut = None

    n_l = len(problem.lam)
    system = np.eye(n_l + len(problem.mu))
    # symmetric sets and even generators make each cardinal function at -x the
    # conjugate of the one at x, so on the even solution the imaginary parts cancel
    system[:n_l, n_l:] = problem.cross.psi_at_lambda.real
    system[n_l:, :n_l] = problem.cross.phihat_at_mu.real
    rhs = np.zeros(len(system))
    rhs[:n_l][np.abs(problem.lam) == carrier] = 1.0
    try:
        coeffs = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailedError(f"the vanishing system of {len(system)} points is singular") from exc

    interp = AssembledInterpolant(problem, coeffs[:n_l], coeffs[n_l:])
    check_l = lam_sym.points[np.abs(lam_sym.points) <= outer_radius]
    res_t = float(np.max(np.abs(interp.eval(check_l)))) if len(check_l) else 0.0
    check_m = mu_sym.points[np.abs(mu_sym.points) <= outer_radius]
    res_f = float(np.max(np.abs(interp.eval_hat(check_m)))) if len(check_m) else 0.0
    return VanishingFunction(interpolant=interp, carrier=carrier, window_cut=window_cut,
                             residual_time=res_t, residual_freq=res_f)
