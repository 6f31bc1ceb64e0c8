"""Acceptance criteria: one table row per criterion, its title, runtime
budget and check.

A check is a plain function returning (passed, detail), the detail holding
the measured quantities; ``run_all`` times it and turns it into a record.
These are the exit criteria of the project, run by the ``acceptance`` CLI
subcommand and by the test suite.  Tolerances are fixed here, not
configurable: loosening them would change what the suite certifies.
"""

from __future__ import annotations

import cmath
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import asymptotics as asy
from . import constructions as con
from . import fourier
from . import interpolation as itp
from . import pauli_verify as pv
from . import thresholds as th
from .entire_models import ProductModel, profile_product, sinc_product
from .sequences import SmoothSpec, density_fit, generate_smooth, split_parity

SEED = 20260808


@dataclass
class AcceptanceRecord:
    name: str
    passed: bool
    seconds: float
    detail: str


# -- AC-1: threshold closed forms --------------------------------------------


def _ac1() -> tuple[bool, str]:
    checks = [
        abs(th.one_sided_threshold(0.5) - 4.0),
        abs(th.one_sided_threshold(1 / np.sqrt(2)) - 2 * np.sqrt(2)),
        abs(th.weak_pair_threshold(0.9) - 2.0),
        abs(th.weak_pair_threshold(1 / 3) - 8 * np.sqrt(2) / 3),
        abs(th.weak_pair_threshold(np.sqrt(3) / 2) - 2.0),
        abs(th.pauli_threshold(0.5) - 4.0),
    ]
    jumps = []
    for fn, pts in ((th.one_sided_threshold, [1 / np.sqrt(2)]),
                    (th.weak_pair_threshold, [1 / 3, np.sqrt(3) / 2])):
        for a in pts:
            jumps.append(abs(fn(np.nextafter(a, 0)) - fn(np.nextafter(a, 1))))
    worst = max(checks + jumps)
    return worst < 1e-12, f"worst value/continuity deviation {worst:.2e}"


# -- AC-2: weak-bound optimization oracle -------------------------------------


def _ac2() -> tuple[bool, str]:
    worst_val, worst_arg = 0.0, 0.0
    for a in np.linspace(0.04, np.sqrt(3) / 2 - 0.01, 20):
        val, x = th.weak_bound_oracle(a)
        worst_val = max(worst_val, abs(val - (th.weak_pair_threshold(a) / 2) ** 2))
        step = (1 - a * a) / th.ORACLE_GRID_SIZE
        worst_arg = max(worst_arg, abs(x - th.split_bound_argmax(a)) / step)
    ok = worst_val < 1e-6 and worst_arg <= 1.0
    return ok, f"max value gap {worst_val:.2e}, max argmax offset {worst_arg:.2f} grid steps"


# -- AC-3: product and transform oracles --------------------------------------


def _ac3() -> tuple[bool, str]:
    model = sinc_product(2000)
    rng = np.random.default_rng(SEED)
    r = 10.0 * np.sqrt(rng.uniform(0.001, 1.0, 600))
    ang = rng.uniform(0, 2 * np.pi, 600)
    z = r * np.exp(1j * ang)
    z = z[np.abs(z.real - np.round(z.real)) + np.abs(z.imag) > 0.05]
    exact = np.array([cmath.sin(cmath.pi * w) / (cmath.pi * w) for w in z])
    rel = float(np.max(np.abs(model.values(z) - exact) / np.abs(exact)))

    spec = fourier.QuadratureSpec(half_width=8.0, nodes=2048)
    xi = np.linspace(-4.0, 4.0, 161)
    worst_ft = 0.0
    for f, closed in (
        (lambda x: np.exp(-np.pi * x * x), lambda s: np.exp(-np.pi * s**2)),
        (lambda x: x * np.exp(-np.pi * x * x), lambda s: -1j * s * np.exp(-np.pi * s**2)),
        (lambda x: np.exp(-0.5 * np.pi * x * x), lambda s: np.sqrt(2) * np.exp(-2 * np.pi * s**2)),
    ):
        res = fourier.transform(f, spec, xi)
        worst_ft = max(worst_ft, float(np.max(np.abs(res.values - closed(xi)))))
    ok = rel < 1e-10 and worst_ft < 1e-10
    return ok, f"product rel err {rel:.2e}, transform abs err {worst_ft:.2e}"


# -- AC-4: frequency-matched construction -------------------------------------


def _ac4() -> tuple[bool, str]:
    lam = generate_smooth(SmoothSpec(p=2.0, density=0.9, count=2048, seed=7, halves="+"))
    pair = con.build_frequency_matched_pair(lam, 0.5)
    pts = np.concatenate([-lam.points[::-1], lam.points])  # every retained +-lambda
    res_disc = pv.sup_gap(*pair.fg(pts))
    xi = np.linspace(-4.0, 4.0, 401)
    f_hat, g_hat = pair.fg_hat(xi)
    gap_freq = pv.sup_gap(f_hat, g_hat)
    x = np.linspace(-4.0, 4.0, 801)
    witness = pv.sup_gap(*pair.fg(x))
    xh = np.linspace(-6.0, 6.0, 481)
    hardy = fourier.hardy_check(pair.fg(xh)[0], f_hat, 0.5, xh, xi)
    ok = res_disc <= 1e-12 and gap_freq <= 1e-8 and witness >= 1e-3 and hardy
    return ok, (f"discrete {res_disc:.1e}, freq sup {gap_freq:.1e}, "
                f"time witness {witness:.2e}, hardy={hardy}")


# -- AC-5: transform-decay sharpness sweep ------------------------------------


def _ac5() -> tuple[bool, str]:
    a = 0.5
    rates = {}
    for m in (0.6, 0.7, 0.866, 1.0, 1.1):
        model = profile_product(np.sqrt(np.arange(1, 2049) / m), m, gauss_rate=a)
        rates[m] = asy.fourier_decay_predicate(model)
    vals = [rates[m] for m in (0.6, 0.7, 0.866, 1.0, 1.1)]
    monotone = all(later <= earlier + 1e-9 for earlier, later in zip(vals, vals[1:]))
    ok = rates[0.7] >= 0.47 and rates[1.0] <= 0.45 and monotone
    # the transfer threshold m* = sqrt(a(1/b - a)) inverts to the rate
    # b(m) = a/(a^2 + m^2) that a model of density m should fit
    closed = {m: a / (a * a + m * m) for m in rates}
    detail = ", ".join(f"m={m}: {rates[m]:.3f} (b {closed[m]:.3f}, {rates[m] - closed[m]:+.3f})"
                       for m in sorted(rates))
    return ok, detail + f", monotone={monotone}"


# -- AC-6: contraction interpolation ------------------------------------------


def _ac6() -> tuple[bool, str]:
    lam = generate_smooth(SmoothSpec(p=2.0, density=0.8, count=512, halves="±", seed=1))
    mu = generate_smooth(SmoothSpec(p=2.0, density=0.8, count=512, halves="±", seed=2))
    base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 3.2, nodes=2048)
    cut, _ = itp.choose_window_cut(base)
    prob = base.restricted(cut)
    per_side = max(len(prob.lam), len(prob.mu))
    rng = np.random.default_rng(SEED)
    alpha = rng.normal(size=len(prob.lam)) + 1j * rng.normal(size=len(prob.lam))
    beta = rng.normal(size=len(prob.mu)) + 1j * rng.normal(size=len(prob.mu))
    nrm = prob.data_norm(alpha, beta)
    prob = prob.with_data(alpha / nrm, beta / nrm)
    res = itp.solve(prob, tol=1e-10, max_iter=40)
    max_ratio = max(res.state.ratios) if res.state.ratios else 0.0
    ok = (per_side <= 24 and max_ratio <= 0.55 and res.state.norms[-1] <= 1e-8
          and len(res.state.norms) <= 40
          and res.verify_time <= itp.REEVAL_GAP_TOL and res.verify_freq <= itp.REEVAL_GAP_TOL)
    return ok, (f"{per_side} pts/side, max ratio {max_ratio:.3f}, "
                f"final norm {res.state.norms[-1]:.1e} in {len(res.state.norms)} steps, "
                f"re-eval gaps ({res.verify_time:.1e}, {res.verify_freq:.1e})")


# -- AC-7: non-weak pair -------------------------------------------------------


def _ac7() -> tuple[bool, str]:
    lam = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=3))
    mu = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=4))
    pair = con.build_nonweak_pair(lam, mu, 0.5, nodes=2048)
    win = 3.3
    lam_w = lam.points[np.abs(lam.points) <= win]
    mu_w = mu.points[np.abs(mu.points) <= win]
    # each part once on the whole window sets; phi vanishes on the even
    # parity class (lam1, mu1), psi on the odd one
    phi_t, psi_t = pair.phi.eval(lam_w), pair.psi.eval(lam_w)
    phi_f, psi_f = pair.phi.eval_hat(mu_w), pair.psi.eval_hat(mu_w)
    in_lam1 = np.isin(lam_w, split_parity(lam)[0].points)
    in_mu1 = np.isin(mu_w, split_parity(mu)[0].points)
    worst = max(float(np.max(np.abs(v))) for v in (phi_t[in_lam1], psi_t[~in_lam1],
                                                   phi_f[in_mu1], psi_f[~in_mu1]))
    x = np.linspace(-2.5, 2.5, 401)
    grid_t, grid_f = pair.fg(x), pair.fg_hat(x)
    wt, wf = pv.sup_gap(*grid_t), pv.sup_gap(*grid_f)
    sign = pv.sign_retrieval_check(pair.combine(phi_t, psi_t), pair.combine(phi_f, psi_f),
                                   grid_t, grid_f, tol=1e-5)
    ok = (worst <= 1e-6 and wt >= 1e-4 and wf >= 1e-4
          and sign["verdict"] == "counterexample persists")
    return ok, (f"residual classes max {worst:.1e}, witnesses ({wt:.2e}, {wf:.2e}), "
                f"sign retrieval: {sign['verdict']}")


# -- AC-8: indicator properties ------------------------------------------------


def _ac8() -> tuple[bool, str]:
    d_full = 0.9
    sigma = th.gaussian_rate_base(0.5)
    eps = con._pick_headroom(d_full / 2.0, sigma, 0.5)
    gamma = sigma + eps
    # every zero sqrt(m/D) of the profile comes from the exact tail
    phi = profile_product(np.empty(0), d_full / 2.0, gauss_rate=gamma)
    worst_rel = 0.0
    estimates = []
    for theta, tol in ((0.0, 0.05), (np.pi / 8, 0.05), (np.pi / 4, 0.05),
                       (3 * np.pi / 8, 0.05), (np.pi / 2, 0.10)):
        est = asy.indicator_estimate(phi, theta)
        target = -gamma * np.pi * np.cos(2 * theta) + (d_full / 2) * np.pi * abs(np.sin(2 * theta))
        rel = abs(est.h_hat - target) / abs(target)
        worst_rel = max(worst_rel, rel / tol)
        estimates.append(est)
    for theta in np.linspace(0.05, np.pi / 2 - 0.05, 7):
        estimates.append(asy.indicator_estimate(phi, theta))
    conv_ok, conv_worst = asy.trig_convexity_check(sorted(estimates, key=lambda e: e.theta))
    dens_ok, margin = asy.zero_density_indicator_check(phi, density=d_full / 2.0)
    ok = worst_rel <= 1.0 and conv_ok and dens_ok
    return ok, (f"worst indicator deviation {worst_rel:.2f}x budget, "
                f"convexity worst {conv_worst:.2e}, density-check margin {margin:.3f}")


# -- AC-9: seeded property suites ----------------------------------------------


def _prop_product_identity(rng: np.random.Generator) -> None:
    for _ in range(100):
        a, b = rng.uniform(0.05, 1.2, 2)
        if a * b >= 0.98:
            continue
        d1, d2 = th.uniqueness_density_bounds(a, b)
        assert abs(d1 * d2 - (1 - a * b)) < 1e-12


def _prop_rate_monotonicity(rng: np.random.Generator) -> None:
    for _ in range(100):
        a, b = rng.uniform(0.1, 0.9, 2)
        da, db = rng.uniform(1e-6, 0.4, 2)
        if (a + da) * (b + db) >= 0.98:
            continue
        d = th.uniqueness_density_bounds(a, b)
        e = th.uniqueness_density_bounds(a + da, b + db)
        assert not (e[0] >= d[0] - 1e-12 and e[1] >= d[1] - 1e-12)


def _prop_density_round_trip(rng: np.random.Generator) -> None:
    for _ in range(100):
        density = rng.uniform(0.3, 3.0)
        s = generate_smooth(SmoothSpec(p=2.0, density=density, count=256,
                                       jitter=0.25, seed=int(rng.integers(2**31))))
        d_hat, _ = density_fit(s)
        assert abs(d_hat - density) < 0.01 * density


def _prop_split_parity(rng: np.random.Generator) -> None:
    for _ in range(100):
        s = generate_smooth(SmoothSpec(p=2.0, density=rng.uniform(0.5, 2.0), count=101,
                                       jitter=0.2, seed=int(rng.integers(2**31)), halves="±"))
        even, odd = split_parity(s)
        merged = np.sort(np.concatenate([even.points, odd.points]))
        assert np.array_equal(merged, s.points)
        assert len(np.intersect1d(even.points, odd.points)) == 0


def _prop_counting_monotone(rng: np.random.Generator) -> None:
    for _ in range(100):
        s = generate_smooth(SmoothSpec(p=2.0, density=rng.uniform(0.5, 2.0), count=64,
                                       jitter=0.3, seed=int(rng.integers(2**31)), halves="±"))
        radii = np.sort(rng.uniform(0, 10, 24))
        counts = [s.counting(r) for r in radii]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def _prop_spacing_statistic(rng: np.random.Generator) -> None:
    for _ in range(100):
        density = rng.uniform(0.4, 2.5)
        s = generate_smooth(SmoothSpec(p=2.0, density=density, count=512,
                                       seed=int(rng.integers(2**31))))
        g = s.points
        tail = (g[:-1] * np.diff(g))[-64:]
        assert abs(np.mean(tail) - 1 / (2 * density)) < 0.02 / (2 * density)


def _prop_model_zero_fidelity(rng: np.random.Generator) -> None:
    for _ in range(100):
        n = int(rng.integers(2, 9))
        zeros = np.cumsum(rng.uniform(0.3, 1.5, n))
        model = ProductModel(zeros=zeros, parity=int(rng.integers(0, 2)),
                             quartic=bool(rng.integers(0, 2)), gauss_rate=rng.uniform(0, 2))
        assert np.all(model.values(np.concatenate([zeros, -zeros])) == 0)
        z = rng.uniform(-3, 3, 6) + 1j * rng.uniform(-1, 1, 6)
        sign = (-1.0) ** model.parity
        assert np.allclose(model.values(-z), sign * model.values(z), rtol=1e-12, atol=1e-300)
        x = rng.uniform(-4, 4, 6)
        assert np.all(model.values(x).imag == 0)


def _prop_value_log_consistency(rng: np.random.Generator) -> None:
    for _ in range(100):
        zeros = np.cumsum(rng.uniform(0.5, 1.5, 4))
        model = ProductModel(zeros=zeros, gauss_rate=rng.uniform(0, 1.5))
        z = rng.uniform(-5, 5, 8) + 1j * rng.uniform(-2, 2, 8)
        res = model.eval(z)
        live = np.isfinite(res.log_magnitude) & (np.abs(res.log_magnitude) < 700)
        assert np.allclose(np.abs(res.value)[live], np.exp(res.log_magnitude[live]), rtol=1e-12)


def _prop_tail_rule(rng: np.random.Generator) -> None:
    small, big = sinc_product(700), sinc_product(1400)
    for _ in range(100):
        z = rng.uniform(0.5, 8.0) * np.exp(1j * rng.uniform(0.15, np.pi - 0.15))
        lo = small.eval(np.array([z]))
        hi = big.eval(np.array([z]))
        assert abs(lo.log_magnitude[0] - hi.log_magnitude[0]) <= lo.error_bound[0] + 1e-12


def _prop_transform_linearity(rng: np.random.Generator) -> None:
    spec = fourier.QuadratureSpec(half_width=7.0, nodes=512)
    f = lambda x: np.exp(-np.pi * x * x)
    g = lambda x: x * np.exp(-0.7 * np.pi * x * x)
    for _ in range(100):
        a = complex(*rng.normal(size=2))
        b = complex(*rng.normal(size=2))
        xi = rng.uniform(-3, 3, 5)
        combo = fourier.transform(lambda x: a * f(x) + b * g(x), spec, xi)
        fa = fourier.transform(f, spec, xi)
        gb = fourier.transform(g, spec, xi)
        tol = abs(a) * fa.error + abs(b) * gb.error + combo.error + 1e-13
        assert np.all(np.abs(combo.values - a * fa.values - b * gb.values) <= tol)


def _prop_parity_transport(rng: np.random.Generator) -> None:
    spec = fourier.QuadratureSpec(half_width=7.0, nodes=1024)
    xi = np.linspace(-3, 3, 41)
    for _ in range(100):
        rate = rng.uniform(0.4, 1.5)
        wiggle = rng.uniform(0.5, 3.0)
        even = lambda x: np.exp(-rate * np.pi * x * x) * np.cos(wiggle * x)
        res = fourier.transform(even, spec, xi)
        assert np.max(np.abs(res.values.imag)) <= np.max(res.error) + 1e-13
        res_odd = fourier.transform(lambda x: x * even(x), spec, xi)
        assert np.max(np.abs(res_odd.values.real)) <= np.max(res_odd.error) + 1e-13


def _prop_plancherel(rng: np.random.Generator) -> None:
    spec = fourier.QuadratureSpec(half_width=8.0, nodes=2048)
    x = spec.grid()
    xi = np.linspace(-8, 8, 2049)
    for _ in range(20):
        rate = rng.uniform(0.5, 1.2)
        f = np.exp(-rate * np.pi * x * x) * (1 + 0.3 * np.sin(rng.uniform(1, 3) * x))
        fhat = fourier.transform_values(f, spec, xi)
        tm = np.sum(np.abs(f) ** 2) * (x[1] - x[0])
        fm = np.sum(np.abs(fhat) ** 2) * float(np.real(xi[1] - xi[0]))
        assert abs(fm - tm) < 1e-6 * tm


def _prop_richardson_halving(rng: np.random.Generator) -> None:
    xi = np.linspace(-3, 3, 21)
    for _ in range(20):
        rate = rng.uniform(0.4, 1.0)
        f = lambda x: np.exp(-rate * np.pi * x * x)
        coarse = fourier.transform(f, fourier.QuadratureSpec(half_width=6.0, nodes=64), xi)
        fine = fourier.transform(f, fourier.QuadratureSpec(half_width=6.0, nodes=128), xi)
        assert np.max(fine.error) < np.max(coarse.error) / 10


def _prop_gaussian_indicator(rng: np.random.Generator) -> None:
    for _ in range(100):
        rate = rng.uniform(0.2, 2.0)
        theta = rng.uniform(0, np.pi)
        est = asy.indicator_estimate(ProductModel(gauss_rate=rate), theta)
        assert abs(est.h_hat + rate * np.pi * np.cos(2 * theta)) < 1e-10


def _prop_indicator_symmetry(rng: np.random.Generator) -> None:
    d_full = 0.9
    phi = profile_product(np.empty(0), d_full / 2, gauss_rate=1.0)
    for _ in range(100):
        theta = rng.uniform(0.2, np.pi - 0.2)
        ep = asy.indicator_estimate(phi, theta)
        em = asy.indicator_estimate(phi, -theta)
        assert abs(ep.h_hat - em.h_hat) <= 2 * max(ep.uncertainty, em.uncertainty) + 1e-12


def _prop_verdict_invariance(rng: np.random.Generator) -> None:
    x = np.linspace(-3, 3, 101)
    for _ in range(100):
        rate = rng.uniform(0.5, 1.5)
        f = lambda t: np.exp(-rate * np.pi * np.asarray(t) ** 2)
        rot = np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = lambda t: rot * f(t)
        vals = (f(x), g(x))
        out = pv.weak_check(vals, vals)
        assert out["full_pair"]
        swapped = pv.weak_check(vals[::-1], vals[::-1])
        assert out == swapped


def _prop_comparison_real_on_real(rng: np.random.Generator) -> None:
    # fused-multiply-add paths leave the rounding residue of the cancelled
    # cross terms, so "real" means real to 1e-13 of the value scale
    x = np.linspace(-2.5, 2.5, 64)
    for _ in range(100):
        c1 = complex(*rng.normal(size=2))
        c2 = complex(*rng.normal(size=2))
        f = lambda t: c1 * np.exp(-np.pi * np.asarray(t, dtype=complex) ** 2)
        g = lambda t: c2 * np.asarray(t, dtype=complex) * np.exp(-0.8 * np.pi * np.asarray(t, dtype=complex) ** 2)
        vals = pv.h_eval(lambda t: (f(t), g(t)), x)
        scale = max(float(np.max(np.abs(vals))), 1.0)
        assert np.max(np.abs(vals.imag)) <= 1e-13 * scale


def _prop_verdict_tol_monotone(rng: np.random.Generator) -> None:
    x = np.linspace(-3, 3, 101)
    for _ in range(100):
        gap = 10.0 ** rng.uniform(-12, -2)
        f = lambda t: np.exp(-np.pi * np.asarray(t) ** 2)
        g = lambda t: (1.0 + gap) * f(t)
        vals = (f(x), g(x))
        loose = pv.weak_check(vals, vals, tol=1e-4)
        tight = pv.weak_check(vals, vals, tol=1e-10)
        for key in ("weak_pair_time", "weak_pair_freq", "full_pair", "weak_pair"):
            if tight[key]:
                assert loose[key]


_PROPERTIES = [
    ("thresholds product identity", _prop_product_identity),
    ("thresholds rate monotonicity", _prop_rate_monotonicity),
    ("sequences density round trip", _prop_density_round_trip),
    ("sequences split parity", _prop_split_parity),
    ("sequences counting monotone", _prop_counting_monotone),
    ("sequences spacing statistic", _prop_spacing_statistic),
    ("models zero fidelity/parity/reality", _prop_model_zero_fidelity),
    ("models value/log consistency", _prop_value_log_consistency),
    ("models tail rule soundness", _prop_tail_rule),
    ("fourier linearity", _prop_transform_linearity),
    ("fourier parity transport", _prop_parity_transport),
    ("fourier plancherel", _prop_plancherel),
    ("fourier richardson halving", _prop_richardson_halving),
    ("asymptotics gaussian indicator", _prop_gaussian_indicator),
    ("asymptotics indicator symmetry", _prop_indicator_symmetry),
    ("verify verdict invariance", _prop_verdict_invariance),
    ("verify comparison real on real", _prop_comparison_real_on_real),
    ("verify tolerance monotonicity", _prop_verdict_tol_monotone),
]


def _ac9() -> tuple[bool, str]:
    if not __debug__:
        return False, "assertions are off (python -O), so no property is checked"
    failures = []
    for name, prop in _PROPERTIES:
        try:
            prop(np.random.default_rng(SEED))
        except AssertionError as exc:
            # the properties' asserts carry no message: name the line that failed
            failed = traceback.extract_tb(exc.__traceback__)[-1]
            failures.append(f"{name}: line {failed.lineno}: {failed.line}")
    if failures:
        return False, "; ".join(failures)
    return True, f"{len(_PROPERTIES)} property suites, seeded, all passing"


# name -> (title, runtime budget in seconds, check returning (passed, detail))
ALL_CRITERIA = {
    "AC-1": ("threshold formulas", 1.0, _ac1),
    "AC-2": ("optimization oracle", 5.0, _ac2),
    "AC-3": ("sinc and transform oracles", 10.0, _ac3),
    "AC-4": ("frequency-matched pair", 60.0, _ac4),
    "AC-5": ("decay threshold crossover", 120.0, _ac5),
    "AC-6": ("contraction interpolation", 120.0, _ac6),
    "AC-7": ("non-weak pair", 180.0, _ac7),
    "AC-8": ("indicator properties", 60.0, _ac8),
    "AC-9": ("property suites", 600.0, _ac9),
}


def run_all(only: list[str] | None = None, threads: int = 1) -> list[AcceptanceRecord]:
    """Run criteria (in order), each timed against its budget.

    A check that raises fails with the exception as its detail, and one
    over its budget fails with the budget appended.  ``threads`` > 1 runs
    independent criteria concurrently; results are still reported in the
    requested order.
    """
    names = only or list(ALL_CRITERIA)
    for name in names:
        if name not in ALL_CRITERIA:
            raise ValueError(f"unknown criterion {name!r}")

    def run(name: str) -> AcceptanceRecord:
        title, budget, check = ALL_CRITERIA[name]
        start = time.perf_counter()
        try:
            passed, detail = check()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if seconds > budget:
            passed, detail = False, detail + f" [over budget {budget:.0f}s]"
        return AcceptanceRecord(f"{name} {title}", passed, seconds, detail)

    if threads > 1 and len(names) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, names))
    return [run(name) for name in names]
