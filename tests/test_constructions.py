import json

import numpy as np
import pytest

from pauli_lab import constructions as con
from pauli_lab import fourier
from pauli_lab import pauli_verify as pv
from pauli_lab.entire_models import ProductModel
from pauli_lab.interpolation import DensityTooHighError, choose_window_cut
from pauli_lab.sequences import SampledSet, SmoothSpec, generate_smooth

X_GRID = np.linspace(-3.0, 3.0, 241)
XI_GRID = np.linspace(-3.0, 3.0, 241)


def modulus_gap(vals):
    """| |f| - |g| | from an (f, g) pair of sampled values."""
    f, g = vals
    return np.abs(np.abs(f) - np.abs(g))


def model_parts(pair):
    """The pair's parts that are product models."""
    parts = [p for p in (pair.phi, pair.psi) if isinstance(p, con.ModelEvaluator)]
    assert parts
    return parts


def half_profile(density, count=512, seed=7, jitter=0.0):
    return generate_smooth(SmoothSpec(p=2.0, density=density, count=count,
                                      jitter=jitter, seed=seed, halves="+"))


@pytest.fixture(scope="module")
def freq_pair():
    return con.build_frequency_matched_pair(half_profile(0.9), 0.5)


@pytest.fixture(scope="module")
def nonweak_pair():
    lam = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=3))
    mu = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=4))
    return con.build_nonweak_pair(lam, mu, 0.5, nodes=2048)


@pytest.fixture(scope="module")
def time_pair():
    lam = generate_smooth(SmoothSpec(p=2.0, density=1.5, count=512, halves="±", seed=5))
    return con.build_time_pair(lam, 0.5)


@pytest.fixture(scope="module")
def null_space_pair():
    return con.build_frequency_matched_pair(half_profile(0.8, count=256), 0.95)


class TestPairEvaluation:
    """fg/fg_hat evaluate each part once and give today's f, g values bit for bit."""

    @pytest.mark.parametrize("kind", ["time_pair", "freq_pair", "nonweak_pair", "null_space_pair"])
    def test_fg_equals_parts_combined(self, kind, request):
        pair = request.getfixturevalue(kind)
        x = np.linspace(-2.5, 2.5, 101)
        for fg, part in ((pair.fg, "eval"), (pair.fg_hat, "eval_hat")):
            phi = getattr(pair.phi, part)(x)
            psi = getattr(pair.psi, part)(x)
            f, g = fg(x)
            assert np.array_equal(f, phi + psi)
            assert np.array_equal(g, phi - psi)

    @pytest.mark.parametrize("kind", ["time_pair", "freq_pair"])
    @pytest.mark.parametrize("xi", [np.linspace(-3.0, 3.0, 301),  # verify's grid: chirp-z
                                    np.sqrt(np.linspace(0.0, 9.0, 37))],  # the dense sum
                             ids=["uniform", "scattered"])
    def test_eval_hat_is_the_models_transform(self, kind, xi, request):
        pair = request.getfixturevalue(kind)
        parts = model_parts(pair)
        for part in parts:
            ref = fourier.transform(part.model.values, part.quad, xi).values
            assert np.array_equal(part.eval_hat(xi), ref)

    @pytest.mark.parametrize("kind", ["time_pair", "freq_pair"])
    def test_eval_hat_evaluates_the_model_once_per_call(self, kind, request, monkeypatch):
        calls = []
        model_eval = ProductModel.eval

        def counting(model, z):
            calls.append(len(z))
            return model_eval(model, z)

        monkeypatch.setattr(ProductModel, "eval", counting)
        for part in model_parts(request.getfixturevalue(kind)):
            calls.clear()
            first, second = part.eval_hat(XI_GRID), part.eval_hat(XI_GRID)
            assert np.array_equal(first, second)
            assert calls == [part.quad.nodes + 1] * 2

    @pytest.mark.parametrize("kind", ["time_pair", "freq_pair"])
    def test_eval_hat_builds_no_error_estimate(self, kind, request, monkeypatch):
        def no_estimate(*args):
            raise AssertionError("eval_hat fitted a tail envelope")

        monkeypatch.setattr(fourier, "_tail_bound", no_estimate)
        pair = request.getfixturevalue(kind)
        parts = model_parts(pair)
        for part in parts:
            assert part.eval_hat(XI_GRID).shape == XI_GRID.shape

    @pytest.mark.parametrize("kind", ["freq_pair", "nonweak_pair"])
    def test_h_eval_at_complex_points(self, kind, request):
        pair = request.getfixturevalue(kind)
        z = np.array([0.5 + 0.3j, 1.2 - 0.1j, -0.8 + 0.05j])

        def f(w):
            return pair.phi.eval(w) + pair.psi.eval(w)

        def g(w):
            return pair.phi.eval(w) - pair.psi.eval(w)

        def h(w):
            return f(w) * np.conj(f(np.conj(w))) - g(w) * np.conj(g(np.conj(w)))

        assert np.array_equal(pv.h_eval(pair.fg, z), h(z))
        assert np.array_equal(pv.h_eval(pair.fg, z[1:2]), h(z[1:2]))

    @pytest.mark.parametrize("kind", ["nonweak_pair", "null_space_pair"])
    def test_parts_keep_their_type_through_json(self, kind, request):
        pair = request.getfixturevalue(kind)
        back = con.pair_from_json(pair.to_json())
        # a null-space pair's two parts stay one evaluator
        assert (back.phi is back.psi) == (pair.phi is pair.psi) == (kind == "null_space_pair")
        for built, loaded in ((pair.phi, back.phi), (pair.psi, back.psi)):
            assert type(built) is type(loaded)
        x = np.linspace(-2.5, 2.5, 101)
        for a, b in zip(pair.fg(x) + pair.fg_hat(x), back.fg(x) + back.fg_hat(x)):
            assert np.array_equal(a, b)


class TestFrequencyMatchedPair:
    def test_discrete_residuals_exact(self, freq_pair):
        lam = half_profile(0.9).points[:256]
        pts = np.concatenate([-lam[::-1], lam])
        gap = modulus_gap(freq_pair.fg(pts))
        assert np.max(gap) == 0.0

    def test_frequency_moduli_match_everywhere(self, freq_pair):
        xi = np.linspace(-4.0, 4.0, 401)
        gap = modulus_gap(freq_pair.fg_hat(xi))
        assert np.max(gap) <= 1e-8

    def test_time_witness(self, freq_pair):
        gap = modulus_gap(freq_pair.fg(X_GRID))
        assert np.max(gap) >= 1e-3

    def test_gaussian_class_membership(self, freq_pair):
        x = np.linspace(-6.0, 6.0, 401)
        xi = np.linspace(-4.0, 4.0, 321)
        assert fourier.hardy_check(freq_pair.fg(x)[0], freq_pair.fg_hat(xi)[0], 0.5, x, xi)

    def test_pair_identities(self, freq_pair):
        # f + g = 2 phi and f - g = 2 psi as evaluators
        f, g = freq_pair.fg(X_GRID)
        lhs_sum = f + g
        lhs_diff = f - g
        assert np.allclose(lhs_sum, 2 * freq_pair.phi.eval(X_GRID), rtol=1e-12, atol=1e-300)
        assert np.allclose(lhs_diff, 2 * freq_pair.psi.eval(X_GRID), rtol=1e-12, atol=1e-300)

    def test_polarization_identity(self, freq_pair):
        f, g = freq_pair.fg(X_GRID)
        lhs = np.abs(f) ** 2 - np.abs(g) ** 2
        rhs = 4 * np.real(freq_pair.phi.eval(X_GRID) * np.conj(freq_pair.psi.eval(X_GRID)))
        scale = np.max(np.abs(lhs)) + 1e-300
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12

    def test_even_odd_parity(self, freq_pair):
        phi_vals = freq_pair.phi.eval(X_GRID)
        psi_vals = freq_pair.psi.eval(X_GRID)
        assert np.array_equal(phi_vals, freq_pair.phi.eval(-X_GRID))
        assert np.array_equal(psi_vals, -freq_pair.psi.eval(-X_GRID))
        assert np.all(phi_vals.imag == 0) and np.all(psi_vals.imag == 0)

    def test_eps_condition_recorded(self, freq_pair):
        prov = freq_pair.provenance
        gamma = prov["gamma"]
        d_half = prov["half_density"]
        assert gamma == pytest.approx(1.0 + prov["eps"])
        assert (d_half / 2) * 1.1 < np.sqrt(gamma * (2.0 - gamma))

    def test_requires_nonnegative_set(self):
        two_sided = generate_smooth(SmoothSpec(p=2.0, density=0.9, count=64, halves="±"))
        with pytest.raises(ValueError):
            con.build_frequency_matched_pair(two_sided, 0.5)

    def test_infeasible_density(self):
        # above the cap the density is named as the reason, as for the time pair
        with pytest.raises(DensityTooHighError, match=r"half density 2\.5000 >= threshold 2\.0000"):
            con.build_frequency_matched_pair(half_profile(2.5), 0.5)

    def test_headroom_fails_below_cap(self):
        with pytest.raises(con.ParameterInfeasibleError, match="headroom margin"):
            con.build_frequency_matched_pair(half_profile(1.9), 0.5)

    def test_null_space_branch(self):
        pair = con.build_frequency_matched_pair(half_profile(0.8, count=256), 0.95)
        assert pair.provenance["branch"] == "null_space"
        # g vanishes identically, f vanishes on the set
        assert np.all(pair.fg(X_GRID)[1] == 0)
        lam = half_profile(0.8, count=256).points
        lam = lam[lam <= 3.0]
        assert np.max(np.abs(pair.fg(np.concatenate([-lam[::-1], lam]))[0])) < 1e-7
        assert np.max(np.abs(pair.fg(X_GRID)[0])) > 1e-3

    @pytest.mark.parametrize("decay,density", [(0.1, 8.0), (0.3, 2.5), (0.82, 0.8)])
    def test_across_decay_range(self, decay, density):
        lam = half_profile(density, count=1024)
        pair = con.build_frequency_matched_pair(lam, decay)
        pts = lam.points[lam.points <= 6.0]
        pts = np.concatenate([-pts[::-1], pts])
        assert np.max(modulus_gap(pair.fg(pts))) == 0.0
        xi = np.linspace(-4, 4, 201)
        assert np.max(modulus_gap(pair.fg_hat(xi))) < 1e-12
        xh = np.linspace(-6, 6, 301)
        # drop transform values at the quadrature noise floor before weighting
        assert fourier.hardy_check(pair.fg(xh)[0], pair.fg_hat(xi)[0], decay, xh, xi, floor=1e-13)

    def test_serialization_round_trip(self, freq_pair):
        back = con.pair_from_json(freq_pair.to_json())
        assert np.allclose(back.fg(X_GRID)[0], freq_pair.fg(X_GRID)[0], rtol=0, atol=0)
        xi = np.linspace(-2, 2, 41)
        assert np.allclose(back.fg_hat(xi)[0], freq_pair.fg_hat(xi)[0], rtol=1e-12)


class TestTimePair:
    def test_basic(self):
        lam = generate_smooth(SmoothSpec(p=2.0, density=1.5, count=512, halves="±", seed=5))
        pair = con.build_time_pair(lam, 0.5)
        pts = lam.points[np.abs(lam.points) <= 8.0]
        gap = modulus_gap(pair.fg(pts))
        assert np.max(gap) == 0.0
        assert np.max(modulus_gap(pair.fg(X_GRID))) >= 1e-3
        assert pair.provenance["gamma"] > 1.0

    def test_empty_set_pure_gaussians(self):
        pair = con.build_time_pair(SampledSet(points=np.empty(0)), 0.5)
        assert len(pair.phi.model.zeros) == 0 and len(pair.psi.model.zeros) == 0
        gap = np.max(modulus_gap(pair.fg(X_GRID)))
        assert gap > 1e-3

    def test_density_too_high(self):
        lam = generate_smooth(SmoothSpec(p=2.0, density=2.5, count=512, halves="±", seed=5))
        with pytest.raises(con.DensityTooHighError, match=r"^half density 2\.\d{4} >= threshold 2\.0000$"):
            con.build_time_pair(lam, 0.5)

    def test_hardy_membership(self):
        lam = generate_smooth(SmoothSpec(p=2.0, density=1.5, count=512, halves="±", seed=5))
        pair = con.build_time_pair(lam, 0.5)
        x = np.linspace(-6, 6, 401)
        xi = np.linspace(-4, 4, 321)
        assert fourier.hardy_check(pair.fg(x)[0], pair.fg_hat(xi)[0], 0.5, x, xi)


class TestNonWeakPair:
    def test_discrete_residuals(self, nonweak_pair):
        lam = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=3))
        mu = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=4))
        lam_w = lam.points[np.abs(lam.points) <= 3.3]
        mu_w = mu.points[np.abs(mu.points) <= 3.3]
        rt = np.max(modulus_gap(nonweak_pair.fg(lam_w)))
        rf = np.max(modulus_gap(nonweak_pair.fg_hat(mu_w)))
        assert rt <= 1e-6 and rf <= 1e-6

    def test_both_witnesses(self, nonweak_pair):
        wt = np.max(modulus_gap(nonweak_pair.fg(X_GRID)))
        wf = np.max(modulus_gap(nonweak_pair.fg_hat(XI_GRID)))
        assert wt >= 1e-4 and wf >= 1e-4

    def test_gaussian_class_membership(self, nonweak_pair):
        x = np.linspace(-3.2, 3.2, 321)
        assert fourier.hardy_check(nonweak_pair.fg(x)[0], nonweak_pair.fg_hat(x)[0], 0.5, x, x)

    def test_split_rates_recorded(self, nonweak_pair):
        # at decay 0.5 the split argmax is 0.25, so every rate equals 0.5
        assert nonweak_pair.provenance["rates"] == [0.5, 0.5, 0.5, 0.5]

    def test_cut_provenance_is_the_parts_window_cut(self, nonweak_pair):
        # the recorded cut is the contraction diagnostic of each part's own
        # window, built at cut 0, and the pair file alone reproduces it
        decoded = con.pair_from_json(nonweak_pair.to_json())
        for part, key in ((decoded.phi, "phi_cut"), (decoded.psi, "psi_cut")):
            assert part.problem.inner_cut == 0.0
            assert decoded.provenance[key] == choose_window_cut(part.problem)[0]

    def test_density_check(self):
        lam = generate_smooth(SmoothSpec(p=2.0, density=3.6, count=512, halves="±", seed=3))
        mu = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=4))
        with pytest.raises(con.DensityTooHighError):
            con.build_nonweak_pair(lam, mu, 0.5)

    def test_empty_sets_vacuous(self):
        # vacuous sampling constrains nothing, so there is no pair to build
        empty = SampledSet(points=np.empty(0))
        with pytest.raises(ValueError, match="needs a time or a frequency point"):
            con.build_nonweak_pair(empty, empty, 0.5)

    def test_null_space_branch_high_decay(self):
        lam = generate_smooth(SmoothSpec(p=2.0, density=0.55, count=384, halves="±", seed=8))
        mu = generate_smooth(SmoothSpec(p=2.0, density=0.55, count=384, halves="±", seed=9))
        pair = con.build_nonweak_pair(lam, mu, 0.9, nodes=2048)
        assert pair.provenance["branch"] == "null_space"
        assert np.all(pair.fg(X_GRID)[1] == 0)
        lam_w = lam.points[np.abs(lam.points) <= 3.0]
        mu_w = mu.points[np.abs(mu.points) <= 3.0]
        assert np.max(np.abs(pair.fg(lam_w)[0])) < 1e-6
        assert np.max(np.abs(pair.fg_hat(mu_w)[0])) < 1e-6
        assert np.max(np.abs(pair.fg(X_GRID)[0])) > 1e-3


@pytest.mark.parametrize("decay, density, seed", [(0.5, 0.9, 3), (0.95, 0.8, 4)],
                         ids=["middle-branch", "null-space"])
def test_vanishing_coefficients_real_and_even(decay, density, seed):
    # the sets `construct non-weak --A decay --D density --seed seed` builds on:
    # symmetric sets and even generators give real, even coefficients, and
    # the pair file stores them as real arrays
    lam = generate_smooth(SmoothSpec(p=2.0, density=density, count=512, halves="±", seed=seed))
    mu = generate_smooth(SmoothSpec(p=2.0, density=density, count=512, halves="±",
                                    seed=seed + 1))
    pair = con.build_nonweak_pair(lam, mu, decay)
    stored = json.loads(pair.to_json())
    for key in ("phi", "psi"):
        part, file_part = getattr(pair, key), stored[key]
        scale = np.max(np.abs(part.alpha))
        for points, coeffs, name in ((part.problem.lam, part.alpha, "alpha"),
                                     (part.problem.mu, part.beta, "beta")):
            assert np.max(np.abs(coeffs.imag)) <= 1e-14 * scale
            assert np.array_equal(points, -points[::-1])
            assert np.max(np.abs(coeffs - coeffs[::-1])) <= 1e-14 * scale
            assert np.array_equal(file_part[name], coeffs.real)


class TestPhasePremise:
    @pytest.mark.parametrize("kind, psi_hat_unit", [("time_pair", 1j), ("nonweak_pair", 1.0)])
    def test_parts_are_real(self, kind, psi_hat_unit, request):
        # f = phi + psi and g = phi - psi take no rotation because the parts
        # are real, which makes |f|^2 - |g|^2 = 4 phi psi.  The time pair's odd
        # part has an imaginary transform; that pair is checked in time only
        pair = request.getfixturevalue(kind)
        for vals in (pair.phi.eval(X_GRID), pair.psi.eval(X_GRID),
                     pair.phi.eval_hat(XI_GRID), pair.psi.eval_hat(XI_GRID) / psi_hat_unit):
            assert np.max(np.abs(vals.imag)) <= 1e-9 * np.max(np.abs(vals))


class _Wrap:
    def __init__(self, fn, fn_hat=None):
        self._fn = fn
        self._fn_hat = fn_hat or fn

    def eval(self, z):
        return self._fn(np.asarray(z, dtype=complex))

    def eval_hat(self, xi):
        return self._fn_hat(np.asarray(xi, dtype=complex))


class TestSelectPhase:
    def test_real_pair_prefers_zero(self):
        phi = _Wrap(lambda x: np.exp(-np.pi * x * x))
        psi = _Wrap(lambda x: x * np.exp(-np.pi * x * x))
        # the witness Re(phi * conj(psi)) holds with psi unrotated
        assert con.select_phase(phi, psi, X_GRID) is None

    def test_imaginary_partner(self):
        # Re(phi * conj(psi)) = 0, so f and g = phi -+ psi have equal moduli
        phi = _Wrap(lambda x: np.exp(-np.pi * x * x))
        psi = _Wrap(lambda x: 1j * x * np.exp(-np.pi * x * x))
        with pytest.raises(con.DegeneratePhaseError):
            con.select_phase(phi, psi, X_GRID)

    def test_degenerate(self):
        phi = _Wrap(lambda x: np.exp(-np.pi * x * x))
        zero = _Wrap(lambda x: np.zeros_like(x))
        with pytest.raises(con.DegeneratePhaseError):
            con.select_phase(phi, zero, X_GRID)

    def test_random_complex_witness(self):
        rng = np.random.default_rng(12)
        c1, c2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = _Wrap(lambda x: c1 * np.exp(-np.pi * x * x))
        psi = _Wrap(lambda x: c2 * x * np.exp(-0.8 * np.pi * x * x))
        assert con.select_phase(phi, psi, X_GRID) is None
        wit = np.max(np.abs(np.real(phi.eval(X_GRID) * np.conj(psi.eval(X_GRID)))))
        assert wit > 0.01


class TestWitnessGrids:
    """``select_phase`` reads the time grid only."""

    @staticmethod
    def counted(fn, fn_hat, calls):
        class Part(_Wrap):
            def eval_hat(self, xi):
                calls.append(len(xi))
                return super().eval_hat(xi)

        return Part(fn, fn_hat)

    def test_no_transform_when_the_time_witness_holds(self):
        calls = []
        phi = self.counted(lambda x: np.exp(-np.pi * x * x), None, calls)
        psi = self.counted(lambda x: x * np.exp(-np.pi * x * x), None, calls)
        assert con.select_phase(phi, psi, X_GRID) is None
        assert calls == []

    def test_raises_when_both_grids_vanish(self):
        # the pair vanishes on the time grid; no transform is taken
        calls = []
        phi = self.counted(lambda x: np.exp(-np.pi * x * x), None, calls)
        zero = self.counted(np.zeros_like, None, calls)
        with pytest.raises(con.DegeneratePhaseError):
            con.select_phase(phi, zero, X_GRID)
        assert calls == []

    def test_raises_when_the_time_witness_vanishes(self):
        # a transform where the witness would hold does not rescue the check
        calls = []
        phi = self.counted(lambda x: np.exp(-np.pi * x * x), None, calls)
        psi = self.counted(np.zeros_like, lambda xi: xi * np.exp(-np.pi * xi * xi), calls)
        with pytest.raises(con.DegeneratePhaseError, match="vanishes on the grid"):
            con.select_phase(phi, psi, X_GRID)
        assert calls == []

    def test_nonweak_construction_skips_the_frequency_witness(self, interpolant_calls):
        # each part's residuals take one eval and one eval_hat, and the
        # witness holds on the time grid, so it adds one eval per part
        lam = generate_smooth(SmoothSpec(p=2.0, density=0.9, count=64, halves="±", seed=3))
        mu = generate_smooth(SmoothSpec(p=2.0, density=0.9, count=64, halves="±", seed=4))
        con.build_nonweak_pair(lam, mu, 0.5, nodes=1024)
        assert interpolant_calls == {"eval": 4, "eval_hat": 2}
