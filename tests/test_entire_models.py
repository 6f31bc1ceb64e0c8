import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_lab import entire_models as em


def sinc_exact(z: complex) -> complex:
    if z == 0:
        return 1.0 + 0.0j
    return cmath.sin(cmath.pi * z) / (cmath.pi * z)


class TestSincOracle:
    def test_relative_accuracy_disk(self, sinc1600):
        rng = np.random.default_rng(42)
        r = 10.0 * np.sqrt(rng.uniform(0.001, 1.0, 400))
        ang = rng.uniform(0, 2 * np.pi, 400)
        z = r * np.exp(1j * ang)
        # keep away from the zero set where relative error is ill-posed
        z = z[np.abs(z.real - np.round(z.real)) + np.abs(z.imag) > 0.05]
        vals = sinc1600.values(z)
        exact = np.array([sinc_exact(w) for w in z])
        rel = np.abs(vals - exact) / np.abs(exact)
        assert np.max(rel) < 1e-10

    def test_point_half(self, sinc1600):
        assert sinc1600.values(np.array([0.5]))[0] == pytest.approx(2 / np.pi, abs=1e-12)

    def test_empty_product_at_zero(self):
        m = em.ProductModel(zeros=np.empty(0), gauss_rate=0.7)
        assert m.values(np.array([0.0]))[0] == 1.0

    def test_retained_zero_exact(self, sinc1600):
        vals = sinc1600.values(np.array([3.0, -3.0, 1200.0]))
        assert np.all(vals == 0)

    def test_exact_tails_agree_within_error_bound(self, sinc1600):
        rng = np.random.default_rng(11)
        r = 10.0 * np.sqrt(rng.uniform(0.0, 1.0, 400))
        z = r * np.exp(1j * rng.uniform(0, 2 * np.pi, 400))
        z = np.concatenate([z, np.linspace(-10.0, 10.0, 201) + 0.25])
        small = em.sinc_product(300).eval(z)
        big = sinc1600.eval(z)
        bound = small.error_bound + big.error_bound
        assert np.all(np.abs(small.log_magnitude - big.log_magnitude) <= bound)
        assert np.all(np.abs(small.value - big.value) <= bound * np.abs(big.value))

    def test_zeros_upto_merges_tail(self):
        assert np.array_equal(em.sinc_product(20).zeros_upto(25.5), np.arange(1.0, 26.0))
        assert np.array_equal(em.sinc_product(30).zeros_upto(25.5), np.arange(1.0, 31.0))
        # m0 = 3: the profile continues at sqrt(3/D), sqrt(4/D), ...
        profile = em.profile_product(np.array([1.0, 2.0]), 0.5)
        assert np.allclose(profile.zeros_upto(3.0), [1.0, 2.0, np.sqrt(6.0), np.sqrt(8.0)])

    def test_tail_zeros_exact(self):
        # past the retained zeros the integers are zeros of the exact tail
        m = em.sinc_product(300)
        vals = m.values(np.array([301.0, -302.0, 1000.0, 301.0 + 0j]))
        assert np.all(vals == 0)
        assert np.all(np.isneginf(m.log_abs(np.array([301.0, -1000.0]))))


class TestDerivatives:
    def test_sinc_derivative_at_one(self, sinc1600):
        # closed form cos(pi z)/z - sin(pi z)/(pi z^2) at z = 1
        assert sinc1600.derivative_at_zero(np.array([1.0]))[0] == pytest.approx(-1.0, abs=1e-11)

    def test_parity_relation(self, sinc1600, quartic_phi):
        for model in (sinc1600, quartic_phi):
            rho = model.zeros[2]
            d_pos, d_neg = model.derivative_at_zero(np.array([rho, -rho]))
            assert d_neg == pytest.approx((-1) ** (model.parity + 1) * d_pos, rel=1e-12)

    def test_not_a_zero(self, sinc1600):
        with pytest.raises(em.NotAZeroError):
            sinc1600.derivative_at_zero(np.array([2.5]))

    def test_odd_model_zero_at_origin(self):
        m = em.ProductModel(zeros=np.array([1.0, 2.0]), parity=1)
        assert m.values(np.array([0.0]))[0] == 0.0
        # the origin is the z factor's zero, not a retained one
        with pytest.raises(em.NotAZeroError):
            m.derivative_at_zero(np.array([0.0]))


def cardinal(model, lam, z):
    """The cardinal functions at the zeros lam, each at the point of z in
    the same place, with the model's own derivatives there."""
    lam = np.asarray(lam, dtype=float)
    return model.divided_basis_eval(lam, np.asarray(z), model.derivative_at_zero(lam))


class TestDividedBasis:
    def test_kronecker(self, sinc1600):
        vals = cardinal(sinc1600, np.ones(4), [1.0, 2.0, -1.0, 7.0])
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(vals[1:] == 0.0)

    def test_sinc_closed_form(self, sinc1600):
        assert cardinal(sinc1600, [1.0], [0.5])[0] == pytest.approx(4 / np.pi, rel=1e-11)

    def test_no_singularity_near_node(self, sinc1600):
        z = 1.0 + np.array([-1e-13, -1e-15, 0.0, 1e-15, 1e-13])
        vals = cardinal(sinc1600, np.ones(z.size), z)
        assert np.all(np.isfinite(vals))
        assert np.allclose(vals, 1.0, atol=1e-10)

    def test_quartic_kronecker(self, quartic_phi):
        lam = quartic_phi.zeros
        vals = cardinal(quartic_phi, [lam[1], lam[1], lam[1], -lam[2]],
                        [lam[1], -lam[1], lam[4], -lam[2]])
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert vals[1] == 0.0 and vals[2] == 0.0
        assert vals[3] == pytest.approx(1.0, abs=1e-12)

    def test_arrays_match_one_point_calls(self, sinc1600, quartic_phi):
        for model in (sinc1600, quartic_phi):
            lams = model.zeros[[0, 3, 9, 40]] * np.array([1.0, -1.0, 1.0, -1.0])
            z = np.array([lams[0], lams[1] + 1e-11, 0.37, -5.5, 2.0 + 0.4j])
            # every (zero, point) combination in one call
            got = cardinal(model, np.repeat(lams, z.size), np.tile(z, lams.size))
            want = np.array([cardinal(model, [v], [w])[0] for v in lams for w in z])
            # one pass chunks the product by the largest point, so single
            # calls round differently
            assert np.allclose(got, want, rtol=1e-13, atol=0)
            pairwise = cardinal(model, lams, z[:4])
            assert np.allclose(pairwise, want.reshape(4, 5).diagonal(), rtol=1e-13, atol=0)

    def test_array_raises_for_any_non_zero(self, sinc1600):
        with pytest.raises(em.NotAZeroError, match="2.5"):
            sinc1600.divided_basis_eval(np.array([1.0, 2.5]), np.array([0.3, 0.4]),
                                        np.ones(2))


class TestSinIdentity:
    """A pure square-root profile product is sin(pi w)/(pi w), w = D z^2.

    The reference is computed in long double.  Test points keep away from the
    zeros, where log|f| would instead measure the rounding of the retained
    zeros themselves.
    """

    D = 0.45

    def _profile(self, count):
        return em.profile_product(np.sqrt(np.arange(1, count + 1) / self.D), self.D,
                                  gauss_rate=0.5)

    def _exact_log_abs(self, z):
        z = np.asarray(z, dtype=np.clongdouble)
        w = np.longdouble(self.D) * z * z
        pw = PI_LD * w
        ratio = np.where(w == 0, 1, np.sin(pw) / np.where(w == 0, 1, pw))
        return (np.log(np.abs(ratio)) - np.longdouble(0.5) * PI_LD * (z * z).real).astype(float)

    def _real_points(self, radius):
        # the middle of every gap between zeros, w in k + [0.35, 0.65]
        w = (np.arange(0.0, self.D * radius**2)[:, None] + np.array([0.35, 0.5, 0.65])).ravel()
        x = np.sqrt(w / self.D)
        x = x[x <= radius]
        return np.concatenate([x, -x, [0.0]])

    def _ray_points(self, radius):
        r = np.linspace(0.1, radius, 300)
        z = np.concatenate([r * np.exp(1j * t) for t in (0.05, 0.3, np.pi / 4, 1.1, 1.5, 2.6)])
        w = self.D * z * z
        return z[np.abs(w - np.round(w.real)) > 0.05]

    def _max_error(self, model, z):
        return np.max(np.abs(model.log_abs(z) - self._exact_log_abs(z)))

    def test_real_axis(self):
        assert self._max_error(self._profile(2048), self._real_points(12.0)) <= 1e-13

    def test_complex_rays(self):
        assert self._max_error(self._profile(2048), self._ray_points(6.0)) <= 1e-13

    def test_log_gamma_branch(self):
        # m0 = 17: the tail leaves its series for |w| > 8.5, i.e. |z| > 4.35;
        # there the log-Gamma terms, up to ~300 in size, cancel
        model = self._profile(16)
        assert self._max_error(model, self._real_points(12.0)) <= 3e-13
        assert self._max_error(model, self._ray_points(9.0)) <= 3e-13

    def test_error_bound_covers_log_gamma_branch(self):
        model = self._profile(16)
        for z in (self._real_points(12.0), self._ray_points(12.0)):
            res = model.eval(z)
            assert np.all(np.abs(res.log_magnitude - self._exact_log_abs(z)) <= res.error_bound)
            # the bound counts the rounding of the cancelling log terms, no more
            assert np.max(res.error_bound) <= 1e-12

    def test_retained_zeros_exact(self):
        profile = self._profile(2048)
        lam = profile.zeros[[0, 5, 200, 2047]]
        assert np.all(profile.values(np.concatenate([lam, -lam, 1j * lam])) == 0)
        gen = em.ProductModel(zeros=lam, tail_start=2049, tail_scale=self.D, quartic=True)
        assert np.all(gen.values(np.concatenate([lam, -lam])) == 0)


class TestModelInvariants:
    def test_parity_symmetry(self, quartic_phi):
        z = np.array([0.3 + 0.2j, 1.7 - 0.4j, 2.5])
        even = quartic_phi.values(z)
        assert np.allclose(quartic_phi.values(-z), even, rtol=1e-13)
        odd = em.ProductModel(zeros=np.array([1.3, 2.9]), parity=1)
        assert np.allclose(odd.values(-z), -odd.values(z), rtol=1e-13)

    def test_reality_exact(self, quartic_phi):
        x = np.linspace(-4, 4, 101)
        assert np.all(quartic_phi.values(x).imag == 0.0)
        odd = em.ProductModel(zeros=np.array([1.0, 2.0]), parity=1, gauss_rate=0.3)
        assert np.all(odd.values(x).imag == 0.0)

    def test_value_consistent_with_log_magnitude(self, quartic_phi):
        z = np.array([0.4, 2.0 + 1.0j, 5.0 * np.exp(0.3j)])
        res = quartic_phi.eval(z)
        ok = np.abs(res.log_magnitude) < 700
        assert np.allclose(np.abs(res.value)[ok], np.exp(res.log_magnitude[ok]), rtol=1e-12)

    def test_overflow_flagged(self):
        m = em.ProductModel(gauss_rate=1.0)
        res = m.eval(np.array([30.0j]))  # e^{+pi*900}
        assert np.isinf(res.value[0]) and np.isfinite(res.log_magnitude[0])
        assert res.log_magnitude[0] == pytest.approx(np.pi * 900, rel=1e-12)

    def test_far_points_keep_their_log(self):
        # s = z^2 = 1e120 is past 1e50 times R_1 = 1: four such factors in
        # one chunk once overflowed in numpy's reduce and the value read NaN
        m = em.ProductModel(zeros=np.arange(1.0, 11.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = m.eval(np.array([1e60, -1e60]))
        log = 10 * math.log(1e120) - 2 * math.log(math.factorial(10))
        assert np.isinf(res.value).all()
        assert res.log_magnitude == pytest.approx([log, log], rel=1e-14)

    def test_points_past_the_double_range_of_s(self):
        # s = z^4 overflows for |z| > 1.2e77, where the product of a quartic
        # model is (-s)^n / prod R_n to rounding; the Gaussian brings the
        # value back into range
        n_log = 8 * math.log(1e100) - math.log(16.0)
        m = em.ProductModel(zeros=np.array([1.0, 2.0]), quartic=True,
                            gauss_rate=n_log / (math.pi * 1e200))
        z = 1e100 * np.exp(1j * np.pi / 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            real = m.eval(np.array([1e100, -1e100]))
            off = m.eval(np.array([z]))
        assert real.value == pytest.approx([1.0, 1.0], rel=1e-12)
        log_f = (2 * (4 * cmath.log(z) + 1j * math.pi) - math.log(16.0)
                 - m.gauss_rate * math.pi * z * z)
        assert off.value[0] == pytest.approx(cmath.exp(log_f), rel=1e-9)

    def test_tail_rule_soundness(self):
        rng = np.random.default_rng(7)
        small = em.sinc_product(800)
        big = em.sinc_product(1600)
        r = rng.uniform(0.5, 8.0, 40)
        ang = rng.uniform(0, np.pi, 40)
        z = r * np.exp(1j * ang)
        z = z[np.min(np.abs(z[:, None] - np.arange(1.0, 9.0)[None, :]), axis=1) > 0.1]
        res_small = small.eval(z)
        res_big = big.eval(z)
        dlog = np.abs(res_small.log_magnitude - res_big.log_magnitude)
        assert np.all(dlog <= res_small.error_bound + 1e-12)

    def test_gaussian_closed_form(self):
        g = em.ProductModel(gauss_rate=0.8)
        z = np.array([0.5, 1.0 + 2.0j, -0.3j])
        assert np.allclose(g.values(z), np.exp(-0.8 * np.pi * z * z), rtol=1e-13)


class TestSerialization:
    def test_round_trip(self, quartic_phi):
        text = json.dumps(quartic_phi.to_dict(), indent=2, sort_keys=True)
        back = em.ProductModel.from_dict(json.loads(text))
        assert np.array_equal(back.zeros, quartic_phi.zeros)
        assert back.quartic == quartic_phi.quartic
        assert (back.tail_start, back.tail_scale) == (quartic_phi.tail_start, quartic_phi.tail_scale)
        z = np.array([0.4 + 0.1j, 2.2])
        assert np.allclose(back.values(z), quartic_phi.values(z), rtol=0, atol=0)

    def test_schema_fields(self, sinc1600):
        obj = json.loads(json.dumps(sinc1600.to_dict()))
        assert set(obj) == {"c_re", "c_im", "theta", "gamma", "sigma", "zeros", "tail_start",
                            "tail_scale", "meta"}
        assert (obj["tail_start"], obj["tail_scale"]) == (1601, 1.0)

    def test_meta_labels_ignored(self, quartic_phi):
        # sinc models were written with a "family" label; only "quartic" is read
        obj = quartic_phi.to_dict()
        assert obj["meta"] == {"quartic": True}
        obj["meta"]["family"] = "profile"
        back = em.ProductModel.from_dict(obj)
        assert back.quartic and back.to_dict() == quartic_phi.to_dict()

    def test_old_truncated_tail_format_rejected(self):
        old = ('{"T2": 0.0001, "T4": 1e-12, "c_im": 0.0, "c_re": 1.0, "gamma": 0.5, '
               '"meta": {"quartic": true, "tail_next_zero": 2.5}, "sigma": 0, "theta": 0.0, '
               '"zeros": [1.0, 2.0]}')
        with pytest.raises(ValueError, match="'T2'.*construct"):
            em.ProductModel.from_dict(json.loads(old))


@given(st.integers(2, 10), st.sampled_from([0, 1]), st.booleans(),
       st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_model_zero_fidelity_and_parity(n_zeros, parity, quartic, rate, seed):
    rng = np.random.default_rng(seed)
    zeros = np.cumsum(rng.uniform(0.3, 1.5, n_zeros))
    m = em.ProductModel(zeros=zeros, parity=parity, quartic=quartic, gauss_rate=rate)
    vals = m.values(np.concatenate([zeros, -zeros]))
    assert np.all(vals == 0)
    z = rng.uniform(-3, 3, 8) + 1j * rng.uniform(-1, 1, 8)
    assert np.allclose(m.values(-z), (-1.0) ** parity * m.values(z), rtol=1e-12, atol=1e-300)


def _real_axis_models():
    lam = np.sqrt(2.0 * np.arange(1, 1025) / 0.9)
    plain = np.arange(1.0, 51.0)
    return {
        "sinc_tails": em.sinc_product(300),
        "plain_no_tails_odd": em.ProductModel(zeros=plain, parity=1),
        "plain_gauss": em.ProductModel(zeros=plain, gauss_rate=0.3),
        "plain_tails_odd": em.ProductModel(zeros=plain, gauss_rate=0.2, parity=1, tail_start=51),
        "quartic_odd": em.profile_product(lam, 0.45, gauss_rate=1.05, parity=1),
        "quartic_even": em.profile_product(lam, 0.45, gauss_rate=1.05),
        "quartic_no_tails": em.ProductModel(zeros=plain, quartic=True),
        "no_zeros": em.ProductModel(gauss_rate=0.8, parity=1),
    }


class TestRealAxisPath:
    @pytest.mark.parametrize("name", sorted(_real_axis_models()))
    def test_real_points_match_complex_points(self, name):
        model = _real_axis_models()[name]
        rng = np.random.default_rng(5)
        # random points, retained zeros of both signs, the origin, and points
        # far enough out for the unnormalized value to overflow
        x = np.concatenate([rng.uniform(-30.0, 30.0, 400), model.zeros[:20], -model.zeros[:20],
                            [0.0, 1e3, -1e6, 1e6]])
        real = model.eval(x)
        cplx = model.eval(x.astype(complex))
        if name in ("plain_no_tails_odd", "quartic_no_tails"):
            assert np.any(np.isinf(real.value) & np.isfinite(real.log_magnitude))
        assert real.value.dtype == complex and not np.any(real.value.imag)
        # equal bit for bit; == also lets an exact zero differ in sign
        for field in ("value", "log_magnitude", "error_bound"):
            assert np.array_equal(getattr(real, field), getattr(cplx, field)), field

    @pytest.mark.parametrize("name", ["quartic_odd", "quartic_even", "sinc_tails"])
    def test_real_points_match_complex_points_within_reach(self, name):
        # without the far-out points the factors past 4 max|s| enter through
        # the log series, whose real and complex sums must agree bit for bit
        model = _real_axis_models()[name]
        x = np.concatenate([np.random.default_rng(5).uniform(-30.0, 30.0, 400),
                            model.zeros[:20], -model.zeros[:20], [0.0]])
        s = model._s_of(x)
        assert model._far_log(s, float(np.max(s)), None)[1] is not None
        real, cplx = model.eval(x), model.eval(x.astype(complex))
        for field in ("value", "log_magnitude", "error_bound"):
            assert np.array_equal(getattr(real, field), getattr(cplx, field)), field

    @pytest.mark.parametrize("name", sorted(set(_real_axis_models()) - {"no_zeros"}))
    def test_real_derivatives_match_complex_points(self, name):
        model = _real_axis_models()[name]
        lams = np.concatenate([model.zeros[:30], -model.zeros[:30:4]])
        got = model.derivative_at_zero(lams)
        # the same product rule with the zeros cast to complex
        k = model._zero_index(lams)
        rho = model.zeros[k]
        sign = np.where(lams >= 0, 1.0, -1.0)
        z = (sign * rho).astype(complex)
        m, e = model._scaled_product(model._s_of(z), skip=k)
        m2, e2, _ = model._smooth_log(z)
        want = -sign * (4.0 if model.quartic else 2.0) / rho * (m * m2 * np.exp(e + e2))
        assert got.dtype == float and want.dtype == complex and not np.any(want.imag)
        assert np.array_equal(got, want.real)

    def test_scaled_product_dtype_follows_points(self, quartic_phi):
        x = np.linspace(-3.0, 3.0, 7)
        m_real, e_real = quartic_phi._scaled_product(quartic_phi._s_of(x))
        m_cplx, e_cplx = quartic_phi._scaled_product(quartic_phi._s_of(x.astype(complex)))
        assert m_real.dtype == float and m_cplx.dtype == complex
        assert np.array_equal(m_real, m_cplx.real) and np.array_equal(e_real, e_cplx)

    def test_skip_removes_one_factor(self):
        m = em.ProductModel(zeros=np.array([1.0, 2.0, 3.0]))
        s = np.array([0.5, 2.5, 4.0])
        got, e = m._scaled_product(s, skip=np.array([0, -1, 1]))
        want = [(1 - 0.5 / 4) * (1 - 0.5 / 9), (1 - 2.5) * (1 - 2.5 / 4) * (1 - 2.5 / 9),
                (1 - 4.0) * (1 - 4.0 / 9)]
        assert np.allclose(got * np.exp(e), want, rtol=1e-15)
        # the point s = 4 sits on the skipped zero and stays nonzero
        assert got[2] != 0.0


def _chunk_size(poles, s):
    worst = 1.0 + float(np.max(np.abs(s))) / poles[0]
    return int(np.clip(200.0 / max(np.log10(worst), 1.0), 4, 64))


def _row_major_product(model, s, skip=None):
    """Reference product loop: the factors within the call's reach as a fresh
    (points, chunk) block per chunk, reduced along its rows; the factors
    beyond it through the model's own log series."""
    poles = model._factor_poles
    m = np.ones_like(s)
    e = np.zeros(s.shape)
    if not len(poles):
        return m, e
    chunk = _chunk_size(poles, s)
    inv = 1.0 / poles
    if skip is not None:
        skip = np.broadcast_to(skip, s.shape)
    n, far_log = model._far_log(s, float(np.max(np.abs(s))), skip)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        factors = (poles[None, start:stop] - s[:, None]) * inv[None, start:stop]
        if skip is not None:
            rows = np.flatnonzero((skip >= start) & (skip < stop))
            factors[rows, skip[rows] - start] = 1.0
        m *= np.prod(factors, axis=1)
        a = np.abs(m)
        live = a > 0
        e[live] += np.log(a[live])
        m[live] *= 1.0 / a[live]
    if far_log is not None:
        np.add(e, far_log.real, out=e, where=m != 0)
        if np.iscomplexobj(far_log):
            m *= np.exp(1j * far_log.imag)
    return m, e


class TestPointsMajorProduct:
    @pytest.mark.parametrize("quartic, radius, chunk", [(False, 3.0, 64), (True, 3.0, 64),
                                                        (True, 12.0, 36)])
    @pytest.mark.parametrize("n", [5, 36, 64, 128, 150])
    def test_matches_row_major_loop(self, quartic, radius, chunk, n):
        model = em.ProductModel(zeros=0.5 * np.arange(1, n + 1), quartic=quartic)
        on = model.zeros[model.zeros <= radius]
        x = np.concatenate([np.linspace(-radius, radius, 2001), on, -on])
        s = model._s_of(x)
        assert _chunk_size(model._factor_poles, s) == chunk
        # the far factors enter through their log series in the wider calls
        if n >= 128:
            assert model._far_log(s, float(np.max(s)), None)[1] is not None
        # no skip, skipped factors within the reach, then on both sides of
        # each chunk edge and at the last factor, which moves the reach past it
        edges = [k for c in range(chunk, n, chunk) for k in (c - 1, c)]
        for skip in (None, np.resize(np.array([-1, 0, min(3, n - 1)]), x.shape),
                     np.resize(np.array([-1, 0, n - 1] + edges), x.shape)):
            got = model._scaled_product(s, skip)
            want = _row_major_product(model, s, skip)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        # complex points multiply elementwise, not in a reduce loop: the same
        # factors, rounded apart in the last bits
        z = x * np.exp(0.3j)
        (m, e), (m_ref, e_ref) = model._scaled_product(model._s_of(z)), _row_major_product(
            model, model._s_of(z))
        assert np.allclose(m * np.exp(e - e_ref), m_ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name", sorted(_real_axis_models()))
    def test_eval_matches_row_major_loop(self, name, monkeypatch):
        model = _real_axis_models()[name]
        x = np.linspace(-20.0, 20.0, 4001)
        got = model.eval(x)
        monkeypatch.setattr(em.ProductModel, "_scaled_product", _row_major_product)
        want = model.eval(x)
        for field in ("value", "log_magnitude", "error_bound"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    @pytest.mark.parametrize("model", [
        em.ProductModel(zeros=np.arange(1.0, 51.0), parity=1, gauss_rate=0.3),
        em.ProductModel(zeros=np.arange(1.0, 51.0), quartic=True)])
    def test_mirrored_and_repeated_points(self, model):
        x = np.linspace(0.0, 5.0, 41)
        grid = np.concatenate([x, -x, x[::-1], model.zeros[:5], -model.zeros[:5]])
        got = model.eval(grid)
        # within one call a point's row depends only on its own s
        sign = (-1.0) ** model.parity
        assert np.array_equal(got.value[41:82], sign * got.value[:41])
        assert np.array_equal(got.value[82:123], got.value[40::-1])
        for field in ("log_magnitude", "error_bound"):
            part = getattr(got, field)
            assert np.array_equal(part[41:82], part[:41]), field
            assert np.array_equal(part[82:123], part[40::-1]), field
        assert np.all(got.value[123:] == 0)
        # a point alone multiplies every factor out, while the grid sends the
        # factors past 4 max|s| through the series: they agree to rounding
        s = model._s_of(grid)
        assert model._far_log(s, float(np.max(s)), None)[1] is not None
        alone = [model.eval(grid[i:i + 1]) for i in range(grid.size)]
        for field, atol in (("value", 0.0), ("log_magnitude", 1e-13), ("error_bound", 0.0)):
            want = [getattr(r, field)[0] for r in alone]
            assert np.allclose(getattr(got, field), want, rtol=1e-13, atol=atol), field

    def test_mirrored_and_repeated_points_with_tail(self):
        model = em.profile_product(np.sqrt(np.arange(1, 301) / 0.45), 0.45, gauss_rate=1.05,
                                   parity=1)
        x = np.linspace(0.0, 12.0, 301)
        grid = np.concatenate([x, -x[::-1], x[::3], -x[::7]])
        got = model.eval(grid)
        rng = np.random.default_rng(3)
        order = rng.permutation(len(grid))
        # the same points in another order: the same largest point, so the
        # same chunk size and tail series
        shuffled = model.eval(grid[order])
        for field in ("value", "log_magnitude", "error_bound"):
            assert np.array_equal(getattr(got, field)[order], getattr(shuffled, field)), field
        assert np.array_equal(got.value[: len(x)], -got.value[2 * len(x) - 1 : len(x) - 1 : -1])

    def test_memory_one_chunk_buffer(self):
        import tracemalloc

        lam = np.sqrt(2.0 * np.arange(1, 513) / 0.9)
        model = em.profile_product(lam, 0.45, gauss_rate=1.05)
        x = np.linspace(-3.0, 3.0, 6147)
        model.eval(x[:10])
        tracemalloc.start()
        try:
            model.eval(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 64-factor chunk over every point (3.1 MB) and a few per-point
        # arrays (3.5 MB in all); a fresh (points, chunk) block and its
        # product per chunk peak at 9.7 MB
        assert peak < (64 + 16) * x.size * x.itemsize


def _series_models():
    return {"plain": em.ProductModel(zeros=0.7 * np.arange(1, 601)),
            "quartic": em.ProductModel(zeros=np.sqrt(np.arange(1, 513) / 0.45), quartic=True)}


class TestFarFactorSeries:
    """The factors past 4 max|s| enter through one log series."""

    @pytest.mark.parametrize("name", sorted(_series_models()))
    @pytest.mark.parametrize("off_axis", [False, True])
    def test_product_against_long_double(self, name, off_axis):
        model = _series_models()[name]
        rng = np.random.default_rng(7)
        z = rng.uniform(-6.0, 6.0, 2000)
        if off_axis:
            z = np.abs(z) * np.exp(1j * rng.uniform(0.05, np.pi / 4 - 0.05, z.size))
        on = model.zeros[model.zeros <= 6.0]
        z = np.concatenate([z, on, -on])
        s = model._s_of(z)
        n0, far_log = model._far_log(s, float(np.max(np.abs(s))), None)
        assert far_log is not None and n0 < len(model.zeros) // 10
        m, e = model._scaled_product(s)
        # the product of the same s in long double; the rounding of s = z^2
        # or z^4 itself is the caller's
        want = np.ones(s.shape, dtype=np.clongdouble if off_axis else np.longdouble)
        for pole in model._factor_poles.astype(np.longdouble):
            want *= 1 - s.astype(want.dtype) / pole
        assert np.all(m[-2 * len(on):] == 0)
        got, want = (m * np.exp(e))[: -2 * len(on)], want[: -2 * len(on)]
        rel = (np.abs(got - want) / np.abs(want)).astype(float)
        assert np.max(rel) < 2e-14 and np.median(rel) < 1.5e-15

    @pytest.mark.parametrize("name", sorted(_series_models()))
    @pytest.mark.parametrize("off_axis", [False, True])
    def test_series_matches_per_term_loop(self, name, off_axis):
        model = _series_models()[name]
        z = np.linspace(-4.0, 4.0, 301) * (np.exp(0.3j) if off_axis else 1.0)
        s = model._s_of(z)
        top = float(np.max(np.abs(s)))
        n0, got = model._far_log(s, top, None)
        assert got is not None
        # coefficients c_j = sum_n r_n^j / j one power at a time, then Horner
        poles = model._factor_poles
        r = poles[n0] / poles[n0:]
        terms = max(1, math.ceil(math.log(1e-17 / r.size) / math.log(top / poles[n0])))
        power, coeffs = r.copy(), []
        for j in range(terms):
            if j:
                power *= r
            coeffs.append(power.sum() / (j + 1))
        t = s * (1.0 / poles[n0])
        want = np.full_like(t, coeffs[-1])
        for c in coeffs[-2::-1]:
            want *= t
            want += c
        want *= -t
        assert np.array_equal(got, want)

    def test_derivatives_against_long_double(self):
        quartic = em.profile_product(np.sqrt(np.arange(1, 513) / 0.45), 0.45, gauss_rate=0.3,
                                     parity=1)
        for model, radius in ((em.sinc_product(600), 40.0), (quartic, 8.0)):
            inside = model.zeros[model.zeros <= radius]
            lams = np.concatenate([inside, -inside])
            s = model._s_of(lams)
            assert model._far_log(s, float(np.max(s)), np.arange(len(lams)) % len(inside))[1] \
                is not None
            got = model.derivative_at_zero(lams)
            want = _derivatives_long_double(model, lams)
            assert np.max(np.abs(got - want) / np.abs(want)) < 2e-14

    def test_divided_basis_skip_past_reach(self):
        # every factor past the reach of z in [-5, 5] but lam's own: the reach
        # moves past lam's index and the rest enter through the series
        model = em.ProductModel(zeros=np.arange(1.0, 401.0), parity=1)
        rows = np.array([151.0, -151.0, 2.0])
        z = np.concatenate([np.linspace(-5.0, 5.0, 201) + 0.013, np.arange(-5.0, 6.0)])
        lam = np.repeat(rows, z.size)
        n0, far_log = model._far_log(model._s_of(np.tile(z, 3)), 25.0,
                                     np.repeat([150, 150, 1], z.size))
        assert n0 == 151 and far_log is not None
        got = model.divided_basis_eval(lam, np.tile(z, 3), model.derivative_at_zero(lam))
        got = got.reshape(3, z.size)
        # f(z) / (f'(lam) (z - lam)) in long double
        ld = np.longdouble
        poles = np.arange(1, 401, dtype=ld) ** 2
        zl = z.astype(ld)
        f = zl * np.prod(1 - zl[:, None] ** 2 / poles, axis=1)
        for row, v in zip(got, rows):
            k = int(abs(v)) - 1
            lv = ld(v)
            deriv = lv * np.prod(1 - lv**2 / np.delete(poles, k)) * (-2 / lv)
            want = np.ones_like(f)
            off = zl != lv
            want[off] = f[off] / (deriv * (zl[off] - lv))
            zero = (zl != lv) & (zl == np.round(zl)) & (zl != 0)
            # the cardinal function vanishes at every other retained zero
            assert np.all(row[zero] == 0)
            live = ~zero & (want != 0)
            rel = (np.abs(row[live] - want[live]) / np.abs(want[live])).astype(float)
            assert np.max(rel) < 5e-14, v


PI_LD = 4 * np.arctan(np.longdouble(1))


def _log_tail_long_double(model, w):
    """-sum_k zeta(2k, m0) w^(2k)/k in long double; each zeta(2k, m0) is a
    direct sum up to M plus the Euler-Maclaurin remainder at M."""
    big = 10**4
    m = np.arange(model.tail_start, big, dtype=np.longdouble)
    M = np.longdouble(big)
    log_tail = np.longdouble(0)
    for k in range(1, 31):
        zeta = (np.sum(m ** (-2 * k)) + M ** (1 - 2 * k) / (2 * k - 1) + M ** (-2 * k) / 2
                + k * M ** (-2 * k - 1) / 6)
        log_tail -= zeta * w ** (2 * k) / k
    return log_tail


def _derivatives_long_double(model, lams):
    """Product-rule derivatives at retained zeros in long-double arithmetic."""
    p = 4 if model.quartic else 2
    z = np.asarray(lams, dtype=np.longdouble)
    w = np.longdouble(model.tail_scale) * (z * z if model.quartic else z)
    smooth = np.exp(-np.longdouble(model.gauss_rate) * PI_LD * z * z
                    + _log_tail_long_double(model, w))
    poles = np.asarray(model.zeros, dtype=np.longdouble) ** p
    out = []
    for zk, smooth_k in zip(z, smooth):
        k = int(np.argmin(np.abs(model.zeros - abs(float(zk)))))
        mag = np.prod(1 - zk**p / np.delete(poles, k)) * (-np.sign(zk) * p / abs(zk)) * smooth_k
        if model.parity:
            mag *= zk
        out.append(float(mag))
    return np.array(out)


class TestDerivativeArrays:
    def test_array_matches_one_point_calls(self, quartic_phi):
        odd = em.profile_product(quartic_phi.zeros[:300], 0.45, gauss_rate=1.05, parity=1)
        for model in (em.sinc_product(300), quartic_phi, odd):
            lams = np.concatenate([model.zeros[:40], -model.zeros[:40:7]])
            got = model.derivative_at_zero(lams)
            want = np.array([model.derivative_at_zero(lams[i:i + 1])[0]
                             for i in range(lams.size)])
            assert got.shape == lams.shape and got.dtype == float
            # the chunk size and the reach of the multiplied-out factors
            # follow the largest point, so one call and many round differently
            assert np.allclose(got, want, rtol=1e-13, atol=0)

    def test_array_raises_for_any_non_zero(self, sinc1600):
        with pytest.raises(em.NotAZeroError, match="2.5"):
            sinc1600.derivative_at_zero(np.array([1.0, 2.5, 3.0]))
        with pytest.raises(em.NotAZeroError):
            sinc1600.derivative_at_zero(np.array([0.0, 1.0]))  # even model
        with pytest.raises(em.NotAZeroError):
            em.ProductModel(gauss_rate=1.0).derivative_at_zero(np.array([1.0]))

    def test_generator_derivatives_against_long_double(self):
        from pauli_lab.interpolation import vanishing_generator

        pts = np.sqrt(np.arange(1, 257) / 0.45)
        gen = vanishing_generator(pts, 0.5)
        assert gen.quartic and len(gen.zeros) >= 250
        # the set lies on the profile: D*last^2 rounds to 255.99999999999997,
        # and the tail starts past the last point, not on it
        assert gen.tail_start == 257
        inside = gen.zeros[gen.zeros <= 6.0]
        lams = np.concatenate([inside, -inside])
        got = gen.derivative_at_zero(lams)
        want = _derivatives_long_double(gen, lams)
        assert np.max(np.abs(got - want) / np.abs(want)) < 2e-14
