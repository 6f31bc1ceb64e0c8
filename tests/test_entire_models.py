import cmath

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
        assert sinc1600.values(0.5) == pytest.approx(2 / np.pi, abs=1e-12)

    def test_empty_product_at_zero(self):
        m = em.ProductModel(zeros=np.empty(0), amplitude=2.0 - 1.0j, phase=0.7)
        assert m.values(0.0) == pytest.approx((2 - 1j) * np.exp(0.7j), abs=1e-14)

    def test_retained_zero_exact(self, sinc1600):
        vals = sinc1600.values(np.array([3.0, -3.0, 1200.0]))
        assert np.all(vals == 0)

    def test_validity_radius_covers_test_disk(self, sinc1600):
        assert sinc1600.validity_radius(1e-10) > 9.9


class TestDerivatives:
    def test_sinc_derivative_at_one(self, sinc1600):
        # closed form cos(pi z)/z - sin(pi z)/(pi z^2) at z = 1
        assert sinc1600.derivative_at_zero(1.0) == pytest.approx(-1.0, abs=1e-11)

    def test_parity_relation(self, sinc1600, quartic_phi):
        for model in (sinc1600, quartic_phi):
            rho = model.zeros[2]
            d_pos = model.derivative_at_zero(rho)
            d_neg = model.derivative_at_zero(-rho)
            assert d_neg == pytest.approx((-1) ** (model.parity + 1) * d_pos, rel=1e-12)

    def test_amplitude_scaling(self, sinc1600):
        import dataclasses
        scaled = dataclasses.replace(sinc1600, amplitude=3.0 + 0.5j)
        assert scaled.derivative_at_zero(2.0) == pytest.approx(
            (3.0 + 0.5j) * sinc1600.derivative_at_zero(2.0), rel=1e-13)

    def test_not_a_zero(self, sinc1600):
        with pytest.raises(em.NotAZeroError):
            sinc1600.derivative_at_zero(2.5)

    def test_odd_model_zero_at_origin(self):
        m = em.ProductModel(zeros=np.array([1.0, 2.0]), parity=1, amplitude=1.5)
        assert m.values(0.0) == 0.0
        assert m.derivative_at_zero(0.0) == pytest.approx(1.5, rel=1e-13)


class TestDividedBasis:
    def test_kronecker(self, sinc1600):
        assert sinc1600.divided_basis_eval(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        for other in (2.0, -1.0, 7.0):
            assert sinc1600.divided_basis_eval(1.0, other) == 0.0

    def test_sinc_closed_form(self, sinc1600):
        assert sinc1600.divided_basis_eval(1.0, 0.5) == pytest.approx(4 / np.pi, rel=1e-11)

    def test_no_singularity_near_node(self, sinc1600):
        z = 1.0 + np.array([-1e-13, -1e-15, 0.0, 1e-15, 1e-13])
        vals = sinc1600.divided_basis_eval(1.0, z)
        assert np.all(np.isfinite(vals))
        assert np.allclose(vals, 1.0, atol=1e-10)

    def test_quartic_kronecker(self, quartic_phi):
        lam = quartic_phi.zeros
        assert quartic_phi.divided_basis_eval(lam[1], lam[1]) == pytest.approx(1.0, abs=1e-12)
        assert quartic_phi.divided_basis_eval(lam[1], -lam[1]) == 0.0
        assert quartic_phi.divided_basis_eval(lam[1], lam[4]) == 0.0
        assert quartic_phi.divided_basis_eval(-lam[2], -lam[2]) == pytest.approx(1.0, abs=1e-12)


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
        flipped = em.ProductModel(zeros=np.array([1.0, 2.0]), phase=np.pi)
        assert np.all(flipped.values(x).imag == 0.0)

    def test_value_consistent_with_log_magnitude(self, quartic_phi):
        z = np.array([0.4, 2.0 + 1.0j, 5.0 * np.exp(0.3j)])
        res = quartic_phi.eval(z)
        ok = np.abs(res.log_magnitude) < 700
        assert np.allclose(np.abs(res.value)[ok], np.exp(res.log_magnitude[ok]), rtol=1e-12)

    def test_overflow_flagged(self):
        m = em.gaussian_model(1.0)
        res = m.eval(30.0j)  # e^{+pi*900}
        assert res.overflow
        assert res.log_magnitude == pytest.approx(np.pi * 900, rel=1e-12)

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
        g = em.gaussian_model(0.8, amplitude=1.2)
        z = np.array([0.5, 1.0 + 2.0j, -0.3j])
        assert np.allclose(g.values(z), 1.2 * np.exp(-0.8 * np.pi * z * z), rtol=1e-13)


class TestSerialization:
    def test_round_trip(self, quartic_phi):
        text = quartic_phi.to_json()
        back = em.ProductModel.from_json(text)
        assert np.array_equal(back.zeros, quartic_phi.zeros)
        assert back.quartic == quartic_phi.quartic
        assert back.tail_t2 == quartic_phi.tail_t2
        z = np.array([0.4 + 0.1j, 2.2])
        assert np.allclose(back.values(z), quartic_phi.values(z), rtol=0, atol=0)

    def test_schema_fields(self, sinc1600):
        import json
        obj = json.loads(sinc1600.to_json())
        assert set(obj) == {"c_re", "c_im", "theta", "gamma", "sigma", "zeros", "T2", "T4", "meta"}


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
        "plain_no_tails_odd": em.ProductModel(zeros=plain, parity=1, amplitude=2.5),
        "plain_phase_pi": em.ProductModel(zeros=plain, phase=np.pi, gauss_rate=0.3),
        "quartic_odd": em.profile_product(lam, 0.45, gauss_rate=1.05, parity=1),
        "quartic_phase": em.profile_product(lam, 0.45, gauss_rate=1.05, amplitude=2.0 - 1.0j,
                                            phase=0.7),
        "quartic_no_tails": em.ProductModel(zeros=plain, quartic=True, amplitude=-0.5),
        "no_zeros": em.gaussian_model(0.8, amplitude=1.5 + 0.5j, phase=0.7, parity=1),
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
            assert np.any(real.overflow)
        assert real.value.dtype == complex
        # equal bit for bit; == also lets an exact zero differ in sign
        for field in ("value", "log_magnitude", "error_bound", "overflow"):
            assert np.array_equal(getattr(real, field), getattr(cplx, field)), field

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


PI_LD = 4 * np.arctan(np.longdouble(1))


def _derivative_long_double(model, lam):
    """Product-rule derivative at a retained zero in long-double arithmetic."""
    p = 4 if model.quartic else 2
    z = np.longdouble(lam)
    k = int(np.argmin(np.abs(model.zeros - abs(lam))))
    poles = np.delete(np.asarray(model.zeros, dtype=np.longdouble), k) ** p
    s = z**p
    mag = np.prod(1 - s / poles) * (-np.sign(z) * p / abs(z))
    mag *= np.exp(-np.longdouble(model.gauss_rate) * PI_LD * z * z
                  - (s * np.longdouble(model.tail_t2) + s * s * np.longdouble(model.tail_t4) / 2))
    if model.parity:
        mag *= z
    return complex(model.amplitude) * np.exp(1j * model.phase) * float(mag)


class TestDerivativeArrays:
    def test_array_matches_scalar_calls(self, quartic_phi):
        odd = em.profile_product(quartic_phi.zeros[:300], 0.45, gauss_rate=1.05, parity=1,
                                 amplitude=2.0 - 1.0j, phase=0.7)
        for model in (em.sinc_product(300), quartic_phi, odd):
            lams = np.concatenate([model.zeros[:40], -model.zeros[:40:7]])
            if model.parity:
                lams = np.append(lams, 0.0)
            got = model.derivative_at_zero(lams)
            want = np.array([model.derivative_at_zero(v) for v in lams])
            assert got.shape == lams.shape and got.dtype == complex
            # the chunk size follows the largest point, so the log-scale sums
            # of one call and of many round differently
            assert np.allclose(got, want, rtol=1e-13, atol=0)
            assert model.derivative_at_zero(lams[:1])[0] == want[0]
            assert isinstance(model.derivative_at_zero(lams[1]), complex)

    def test_array_raises_for_any_non_zero(self, sinc1600):
        with pytest.raises(em.NotAZeroError, match="2.5"):
            sinc1600.derivative_at_zero(np.array([1.0, 2.5, 3.0]))
        with pytest.raises(em.NotAZeroError):
            sinc1600.derivative_at_zero(np.array([0.0, 1.0]))  # even model
        with pytest.raises(em.NotAZeroError):
            em.gaussian_model(1.0).derivative_at_zero(np.array([1.0]))

    def test_origin_of_odd_model_in_array(self):
        m = em.ProductModel(zeros=np.array([1.0, 2.0]), parity=1, amplitude=1.5, phase=0.7)
        got = m.derivative_at_zero(np.array([-2.0, 0.0, 1.0]))
        assert got[1] == pytest.approx(1.5 * np.exp(0.7j), rel=1e-15)
        assert np.allclose(got, [m.derivative_at_zero(v) for v in (-2.0, 0.0, 1.0)],
                           rtol=1e-15)
        bare = em.gaussian_model(0.5, amplitude=2.0, parity=1)
        assert bare.derivative_at_zero(np.array([0.0]))[0] == 2.0

    def test_generator_derivatives_against_long_double(self):
        from pauli_lab.interpolation import vanishing_generator

        pts = np.sqrt(np.arange(1, 257) / 0.45)
        gen = vanishing_generator(pts, 0.5)
        assert gen.quartic and len(gen.zeros) >= 250
        inside = gen.zeros[gen.zeros <= 6.0]
        lams = np.concatenate([inside, -inside])
        got = gen.derivative_at_zero(lams)
        want = np.array([_derivative_long_double(gen, v) for v in lams])
        assert np.max(np.abs(got - want) / np.abs(want)) < 2e-14
