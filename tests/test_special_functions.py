"""The model tail's log-Gamma and Hurwitz zeta against 40-digit mpmath, and
against scipy.special where it is installed.

The ranges are those the product models call: real log-Gamma on [-60, 2100],
complex log-Gamma with Re z in [-54, 56] and |Im z| from 1e-16 to 55, and
zeta(2k, m0) for k = 1..30.
"""

import subprocess
import sys

import numpy as np
import pytest

from pauli_lab import entire_models as em

mpmath = pytest.importorskip("mpmath")

RNG = np.random.default_rng(17)


def _real_points() -> np.ndarray:
    poles = -np.arange(1.0, 61.0)
    offsets = np.array([1e-9, -1e-9, 3e-10, -7e-12, 1e-13])
    return np.concatenate([
        RNG.uniform(-60.0, 2100.0, 300),
        RNG.uniform(-60.0, 10.0, 300),
        (poles[:, None] + offsets).ravel(),
        poles + 0.5,
        np.arange(0.5, 8.0, 0.5),
        1.0 + np.array([-1e-3, -1e-9, 1e-12, 1e-6]),
        2.0 + np.array([-1e-3, -1e-9, 1e-12, 1e-6]),
        [1e-300, 1e-9, 0.25, 6.999999999, 7.0, 7.000000001, 2100.0],
    ])


def _complex_points() -> np.ndarray:
    n = 500
    re = RNG.uniform(-54.0, 56.0, n)
    im = 10.0 ** RNG.uniform(-16.0, np.log10(55.0), n) * RNG.choice([-1.0, 1.0], n)
    # around log Gamma's zeros 1 and 2, the reflection line Re z = 1/2, the
    # |z| = 7 switch to Stirling's series, and the poles off the real axis
    box = RNG.uniform(-8.0, 8.0, 300) + 1j * RNG.uniform(-8.0, 8.0, 300)
    near = RNG.uniform(0.5, 3.0, 200) + 1j * RNG.uniform(-1.5, 1.5, 200)
    poles = (-np.arange(0.0, 54.0) + 1e-9) + 1j * np.array([1e-16, -1e-12, 1e-3])[:, None]
    edges = np.array([0.5 + 1e-16j, 0.5 - 2j, 0.4999999 + 3j, 7.0 + 1e-16j, 6.9999999 - 0.5j,
                      0.5 + 7j, -3.0 + 7.0000001j, -3.0 - 6.9999999j, 56.0 + 55j, -54.0 - 55j])
    return np.concatenate([re + 1j * im, box, near, poles.ravel(), edges])


class TestRealLogGamma:
    def test_against_mpmath(self):
        x = _real_points()
        lg, sign = em._log_gamma_real(x)
        with mpmath.workdps(40):
            gamma = [mpmath.gamma(mpmath.mpf(v)) for v in x]
            want = np.array([float(mpmath.log(abs(g))) for g in gamma])
            want_sign = np.array([float(mpmath.sign(g)) for g in gamma])
        assert np.array_equal(sign, want_sign)
        assert np.all(np.abs(lg - want) <= 2e-15 * np.maximum(1.0, np.abs(want)))

    def test_poles(self):
        x = np.concatenate([-np.arange(0.0, 61.0), [-0.0, -1e6]])
        lg, sign = em._log_gamma_real(x)
        assert np.all(lg == np.inf)
        assert np.all(sign == 0)

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        x = _real_points()
        lg, sign = em._log_gamma_real(x)
        assert np.array_equal(sign, special.gammasgn(x))
        want = special.gammaln(x)
        assert np.all(np.abs(lg - want) <= 4e-15 * np.maximum(1.0, np.abs(want)))


class TestComplexLogGamma:
    def test_against_mpmath(self):
        z = _complex_points()
        got = em._log_gamma_complex(z)
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.loggamma(mpmath.mpc(v.real, v.imag))) for v in z])
        # mpmath's loggamma is the principal branch, so this checks the
        # imaginary part outright, not mod 2 pi
        assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want)))

    def test_branch_of_scipy(self):
        special = pytest.importorskip("scipy.special")
        z = np.concatenate([_complex_points(), [-2.5 + 0j, complex(-2.5, -0.0), -40.5 + 0j,
                                                complex(-0.3, -0.0), 3.0 + 0j]])
        got, want = em._log_gamma_complex(z), special.loggamma(z)
        scale = np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got.imag - want.imag) <= 8e-15 * scale)
        assert np.all(np.abs(got - want) <= 8e-15 * scale)

    def test_conjugate_symmetry(self):
        z = _complex_points()
        assert np.array_equal(em._log_gamma_complex(z.conj()), em._log_gamma_complex(z).conj())


def _hurwitz_oracle(s: int, a: int):
    """zeta(s, a) by 200 direct terms and 30 Euler-Maclaurin terms at 50 digits.

    mpmath.zeta(s, a) itself is not used for large a: in mpmath 1.3.0 at 40
    digits it is off by up to 1.1e-9 relative (s = 40, a = 513), and the
    error falls only as the working precision rises.
    """
    with mpmath.workdps(50):
        big = mpmath.mpf(a + 200)
        out = mpmath.fsum(mpmath.mpf(a + n) ** -s for n in range(200))
        out += big ** (1 - s) / (s - 1) + big ** -s / 2
        rising = mpmath.mpf(s)
        for j in range(1, 31):
            out += mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * big ** (1 - s - 2 * j)
            rising *= (s + 2 * j - 1) * (s + 2 * j)
        return out


class TestHurwitzZeta:
    M0 = [1, 2, 17, 100, 513, 2001, 5000, 40000]

    @pytest.mark.parametrize("m0", M0)
    def test_against_mpmath(self, m0):
        s = 2.0 * np.arange(1, 31)
        got = em._hurwitz_zeta(s, float(m0))
        want = np.array([float(_hurwitz_oracle(int(v), m0)) for v in s])
        assert np.all(np.abs(got / want - 1.0) <= 2e-15)

    @pytest.mark.parametrize("m0", [1, 2, 17, 100])
    def test_oracle_is_zeta_minus_its_first_terms(self, m0):
        # zeta(s) - sum_{n < m0} n^-s at 200 digits, which leave 70 after the
        # cancellation at s = 60, m0 = 100
        with mpmath.workdps(200):
            for s in (2, 9, 30, 60):
                ref = mpmath.zeta(s) - mpmath.fsum(mpmath.mpf(n) ** -s for n in range(1, m0))
                assert abs(_hurwitz_oracle(s, m0) / ref - 1) < mpmath.mpf(10) ** -40

    @pytest.mark.parametrize("m0", M0)
    def test_against_scipy(self, m0):
        special = pytest.importorskip("scipy.special")
        s = 2.0 * np.arange(1, 31)
        got, want = em._hurwitz_zeta(s, float(m0)), special.zeta(s, float(m0))
        assert np.all(np.abs(got / want - 1.0) <= 4e-15)


class TestTailZeros:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exact_zero_at_tail_zeros(self, dtype):
        # the tail vanishes where w = m is an integer >= m0: w = z (plain), and
        # w = D z^2 = k^2 exactly at z = 2k for D = 1/4 (quartic, m0 = 9)
        plain = em.sinc_product(40)
        k = np.arange(3.0, 13.0)
        quartic = em.profile_product(2.0 * np.sqrt(np.arange(1.0, 9.0)), 0.25)
        assert quartic.tail_start == 9
        for model, z in ((plain, np.arange(41.0, 61.0)), (quartic, 2.0 * k)):
            z = np.concatenate([z, -z]).astype(dtype)
            if dtype is complex and model.quartic:
                z = np.concatenate([z, 1j * z])
            assert np.all(model.values(z) == 0)
            assert np.all(np.isneginf(model.log_abs(z)))


def test_cli_imports_no_scipy(tmp_path):
    """A CLI call loads no scipy module: the import, and one construct run."""
    out = tmp_path / "pair.json"
    code = (
        "import sys\n"
        "import pauli_lab.cli, pauli_lab.acceptance\n"
        f"assert pauli_lab.cli.main(['construct', 'time', '--A', '0.5', '--D', '0.9', "
        f"'--count', '64', '--out', {str(out)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert res.stdout.strip() == "[]"
    assert out.exists()
