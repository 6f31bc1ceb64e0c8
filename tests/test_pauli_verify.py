import numpy as np
import pytest

from pauli_lab import constructions as con
from pauli_lab import pauli_verify as pv
from pauli_lab.sequences import SmoothSpec, generate_smooth

X = np.linspace(-3.0, 3.0, 201)
XI = np.linspace(-3.0, 3.0, 201)


def gauss(x):
    return np.exp(-np.pi * np.asarray(x, dtype=complex) ** 2)


def gauss_hat(xi):
    return gauss(xi)


@pytest.fixture(scope="module")
def freq_pair():
    lam = generate_smooth(SmoothSpec(p=2.0, density=0.9, count=512, halves="+", seed=7))
    return con.build_frequency_matched_pair(lam, 0.5)


@pytest.fixture(scope="module")
def nonweak_pair():
    lam = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=3))
    mu = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=4))
    return con.build_nonweak_pair(lam, mu, 0.5, nodes=2048)


class TestDiscreteCheck:
    def test_equal_functions(self):
        pts = np.linspace(-2, 2, 9)
        rt, rf, ok = pv.discrete_check(gauss, gauss, gauss_hat, gauss_hat, pts, pts)
        assert rt == 0.0 and rf == 0.0 and ok

    def test_scaled_function_fails(self):
        pts = np.array([0.5])
        rt, _, ok = pv.discrete_check(gauss, lambda x: 2 * gauss(x), gauss_hat,
                                      lambda x: 2 * gauss_hat(x), pts, pts, tol=1e-10)
        assert not ok
        assert rt == pytest.approx(float(np.abs(gauss(0.5))), rel=1e-12)

    def test_construction_passes(self, freq_pair):
        lam = generate_smooth(SmoothSpec(p=2.0, density=0.9, count=512, halves="+", seed=7)).points[:128]
        pts = np.concatenate([-lam[::-1], lam])
        rt, rf, ok = pv.discrete_check(freq_pair.f, freq_pair.g, freq_pair.f_hat,
                                       freq_pair.g_hat, pts, np.empty(0), tol=1e-10)
        assert ok and rt == 0.0

    def test_range_guard(self):
        with pytest.raises(pv.EvaluationRangeError):
            pv.discrete_check(gauss, gauss, gauss_hat, gauss_hat,
                              np.array([50.0]), np.empty(0), validity_radius=10.0)


class TestWeakCheck:
    def test_global_phase_full_pair(self):
        rot = np.exp(0.7j)
        out = pv.weak_check(gauss, lambda x: rot * gauss(x), gauss_hat,
                            lambda x: rot * gauss_hat(x), X, XI)
        assert out["full_pair"] and out["weak_pair_time"] and out["weak_pair_freq"]
        assert not out["non_weak"]
        assert out["gap_time"] < 1e-14

    def test_frequency_matched_verdicts(self, freq_pair):
        out = pv.weak_check(freq_pair.f, freq_pair.g, freq_pair.f_hat, freq_pair.g_hat,
                            X, XI, tol=1e-8)
        assert out["weak_pair_freq"] and not out["weak_pair_time"]
        assert out["gap_time"] >= 1e-3
        assert not out["non_weak"] and not out["full_pair"]

    def test_nonweak_verdicts(self, nonweak_pair):
        out = pv.weak_check(nonweak_pair.f, nonweak_pair.g, nonweak_pair.f_hat,
                            nonweak_pair.g_hat, X, XI, tol=1e-5)
        assert out["non_weak"]
        assert not out["weak_pair_time"] and not out["weak_pair_freq"]

    def test_swap_invariance(self, freq_pair):
        a = pv.weak_check(freq_pair.f, freq_pair.g, freq_pair.f_hat, freq_pair.g_hat, X, XI)
        b = pv.weak_check(freq_pair.g, freq_pair.f, freq_pair.g_hat, freq_pair.f_hat, X, XI)
        assert a == b

    def test_tol_monotonicity(self, freq_pair):
        loose = pv.weak_check(freq_pair.f, freq_pair.g, freq_pair.f_hat, freq_pair.g_hat,
                              X, XI, tol=1e-6)
        tight = pv.weak_check(freq_pair.f, freq_pair.g, freq_pair.f_hat, freq_pair.g_hat,
                              X, XI, tol=1e-12)
        for key in ("weak_pair_time", "weak_pair_freq", "full_pair", "weak_pair"):
            if tight[key]:
                assert loose[key]


class TestComparisonFunctions:
    def test_equal_pair_vanishes(self):
        vals = pv.h_eval(gauss, gauss, X)
        assert np.all(vals == 0)

    def test_real_on_real_inputs(self, freq_pair):
        vals = pv.h_eval(freq_pair.f, freq_pair.g, X)
        assert np.max(np.abs(vals.imag)) < 1e-13 * max(np.max(np.abs(vals)), 1.0)

    def test_polarization_cross_check(self, freq_pair):
        pts = np.linspace(-2.0, 2.0, 10)
        h_vals = pv.h_eval(freq_pair.f, freq_pair.g, pts)
        phi_psi = 4 * np.real(freq_pair.phi.eval(pts) * np.conj(freq_pair.psi.eval(pts)))
        assert np.max(np.abs(h_vals - phi_psi)) < 1e-12 * max(np.max(np.abs(h_vals)), 1.0)

    def test_frequency_side_vanishes_for_matched_pair(self, freq_pair):
        vals = pv.h_eval(freq_pair.f_hat, freq_pair.g_hat, XI)
        assert np.max(np.abs(vals)) < 1e-12

    def test_complex_argument_symmetry(self, freq_pair):
        z = np.array([0.5 + 0.3j, 1.2 - 0.1j])
        vals = pv.h_eval(freq_pair.f, freq_pair.g, z)
        conj_vals = pv.h_eval(freq_pair.f, freq_pair.g, np.conj(z))
        assert np.allclose(np.conj(conj_vals), vals, rtol=1e-10)


class TestSignRetrieval:
    def test_negated_pair_forced(self):
        out = pv.sign_retrieval_check(gauss, lambda x: -gauss(x), gauss_hat,
                                      lambda x: -gauss_hat(x), X[:5], XI[:5], X, XI)
        assert out["verdict"] == "squared identity forced"

    def test_equal_pair_forced(self):
        out = pv.sign_retrieval_check(gauss, gauss, gauss_hat, gauss_hat,
                                      X[:5], XI[:5], X, XI)
        assert out["verdict"] == "squared identity forced"

    def test_counterexample_persists(self, nonweak_pair):
        lam = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=3))
        mu = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=4))
        lam_w = lam.points[np.abs(lam.points) <= 3.2]
        mu_w = mu.points[np.abs(mu.points) <= 3.2]
        out = pv.sign_retrieval_check(nonweak_pair.f, nonweak_pair.g, nonweak_pair.f_hat,
                                      nonweak_pair.g_hat, lam_w, mu_w, X, XI, tol=1e-5)
        assert out["verdict"] == "counterexample persists"

    def test_precondition_violated(self):
        out_fn = lambda x: gauss(x) + 0.5
        with pytest.raises(pv.PreconditionError):
            pv.sign_retrieval_check(gauss, out_fn, gauss_hat, gauss_hat,
                                    np.array([0.3]), np.empty(0), X, XI)


class TestPairReport:
    def test_report_schema(self, freq_pair):
        lam = generate_smooth(SmoothSpec(p=2.0, density=0.9, count=64, halves="+", seed=7)).points
        pts = np.concatenate([-lam[::-1], lam])
        rep = pv.pair_report(freq_pair, pts, np.empty(0), X, XI)
        assert rep.verdicts["discrete_pair"]
        assert rep.verdicts["weak_pair_freq"] and not rep.verdicts["weak_pair_time"]
        import json
        payload = json.loads(rep.to_json())
        assert set(payload) == {"residuals", "gaps", "verdicts", "grids", "tol"}
        assert payload["residuals"]["time"] == 0.0

    def test_full_pair_implies_weak(self):
        rep = pv.pair_report(
            con.PairConstruction(phi=_ConstEval(1.0), psi=_ConstEval(0.0), vartheta=0.0),
            np.array([1.0]), np.array([1.0]), X, XI)
        assert rep.verdicts["full_pair"]
        assert rep.verdicts["weak_pair_time"] and rep.verdicts["weak_pair_freq"]


class _ConstEval:
    def __init__(self, scale):
        self.scale = scale

    def eval(self, z):
        return self.scale * gauss(z)

    def eval_hat(self, xi):
        return self.scale * gauss_hat(xi)
