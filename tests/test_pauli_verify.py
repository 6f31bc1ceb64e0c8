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


def sampled(f, g, pts):
    """(f, g) sampled on one point set, as the verdicts take them."""
    return f(pts), g(pts)


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
        rt, rf, ok = pv.discrete_check(sampled(gauss, gauss, pts), sampled(gauss_hat, gauss_hat, pts),
                                       tol=1e-10)
        assert rt == 0.0 and rf == 0.0 and ok

    def test_scaled_function_fails(self):
        pts = np.array([0.5])
        rt, _, ok = pv.discrete_check(sampled(gauss, lambda x: 2 * gauss(x), pts),
                                      sampled(gauss_hat, lambda x: 2 * gauss_hat(x), pts), tol=1e-10)
        assert not ok
        assert rt == pytest.approx(float(np.abs(gauss(0.5))), rel=1e-12)

    def test_construction_passes(self, freq_pair):
        lam = generate_smooth(SmoothSpec(p=2.0, density=0.9, count=512, halves="+", seed=7)).points[:128]
        pts = np.concatenate([-lam[::-1], lam])
        rt, rf, ok = pv.discrete_check(freq_pair.fg(pts), (np.empty(0), np.empty(0)), tol=1e-10)
        assert ok and rt == 0.0


class TestWeakCheck:
    def test_global_phase_full_pair(self):
        rot = np.exp(0.7j)
        out = pv.weak_check(sampled(gauss, lambda x: rot * gauss(x), X),
                            sampled(gauss_hat, lambda x: rot * gauss_hat(x), XI))
        assert out["full_pair"] and out["weak_pair_time"] and out["weak_pair_freq"]
        assert not out["non_weak"]
        assert out["gap_time"] < 1e-14

    def test_frequency_matched_verdicts(self, freq_pair):
        out = pv.weak_check(freq_pair.fg(X), freq_pair.fg_hat(XI), tol=1e-8)
        assert out["weak_pair_freq"] and not out["weak_pair_time"]
        assert out["gap_time"] >= 1e-3
        assert not out["non_weak"] and not out["full_pair"]

    def test_nonweak_verdicts(self, nonweak_pair):
        out = pv.weak_check(nonweak_pair.fg(X), nonweak_pair.fg_hat(XI), tol=1e-5)
        assert out["non_weak"]
        assert not out["weak_pair_time"] and not out["weak_pair_freq"]

    def test_swap_invariance(self, freq_pair):
        time_vals, freq_vals = freq_pair.fg(X), freq_pair.fg_hat(XI)
        a = pv.weak_check(time_vals, freq_vals)
        b = pv.weak_check(time_vals[::-1], freq_vals[::-1])
        assert a == b

    def test_tol_monotonicity(self, freq_pair):
        time_vals, freq_vals = freq_pair.fg(X), freq_pair.fg_hat(XI)
        loose = pv.weak_check(time_vals, freq_vals, tol=1e-6)
        tight = pv.weak_check(time_vals, freq_vals, tol=1e-12)
        for key in ("weak_pair_time", "weak_pair_freq", "full_pair", "weak_pair"):
            if tight[key]:
                assert loose[key]


class TestComparisonFunctions:
    def test_equal_pair_vanishes(self):
        vals = pv.h_eval(lambda x: sampled(gauss, gauss, x), X)
        assert np.all(vals == 0)

    def test_real_on_real_inputs(self, freq_pair):
        vals = pv.h_eval(freq_pair.fg, X)
        assert np.max(np.abs(vals.imag)) < 1e-13 * max(np.max(np.abs(vals)), 1.0)

    def test_polarization_cross_check(self, freq_pair):
        pts = np.linspace(-2.0, 2.0, 10)
        h_vals = pv.h_eval(freq_pair.fg, pts)
        phi_psi = 4 * np.real(freq_pair.phi.eval(pts) * np.conj(freq_pair.psi.eval(pts)))
        assert np.max(np.abs(h_vals - phi_psi)) < 1e-12 * max(np.max(np.abs(h_vals)), 1.0)

    def test_frequency_side_vanishes_for_matched_pair(self, freq_pair):
        vals = pv.h_eval(freq_pair.fg_hat, XI)
        assert np.max(np.abs(vals)) < 1e-12

    def test_complex_argument_symmetry(self, freq_pair):
        z = np.array([0.5 + 0.3j, 1.2 - 0.1j])
        vals = pv.h_eval(freq_pair.fg, z)
        conj_vals = pv.h_eval(freq_pair.fg, np.conj(z))
        assert np.allclose(np.conj(conj_vals), vals, rtol=1e-10)


class TestSignRetrieval:
    def test_negated_pair_forced(self):
        neg, neg_hat = (lambda x: -gauss(x)), (lambda x: -gauss_hat(x))
        out = pv.sign_retrieval_check(sampled(gauss, neg, X[:5]), sampled(gauss_hat, neg_hat, XI[:5]),
                                      sampled(gauss, neg, X), sampled(gauss_hat, neg_hat, XI), tol=1e-8)
        assert out["verdict"] == "squared identity forced"

    def test_equal_pair_forced(self):
        out = pv.sign_retrieval_check(sampled(gauss, gauss, X[:5]), sampled(gauss_hat, gauss_hat, XI[:5]),
                                      sampled(gauss, gauss, X), sampled(gauss_hat, gauss_hat, XI),
                                      tol=1e-8)
        assert out["verdict"] == "squared identity forced"

    def test_counterexample_persists(self, nonweak_pair):
        lam = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=3))
        mu = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512, halves="±", seed=4))
        lam_w = lam.points[np.abs(lam.points) <= 3.2]
        mu_w = mu.points[np.abs(mu.points) <= 3.2]
        out = pv.sign_retrieval_check(nonweak_pair.fg(lam_w), nonweak_pair.fg_hat(mu_w),
                                      nonweak_pair.fg(X), nonweak_pair.fg_hat(XI), tol=1e-5)
        assert out["verdict"] == "counterexample persists"

    def test_one_side_forced_the_other_not_is_inconclusive(self):
        # the squares agree on the time grid and differ by far more than
        # 10 tol on the frequency grid
        double_hat = lambda xi: 2.0 * gauss_hat(xi)
        out = pv.sign_retrieval_check(sampled(gauss, gauss, X[:5]), sampled(gauss_hat, gauss_hat, XI[:5]),
                                      sampled(gauss, gauss, X), sampled(gauss_hat, double_hat, XI),
                                      tol=1e-8)
        assert out["verdict"] == "inconclusive"
        assert out["witness_sq_time"] == 0.0 and out["witness_sq_freq"] >= 1.0

    def test_precondition_violated(self):
        out_fn = lambda x: gauss(x) + 0.5
        with pytest.raises(pv.PreconditionError):
            pv.sign_retrieval_check(sampled(gauss, out_fn, np.array([0.3])),
                                    sampled(gauss_hat, gauss_hat, np.empty(0)),
                                    sampled(gauss, out_fn, X), sampled(gauss_hat, gauss_hat, XI),
                                    tol=1e-8)


class TestPairReport:
    def test_report_schema(self, freq_pair):
        lam = generate_smooth(SmoothSpec(p=2.0, density=0.9, count=64, halves="+", seed=7)).points
        pts = np.concatenate([-lam[::-1], lam])
        rep = pv.pair_report(freq_pair, pts, np.empty(0), X, XI,
                             discrete_tol=1e-10, weak_tol=1e-8)
        assert rep["verdicts"]["discrete_pair"]
        assert rep["verdicts"]["weak_pair_freq"] and not rep["verdicts"]["weak_pair_time"]
        assert set(rep) == {"residuals", "gaps", "verdicts", "grids", "tol"}
        assert rep["residuals"]["time"] == 0.0 and rep["tol"] == 1e-8

    def test_full_pair_implies_weak(self):
        rep = pv.pair_report(con.PairConstruction(phi=_ConstEval(1.0), psi=_ConstEval(0.0)),
                             np.array([1.0]), np.array([1.0]), X, XI,
                             discrete_tol=1e-10, weak_tol=1e-8)
        assert rep["verdicts"]["full_pair"]
        assert rep["verdicts"]["weak_pair_time"] and rep["verdicts"]["weak_pair_freq"]


class TestOneEvaluationPerPointSet:
    @pytest.mark.parametrize("n_mu", [0, 3])
    def test_pair_report_evaluates_each_set_once(self, n_mu):
        phi, psi = _CountingEval(1.0), _CountingEval(0.5)
        pair = con.PairConstruction(phi=phi, psi=psi)
        lam, mu = np.array([0.5, 1.0]), np.linspace(-1.0, 1.0, n_mu)
        time_grid, freq_grid = X[:11], XI[:13]
        pv.pair_report(pair, lam, mu, time_grid, freq_grid, discrete_tol=1e-10, weak_tol=1e-8)
        want = [("eval", 2)] + ([("eval_hat", 3)] if n_mu else []) + [("eval", 11), ("eval_hat", 13)]
        assert phi.calls == want and psi.calls == want


class _CountingEval:
    def __init__(self, scale):
        self.scale = scale
        self.calls = []

    def eval(self, z):
        self.calls.append(("eval", len(z)))
        return self.scale * gauss(z)

    def eval_hat(self, xi):
        self.calls.append(("eval_hat", len(xi)))
        return self.scale * gauss_hat(xi)


class _ConstEval:
    def __init__(self, scale):
        self.scale = scale

    def eval(self, z):
        return self.scale * gauss(z)

    def eval_hat(self, xi):
        return self.scale * gauss_hat(xi)
