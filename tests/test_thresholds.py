import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_lab import thresholds as th

# frozen from a 50-digit decimal evaluation of the closed forms
C2_AT_THIRD = 3.771236166328253  # 8*sqrt(2)/3
C2_AT_QUARTER = 4.536345128486830
X_A_AT_QUARTER = 0.4267766952966369  # (1 + sqrt(1/2))/4


class TestClosedForms:
    def test_one_sided_values(self):
        assert th.one_sided_threshold(0.5) == pytest.approx(4.0, abs=1e-12)
        assert th.one_sided_threshold(1 / np.sqrt(2)) == pytest.approx(2 * np.sqrt(2), abs=1e-12)
        assert th.one_sided_threshold(0.8) == pytest.approx(2.4, abs=1e-12)

    def test_weak_pair_values(self):
        assert th.weak_pair_threshold(0.9) == pytest.approx(2.0, abs=1e-12)
        assert th.weak_pair_threshold(1 / 3) == pytest.approx(C2_AT_THIRD, abs=1e-12)
        assert th.weak_pair_threshold(0.25) == pytest.approx(C2_AT_QUARTER, abs=1e-12)
        assert th.weak_pair_threshold(np.sqrt(3) / 2) == pytest.approx(2.0, abs=1e-12)

    def test_pauli_threshold(self):
        assert th.pauli_threshold(0.5) == pytest.approx(4.0, abs=1e-12)
        # 4*sqrt(0.19) ~ 1.7436 < 2, so the floor takes over
        assert th.one_sided_threshold(0.9) == pytest.approx(4 * np.sqrt(0.19), abs=1e-12)
        assert th.pauli_threshold(0.9) == pytest.approx(2.0, abs=1e-12)
        assert th.pauli_threshold(np.sqrt(3) / 2) == pytest.approx(2.0, abs=1e-12)

    def test_branch_continuity(self):
        eps = 1e-9
        for fn, pts in (
            (th.one_sided_threshold, [1 / np.sqrt(2)]),
            (th.weak_pair_threshold, [1 / 3, np.sqrt(3) / 2]),
        ):
            for a in pts:
                assert abs(fn(a - eps) - fn(a + eps)) < 1e-7
                assert abs(fn(np.nextafter(a, 0)) - fn(a)) < 1e-12

    def test_monotonicity_on_grid(self):
        grid = np.linspace(1e-3, 1 - 1e-3, 1000)
        c1_vals = np.array([th.one_sided_threshold(a) for a in grid])
        c2_vals = np.array([th.weak_pair_threshold(a) for a in grid])
        assert np.all(np.diff(c1_vals) < 0)
        assert np.all(np.diff(c2_vals) <= 1e-15)

    def test_domain_errors(self):
        for bad in (-0.1, 0.0, 1.0, 1.7):
            with pytest.raises(th.DomainError):
                th.one_sided_threshold(bad)
            with pytest.raises(th.DomainError):
                th.weak_pair_threshold(bad)
            with pytest.raises(th.DomainError):
                th.pauli_threshold(bad)

    def test_argmax_and_rate_base(self):
        assert th.split_bound_argmax(0.5) == pytest.approx(0.25, abs=1e-14)
        assert th.split_bound_argmax(0.25) == pytest.approx(X_A_AT_QUARTER, abs=1e-14)
        assert th.gaussian_rate_base(0.5) == pytest.approx(1.0, abs=1e-14)
        assert th.gaussian_rate_base(0.75) == pytest.approx(0.75, abs=1e-14)
        # the time pair uses the same rate base up to A = 1
        assert th.gaussian_rate_base(0.9) == 0.9
        for bad in (0.0, 1.0):
            with pytest.raises(th.DomainError):
                th.gaussian_rate_base(bad)

    def test_cross_assignment_reaches_bound(self):
        # optimal split for small A: (a1, b1) = (A, x_A/A), (a2, b2) swapped
        for a_dec in (0.2, 0.25, 0.3, 0.45, 0.6):
            x_a = th.split_bound_argmax(a_dec)
            a1, a2, b1, b2 = a_dec, x_a / a_dec, x_a / a_dec, a_dec
            target = (th.weak_pair_threshold(a_dec) / 2) ** 2
            s_bound = np.sqrt(a1 * (1 / b1 - a1)) + np.sqrt(a2 * (1 / b2 - a2))
            t_bound = np.sqrt(b1 * (1 / a1 - b1)) + np.sqrt(b2 * (1 / a2 - b2))
            assert s_bound**2 == pytest.approx(target, rel=1e-12)
            assert t_bound**2 == pytest.approx(target, rel=1e-12)


class TestWeakBoundOracle:
    def test_boundary_maximizer(self):
        val, x = th.weak_bound_oracle(0.8)
        assert val == pytest.approx(1.44, abs=1e-9)
        assert x == pytest.approx(0.64, abs=1e-9)

    def test_above_second_branch(self):
        # beyond sqrt(3)/2 the grid max stays 4(1-A^2) < (c2/2)^2 = 1: the
        # constant branch of the threshold comes from elsewhere
        val, x = th.weak_bound_oracle(0.9)
        assert val == pytest.approx(4 * (1 - 0.81), abs=1e-9)
        assert val < (th.weak_pair_threshold(0.9) / 2) ** 2

    def test_interior_maximizer(self):
        val, x = th.weak_bound_oracle(0.25)
        assert val == pytest.approx((C2_AT_QUARTER / 2) ** 2, abs=1e-9)
        assert x == pytest.approx(X_A_AT_QUARTER, abs=1e-6)

    def test_matches_threshold_across_range(self):
        # the AC-2 sweep: 20 values in (0, sqrt(3)/2), argmax within a grid step
        for a in np.linspace(0.04, np.sqrt(3) / 2 - 0.01, 20):
            val, x = th.weak_bound_oracle(a)
            assert val == pytest.approx((th.weak_pair_threshold(a) / 2) ** 2, abs=1e-6)
            step = (1 - a * a) / th.ORACLE_GRID_SIZE
            assert abs(x - th.split_bound_argmax(a)) <= step


class TestUniquenessBounds:
    def test_values(self):
        assert th.uniqueness_density_bounds(0.6, 0.6) == pytest.approx((0.8, 0.8), abs=1e-12)
        assert th.uniqueness_density_bounds(0.5, 1.0) == pytest.approx((0.5, 1.0), abs=1e-12)

    @given(st.floats(0.05, 0.95))
    def test_equal_rates_simplify(self, a):
        d1, d2 = th.uniqueness_density_bounds(a, a)
        assert d1 == pytest.approx(np.sqrt(1 - a * a), abs=1e-12)
        assert d2 == pytest.approx(d1, abs=1e-15)

    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0))
    def test_product_identity_and_symmetry(self, a, b):
        if a * b >= 0.999:
            return
        d1, d2 = th.uniqueness_density_bounds(a, b)
        assert d1 * d2 == pytest.approx(1 - a * b, abs=1e-12)
        s1, s2 = th.uniqueness_density_bounds(b, a)
        assert (s1, s2) == pytest.approx((d2, d1), abs=1e-14)

    @given(st.floats(0.1, 0.9), st.floats(0.1, 0.9), st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    @settings(max_examples=200)
    def test_bound_growth_forces_equal_rates(self, a, b, da, db):
        # if both bounds weakly grow when the rates weakly grow, the rates
        # did not actually move (tested with a resolvable minimum step)
        if a * b >= 0.999 or max(da, db) < 1e-6:
            return
        aa, bb = a + da, b + db
        if aa * bb >= 0.999:
            return
        d1, d2 = th.uniqueness_density_bounds(a, b)
        e1, e2 = th.uniqueness_density_bounds(aa, bb)
        assert not (e1 >= d1 - 1e-12 and e2 >= d2 - 1e-12)

    def test_domain_error(self):
        with pytest.raises(th.DomainError):
            th.uniqueness_density_bounds(1.2, 1.0)


class TestSplitOptimizationOracle:
    @staticmethod
    def _neg_bound(v, a_dec):
        a1, a2, b1, b2 = np.maximum(v, a_dec)
        s, t, eta, nu = a1 + a2, b1 + b2, a1 * a2, b1 * b2
        s2 = s * (t / nu - s)
        t2 = t * (s / eta - t)
        if s2 <= 0 or t2 <= 0:
            return 1e9
        return -min(s2, t2)

    @pytest.mark.parametrize("a_dec", [0.2, 0.25, 0.4, 0.5, 0.6])
    def test_four_rate_search_attains_threshold(self, a_dec):
        # independent oracle: free optimization over all four split rates
        # must never exceed (c2/2)^2 and must reach it
        minimize = pytest.importorskip("scipy.optimize").minimize
        target = (th.weak_pair_threshold(a_dec) / 2) ** 2
        rng = np.random.default_rng(1)
        best = -np.inf
        for _ in range(8):
            res = minimize(self._neg_bound, a_dec + rng.exponential(0.3, 4), args=(a_dec,),
                           method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
            best = max(best, -res.fun)
        assert best <= target * (1 + 1e-9)
        assert best == pytest.approx(target, rel=1e-6)
