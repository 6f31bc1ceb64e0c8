import dataclasses
import tracemalloc

import numpy as np
import pytest

from pauli_lab import fourier, hermite
from pauli_lab import interpolation as itp
from pauli_lab.sequences import SampledSet, SmoothSpec, generate_smooth, split_parity


def sym_profile(density, count=512, seed=0, jitter=0.0):
    return generate_smooth(SmoothSpec(p=2.0, density=density, count=count,
                                      jitter=jitter, seed=seed, halves="±"))


@pytest.fixture(scope="module")
def small_problem():
    lam = sym_profile(0.55, seed=1)
    mu = sym_profile(0.55, seed=2)
    base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 2.8, nodes=2048)
    cut, _ = itp.choose_window_cut(base)
    return base.restricted(cut)


class TestCrossMatrices:
    def test_kronecker_free_shapes(self, small_problem):
        mats = itp.build_cross_matrices(small_problem)
        n_l, n_m = len(small_problem.lam), len(small_problem.mu)
        assert mats.psi_at_lambda.shape == (n_l, n_m)
        assert mats.phihat_at_mu.shape == (n_m, n_l)
        assert mats.psi_error < 1e-8 and mats.phihat_error < 1e-8

    def test_symmetry_under_reflection(self, small_problem):
        mats = itp.build_cross_matrices(small_problem)
        lam, mu = small_problem.lam, small_problem.mu
        a = mats.psi_at_lambda
        for i in (0, 1):
            for j in (0, 1):
                i_neg = int(np.argmin(np.abs(lam + lam[i])))
                j_neg = int(np.argmin(np.abs(mu + mu[j])))
                assert a[i_neg, j_neg] == pytest.approx(a[i, j], rel=1e-5, abs=1e-9)

    def test_node_columns_shared_and_exact(self, small_problem):
        p = small_problem
        assert p.time_columns is p.time_columns
        assert np.array_equal(p.time_columns,
                              itp.divided_columns(p.time_gen, p.lam, p.time_quad.grid()))
        assert np.array_equal(p.freq_columns,
                              itp.divided_columns(p.freq_gen, p.mu, p.freq_quad.grid()))
        # a column depends on its own point only, so a narrower window's
        # columns are rows of the wider one's
        narrow = p.restricted(float(np.median(np.abs(p.lam))))
        keep = np.abs(p.lam) > narrow.inner_cut
        assert np.array_equal(narrow.time_columns, p.time_columns[keep])

    def test_restricted_keeps_computed_columns(self, monkeypatch):
        lam = sym_profile(0.9, seed=1)
        mu = sym_profile(0.9, seed=2)
        base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 3.2, nodes=512)
        original = itp.divided_columns
        calls = []

        def counting(model, lams, x):
            calls.append(len(lams))
            return original(model, lams, x)

        monkeypatch.setattr(itp, "divided_columns", counting)
        cut, _ = itp.choose_window_cut(base)
        problem = base.restricted(cut)
        itp.build_cross_matrices(problem)
        # one evaluation per side on the wide window; the cut drops points
        assert calls == [len(base.mu), len(base.lam)]
        assert 0 < len(problem.lam) < len(base.lam) and 0 < len(problem.mu) < len(base.mu)
        assert np.array_equal(problem.time_columns,
                              original(problem.time_gen, problem.lam, problem.time_quad.grid()))
        assert np.array_equal(problem.freq_columns,
                              original(problem.freq_gen, problem.mu, problem.freq_quad.grid()))

    def test_with_data_keeps_computed_columns(self, monkeypatch):
        from pauli_lab import acceptance

        original = itp.divided_columns
        node_calls = []

        def counting(model, lams, x):
            if len(x) == 2049:  # AC-6's node grids, not its verification grid
                node_calls.append(len(lams))
            return original(model, lams, x)

        monkeypatch.setattr(itp, "divided_columns", counting)
        assert acceptance.ac6().passed
        # once per side for the cut search; the restricted, renormalized
        # problem reuses those rows
        assert len(node_calls) == 2

    def test_with_data_sets_only_the_data(self, small_problem):
        p = small_problem
        cols = p.time_columns
        alpha = np.arange(len(p.lam), dtype=complex)
        beta = np.ones(len(p.mu), dtype=complex)
        q = p.with_data(alpha, beta)
        assert q.alpha is alpha and q.beta is beta
        assert np.array_equal(q.lam, p.lam) and q.time_quad == p.time_quad
        assert np.array_equal(q.time_columns, cols)

    def test_collision_rows_use_cancelled_factor(self, small_problem):
        p = small_problem
        gen, lam = p.time_gen, p.lam
        grid = p.time_quad.grid()[::64]
        x = np.concatenate([grid, lam[:3], [lam[0] + 1e-12, lam[1] - 3e-10]])
        cols = itp.divided_columns(gen, lam, x)
        hits = 0
        for j in range(len(lam)):
            near = np.abs(x - lam[j]) < 1e-9
            hits += np.count_nonzero(near)
            if np.any(near):
                assert np.array_equal(cols[j, near], gen.divided_basis_eval(lam[j], x[near]))
        assert hits == 5
        assert cols[0, len(grid)] == pytest.approx(1.0, abs=1e-12)
        assert np.all(cols[1:3, len(grid)] == 0.0)

    def test_real_points_match_complex_points(self, small_problem):
        p = small_problem
        x = np.concatenate([p.time_quad.grid()[::16], p.lam[:4]])
        assert np.array_equal(itp.divided_columns(p.time_gen, p.lam, x),
                              itp.divided_columns(p.time_gen, p.lam, x.astype(complex)))
        rng = np.random.default_rng(3)
        interp = itp.AssembledInterpolant(p, rng.normal(size=len(p.lam)),
                                          rng.normal(size=len(p.mu)))
        for pts in (x, np.linspace(-3.0, 3.0, 64)):  # dense and chirp-z sums
            assert np.array_equal(interp.eval(pts), interp.eval(pts.astype(complex)))
            assert np.array_equal(interp.eval_hat(pts), interp.eval_hat(pts.astype(complex)))

    def test_stacked_coefficients_evaluate_each_column(self, small_problem):
        p = small_problem
        rng = np.random.default_rng(7)
        alpha = rng.normal(size=(len(p.lam), 3)) + 1j * rng.normal(size=(len(p.lam), 3))
        beta = rng.normal(size=(len(p.mu), 3)) + 1j * rng.normal(size=(len(p.mu), 3))
        stacked = itp.AssembledInterpolant(p, alpha, beta)
        singles = [itp.AssembledInterpolant(p, alpha[:, j], beta[:, j]) for j in range(3)]
        pts = np.linspace(-2.5, 2.5, 11)
        for name in ("eval", "eval_hat"):
            got = getattr(stacked, name)(pts)
            want = np.column_stack([getattr(s, name)(pts) for s in singles])
            assert got.shape == (len(pts), 3)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_empty_frequency_side(self):
        lam = sym_profile(0.55, seed=1)
        base = itp.make_problem(lam, SampledSet(points=np.empty(0)), None, None,
                                0.5, 0.5, 0.0, 2.8, nodes=1024)
        mats = itp.build_cross_matrices(base)
        assert mats.psi_at_lambda.shape[1] == 0
        cut, _ = itp.choose_window_cut(base)
        assert cut == 0.0  # no coupling at all: the full window is feasible
        alpha = np.ones(len(base.lam), dtype=complex)
        prob = dataclasses.replace(base, alpha=alpha)
        res = itp.solve(prob, tol=1e-12)
        # no coupling: converges immediately after placing the data
        assert len(res.state.norms) <= 2
        assert res.verify_time < 1e-10

    def test_one_by_one_contraction_factor(self):
        lam = sym_profile(0.55, seed=1)
        mu = sym_profile(0.55, seed=2)
        base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 2.8, nodes=2048)
        keep_l = np.isclose(base.lam, base.lam[base.lam > 0][0])
        keep_m = np.isclose(base.mu, base.mu[base.mu > 0][0])
        prob = dataclasses.replace(
            base, lam=base.lam[keep_l], mu=base.mu[keep_m],
            alpha=np.array([1.0 + 0j]), beta=np.array([0.0 + 0j]))
        mats = itp.build_cross_matrices(prob)
        n_a, n_b = itp.weighted_norms(prob, mats)
        tot_a, tot_b, states = itp._iterate(prob, mats, prob.alpha, prob.beta, 1e-14, 12)
        norms = states[0].norms
        # kappa_3/kappa_1 is exactly the product of the two weighted 1x1 norms
        assert norms[2] / norms[0] == pytest.approx(n_a * n_b, rel=1e-10)


class TestChooseCut:
    def test_accepts_small_cut_for_sparse_sets(self, small_problem):
        assert small_problem.inner_cut == 0.0

    def _collision_problem(self, gap=0.008):
        # a near-collision in the frequency set tanks the cardinal-function
        # normalization there: the full window fails the 1/2 bound and the
        # cut must move past the colliding pair
        lam = sym_profile(0.55, seed=5)
        base_mu = sym_profile(0.50, seed=6)
        pos = base_mu.points[base_mu.points > 0]
        extra = pos[0] + gap
        mu = SampledSet(points=np.unique(np.concatenate([base_mu.points, [extra, -extra]])))
        return itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 2.8, nodes=2048)

    def test_rejects_then_accepts(self):
        base = self._collision_problem()
        cut, diag = itp.choose_window_cut(base)
        assert cut > 1.0
        first = diag[0]
        assert max(first[1], first[2]) >= 0.5
        assert max(diag[-1][1], diag[-1][2]) < 0.5

    def test_norms_decay_with_cut(self):
        base = self._collision_problem()
        cuts = [0.0, 1.4, 2.0]
        norms = []
        for c in cuts:
            sub = base.restricted(c)
            sub_m = itp.build_cross_matrices(sub)
            norms.append(max(itp.weighted_norms(sub, sub_m)))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_infeasible_raises(self):
        lam = sym_profile(0.85, seed=7)
        mu = sym_profile(0.85, seed=8)
        base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 3.4, nodes=1024)
        with pytest.raises(itp.NoFeasibleWindowError):
            itp.choose_window_cut(base, candidates=[0.0], bound=1e-4)


class TestSolve:
    def test_memory_linear_in_nodes(self):
        # the AC-6 problem at 8192 nodes: the verification re-transform alone
        # would hold a 8193 x 12289 phase matrix (1.6 GB) if formed densely
        lam = sym_profile(0.8, seed=1)
        mu = sym_profile(0.8, seed=2)
        base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 3.2, nodes=8192)
        cut, _ = itp.choose_window_cut(base)
        prob = base.restricted(cut)
        rng = np.random.default_rng(3)
        alpha = rng.normal(size=len(prob.lam)) + 1j * rng.normal(size=len(prob.lam))
        beta = rng.normal(size=len(prob.mu)) + 1j * rng.normal(size=len(prob.mu))
        nrm = prob.data_norm(alpha, beta)
        prob = dataclasses.replace(prob, alpha=alpha / nrm, beta=beta / nrm)
        tracemalloc.start()
        try:
            res = itp.solve(prob, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert res.verify_time <= 1e-7 and res.verify_freq <= 1e-7

    def test_zero_data_one_step(self, small_problem):
        res = itp.solve(small_problem, tol=1e-12)
        assert len(res.state.norms) == 1
        assert np.all(res.alpha_total == 0) and np.all(res.beta_total == 0)

    def test_kronecker_target(self, small_problem):
        alpha = np.zeros(len(small_problem.lam), dtype=complex)
        alpha[0] = 1.0
        prob = dataclasses.replace(small_problem, alpha=alpha)
        res = itp.solve(prob, tol=1e-11)
        assert all(r <= 0.55 for r in res.state.ratios[1:])
        assert res.verify_time < 1e-9
        assert res.interpolant.eval(prob.lam[0]) == pytest.approx(1.0, abs=1e-9)

    def test_random_unit_norm_contract(self, small_problem):
        rng = np.random.default_rng(42)
        alpha = rng.normal(size=len(small_problem.lam)) + 1j * rng.normal(size=len(small_problem.lam))
        beta = rng.normal(size=len(small_problem.mu)) + 1j * rng.normal(size=len(small_problem.mu))
        nrm = small_problem.data_norm(alpha, beta)
        prob = dataclasses.replace(small_problem, alpha=alpha / nrm, beta=beta / nrm)
        res = itp.solve(prob, tol=1e-10, max_iter=40)
        assert res.state.converged and len(res.state.norms) <= 40
        assert all(r <= 0.55 for r in res.state.ratios)
        assert res.state.norms[-1] <= 1e-8
        assert res.verify_time <= 1e-7 and res.verify_freq <= 1e-7

    def test_windowing_honesty(self):
        # enlarging the outer radius by 25% moves the solution on the original
        # window by less than the dropped-tail weight scale e^{-a pi R^2}
        lam = sym_profile(0.55, seed=1)
        mu = sym_profile(0.55, seed=2)
        tail_scale = np.exp(-0.5 * np.pi * 2.4**2)
        sols = []
        for r_out in (2.4, 3.0):
            base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, r_out, nodes=2048)
            alpha = np.where(np.abs(base.lam) <= 2.4, 1.0, 0.0).astype(complex)
            prob = dataclasses.replace(base, alpha=alpha)
            sols.append(itp.solve(prob, tol=1e-11).interpolant)
        probe = np.linspace(-2.0, 2.0, 41)
        drift = np.max(np.abs(sols[0].eval(probe) - sols[1].eval(probe)))
        assert drift < 10.0 * tail_scale


@pytest.fixture(scope="module")
def split_sets():
    lam_all = sym_profile(1.2, seed=3)
    mu_all = sym_profile(1.2, seed=4)
    lam1, _ = split_parity(lam_all)
    mu1, _ = split_parity(mu_all)
    return lam1, mu1


class TestVanishingFunction:
    def test_basic_residuals(self, split_sets):
        lam1, mu1 = split_sets
        vf = itp.assemble_vanishing_function(lam1, mu1, 0.5, 0.5, nodes=2048)
        assert vf.residual_time < 1e-8
        assert vf.residual_freq < 1e-8
        assert np.max(np.abs(vf.eval(vf.aux_points))) == pytest.approx(1.0, abs=1e-8)

    def test_real_even(self, split_sets):
        lam1, mu1 = split_sets
        vf = itp.assemble_vanishing_function(lam1, mu1, 0.5, 0.5, nodes=2048)
        x = np.linspace(0.1, 2.5, 17)
        vals = vf.eval(x)
        assert np.max(np.abs(vals.imag)) < 1e-9 * np.max(np.abs(vals))
        assert np.max(np.abs(vals - vf.eval(-x))) < 1e-7

    def test_null_space_path(self, split_sets):
        lam1, mu1 = split_sets
        vf = itp.assemble_vanishing_function(lam1, mu1, 0.5, 0.5, aux_count=4,
                                             min_inner_cut=1.4, nodes=2048)
        assert vf.inner_cut >= 1.4
        n_int = np.count_nonzero((lam1.symmetrized().positive > 0) & (lam1.symmetrized().positive <= vf.inner_cut)) + \
            np.count_nonzero((mu1.symmetrized().positive > 0) & (mu1.symmetrized().positive <= vf.inner_cut))
        assert 0 < n_int < 4
        assert vf.constraint_sigma < 1e-8
        assert vf.residual_time < 1e-7 and vf.residual_freq < 1e-7

    def test_null_combination_ignores_basis_choice(self):
        # a 2 x 4 constraint with singular values 2715 and 31: its null space
        # is two-dimensional, so the combination must not depend on which
        # basis of it the SVD happens to return
        rng = np.random.default_rng(17)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        con = u @ np.diag([2715.0, 31.0]) @ v[:, :2].conj().T
        combo = itp._null_combination(con)
        assert np.linalg.norm(con @ combo) < 1e-12 * 2715.0
        null = v[:, 2:] @ v[:, 2:].conj().T
        assert np.max(np.abs(combo - null[:, 0] / np.linalg.norm(null[:, 0]))) < 1e-12
        for trial in range(5):
            noise = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            moved = itp._null_combination(con + 1e-12 * noise)
            assert np.linalg.norm(moved - combo) <= 1e-10
        # reordered or recombined constraints have the same null space and
        # give the same combination
        for same in (con[::-1], np.array([[1.0, 0.5], [0.2, -1.0]]) @ con):
            assert np.linalg.norm(itp._null_combination(same) - combo) <= 1e-10

    def test_null_combination_when_first_carrier_is_constrained(self):
        # the first unit vector lies in the row space: no null vector uses the
        # first carrier, so the carrier with the largest projection is taken
        combo = itp._null_combination(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]]))
        assert np.allclose(np.abs(combo), [0.0, np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)
        assert np.all(np.isfinite(combo))

    def test_null_combination_full_rank_raises(self):
        with pytest.raises(itp.NullSpaceEmptyError):
            itp._null_combination(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_null_space_empty(self):
        # distinct set geometries keep the square constraint system nonsingular;
        # jitter only the positive half so the mirrored sets stay symmetric
        lam_half = generate_smooth(SmoothSpec(p=2.0, density=1.2, count=512,
                                              jitter=0.2, seed=3, halves="+"))
        mu_half = generate_smooth(SmoothSpec(p=2.0, density=1.1, count=512,
                                             jitter=0.2, seed=11, halves="+"))
        lam1, _ = split_parity(lam_half)
        mu1, _ = split_parity(mu_half)
        with pytest.raises(itp.NullSpaceEmptyError):
            itp.assemble_vanishing_function(lam1, mu1, 0.5, 0.5, aux_count=2,
                                            min_inner_cut=1.4, nodes=2048)

    def test_density_too_high(self):
        lam = sym_profile(1.0, seed=9)
        mu = sym_profile(1.0, seed=10)
        with pytest.raises(itp.DensityTooHighError):
            itp.assemble_vanishing_function(lam, mu, 0.5, 0.5)

    def test_hermite_cross_check(self, split_sets):
        # frequency values through the eigenbasis route match direct quadrature
        lam1, mu1 = split_sets
        vf = itp.assemble_vanishing_function(lam1, mu1, 0.5, 0.5, nodes=2048)
        spec = fourier.QuadratureSpec(half_width=10.0, nodes=4096)
        x, w = spec.grid(), spec.weights()
        vals = vf.eval(x)
        scale = np.max(np.abs(vals))
        coeffs = hermite.project(vals / scale, x, w, 40)
        mu_check = mu1.symmetrized().points
        mu_check = mu_check[np.abs(mu_check) <= 2.6]
        via_hermite = hermite.series_hat(coeffs, mu_check)
        direct = vf.eval_hat(mu_check) / scale
        assert np.max(np.abs(via_hermite - direct)) < 1e-4
