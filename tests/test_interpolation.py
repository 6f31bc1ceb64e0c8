import dataclasses
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from pauli_lab import fourier
from pauli_lab import interpolation as itp
from pauli_lab.entire_models import ProductModel
from pauli_lab.sequences import SampledSet, SmoothSpec, generate_smooth, split_parity
from pauli_lab.thresholds import split_bound_argmax, weak_pair_threshold

import hermite


def sym_profile(density, count=512, seed=0, jitter=0.0):
    return generate_smooth(SmoothSpec(p=2.0, density=density, count=count,
                                      jitter=jitter, seed=seed, halves="±"))


def weighted_norms(problem, mats):
    """Weighted-l1 operator norms of the two cross maps, the contraction certificate."""
    wl, wm = problem.lam_weights, problem.mu_weights
    return itp._op_norm(mats.psi_at_lambda, wl, wm), itp._op_norm(mats.phihat_at_mu, wm, wl)


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

    def test_agree_with_twice_the_nodes(self, small_problem):
        p = small_problem
        twice = dataclasses.replace(
            p, time_quad=fourier.QuadratureSpec(p.time_quad.half_width, 2 * p.time_quad.nodes),
            freq_quad=fourier.QuadratureSpec(p.freq_quad.half_width, 2 * p.freq_quad.nodes))
        want = itp.build_cross_matrices(twice)
        mats = itp.build_cross_matrices(p)
        assert np.max(np.abs(mats.psi_at_lambda - want.psi_at_lambda)) < 1e-8
        assert np.max(np.abs(mats.phihat_at_mu - want.phihat_at_mu)) < 1e-8

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
                              itp.divided_columns(p.time_gen, p.lam, p.time_quad.grid(),
                                                  p.time_gen.derivative_at_zero(p.lam)))
        assert np.array_equal(p.freq_columns,
                              itp.divided_columns(p.freq_gen, p.mu, p.freq_quad.grid(),
                                                  p.freq_gen.derivative_at_zero(p.mu)))
        # a column depends on its own point only, so a narrower window's
        # columns are rows of the wider one's
        narrow = p.restricted(float(np.median(np.abs(p.lam))))
        keep = np.abs(p.lam) > narrow.inner_cut
        assert np.array_equal(narrow.time_columns, p.time_columns[keep])

    def test_real_points_give_real_columns(self, small_problem):
        p = small_problem
        for gen, pts, quad, derivs in ((p.time_gen, p.lam, p.time_quad, p.time_derivs),
                                       (p.freq_gen, p.mu, p.freq_quad, p.freq_derivs)):
            # nodes, and points on a lam, where the cancelled-factor fallback runs
            x = np.concatenate([quad.grid(), pts[::3], pts[1::4] + 3e-10])
            got = itp.divided_columns(gen, pts, x, derivs)
            cplx = itp.divided_columns(gen, pts, x + 0j, derivs)
            assert derivs.dtype == float and got.dtype == float and cplx.dtype == complex
            assert not np.any(cplx.imag)
            assert np.array_equal(got, cplx.real)
        assert p.time_columns.nbytes == 8 * len(p.lam) * (p.time_quad.nodes + 1)
        assert p.freq_columns.nbytes == 8 * len(p.mu) * (p.freq_quad.nodes + 1)

    def test_restricted_keeps_computed_columns(self, monkeypatch):
        lam = sym_profile(0.9, seed=1)
        mu = sym_profile(0.9, seed=2)
        base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 3.2, nodes=512)
        original = itp.divided_columns
        calls = []

        def counting(model, lams, x, derivs):
            calls.append(len(lams))
            return original(model, lams, x, derivs)

        monkeypatch.setattr(itp, "divided_columns", counting)
        cut, _ = itp.choose_window_cut(base)
        problem = base.restricted(cut)
        itp.build_cross_matrices(problem)
        # one evaluation per side on the wide window; the cut drops points
        assert calls == [len(base.mu), len(base.lam)]
        assert 0 < len(problem.lam) < len(base.lam) and 0 < len(problem.mu) < len(base.mu)
        assert np.array_equal(problem.time_columns,
                              original(problem.time_gen, problem.lam, problem.time_quad.grid(),
                                       problem.time_gen.derivative_at_zero(problem.lam)))
        assert np.array_equal(problem.freq_columns,
                              original(problem.freq_gen, problem.mu, problem.freq_quad.grid(),
                                       problem.freq_gen.derivative_at_zero(problem.mu)))

    def test_with_data_keeps_computed_columns(self, monkeypatch):
        from pauli_lab import acceptance

        original = itp.divided_columns
        node_calls = []

        def counting(model, lams, x, derivs):
            if len(x) == 2049:  # AC-6's node grids, not its verification grid
                node_calls.append(len(lams))
            return original(model, lams, x, derivs)

        build = itp.build_cross_matrices
        builds = []

        def counting_build(problem):
            builds.append((len(problem.lam), len(problem.mu)))
            return build(problem)

        derivative = ProductModel.derivative_at_zero
        derivs = []

        def counting_derivative(model, lam):
            derivs.append(np.size(lam))
            return derivative(model, lam)

        monkeypatch.setattr(itp, "divided_columns", counting)
        monkeypatch.setattr(itp, "build_cross_matrices", counting_build)
        monkeypatch.setattr(ProductModel, "derivative_at_zero", counting_derivative)
        assert acceptance.run_all(["AC-6"])[0].passed
        # once per side for the cut search; the restricted, renormalized
        # problem reuses those rows
        assert len(node_calls) == 2
        # the cross matrices are built once, on the wide window of the cut
        # search, and the solve reads their submatrices
        assert len(builds) == 1
        # one derivative pass per side for the wide window's points, which
        # the node columns, the solve's evaluations and its collisions share
        assert sorted(derivs) == sorted(builds[0])

    @pytest.mark.parametrize("nodes", [512, 2048])
    def test_carried_quantities_match_fresh_ones(self, nodes):
        for seed in range(1, 7):
            d_lam, d_mu = np.random.default_rng(seed).uniform(0.55, 0.95, 2)
            base = itp.make_problem(sym_profile(d_lam), sym_profile(d_mu), None, None,
                                    0.5, 0.5, 0.0, 3.2, nodes=nodes)
            chosen, _ = itp.choose_window_cut(base)
            for cut in (chosen, float(np.median(np.abs(base.lam)))):
                sub = base.restricted(cut)
                assert 0 < len(sub.lam) and 0 < len(sub.mu)
                fresh = dataclasses.replace(sub)  # a copy without any cached quantity
                assert not {"cross", "time_derivs", "freq_derivs"} & set(vars(fresh))
                want = itp.build_cross_matrices(fresh)
                # the same sums over the kept rows and columns; BLAS blocking
                # may differ with the matrix shape and move the last bits
                for got_m, want_m in ((sub.cross.psi_at_lambda, want.psi_at_lambda),
                                      (sub.cross.phihat_at_mu, want.phihat_at_mu)):
                    assert got_m.shape == want_m.shape
                    scale = np.max(np.abs(want_m))
                    assert np.max(np.abs(got_m - want_m)) <= 1e-14 * scale
                assert np.array_equal(sub.time_derivs, fresh.time_derivs)
                assert np.array_equal(sub.freq_derivs, fresh.freq_derivs)

    def test_every_cached_quantity_is_carried(self, small_problem):
        cached = [name for name, attr in vars(itp.InterpolationProblem).items()
                  if isinstance(attr, cached_property)]
        assert {"cross", "time_derivs", "freq_derivs", "time_columns", "freq_columns"} <= set(cached)
        p = small_problem
        for name in cached:
            getattr(p, name)
        cut = float(np.median(np.abs(p.lam)))
        data = (np.ones(len(p.lam), dtype=complex), np.zeros(len(p.mu), dtype=complex))
        for q in (p.restricted(cut), p.with_data(*data)):
            assert set(cached) <= set(vars(q)), "a cached quantity was dropped"

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
        derivs = gen.derivative_at_zero(lam)
        cols = itp.divided_columns(gen, lam, x, derivs)
        hits = 0
        for j in range(len(lam)):
            near = np.abs(x - lam[j]) < 1e-9
            hits += np.count_nonzero(near)
            if np.any(near):
                k = np.count_nonzero(near)
                assert np.array_equal(cols[j, near], gen.divided_basis_eval(
                    np.full(k, lam[j]), x[near], np.full(k, derivs[j])))
        assert hits == 5
        assert cols[0, len(grid)] == pytest.approx(1.0, abs=1e-12)
        assert np.all(cols[1:3, len(grid)] == 0.0)

    def test_collision_rows_take_one_call(self, small_problem, monkeypatch):
        gen, lam = small_problem.time_gen, small_problem.lam
        calls = []
        original = ProductModel.divided_basis_eval

        def counting(model, lams, z, derivs):
            calls.append(np.size(lams))
            return original(model, lams, z, derivs)

        monkeypatch.setattr(ProductModel, "divided_basis_eval", counting)
        cols = itp.divided_columns(gen, lam, lam, gen.derivative_at_zero(lam))
        assert calls == [len(lam)]
        assert np.allclose(np.diag(cols), 1.0, rtol=0, atol=1e-12)
        assert np.all(cols[~np.eye(len(lam), dtype=bool)] == 0.0)
        single = np.array([original(gen, v, v, gen.derivative_at_zero(v))[0]
                           for v in np.split(lam, len(lam))])
        assert np.allclose(np.diag(cols), single, rtol=1e-13, atol=0)

    def test_real_points_match_complex_points(self, small_problem):
        p = small_problem
        x = np.concatenate([p.time_quad.grid()[::16], p.lam[:4]])
        assert np.array_equal(itp.divided_columns(p.time_gen, p.lam, x, p.time_derivs),
                              itp.divided_columns(p.time_gen, p.lam, x.astype(complex),
                                                  p.time_derivs))
        rng = np.random.default_rng(3)
        interp = itp.AssembledInterpolant(p, rng.normal(size=len(p.lam)),
                                          rng.normal(size=len(p.mu)))
        for pts in (x, np.linspace(-3.0, 3.0, 64)):  # dense and chirp-z sums
            assert np.array_equal(interp.eval(pts), interp.eval(pts.astype(complex)))
            assert np.array_equal(interp.eval_hat(pts), interp.eval_hat(pts.astype(complex)))

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
        n_a, n_b = weighted_norms(prob, prob.cross)
        norms = itp.solve(prob, tol=1e-14).state.norms
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
            norms.append(max(weighted_norms(sub, sub_m)))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_infeasible_raises(self):
        # dense enough that no candidate cut, the full window included, contracts
        lam = sym_profile(1.1, seed=7)
        mu = sym_profile(1.1, seed=8)
        base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 3.4, nodes=1024)
        with pytest.raises(itp.NoFeasibleWindowError) as info:
            itp.choose_window_cut(base)
        diag = info.value.diagnostics
        radii = np.unique(np.abs(np.concatenate([base.lam, base.mu])))
        assert [d[0] for d in diag] == [0.0, *(0.5 * (radii[:-1] + radii[1:]))]
        assert all(max(n_a, n_b) >= 0.5 for _, n_a, n_b in diag)


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
        assert np.all(res.interpolant.alpha == 0) and np.all(res.interpolant.beta == 0)

    def test_kronecker_target(self, small_problem):
        alpha = np.zeros(len(small_problem.lam), dtype=complex)
        alpha[0] = 1.0
        prob = dataclasses.replace(small_problem, alpha=alpha)
        res = itp.solve(prob, tol=1e-11)
        assert all(r <= 0.55 for r in res.state.ratios[1:])
        assert res.verify_time < 1e-9
        assert res.interpolant.eval(prob.lam[:1])[0] == pytest.approx(1.0, abs=1e-9)

    def test_step_cap_fails_the_check(self):
        # the AC-6 problem: its contraction needs far more than three steps
        lam = generate_smooth(SmoothSpec(p=2.0, density=0.8, count=512, halves="±", seed=1))
        mu = generate_smooth(SmoothSpec(p=2.0, density=0.8, count=512, halves="±", seed=2))
        base = itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 3.2, nodes=2048)
        prob = base.restricted(itp.choose_window_cut(base)[0])
        rng = np.random.default_rng(0)
        prob = prob.with_data(rng.normal(size=len(prob.lam)) + 0j,
                              rng.normal(size=len(prob.mu)) + 0j)
        with pytest.raises(itp.SolverFailedError, match=r"^contraction failed after 3 steps; "):
            itp.solve(prob, tol=1e-10, max_iter=3)
        assert len(itp.solve(prob, tol=1e-10).state.norms) > 3

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
        carrier = np.array([vf.carrier, -vf.carrier])
        assert np.max(np.abs(vf.interpolant.eval(carrier) - 1.0)) < 1e-8

    def test_real_even(self, split_sets):
        lam1, mu1 = split_sets
        vf = itp.assemble_vanishing_function(lam1, mu1, 0.5, 0.5, nodes=2048)
        x = np.linspace(0.1, 2.5, 17)
        vals = vf.interpolant.eval(x)
        assert np.max(np.abs(vals.imag)) < 1e-9 * np.max(np.abs(vals))
        assert np.max(np.abs(vals - vf.interpolant.eval(-x))) < 1e-7

    def test_null_space_path(self):
        # the odd part of a non-weak split at A = 0.45 and 0.7 of the cap, with
        # its rates (x_A/A, A): contraction needs a cut that leaves interior
        # points, while the direct solve meets every point at cut 0
        decay = 0.45
        _, odd = split_parity(sym_profile(0.7 * weak_pair_threshold(decay) / 2.0))
        vf = itp.assemble_vanishing_function(odd, odd, split_bound_argmax(decay) / decay, decay,
                                             nodes=2048)
        problem = vf.interpolant.problem
        assert problem.inner_cut == 0.0 and vf.window_cut > 0.0
        inside = odd.symmetrized().positive
        assert vf.carrier == 0.5 * (inside[0] + inside[1])
        at_carrier = vf.interpolant.eval(np.array([vf.carrier, -vf.carrier]))
        assert np.max(np.abs(at_carrier - 1.0)) < 1e-12
        assert vf.residual_time < 1e-13 and vf.residual_freq < 1e-13

    def test_carrier_without_two_points(self):
        # one positive time point: the carrier is half of it; none in the
        # window: half the outer radius
        mu = SampledSet(points=np.array([-1.3, 1.3]))
        for lam, want in ((SampledSet(points=np.array([-1.5, 1.5])), 0.75),
                          (SampledSet(points=np.empty(0)), 0.5 * np.sqrt(18.0 / (np.pi * 0.5)))):
            vf = itp.assemble_vanishing_function(lam, mu, 0.5, 0.5, nodes=1024)
            assert vf.carrier == want
            assert abs(vf.interpolant.eval(np.array([vf.carrier]))[0] - 1.0) < 1e-12
            assert vf.residual_time < 1e-12 and vf.residual_freq < 1e-12

    def test_singular_system_fails_the_check(self, split_sets, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        lam1, mu1 = split_sets
        with pytest.raises(itp.SolverFailedError, match="singular"):
            itp.assemble_vanishing_function(lam1, mu1, 0.5, 0.5, nodes=1024)

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
        vals = vf.interpolant.eval(x)
        scale = np.max(np.abs(vals))
        coeffs = hermite.project(vals / scale, x, w, 40)
        mu_check = mu1.symmetrized().points
        mu_check = mu_check[np.abs(mu_check) <= 2.6]
        via_hermite = hermite.series_hat(coeffs, mu_check)
        direct = vf.interpolant.eval_hat(mu_check) / scale
        assert np.max(np.abs(via_hermite - direct)) < 1e-4
