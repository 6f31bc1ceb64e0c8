import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_lab import fourier, sequences
from pauli_lab import interpolation as itp
from pauli_lab.entire_models import ProductModel

import hermite

SPEC = fourier.QuadratureSpec(half_width=8.0, nodes=2048)
XI = np.linspace(-4.0, 4.0, 81)


def with_half_count(values):
    """The rows stacked over their half-count rows: every other node at twice the weight."""
    half = np.zeros_like(values)
    half[..., ::2] = 2.0 * values[..., ::2]
    return np.stack([values, half])


class TestGaussianOracles:
    def test_self_transform(self):
        res = fourier.transform(lambda x: np.exp(-np.pi * x * x), SPEC, XI)
        assert np.max(np.abs(res.values - np.exp(-np.pi * XI**2))) < 1e-10
        one = fourier.transform(lambda x: np.exp(-np.pi * x * x), SPEC, np.array([1.0]))
        assert one.values[0] == pytest.approx(np.exp(-np.pi), abs=1e-12)

    def test_first_eigenfunction(self):
        res = fourier.transform(lambda x: x * np.exp(-np.pi * x * x), SPEC, XI)
        assert np.max(np.abs(res.values - (-1j) * XI * np.exp(-np.pi * XI**2))) < 1e-10
        half = fourier.transform(lambda x: x * np.exp(-np.pi * x * x), SPEC, np.array([0.5]))
        assert half.values[0] == pytest.approx(-0.5j * np.exp(-np.pi / 4), abs=1e-12)

    def test_dilated_gaussian(self):
        a = 0.5
        res = fourier.transform(lambda x: np.exp(-a * np.pi * x * x), SPEC, XI)
        exact = a**-0.5 * np.exp(-np.pi * XI**2 / a)
        assert np.max(np.abs(res.values - exact)) < 1e-10
        at_one = fourier.transform(lambda x: np.exp(-a * np.pi * x * x), SPEC, np.array([1.0]))
        assert at_one.values[0] == pytest.approx(np.sqrt(2) * np.exp(-2 * np.pi), abs=1e-12)

    def test_error_estimates_honest(self):
        res = fourier.transform(lambda x: np.exp(-np.pi * x * x), SPEC, XI)
        true_err = np.abs(res.values - np.exp(-np.pi * XI**2))
        assert np.all(true_err <= res.error + 1e-13)


class TestTransformProperties:
    def test_linearity(self):
        f = lambda x: np.exp(-np.pi * x * x)
        g = lambda x: x * np.exp(-0.7 * np.pi * x * x)
        a, b = 2.0, -1.5 + 0.5j
        lhs = fourier.transform(lambda x: a * f(x) + b * g(x), SPEC, XI)
        rf = fourier.transform(f, SPEC, XI)
        rg = fourier.transform(g, SPEC, XI)
        combo = a * rf.values + b * rg.values
        tol = abs(a) * rf.error + abs(b) * rg.error + lhs.error
        assert np.all(np.abs(lhs.values - combo) <= tol + 1e-13)

    def test_parity_transport(self):
        even = fourier.transform(lambda x: np.exp(-0.8 * np.pi * x * x) * np.cos(x), SPEC, XI)
        assert np.max(np.abs(even.values.imag)) <= np.max(even.error) + 1e-13
        odd = fourier.transform(lambda x: x * np.exp(-0.8 * np.pi * x * x) * np.cos(x), SPEC, XI)
        assert np.max(np.abs(odd.values.real)) <= np.max(odd.error) + 1e-13

    def test_plancherel(self):
        spec = fourier.QuadratureSpec(half_width=8.0, nodes=4096)
        x = spec.grid()
        f = np.exp(-0.6 * np.pi * x * x) * (1 + 0.3 * np.sin(2 * x))
        xi = np.linspace(-8, 8, 4097)
        fhat = fourier.transform_values(f, spec, xi)
        time_mass = np.sum(np.abs(f) ** 2) * (x[1] - x[0])
        freq_mass = np.sum(np.abs(fhat) ** 2) * (xi[1] - xi[0])
        assert freq_mass == pytest.approx(time_mass, rel=1e-6)

    def test_richardson_decays_with_nodes(self):
        coarse = fourier.QuadratureSpec(half_width=6.0, nodes=64)
        fine = fourier.QuadratureSpec(half_width=6.0, nodes=128)
        f = lambda x: np.exp(-0.5 * np.pi * x * x)
        e_coarse = fourier.transform(f, coarse, XI).error
        e_fine = fourier.transform(f, fine, XI).error
        assert np.max(e_fine) < np.max(e_coarse) / 10

    def test_inverse_round_trip(self):
        f = lambda x: np.exp(-np.pi * x * x) * (1 + 0.2 * np.cos(3 * x))
        xi_dense = np.linspace(-8, 8, 2049)
        fwd = fourier.transform(f, SPEC, xi_dense)
        x_probe = np.linspace(-2, 2, 21)
        spec_xi = fourier.QuadratureSpec(half_width=8.0, nodes=2048)
        back = fourier.phase_sum(fwd.values, spec_xi, x_probe, inverse=True)
        assert np.max(np.abs(back - f(x_probe))) < 1e-8


class TestPhaseSum:
    """The shared kernel against the explicit dense sums it replaces."""

    SMALL = fourier.QuadratureSpec(half_width=4.0, nodes=64)
    RNG = np.random.default_rng(5)
    VALUES = RNG.normal(size=(3, 65)) + 1j * RNG.normal(size=(3, 65))

    @staticmethod
    def dense(values, spec, t, sign):
        x, w = spec.grid(), spec.weights()
        return np.array([[np.sum(w * v * np.exp(sign * 2j * np.pi * x * tk)) for tk in t]
                         for v in np.atleast_2d(values)])

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("targets", [np.linspace(-2.0, 2.0, 7),
                                         np.linspace(-2.0, 2.0, 7) + 0.3j])
    def test_fine_and_coarse_match_dense_sums(self, inverse, targets):
        sign = 1.0 if inverse else -1.0
        half = fourier.QuadratureSpec(half_width=4.0, nodes=32)
        fine, coarse = fourier.phase_sum(with_half_count(self.VALUES), self.SMALL, targets,
                                         inverse=inverse)
        assert fine.shape == coarse.shape == (3, 7)
        scale = np.max(np.abs(fine))
        ref = self.dense(self.VALUES, self.SMALL, targets, sign)
        assert np.max(np.abs(fine - ref)) < 1e-13 * scale
        # the coarse half is the half-count rule on every other node
        ref = self.dense(self.VALUES[:, ::2], half, targets, sign)
        assert np.max(np.abs(coarse - ref)) < 1e-13 * scale

    def test_one_row_matches_stacked_row(self):
        t = np.linspace(-1.0, 1.0, 5)
        one = fourier.phase_sum(self.VALUES[1], self.SMALL, t)
        assert one.shape == (5,)
        stacked = fourier.phase_sum(self.VALUES, self.SMALL, t)
        assert np.max(np.abs(one - stacked[1])) < 1e-13 * np.max(np.abs(one))

    def test_coefficients_combine_rows(self):
        t = np.linspace(-1.0, 1.0, 5) + 0.1j
        coeffs = np.array([1.0 + 0.5j, -2.0, 0.25 - 1.0j])
        combined = fourier.weighted_phase_sum(coeffs @ (self.VALUES * self.SMALL.weights()),
                                              self.SMALL, t, inverse=True)
        rows = fourier.phase_sum(self.VALUES, self.SMALL, t, inverse=True)
        assert combined.shape == (5,)
        assert np.max(np.abs(combined - coeffs @ rows)) < 1e-13 * np.max(np.abs(rows))

    def test_transform_error_is_the_richardson_difference(self):
        x = self.SMALL.grid()
        f = lambda x: np.exp(-0.5 * np.pi * x * x) * (1 + 0.3j * np.sin(3 * x))
        fx = f(x)
        targets = np.linspace(-2.0, 2.0, 7) + 0.3j
        res = fourier.transform(f, self.SMALL, targets)
        fine = self.dense(fx, self.SMALL, targets, -1.0)[0]
        half = fourier.QuadratureSpec(half_width=4.0, nodes=32)
        coarse = self.dense(fx[::2], half, targets, -1.0)[0]
        richardson = res.error - fourier._tail_bound(x, fx)
        assert np.max(np.abs(richardson - np.abs(fine - coarse))) < 1e-13 * np.max(np.abs(fine))

    def test_transform_values_is_the_fine_sum(self):
        # the phase sum of each row, no more: one row and stacked rows alike
        for fx in (self.VALUES[0], self.VALUES):
            fhat = fourier.transform_values(fx, self.SMALL, XI)
            assert np.array_equal(fhat, fourier.phase_sum(fx, self.SMALL, XI.astype(complex)))

    @pytest.mark.parametrize("xi", [XI, np.sqrt(np.linspace(0.0, 9.0, 37)),
                                    np.linspace(-2.0, 2.0, 7) + 0.3j],
                             ids=["uniform", "scattered", "complex"])
    def test_transform_values_are_the_grid_values_transform(self, xi):
        # transform stacks the half-count row for its error; the fine row is
        # transform_values of the function on the grid, bit for bit
        f = lambda x: np.exp(-0.5 * np.pi * x * x) * (1 + 0.3j * np.sin(3 * x))
        res = fourier.transform(f, self.SMALL, xi)
        assert np.array_equal(res.values, fourier.transform_values(f(self.SMALL.grid()),
                                                                   self.SMALL, xi))


LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def long_double_sums(values, spec, t, sign):
    """The quadrature sums in extended precision on the same float grid and targets."""
    x = spec.grid().astype(np.longdouble)
    w = spec.weights().astype(np.longdouble)
    v = np.atleast_2d(values)
    wv = w * (v.real.astype(np.longdouble) + 1j * v.imag.astype(np.longdouble))
    t = np.asarray(t)
    t = t.real.astype(np.longdouble) + 1j * np.imag(t).astype(np.longdouble)
    return wv @ np.exp(np.multiply.outer(x, t) * (sign * 2j * LONG_PI))


def naive_sums(values, spec, t, sign):
    """The explicit dense sums w v @ exp(sign 2 pi i outer(x, t)): one exponential
    per node and target."""
    return (spec.weights() * values) @ np.exp(sign * 2j * np.pi * np.outer(spec.grid(), t))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended long double")
class TestUniformPhaseSum:
    """The chirp-z path for equally spaced real targets."""

    SPEC = fourier.QuadratureSpec(half_width=6.0, nodes=512)
    X = SPEC.grid()
    ROWS = np.array([np.exp(-0.5 * np.pi * X**2) * (1 + 0.3 * np.cos(3 * X)),
                     X * np.exp(-np.pi * X**2) + 1j * np.exp(-0.8 * np.pi * (X - 0.4)**2),
                     np.exp(-0.6 * np.pi * X**2) * np.sin(5 * X)])

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("targets", [
        np.linspace(-5.0, 5.0, 301),           # odd count, centred
        np.linspace(-5.0, 5.0, 300),           # even count
        np.linspace(4.0, -3.0, 257),           # descending
        np.linspace(0.3, 7.1, 100),            # off-centre range
        np.linspace(-2.0, 2.0, 64).astype(complex),  # complex dtype, zero imaginary parts
    ])
    def test_fine_and_coarse_against_long_double(self, inverse, targets):
        sign = 1.0 if inverse else -1.0
        assert fourier._uniform_targets(np.asarray(targets)) is not None
        fine, coarse = fourier.phase_sum(with_half_count(self.ROWS), self.SPEC, targets,
                                         inverse=inverse)
        ref = long_double_sums(self.ROWS, self.SPEC, targets, sign)
        half = fourier.QuadratureSpec(half_width=6.0, nodes=256)
        ref_coarse = long_double_sums(self.ROWS[:, ::2], half, targets, sign)
        # a few ulps of the sums' scale, where the dense sum also lands
        scale = float(np.max(np.abs(ref)))
        assert np.max(np.abs(fine - ref)) < 1.5e-15 * scale
        assert np.max(np.abs(coarse - ref_coarse)) < 1.5e-15 * scale
        if not inverse:
            # transform takes the same two sums of one row for its error
            res = fourier.transform(lambda x: self.ROWS[1], self.SPEC, targets)
            richardson = res.error - fourier._tail_bound(self.X, self.ROWS[1])
            assert np.max(np.abs(res.values - ref[1])) < 1.5e-15 * scale
            assert np.max(np.abs(richardson - np.abs(ref[1] - ref_coarse[1]))) < 3e-15 * scale

    def test_stacked_rows_with_coefficients(self):
        t = np.linspace(-4.0, 4.0, 161)
        coeffs = np.array([1.0 + 0.5j, -2.0, 0.25 - 1.0j])
        combined = fourier.weighted_phase_sum(coeffs @ (self.ROWS * self.SPEC.weights()),
                                              self.SPEC, t, inverse=True)
        ref = coeffs @ long_double_sums(self.ROWS, self.SPEC, t, 1.0)
        assert combined.shape == (161,)
        assert np.max(np.abs(combined - ref)) < 2e-15 * float(np.max(np.abs(ref)))
        one = fourier.phase_sum(self.ROWS[1], self.SPEC, t)
        assert one.shape == (161,)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_large_grid_no_worse_than_dense(self, inverse):
        # the shape of the interpolation solve's verification re-transform:
        # 4097 nodes to 6145 targets, checked on every 12th target
        sign = 1.0 if inverse else -1.0
        spec = fourier.QuadratureSpec(half_width=5.87, nodes=4096)
        x = spec.grid()
        fx = np.exp(-0.5 * np.pi * x**2) * (1 + 0.3 * np.cos(3 * x)) + 1j * x * np.exp(-np.pi * x**2)
        targets = np.linspace(-6.37, 6.37, 6145)
        fine = fourier.phase_sum(fx, spec, targets, inverse=inverse)[::12]
        ref = long_double_sums(fx, spec, targets[::12], sign)[0]
        naive = naive_sums(fx, spec, targets[::12], sign)
        err = np.max(np.abs(fine - ref))
        assert err <= np.max(np.abs(naive - ref))
        # centred indices and exactly reduced chirp phases each matter here:
        # without either the error passes 6e-16 of the scale (naive: 2e-14)
        assert err < 6e-16 * np.max(np.abs(ref))

    @pytest.mark.parametrize("targets", [
        np.sqrt(np.arange(1.0, 65.0)),                  # not equally spaced
        np.linspace(-2.0, 2.0, 64) + 0.3j,              # off the real axis
        np.linspace(-2.0, 2.0, 64) * (1 + 1e-12 * np.cos(np.arange(64))),  # beyond a few ulps
        np.array([0.7]),                                # one point
        np.linspace(-2.0, 2.0, fourier.CHIRP_MIN_TARGETS - 1),  # too few to pay off
        np.zeros(64),                                   # no spacing
    ])
    def test_dense_fallback(self, targets):
        assert fourier._uniform_targets(np.asarray(targets)) is None
        got = fourier.phase_sum(self.ROWS, self.SPEC, targets)
        ref = long_double_sums(self.ROWS, self.SPEC, targets, -1.0)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1.5e-15 * float(np.max(np.abs(ref)))

    def test_dense_chunks_match_one_matrix(self, monkeypatch):
        t = np.sqrt(np.arange(1.0, 41.0)) + 0.1j
        whole = fourier.phase_sum(with_half_count(self.ROWS), self.SPEC, t)
        monkeypatch.setattr(fourier, "DENSE_CHUNK_BYTES", 16 * len(self.X) * 3)
        chunked = fourier.phase_sum(with_half_count(self.ROWS), self.SPEC, t)
        for a, b in zip(whole, chunked):
            assert np.max(np.abs(a - b)) < 1e-15 * np.max(np.abs(a))

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("rows", [ROWS[1], ROWS], ids=["one-row", "k-rows"])
    def test_plan_reuse_is_bit_identical(self, inverse, rows):
        targets = np.linspace(-5.0, 5.0, 301)
        fourier._chirp_plan.cache_clear()
        cold = fourier.phase_sum(rows, self.SPEC, targets, inverse=inverse)
        warm = fourier.phase_sum(rows, self.SPEC, targets, inverse=inverse)
        # a second grid in between leaves the first plan cached
        fourier.phase_sum(rows, self.SPEC, np.linspace(0.3, 7.1, 100), inverse=inverse)
        again = fourier.phase_sum(rows, self.SPEC, targets, inverse=inverse)
        assert fourier._chirp_plan.cache_info()[:2] == (2, 2)  # hits, misses
        assert np.array_equal(cold, warm) and np.array_equal(cold, again)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("nodes, count, c", [(16, 32, 16), (512, 301, 150), (512, 40, 3),
                                                 (2048, 4097, 4000), (4096, 6145, 3072)])
    def test_plan_matches_its_own_exponentials(self, sign, nodes, count, c):
        h, t_c, dt = 12.0 / nodes, 0.37, 10.0 / 300
        fourier._chirp_plan.cache_clear()
        fourier._chirp_tables.cache_clear()
        got = fourier._chirp_plan(nodes, h, count, c, t_c, dt, sign)
        # each factor from the exponentials of its own signed turns
        turns = fourier._turns
        n = np.arange(nodes + 1) - nodes // 2
        m = np.arange(count) - c
        q = np.arange(-nodes, count)
        k = q + (nodes // 2 - c)
        kernel = np.zeros(1 << (nodes + count - 1).bit_length(), dtype=complex)
        kernel[q] = fourier._cis(-sign * turns(k * k, h, dt / 2.0))
        want = (fourier._cis(sign * (turns(n * n, h, dt / 2.0) + turns(n, h, t_c))), n * h,
                np.fft.fft(kernel), fourier._cis(sign * turns(m * m, h, dt / 2.0)))
        for a, b in zip(got, want, strict=True):
            # == lets the conjugate 1 - 0j of a zero turn's 1 + 0j differ in sign
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_tables_are_few_read_only_and_serve_both_signs(self):
        assert fourier._chirp_tables.cache_info().maxsize == fourier.CHIRP_PLANS
        targets = np.linspace(-5.0, 5.0, 301)
        fourier._chirp_plan.cache_clear()
        fourier._chirp_tables.cache_clear()
        fourier.phase_sum(self.ROWS, self.SPEC, targets)
        fourier.phase_sum(self.ROWS, self.SPEC, targets, inverse=True)
        assert fourier._chirp_plan.cache_info().misses == 2
        assert fourier._chirp_tables.cache_info()[:2] == (1, 1)  # hits, misses
        c, t_c, dt, _ = fourier._uniform_targets(targets)
        h = 2.0 * self.SPEC.half_width / self.SPEC.nodes
        for table in fourier._chirp_tables(self.SPEC.nodes, h, len(targets), c, t_c, dt):
            assert not table.flags.writeable
        assert fourier._chirp_tables.cache_info().misses == 1

    def test_plans_are_few_and_read_only(self):
        assert fourier._chirp_plan.cache_info().maxsize == fourier.CHIRP_PLANS <= 2
        h = 2.0 * self.SPEC.half_width / self.SPEC.nodes
        plan = fourier._chirp_plan(self.SPEC.nodes, h, 301, 150, 0.0, 10.0 / 300, -1.0)
        for factor in plan:
            assert not factor.flags.writeable
        # one row and stacked rows share the plan of their grid
        fourier._chirp_plan.cache_clear()
        fourier.phase_sum(self.ROWS[0], self.SPEC, np.linspace(-5.0, 5.0, 301))
        fourier.phase_sum(self.ROWS, self.SPEC, np.linspace(-5.0, 5.0, 301))
        assert fourier._chirp_plan.cache_info().misses == 1

    def test_memory_stays_linear(self):
        spec = fourier.QuadratureSpec(half_width=5.87, nodes=4096)
        fx = np.exp(-0.5 * np.pi * spec.grid()**2).astype(complex)
        uniform = np.linspace(-6.37, 6.37, 6145)
        scattered = np.sqrt(np.linspace(0.0, 40.0, 1500))
        for t in (uniform, scattered):
            tracemalloc.start()
            try:
                fourier.transform_values(fx, spec, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a full phase matrix would take 4097 x len(t) x 16 bytes (98-403 MB)
            assert peak < 20e6
        # a cross-matrix-shaped call: many weighted rows at as many scattered
        # targets holds the rows zero-padded to whole blocks with their
        # offset-weighted copy, the sums, and at most DENSE_CHUNK_BYTES more
        rng = np.random.default_rng(3)
        rows = (rng.normal(size=(300, spec.nodes + 1)) * (spec.weights() * fx)).astype(complex)
        t = np.sort(rng.uniform(-3.2, 3.2, 300))
        width, blocks = spec._blocks[:2]
        tracemalloc.start()
        try:
            fourier._dense_sum(rows, spec, t, -1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = 2 * 300 * blocks * width * 16
        assert peak <= padded + 300 * 300 * 16 + fourier.DENSE_CHUNK_BYTES


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended long double")
class TestDenseKernel:
    """The block-factored dense sum against long double, no further from it than
    the naive sum with one exponential per node and target."""

    @pytest.fixture(scope="class")
    def problem(self):
        # an interp-large problem: 4096 nodes on an irrational half width
        lam = sequences.generate_smooth(sequences.SmoothSpec(
            p=2.0, density=0.9, count=512, halves="±", seed=3))
        mu = sequences.generate_smooth(sequences.SmoothSpec(
            p=2.0, density=0.8, count=512, halves="±", seed=4))
        return itp.make_problem(lam, mu, None, None, 0.5, 0.5, 0.0, 3.2, nodes=4096)

    SPEC = fourier.QuadratureSpec(half_width=5.87, nodes=4096)
    X = SPEC.grid()
    SMOOTH = np.array([np.exp(-0.5 * np.pi * X**2) * (1 + 0.3 * np.cos(3 * X)),
                       X * np.exp(-np.pi * X**2) + 1j * np.exp(-0.8 * np.pi * (X - 0.4)**2),
                       np.exp(-0.3 * np.pi * X**2) * np.sin(4 * X)])
    FAR = np.random.default_rng(1).uniform(-40.0, 40.0, 25)
    TINY = fourier.QuadratureSpec(half_width=4.0, nodes=16)

    def cases(self, problem):
        smooth, tiny_x = (self.SMOOTH, self.SPEC), self.TINY.grid()
        return {
            "cross-time": (problem.time_columns, problem.time_quad, problem.mu),
            "cross-freq": (problem.freq_columns, problem.freq_quad, problem.lam),
            "columns-far": (problem.time_columns, problem.time_quad, self.FAR),
            "columns-complex-up": (problem.freq_columns, problem.freq_quad, problem.lam + 0.3j),
            "columns-complex-down": (problem.time_columns, problem.time_quad, problem.mu - 0.3j),
            "smooth-far": (*smooth, self.FAR),
            "smooth-complex": (*smooth, np.sqrt(np.arange(1.0, 20.0)) - 0.4j),
            "0-d-row": (self.SMOOTH[2], self.SPEC, np.sqrt(np.arange(0.5, 9.0, 0.5))),
            # 17 nodes padded to whole blocks
            "16-nodes": (np.exp(-0.3 * np.pi * tiny_x**2) * (1 + 1j * tiny_x), self.TINY, self.FAR),
        }

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("case", ["cross-time", "cross-freq", "columns-far",
                                      "columns-complex-up", "columns-complex-down", "smooth-far",
                                      "smooth-complex", "0-d-row", "16-nodes"])
    def test_no_further_from_long_double_than_naive(self, problem, case, inverse):
        values, spec, t = self.cases(problem)[case]
        sign = 1.0 if inverse else -1.0
        assert fourier._uniform_targets(np.asarray(t)) is None
        got = fourier.phase_sum(values, spec, t, inverse=inverse)
        assert got.shape == np.shape(values)[:-1] + (len(t),)
        ref = long_double_sums(values, spec, t, sign)
        # errors relative to each row's sum of |w v|
        scale = np.sum(np.abs(np.atleast_2d(values) * spec.weights()), axis=-1)[:, None]
        err = np.max(np.abs(np.atleast_2d(got) - ref) / scale)
        naive = np.max(np.abs(naive_sums(values, spec, t, sign) - ref) / scale)
        assert err <= naive

    def test_zero_targets(self):
        none = np.empty(0)
        assert fourier.phase_sum(self.SMOOTH, self.SPEC, none).shape == (3, 0)
        assert fourier.phase_sum(self.SMOOTH[0], self.SPEC, none, inverse=True).shape == (0,)


class TestEnvelopeFit:
    def test_exact_gaussian(self):
        x = np.linspace(-5, 5, 200)
        fit = fourier.envelope_fit(x, -0.7 * np.pi * x * x)
        assert fit.rate == pytest.approx(0.7, abs=1e-10)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)

    def test_masked_product(self, quartic_phi):
        # sample at zero midpoints: the masked grid where the product term is
        # pure envelope, contributing o(x^2)
        import dataclasses
        model = dataclasses.replace(quartic_phi, gauss_rate=1.0)
        zs = model.zeros[model.zeros < 8.0]
        mids = 0.5 * (zs[:-1] + zs[1:])
        mids = mids[(mids > 1.0) & (mids <= 6.0)]
        fit = fourier.envelope_fit(mids, model.log_abs(mids))
        assert fit.rate == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("case", ["noisy", "outer-window"])
    def test_matches_lstsq(self, case):
        rng = np.random.default_rng(11)
        if case == "noisy":
            x = np.sort(rng.uniform(-6.0, 6.0, 40))
            y = 3.0 - 0.8 * np.pi * x * x + rng.normal(scale=0.5, size=40)
            y[::7] = -np.inf  # dropped, as the zeros of a masked product
        else:
            # the tail bound's fit: the outer 30% of a grid, a narrow x^2 range
            x = np.linspace(0.7 * 7.0, 7.0, 150)
            y = np.log(np.exp(-0.6 * np.pi * x * x) * (1.2 + 0.3 * np.sin(4.0 * x)))
        fit = fourier.envelope_fit(x, y)
        keep = np.isfinite(y)
        col = -np.pi * x[keep] ** 2
        coef, *_ = np.linalg.lstsq(np.column_stack([np.ones_like(col), col]), y[keep],
                                   rcond=None)
        assert fit.rate == pytest.approx(coef[1], rel=1e-12)
        assert fit.intercept == pytest.approx(coef[0], rel=1e-12)

    def test_constant_function_rate_zero(self):
        x = np.linspace(-3, 3, 50)
        fit = fourier.envelope_fit(x, np.zeros_like(x))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_design(self):
        x = np.full(20, 2.0)
        with pytest.raises(fourier.DegenerateFitError):
            fourier.envelope_fit(x, np.ones(20))

    def test_insufficient(self):
        with pytest.raises(fourier.InsufficientDataError, match="got 4"):
            fourier.envelope_fit(np.arange(4.0), np.arange(4.0))
        # non-finite samples do not count
        y = np.arange(10.0)
        y[[2, 5, 7]] = [np.nan, -np.inf, np.inf]
        with pytest.raises(fourier.InsufficientDataError, match="got 7"):
            fourier.envelope_fit(np.arange(10.0), y)


class TestHardyCheck:
    X = np.linspace(-6, 6, 301)
    X_FREQ = np.linspace(-4, 4, 201)

    def test_gaussian_passes(self):
        f = np.exp(-np.pi * self.X**2)
        fh = np.exp(-np.pi * self.X_FREQ**2)
        assert fourier.hardy_check(f, fh, 0.5, self.X, self.X_FREQ)

    def test_slow_decay_fails(self):
        # the slow side fails the check whichever side it is on, beside a passing one
        slow = np.exp(-0.4 * np.pi * self.X**2)
        fast = np.exp(-np.pi * self.X**2)
        assert fourier.hardy_check(fast, fast, 0.5, self.X, self.X)
        assert not fourier.hardy_check(slow, fast, 0.5, self.X, self.X)
        assert not fourier.hardy_check(fast, slow, 0.5, self.X, self.X)

    def test_too_few_samples_above_the_floor_fail(self):
        # exp(-pi x^2) > 0.99 holds at 3 of the 301 points, and the check needs 6
        f = np.exp(-np.pi * self.X**2)
        assert fourier.hardy_check(f, f, 0.5, self.X, self.X)
        assert not fourier.hardy_check(f, f, 0.5, self.X, self.X, floor=0.99)
        assert not fourier.hardy_check(f[148:153], f, 0.5, self.X[148:153], self.X)

    def test_noise_floor_excluded(self):
        rng = np.random.default_rng(0)
        f = np.exp(-np.pi * self.X**2)
        noisy = np.exp(-0.9 * np.pi * self.X_FREQ**2) + 1e-15 * rng.normal(size=len(self.X_FREQ))
        # the time side passes, so the verdicts are the frequency side's
        assert fourier.hardy_check(f, f, 0.8, self.X, self.X)
        assert not fourier.hardy_check(f, noisy, 0.8, self.X, self.X_FREQ)
        assert fourier.hardy_check(f, noisy, 0.8, self.X, self.X_FREQ, floor=1e-13)


class TestHermite:
    def test_orthonormal(self):
        spec = fourier.QuadratureSpec(half_width=10.0, nodes=2048)
        x, w = spec.grid(), spec.weights()
        basis = hermite.hermite_functions(12, x)
        gram = (basis * w) @ basis.T
        assert np.max(np.abs(gram - np.eye(12))) < 1e-10

    def test_fourier_eigenfunctions(self):
        for k in range(7):
            f = lambda x: hermite.hermite_functions(k + 1, x)[k]
            res = fourier.transform(f, SPEC, XI)
            expected = (-1j) ** k * f(XI)
            assert np.max(np.abs(res.values - expected)) < 1e-9

    def test_series_hat_matches_quadrature(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
        f = lambda x: hermite.series(coeffs, x)
        res = fourier.transform(f, SPEC, XI)
        assert np.max(np.abs(res.values - hermite.series_hat(coeffs, XI))) < 1e-9

    def test_projection_round_trip(self):
        spec = fourier.QuadratureSpec(half_width=10.0, nodes=2048)
        x, w = spec.grid(), spec.weights()
        g = ProductModel(gauss_rate=1.0)
        coeffs = hermite.project(g.values(x), x, w, 24)
        probe = np.linspace(-2, 2, 31)
        assert np.max(np.abs(hermite.series(coeffs, probe) - g.values(probe))) < 1e-10


@given(st.floats(0.3, 1.6), st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_dilated_gaussian_transform_property(a, xi):
    res = fourier.transform(lambda x: np.exp(-a * np.pi * x * x), SPEC, np.array([xi]))
    exact = a**-0.5 * np.exp(-np.pi * xi**2 / a)
    assert res.values[0] == pytest.approx(exact, abs=1e-9)
