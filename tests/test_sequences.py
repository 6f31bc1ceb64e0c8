import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_lab import cli
from pauli_lab import sequences as seq


def profile(density=1.0, count=256, jitter=0.0, p=2.0, halves="+", seed=0):
    return seq.generate_smooth(seq.SmoothSpec(p=p, density=density, count=count,
                                              jitter=jitter, seed=seed, halves=halves))


class TestGenerate:
    def test_exact_profiles(self):
        s = profile(count=4)
        assert np.allclose(s.points, np.sqrt([1, 2, 3, 4]), atol=1e-15)
        lattice = profile(count=6, p=1.0)
        assert np.allclose(lattice.points, np.arange(1, 7), atol=1e-15)

    def test_half_density_two_counting(self):
        s = profile(density=2.0, count=200)
        for r in (0.7, 1.3, 2.9, 5.1, 8.97):  # radii with 2 r^2 non-integer
            assert s.counting(r) == int(np.floor(2 * r * r))
        # boundary point itself is excluded by the open-disk convention
        assert s.counting(9.0) == 161

    def test_mirrored_halves(self):
        s = profile(count=32, halves="±")
        assert len(s) == 64
        assert np.allclose(s.points, -s.points[::-1], atol=1e-15)

    def test_jitter_reproducible(self):
        a = profile(count=64, jitter=0.25, seed=11)
        b = profile(count=64, jitter=0.25, seed=11)
        c = profile(count=64, jitter=0.25, seed=12)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            seq.SmoothSpec(jitter=0.5)
        with pytest.raises(ValueError):
            seq.SmoothSpec(density=0.0)
        with pytest.raises(ValueError):
            seq.SmoothSpec(p=0.5)


class TestSampledSet:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            seq.SampledSet(points=np.array([1.0, 1.0, 2.0]))

    @pytest.mark.parametrize("points, shown", [([1.0, np.inf], "inf"), ([np.nan, 1.0], "nan"),
                                               ([-np.inf, np.nan], "-inf")])
    def test_non_finite_rejected(self, points, shown):
        with pytest.raises(ValueError, match=f"^points must be finite, got {shown}$"):
            seq.SampledSet(points=np.array(points))

    def test_csv_non_finite_rejected(self):
        with pytest.raises(ValueError, match="^points must be finite, got inf$"):
            seq.SampledSet.from_csv("# header\n1.0\ninf\n")

    def test_counting_examples(self):
        s = profile(count=100)
        assert s.counting(3.0) == 8
        assert s.counting(0.0) == 0
        t = seq.SampledSet(points=np.array([1.0, 2.0, 3.0]))
        assert t.counting(2.0) == 1  # open disk excludes the boundary point

    def test_counting_convention_exact(self):
        s = profile(count=50)
        for k, g in enumerate(s.points, start=1):
            assert s.counting(g) == k - 1

    def test_zero_side(self):
        s = seq.SampledSet(points=np.array([-1.0, 0.0, 2.0]))
        assert 0.0 in s.positive and 0.0 not in s.negative

    def test_csv_round_trip(self, tmp_path):
        # gen-seq writes two comment lines and one %.17g point per line, and
        # the file reads back exactly
        out = tmp_path / "seq.csv"
        assert cli.main(["gen-seq", "--count", "20", "--jitter", "0.1", "--seed", "3",
                         "--out", str(out)]) == 0
        s = profile(count=20, jitter=0.1, seed=3)
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# pauli-lab ") and lines[0].endswith(" seed=3")
        assert lines[1] == "# p=2.0 D=1.0 seed=3"
        assert lines[2:] == [f"{x:.17g}" for x in s.points]
        assert text == lines[0] + "\n" + lines[1] + "\n" + "".join(f"{x:.17g}\n" for x in s.points)
        assert np.array_equal(seq.SampledSet.from_csv(text).points, s.points)

    def test_csv_missing_header(self):
        # "#" lines are comments wherever they stand, and blank lines are skipped
        plain = seq.SampledSet.from_csv("1.0\n2.5\n4.0\n")
        commented = seq.SampledSet.from_csv("# p=2.0 D=0.9 seed=7\n4.0\n\n# note\n 1.0 \n2.5\n")
        assert np.array_equal(plain.points, [1.0, 2.5, 4.0])
        assert np.array_equal(commented.points, plain.points)


class TestDensityFit:
    def test_exact_construction(self):
        s = profile(density=1.5, count=256)
        d_hat, resid = seq.density_fit(s)
        assert d_hat == pytest.approx(1.5, abs=1e-6)
        assert resid <= 1.0 + 1e-9

    @pytest.mark.parametrize("density", [1e16, 1e100])
    def test_exact_construction_of_a_dense_set(self, density):
        # r^2 near j/D drops out of the first fit against the intercept
        d_hat, resid = seq.density_fit(profile(density=density, count=256))
        assert d_hat == pytest.approx(density, rel=1e-6)
        assert resid <= 1.0 + 1e-6

    def test_lattice_not_two_smooth(self):
        small = seq.SampledSet(points=np.arange(1.0, 101.0))
        large = seq.SampledSet(points=np.arange(1.0, 601.0))
        _, r_small = seq.density_fit(small)
        _, r_large = seq.density_fit(large)
        assert r_large > 2 * r_small > 10.0

    def test_jittered(self):
        s = profile(density=1.0, count=512, jitter=0.25, seed=5)
        d_hat, resid = seq.density_fit(s)
        assert d_hat == pytest.approx(1.0, rel=0.01)
        assert resid <= 2.0

    def test_insufficient(self):
        with pytest.raises(seq.InsufficientDataError):
            seq.density_fit(profile(count=8))

    @given(st.floats(0.3, 3.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_density(self, density, s):
        sset = profile(density=density, count=256, jitter=0.25, seed=s)
        d_hat, _ = seq.density_fit(sset)
        assert d_hat == pytest.approx(density, rel=0.01)


class TestSeparation:
    def test_sqrt_profile(self):
        s = profile(count=400)
        measured = seq.separation_check(s)
        # gaps*(1+gamma_j) decrease toward 1/2 from above
        assert 0.49 < measured < 0.9
        assert measured >= 0.35

    def test_single_point_vacuous(self):
        s = seq.SampledSet(points=np.array([2.0]))
        assert seq.separation_check(s) == np.inf

    def test_near_duplicate_fails(self):
        s = seq.SampledSet(points=np.array([1.0, 1.0 + 1e-14, 2.0]))
        assert seq.separation_check(s) < 0.35


class TestSplitParity:
    def test_example(self):
        s = seq.SampledSet(points=np.sqrt([1.0, 2.0, 3.0, 4.0]))
        even, odd = seq.split_parity(s)
        assert np.allclose(even.points, np.sqrt([2.0, 4.0]))
        assert np.allclose(odd.points, np.sqrt([1.0, 3.0]))

    def test_empty(self):
        even, odd = seq.split_parity(seq.SampledSet(points=np.empty(0)))
        assert len(even) == 0 and len(odd) == 0

    def test_union_and_disjoint(self):
        s = profile(count=101, jitter=0.2, seed=9, halves="±")
        even, odd = seq.split_parity(s)
        merged = np.sort(np.concatenate([even.points, odd.points]))
        assert np.array_equal(merged, s.points)
        assert len(np.intersect1d(even.points, odd.points)) == 0

    def test_split_halves_density(self):
        s = profile(density=1.0, count=512)
        even, odd = seq.split_parity(s)
        assert seq.density_fit(even)[0] == pytest.approx(0.5, rel=0.02)
        assert seq.density_fit(odd)[0] == pytest.approx(0.5, rel=0.02)


class TestSpacingStatistic:
    def test_tail_mean_half_inverse_density(self):
        for density in (0.5, 1.0, 2.0):
            s = profile(density=density, count=512)
            g = s.points
            stat = g[:-1] * np.diff(g)
            tail = stat[-64:]
            assert np.mean(tail) == pytest.approx(1.0 / (2.0 * density), rel=0.02)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_counting_monotone(self, s):
        sset = profile(count=128, jitter=0.3, seed=s, halves="±")
        radii = np.linspace(0, 12, 200)
        counts = [sset.counting(r) for r in radii]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
