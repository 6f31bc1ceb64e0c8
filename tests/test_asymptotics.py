import dataclasses

import numpy as np
import pytest

from pauli_lab import asymptotics as asy
from pauli_lab.entire_models import ProductModel, profile_product, sinc_product

GAMMA = 1.05
HALF_DENSITY = 0.45


class TestIndicatorEstimate:
    def test_pure_gaussian_exact(self):
        g = ProductModel(gauss_rate=1.0)
        for th in np.linspace(0.0, np.pi, 9):
            est = asy.indicator_estimate(g, th)
            assert est.h_hat == pytest.approx(-np.pi * np.cos(2 * th), abs=1e-10)
            assert est.residual < 1e-10
        assert asy.indicator_estimate(g, 0.0).h_hat == pytest.approx(-np.pi, abs=1e-10)
        assert asy.indicator_estimate(g, np.pi / 2).h_hat == pytest.approx(np.pi, abs=1e-10)

    def test_sinc_family_along_imaginary_ray(self):
        s = sinc_product(4000)
        est = asy.indicator_estimate(s, np.pi / 2)
        assert est.h_hat == pytest.approx(np.pi, rel=0.02)
        # a plain product is sampled as an object of its own squared variable
        assert not asy._is_order2_in_z(s)

    def test_sinc_family_oblique(self):
        s = sinc_product(4000)
        est = asy.indicator_estimate(s, np.pi / 4)
        assert est.h_hat == pytest.approx(np.pi * np.sin(np.pi / 4), rel=0.02)

    def test_gaussian_product_indicator(self, quartic_phi):
        # gaussian rate 1.05 and half-density 0.45:
        # h(theta) = -1.05 pi cos 2theta + 0.45 pi |sin 2theta|
        for th, tol in ((0.0, 0.05), (np.pi / 8, 0.05), (np.pi / 4, 0.05),
                        (3 * np.pi / 8, 0.05), (np.pi / 2, 0.10)):
            est = asy.indicator_estimate(quartic_phi, th)
            target = -GAMMA * np.pi * np.cos(2 * th) + HALF_DENSITY * np.pi * abs(np.sin(2 * th))
            assert est.h_hat == pytest.approx(target, rel=tol)

    def test_quarter_angle_value(self, quartic_phi):
        est = asy.indicator_estimate(quartic_phi, np.pi / 4)
        assert est.h_hat == pytest.approx(HALF_DENSITY * np.pi, rel=0.05)

    def test_symmetry(self, quartic_phi):
        for th in (0.3, 0.6, 1.2):
            ep = asy.indicator_estimate(quartic_phi, th)
            em_ = asy.indicator_estimate(quartic_phi, -th)
            assert abs(ep.h_hat - em_.h_hat) <= 2 * max(ep.residual + ep.spread,
                                                        em_.residual + em_.spread) + 1e-12

    @pytest.mark.parametrize("theta", [0.0, np.pi])
    def test_tail_zeros_masked_like_retained(self, theta):
        # past its 20 retained zeros the product's exact tail vanishes on the
        # integers; the grid and mask must see those zeros too
        short = asy.indicator_estimate(sinc_product(20), theta)
        full = asy.indicator_estimate(sinc_product(4000), theta)
        assert short.window == full.window and short.n_masked == full.n_masked
        assert short.h_hat == pytest.approx(full.h_hat, abs=1e-9)
        assert short.residual == pytest.approx(full.residual, abs=1e-9)
        zeros = np.sqrt(np.arange(1, 2049) / HALF_DENSITY)
        short = asy.indicator_estimate(profile_product(zeros[:16], HALF_DENSITY, 0.5), theta)
        full = asy.indicator_estimate(profile_product(zeros, HALF_DENSITY, 0.5), theta)
        assert short.window == full.window
        assert short.h_hat == pytest.approx(full.h_hat, abs=1e-9)

    def test_all_masked(self):
        # half the zeros' separation, 499.5, gives the zero at 1 an exclusion
        # disk of radius ~250 on the real ray, past every node of [2.9, 36.8]
        model = ProductModel(zeros=np.array([1.0, 1000.0]))
        for theta in (0.0, np.pi):
            with pytest.raises(asy.AllMaskedError, match="all 320 nodes"):
                asy.indicator_estimate(model, theta)


def polyfit_windows(t, y):
    """Reference window fits: one np.polyfit per half-overlapping window."""
    lo, hi = float(np.min(t)), float(np.max(t))
    width = (hi - lo) * 2.0 / 7
    slopes, resids = [], []
    for k in range(6):
        a = lo + k * width / 2.0
        sel = (t >= a) & (t <= a + width)
        if np.count_nonzero(sel) >= 4:
            coef = np.polyfit(t[sel], y[sel], 1)
            slopes.append(coef[0])
            resids.append(np.sqrt(np.mean((np.polyval(coef, t[sel]) - y[sel]) ** 2)))
    if not slopes:
        coef = np.polyfit(t, y, 1)
        slopes, resids = [coef[0]], [np.sqrt(np.mean((np.polyval(coef, t) - y) ** 2))]
    best = int(np.argmax(slopes))
    return slopes[best], resids[best], max(slopes) - min(slopes)


class TestWindowFits:
    """The one-pass centred fits against per-window np.polyfit."""

    MODELS = {
        "gaussian": lambda: ProductModel(gauss_rate=0.8),
        "pure-tail profile": lambda: profile_product(np.empty(0), HALF_DENSITY, gauss_rate=1.0),
        "sinc": lambda: sinc_product(700),
        "explicit-zero profile": lambda: profile_product(
            np.sqrt(np.arange(1, 200) / HALF_DENSITY), HALF_DENSITY, gauss_rate=GAMMA),
        # 10 gap midpoints on the zero ray: no window holds 4, so the global fit runs
        "few zeros": lambda: ProductModel(zeros=np.linspace(1.0, 11.0, 11), gauss_rate=0.3,
                                          quartic=True),
    }

    @pytest.mark.parametrize("name", list(MODELS))
    @pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi, -np.pi / 2, 0.3, -1.0, 2.4])
    def test_matches_polyfit(self, monkeypatch, name, theta):
        seen = []
        fits = asy._window_fits

        def spy(sel, t, y):
            seen.append((sel.shape[0], t, y))
            return fits(sel, t, y)

        monkeypatch.setattr(asy, "_window_fits", spy)
        est = asy.indicator_estimate(self.MODELS[name](), theta)
        (rows, t, y), = seen
        h_hat, residual, spread = polyfit_windows(t, y)
        assert est.h_hat == pytest.approx(h_hat, rel=0, abs=1e-12)
        assert est.spread == pytest.approx(spread, rel=0, abs=1e-12)
        assert est.residual == pytest.approx(residual, rel=1e-9, abs=1e-12)
        if name == "few zeros" and theta in (0.0, np.pi):
            # the fallback: one fit over every node
            assert rows == 1 and est.spread == 0.0


class TestTrigConvexity:
    def test_gaussian_equality_case(self):
        g = ProductModel(gauss_rate=1.0)
        ests = [asy.indicator_estimate(g, t) for t in np.linspace(0.0, np.pi / 2, 9)]
        ok, worst = asy.trig_convexity_check(ests)
        assert ok and worst <= 0.0

    def test_quartic_model(self, quartic_phi):
        ests = [asy.indicator_estimate(quartic_phi, t)
                for t in np.linspace(0.02, np.pi / 2 - 0.02, 9)]
        ok, _ = asy.trig_convexity_check(ests)
        assert ok

    def test_sinc_family_transported(self):
        s = sinc_product(4000)
        ests = [asy.indicator_estimate(s, t) for t in np.linspace(0.15, np.pi - 0.15, 11)]
        # per-r slopes at w-angles are per-r^2 slopes at half the angle
        transported = [dataclasses.replace(e, theta=e.theta / 2) for e in ests]
        ok, _ = asy.trig_convexity_check(transported)
        assert ok

    def test_detects_artificial_bump(self):
        g = ProductModel(gauss_rate=0.7)
        ests = [asy.indicator_estimate(g, t) for t in np.linspace(0.0, np.pi / 2, 9)]
        ests[4] = dataclasses.replace(ests[4], h_hat=ests[4].h_hat + 0.5)
        ok, worst = asy.trig_convexity_check(ests)
        assert not ok and worst > 0.25


class TestZeroDensityIndicator:
    def test_quartic_model(self, quartic_phi):
        ok, margin = asy.zero_density_indicator_check(quartic_phi, density=HALF_DENSITY)
        assert ok and margin >= 0.0

    def test_measured_density_close(self, quartic_phi):
        assert asy.measured_zero_plane_density(quartic_phi) == pytest.approx(HALF_DENSITY, rel=1e-6)

    def test_measured_density_counts_tail_zeros(self):
        # three retained zeros on the profile; the exact tail carries the rest
        short = profile_product(np.sqrt(np.arange(1, 4) / HALF_DENSITY), HALF_DENSITY, 0.5)
        assert asy.measured_zero_plane_density(short) == pytest.approx(HALF_DENSITY, rel=1e-12)
        tail = profile_product(np.empty(0), 0.7, 0.5)
        assert asy.measured_zero_plane_density(tail) == pytest.approx(tail.tail_scale, rel=1e-12)

    def test_zero_free_gaussian(self):
        ok, margin = asy.zero_density_indicator_check(ProductModel(gauss_rate=1.0), density=0.0)
        assert ok and margin >= 0.0

    @pytest.mark.parametrize("model, density", [
        ("quartic", HALF_DENSITY), ("sinc", 0.5), ("gaussian", 0.0)])
    def test_h0_estimated_once(self, quartic_phi, monkeypatch, model, density):
        model = {"quartic": quartic_phi, "sinc": sinc_product(200),
                 "gaussian": ProductModel(gauss_rate=1.0)}[model]
        # the inequality at 13 angles with both rays estimated at each, as
        # the check stated it before h(0) was reused at theta = 0
        h0 = asy.indicator_estimate(model, 0.0)
        margin, ok = np.inf, True
        for th in np.linspace(0.0, np.pi / 2.0, 13):
            hp, hm = asy.indicator_estimate(model, th), asy.indicator_estimate(model, -th)
            rhs = max(hp.h_hat, hm.h_hat)
            lhs = density * np.pi * np.sin(2.0 * th) + h0.h_hat * np.cos(2.0 * th)
            allowance = (h0.uncertainty + hp.uncertainty + hm.uncertainty
                         + 0.05 * max(1.0, abs(rhs)))
            gap = rhs + allowance - lhs
            margin, ok = min(margin, gap), ok and gap >= 0.0
        calls = []
        estimate = asy.indicator_estimate
        monkeypatch.setattr(asy, "indicator_estimate",
                            lambda m, theta: calls.append(theta) or estimate(m, theta))
        assert asy.zero_density_indicator_check(model, density) == (ok, margin)
        # h(0), then both rays at the 12 nonzero angles
        assert len(calls) == 25 and calls.count(0.0) == 1


class TestDecayPredicate:
    def test_pure_gaussian(self):
        assert asy.fourier_decay_predicate(ProductModel(gauss_rate=1.0)) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("density,lo,hi", [(0.7, 0.47, 1.0), (1.0, 0.0, 0.45)])
    def test_sharpness_experiment(self, density, lo, hi):
        model = profile_product(np.sqrt(np.arange(1, 2049) / density), density, gauss_rate=0.5)
        rate = asy.fourier_decay_predicate(model)
        assert lo <= rate <= hi
        # the transfer threshold sqrt(a(1/b - a)) at a = b = 1/2
        assert (rate >= 0.5) == (density < np.sqrt(0.75))

    def test_monotone_in_density(self):
        rates = []
        for density in (0.6, 0.866, 1.1):
            model = profile_product(np.sqrt(np.arange(1, 2049) / density), density, gauss_rate=0.5)
            rates.append(asy.fourier_decay_predicate(model))
        assert rates[0] > rates[1] > rates[2]

    def test_needs_gaussian_rate(self):
        with pytest.raises(ValueError):
            asy.fourier_decay_predicate(sinc_product(100))
