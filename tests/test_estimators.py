import numpy as np
import pytest
from scipy.special import logsumexp

from subpixdet.detectors import ESTIMATOR_IDS, batch_estimates, batch_scores
from subpixdet.optics import render_signature_batch

from helpers import batch_statistics


def estimate(estimator, z, bound):
    """One window's offset estimate: batch_estimates on a batch of one."""
    out = batch_estimates(np.asarray(z, dtype=float)[None, :], bound, (estimator,))
    return tuple(out[estimator][0])


def ml_amplitude(z, bound):
    """ML amplitude t_k / d_k at the GLRT argmax node."""
    t, ratios = batch_statistics(np.asarray(z, dtype=float)[None, :], bound)
    k = int(np.argmax(ratios[0]))
    return t[0, k] / bound.gram[k]


def pm_weights(z, bound):
    """Posterior masses over the 20^2 grid nodes, from the formula with no
    cached products: w_k ~ exp(t_k^2 / (2 d_k)) / sqrt(d_k)."""
    vectors = bound.bank.vectors[:400]
    t = vectors @ bound.cov.solve(z)
    d = np.einsum("kn,kn->k", vectors, bound.cov.solve(vectors.T).T)
    logw = t * t / (2 * d) - 0.5 * np.log(d)
    return np.exp(logw - logsumexp(logw))


class TestMl:
    def test_shares_glrt_argmax(self, bound244, rng):
        for _ in range(10):
            z = rng.standard_normal(25)
            t, ratios = batch_statistics(z[None, :], bound244)
            k = int(np.argmax(ratios[0]))
            assert estimate("ML", z, bound244) == tuple(bound244.bank.offsets[k])
            glrt = batch_scores(z[None, :], bound244, detectors=("GLRT",))["GLRT"][0]
            assert glrt == ratios[0, k]

    def test_noiseless_recovers_grid_node(self, bound244, psf244):
        eps = tuple(bound244.bank.offsets[250])
        sig = render_signature_batch(psf244, [eps])[0]
        assert estimate("ML", 2.0 * sig, bound244) == pytest.approx(eps, abs=1e-12)
        assert ml_amplitude(2.0 * sig, bound244) == pytest.approx(2.0, rel=1e-10)

    def test_noiseless_off_grid_snaps_nearby(self, bound244, psf244):
        eps = (0.231, -0.387)
        sig = render_signature_batch(psf244, [eps])[0]
        eps_hat = estimate("ML", sig, bound244)
        # the argmax node sits within one and a half grid cells of truth
        assert abs(eps_hat[0] - eps[0]) <= 1.5 / 20
        assert abs(eps_hat[1] - eps[1]) <= 1.5 / 20


class TestPm:
    def test_weights_are_a_distribution(self, bound244, rng):
        z = rng.standard_normal(25)
        weights = pm_weights(z, bound244)
        assert weights.shape == (400,)
        assert np.all(weights >= 0)
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)
        grid = bound244.bank.offsets[:400]
        np.testing.assert_allclose(estimate("PM", z, bound244), weights @ grid, atol=1e-10)

    def test_estimate_in_convex_hull(self, bound244, rng):
        for _ in range(10):
            eps_hat = estimate("PM", rng.standard_normal(25), bound244)
            assert -0.475 <= eps_hat[0] <= 0.475
            assert -0.475 <= eps_hat[1] <= 0.475

    def test_concentrates_at_high_amplitude(self, bound244, psf244):
        eps = (0.231, -0.387)
        sig = render_signature_batch(psf244, [eps])[0]
        eps_hat = estimate("PM", 100.0 * sig, bound244)
        assert eps_hat[0] == pytest.approx(eps[0], abs=0.05)
        assert eps_hat[1] == pytest.approx(eps[1], abs=0.05)
        # posterior mass piles onto a handful of nodes near the truth
        assert np.sort(pm_weights(100.0 * sig, bound244))[-9:].sum() > 0.99

    def test_centered_spot_gives_centered_estimate(self, bound244, psf244):
        sig = render_signature_batch(psf244, [(0.0, 0.0)])[0]
        assert estimate("PM", 20.0 * sig, bound244) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_zero_window_gives_grid_mean(self, bound244):
        # flat data: weights depend only on the node energies, which are
        # symmetric under both axis reflections, so the mean is (0, 0)
        assert estimate("PM", np.zeros(25), bound244) == pytest.approx((0.0, 0.0), abs=1e-12)


class TestDefault:
    def test_always_center(self, bound244, rng):
        assert estimate("DEFAULT", np.zeros(25), bound244) == (0.0, 0.0)
        assert estimate("DEFAULT", rng.standard_normal(25), bound244) == (0.0, 0.0)

    def test_uniform_offset_mse_is_one_twelfth(self, rng):
        eps = rng.uniform(-0.5, 0.5, (200_000, 2))
        mse = np.mean(eps**2, axis=0)
        np.testing.assert_allclose(mse, 1 / 12, rtol=0.02)


class TestBatch:
    def test_matches_single_window_functions(self, bound244, rng):
        # each row against the estimator formulas evaluated window by
        # window, with no cached products
        windows = rng.standard_normal((15, 25))
        out = batch_estimates(windows, bound244, estimators=ESTIMATOR_IDS)
        assert set(out) == set(ESTIMATOR_IDS)
        vectors = bound244.bank.vectors
        d = np.einsum("kn,kn->k", vectors, bound244.cov.solve(vectors.T).T)
        grid = bound244.bank.offsets[:400]
        for i, z in enumerate(windows):
            t = vectors @ bound244.cov.solve(z)
            ml = bound244.bank.offsets[int(np.argmax(t * t / d))]
            np.testing.assert_allclose(out["ML"][i], ml, atol=1e-13)
            np.testing.assert_allclose(out["PM"][i], pm_weights(z, bound244) @ grid,
                                       atol=1e-10)
            np.testing.assert_array_equal(out["DEFAULT"][i], [0.0, 0.0])

    def test_shapes(self, bound244, rng):
        out = batch_estimates(rng.standard_normal((6, 25)), bound244,
                              estimators=("PM",))
        assert list(out) == ["PM"]
        assert out["PM"].shape == (6, 2)
