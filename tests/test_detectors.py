import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chi2

from subpixdet.clutter import white_covariance
from subpixdet.detectors import DETECTOR_IDS, batch_scores, build_subspace
from subpixdet.optics import render_signature_batch

from helpers import TRAPEZOID, batch_statistics, subspace_order


def score(detector, z, bound, bound9=None, subspace=None):
    """One window's score: batch_scores on a batch of one."""
    out = batch_scores(np.asarray(z, dtype=float)[None, :], bound, bound9,
                       subspace, detectors=(detector,))
    return out[detector][0]


def fit(z, bound, k=None):
    """ML amplitude t_k / d_k and offset of node k (default: the GLRT
    argmax node), from batch_statistics on a batch of one."""
    t, ratios = batch_statistics(np.asarray(z, dtype=float)[None, :], bound)
    if k is None:
        k = int(np.argmax(ratios[0]))
    return t[0, k] / bound.gram[k], tuple(bound.bank.offsets[k])


class TestMatchedStatistic:
    def test_equals_manual_dot(self, bound244, rng):
        z = rng.standard_normal(25)
        s0 = bound244.bank.vectors[bound244.bank.center_index]
        # white unit covariance: R^{-1} s = s
        t, _ = batch_statistics(z[None, :], bound244)
        assert t[0, bound244.bank.center_index] == pytest.approx(float(s0 @ z), rel=1e-12)

    def test_grid_node_lookup(self, bound244, rng):
        z = rng.standard_normal(25)
        s = bound244.bank.vectors[0]
        assert tuple(bound244.bank.offsets[0]) == pytest.approx((-0.475, -0.475))
        t, _ = batch_statistics(z[None, :], bound244)
        assert t[0, 0] == pytest.approx(float(s @ z), rel=1e-12)


class TestGpmf:
    def test_formula(self, bound244, rng):
        z = rng.standard_normal(25)
        s0 = bound244.bank.vectors[bound244.bank.center_index]
        t = float(s0 @ z)
        d = float(s0 @ s0)
        value = score("GPMF", z, bound244)
        alpha_hat, eps_hat = fit(z, bound244, bound244.bank.center_index)
        assert value == pytest.approx(t * t / d, rel=1e-12)
        assert alpha_hat == pytest.approx(t / d, rel=1e-12)
        assert eps_hat == (0.0, 0.0)
        assert isinstance(value, float)

    def test_amplitude_recovery_noiseless(self, bound244, psf244):
        sig = render_signature_batch(psf244, [(0.0, 0.0)])[0]
        z = 3.7 * sig
        assert fit(z, bound244, bound244.bank.center_index)[0] == pytest.approx(3.7, rel=1e-10)

    def test_covariance_scaling_cancels(self, bank244, rng):
        # score = t^2/d is invariant to sigma^2 only through the ratio;
        # doubling sigma divides the score by sigma^2
        z = rng.standard_normal(25)
        a = score("GPMF", z, bank244.bind(white_covariance(1.0)))
        b = score("GPMF", z, bank244.bind(white_covariance(2.0)))
        assert b == pytest.approx(a / 4.0, rel=1e-12)

    def test_h0_is_chi_square_1(self, bound244, rng):
        scores = batch_scores(rng.standard_normal((50_000, 25)), bound244,
                              detectors=("GPMF",))["GPMF"]
        assert scores.mean() == pytest.approx(1.0, abs=0.03)
        crit = chi2.isf(0.05, df=1)
        assert np.mean(scores > crit) == pytest.approx(0.05, abs=0.005)


class TestGlrt:
    def test_is_max_over_nodes(self, bound244, rng):
        z = rng.standard_normal(25)
        t = bound244.bank.vectors @ z
        ratios = t * t / np.einsum("kn,kn->k", bound244.bank.vectors,
                                   bound244.bank.vectors)
        assert score("GLRT", z, bound244) == pytest.approx(ratios.max(), rel=1e-12)
        k = int(np.argmax(ratios))
        assert fit(z, bound244)[1] == tuple(bound244.bank.offsets[k])

    def test_dominates_gpmf_pointwise(self, bound244, rng):
        for _ in range(25):
            z = rng.standard_normal(25)
            assert score("GLRT", z, bound244) >= score("GPMF", z, bound244) - 1e-12

    def test_recovers_planted_node(self, bound244, psf244):
        eps = tuple(bound244.bank.offsets[137])
        sig = render_signature_batch(psf244, [eps])[0]
        alpha_hat, eps_hat = fit(5.0 * sig, bound244)
        assert eps_hat == pytest.approx(eps, abs=1e-12)
        assert alpha_hat == pytest.approx(5.0, rel=1e-10)

    def test_tie_resolves_to_first_node(self, bound244):
        assert fit(np.zeros(25), bound244)[1] == tuple(bound244.bank.offsets[0])


class TestElrt:
    def test_log_mean_exp_oracle(self, bound244, rng):
        z = rng.standard_normal(25)
        grid = bound244.bank.vectors[:400]      # the 20^2 grid nodes
        t = grid @ z
        d = np.einsum("kn,kn->k", grid, grid)
        a = t * t / (2 * d) - 0.5 * np.log(d)
        expect = logsumexp(a) - np.log(400)
        assert score("ELRT", z, bound244) == pytest.approx(expect, rel=1e-12)

    def test_excludes_appended_center_node(self, bound244):
        # the quadrature runs over the grid nodes only: averaging the
        # appended center node in as well must change the value
        z = np.ones(25)
        t = bound244.bank.vectors @ z
        d = np.einsum("kn,kn->k", bound244.bank.vectors, bound244.bank.vectors)
        a = t * t / (2 * d) - 0.5 * np.log(d)
        assert score("ELRT", z, bound244) != logsumexp(a) - np.log(len(a))

    def test_overflow_safe(self, bound244, psf244):
        sig = render_signature_batch(psf244, [(0.1, 0.1)])[0]
        value = score("ELRT", 1e6 * sig, bound244)
        assert np.isfinite(value) and value > 1e9

    def test_monotone_in_amplitude(self, bound244, psf244):
        sig = render_signature_batch(psf244, [(0.2, -0.3)])[0]
        scores = [score("ELRT", a * sig, bound244) for a in (1.0, 2.0, 4.0)]
        assert scores[0] < scores[1] < scores[2]


class TestAlrt:
    def test_weights(self, bank9_244):
        # the 9-node bank's rule is the trapezoid, defined apart in helpers
        weights = np.exp(bank9_244.log_weights)
        assert weights.sum() == pytest.approx(1.0, rel=1e-15)
        assert weights[4] == pytest.approx(0.25, rel=1e-15)
        np.testing.assert_allclose(weights, TRAPEZOID, rtol=1e-15, atol=0)
        assert sorted(set(TRAPEZOID)) == [0.0625, 0.125, 0.25]

    def test_weighted_oracle(self, bound244, bound9_244, rng):
        z = rng.standard_normal(25)
        t = bound9_244.bank.vectors @ z
        d = np.einsum("kn,kn->k", bound9_244.bank.vectors, bound9_244.bank.vectors)
        a = t * t / (2 * d) - 0.5 * np.log(d)
        expect = logsumexp(a, b=TRAPEZOID)
        assert score("ALRT", z, bound244, bound9_244) == pytest.approx(expect, rel=1e-12)

    def test_requires_nine_node_bank(self, bound244):
        with pytest.raises(ValueError):
            score("ALRT", np.zeros(25), bound244, bound244)

    def test_tracks_elrt(self, bound244, bound9_244, psf244, rng):
        # coarse and fine quadratures of the same integral should rank
        # windows almost identically
        sig = render_signature_batch(psf244, [(0.2, 0.1)])[0]
        windows = 2.0 * sig + rng.standard_normal((400, 25))
        s = batch_scores(windows, bound244, bound9_244,
                         detectors=("ELRT", "ALRT"))
        corr = np.corrcoef(s["ELRT"], s["ALRT"])[0, 1]
        assert corr > 0.97


class TestSubspace:
    def test_orthonormal_basis(self, bank244):
        basis = build_subspace(bank244, order=3)
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-12)
        assert subspace_order(basis) == 3

    def test_sign_convention(self, bank244):
        basis = build_subspace(bank244, order=2)
        for p in range(2):
            col = basis[:, p]
            assert col[np.argmax(np.abs(col))] > 0

    def test_matches_gram_eigendecomposition(self, bank244):
        # the leading singular vectors of the stacked signatures are the
        # eigenvectors of the (n, n) outer gram, largest eigenvalue first
        basis = build_subspace(bank244, order=4)
        gram = bank244.vectors.T @ bank244.vectors
        eig = np.sort(np.linalg.eigvalsh(gram))[::-1][:4]
        np.testing.assert_allclose(basis.T @ gram @ basis, np.diag(eig),
                                   rtol=1e-9, atol=1e-9 * eig[0])

    def test_leading_vector_is_nonnegative_spot(self, bank244):
        # the signature family is entrywise nonnegative, so its dominant
        # singular vector is too (Perron direction)
        basis = build_subspace(bank244, order=1)
        assert np.all(basis[:, 0] >= -1e-12)

    def test_order_validation(self, bank244):
        with pytest.raises(ValueError):
            build_subspace(bank244, order=0)
        with pytest.raises(ValueError):
            build_subspace(bank244, order=402)

    def test_order_bounded_by_thin_svd_columns(self, bank244):
        # the thin SVD of 401 signatures of 25 pixels has 25 columns
        n = bank244.vectors.shape[1]
        basis = build_subspace(bank244, order=n)
        np.testing.assert_allclose(basis.T @ basis, np.eye(n), atol=1e-12)
        with pytest.raises(ValueError, match=rf"^subspace order must be in \[1, {n}\]$"):
            build_subspace(bank244, order=n + 1)


class TestSmGlrt:
    def test_order_one_reduces_to_matched_form(self, bound244, subspace244, rng):
        z = rng.standard_normal(25)
        u = subspace244[:, 0]
        expect = float(u @ z) ** 2 / float(u @ u)
        assert score("SM-GLRT", z, bound244, subspace=subspace244) == pytest.approx(
            expect, rel=1e-12)

    def test_projection_bounds(self, bank244, bound244, cov_white, rng):
        # D(z) is the squared norm of a projection of the whitened data,
        # so it grows with order and never exceeds z^T R^{-1} z
        z = rng.standard_normal(25)
        scores = [score("SM-GLRT", z, bound244, subspace=build_subspace(bank244, order=p))
                  for p in (1, 2, 4, 8)]
        assert all(a <= b + 1e-10 for a, b in zip(scores, scores[1:]))
        assert scores[-1] <= z @ cov_white.solve(z) + 1e-10

    def test_basis_sign_invariance(self, bound244, subspace244, rng):
        z = rng.standard_normal(25)
        flipped = -subspace244
        assert score("SM-GLRT", z, bound244, subspace=flipped) == pytest.approx(
            score("SM-GLRT", z, bound244, subspace=subspace244), rel=1e-12)

    @pytest.mark.parametrize("order", [1, 3])
    def test_stack_scores_row_by_row(self, bank244, bound244, rng, order):
        # a window's score keeps its bits whatever stack it is scored in
        subspace = build_subspace(bank244, order=order)
        windows = rng.standard_normal((30_000, 25))
        whole = batch_scores(windows, bound244, subspace=subspace,
                             detectors=("SM-GLRT",))["SM-GLRT"]
        rows = [batch_scores(windows[lo:lo + n], bound244, subspace=subspace,
                             detectors=("SM-GLRT",))["SM-GLRT"]
                for lo, n in ((0, 1), (1, 7), (8, 509), (517, 29_483))]
        np.testing.assert_array_equal(np.concatenate(rows), whole)


class TestBatch:
    def test_statistics_shapes(self, bound244, rng):
        windows = rng.standard_normal((7, 25))
        t, ratios = batch_statistics(windows, bound244)
        assert t.shape == (7, 401) and ratios.shape == (7, 401)

    def test_matches_single_window_functions(self, bound244, bound9_244,
                                             subspace244, cov_white, rng):
        # each column against the detector formulas evaluated window by
        # window, with no cached products
        windows = rng.standard_normal((20, 25))
        out = batch_scores(windows, bound244, bound9_244, subspace244,
                           detectors=DETECTOR_IDS)
        vectors, vectors9 = bound244.bank.vectors, bound9_244.bank.vectors
        d = np.einsum("kn,kn->k", vectors, cov_white.solve(vectors.T).T)
        d9 = np.einsum("kn,kn->k", vectors9, cov_white.solve(vectors9.T).T)
        u = subspace244[:, 0]
        c, gi = bound244.bank.center_index, slice(400)   # gi: the 20^2 grid nodes
        for i, z in enumerate(windows):
            rz = cov_white.solve(z)
            t, t9 = vectors @ rz, vectors9 @ rz
            expect = {
                "GPMF": t[c] ** 2 / d[c],
                "GLRT": np.max(t**2 / d),
                "ELRT": logsumexp(t[gi] ** 2 / (2 * d[gi]) - 0.5 * np.log(d[gi]))
                - np.log(400),
                "ALRT": logsumexp(t9**2 / (2 * d9) - 0.5 * np.log(d9), b=TRAPEZOID),
                "SM-GLRT": float(u @ rz) ** 2 / float(u @ cov_white.solve(u)),
            }
            for det in DETECTOR_IDS:
                assert out[det][i] == pytest.approx(expect[det], rel=1e-11)

    def test_missing_inputs_raise(self, bound244, rng):
        windows = rng.standard_normal((3, 25))
        with pytest.raises(ValueError):
            batch_scores(windows, bound244, detectors=("ALRT",))
        with pytest.raises(ValueError):
            batch_scores(windows, bound244, detectors=("SM-GLRT",))

    def test_detector_subset(self, bound244, rng):
        out = batch_scores(rng.standard_normal((3, 25)), bound244,
                           detectors=("GPMF", "GLRT"))
        assert set(out) == {"GPMF", "GLRT"}
