"""Properties of the in-place scoring and estimation kernel.

batch_scores and batch_estimates compute the ELRT/ALRT/PM log-sum-exp in
one (N, K) buffer.  The oracle here is the textbook formula on the
ratios t^2/d (helpers.batch_statistics), summed by scipy.special.logsumexp in long
double precision, so what it measures is the kernel's own rounding.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from subpixdet import clutter
from subpixdet.detectors import (
    DETECTOR_IDS, ESTIMATOR_IDS, batch_estimates, batch_scores, build_subspace,
)
from subpixdet.optics import (
    EffectivePsf, PsfModel, build_alrt_bank, build_signature_bank, render_signature_batch,
)

from helpers import TRAPEZOID, batch_statistics

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
HULL = 0.475    # outermost grid node coordinate at grid_size = 20


def oracle(windows, bound, bound9):
    """ELRT, ALRT and PM from the ratios of batch_statistics, by scipy's
    logsumexp in long double."""
    ld = np.longdouble
    gi = slice(len(bound.bank.offsets) - 1)   # the grid nodes; the center is appended last
    ratios = batch_statistics(windows, bound)[1][:, gi].astype(ld)
    a = ratios / 2 - np.log(bound.gram[gi].astype(ld)) / 2
    r9 = batch_statistics(windows, bound9)[1].astype(ld)
    a9 = r9 / 2 - np.log(bound9.gram.astype(ld)) / 2
    logw = a - logsumexp(a, axis=1, keepdims=True)
    return {
        "ELRT": logsumexp(a, axis=1) - np.log(ld(a.shape[1])),
        "ALRT": logsumexp(a9, b=TRAPEZOID.astype(ld)[None, :], axis=1),
        "PM": np.exp(logw) @ bound.bank.offsets[gi].astype(ld),
    }


def spots(bound, seed, amplitude, n=16):
    """n windows: amplitude times a spot at a random offset, plus white noise."""
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-0.5, 0.5, (n, 2))
    sig = render_signature_batch(bound.bank.psf, eps)
    return amplitude * sig + rng.standard_normal(sig.shape)


def fractal_acf(w, seed=0):
    image = clutter.synthesize_fbm(0.7, 128, seed=[seed, 0, 0])
    return clutter.estimate_autocovariance(image, 2 * w)


def fbm_spots(psf, seed, n=2000):
    """n w = 2 windows drawn from a 128^2 fBm image, each plus a spot at a
    random offset with amplitude up to three times the clutter level."""
    image = clutter.synthesize_fbm(0.7, 128, seed=[seed, 1, 0]).values
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(2, 126, (2, n))
    off = np.arange(-2, 3)
    noise = image[rows[:, None, None] + off[:, None], cols[:, None, None] + off]
    noise = noise.reshape(n, 25) - image.mean()
    eps = rng.uniform(-0.5, 0.5, (n, 2))
    sig = render_signature_batch(psf, eps)
    amplitude = rng.uniform(0, 3, (n, 1)) * noise.std() / sig.std()
    return amplitude * sig + noise


@pytest.fixture(scope="module")
def sampled_w5():
    psf = EffectivePsf(PsfModel(0.5), 5)
    cov = clutter.white_covariance(1.0)
    bank = build_signature_bank(psf, 20)
    return bank.bind(cov), build_alrt_bank(psf).bind(cov), build_subspace(bank)


class TestProperties:
    @PROPERTY
    @given(windows=arrays(np.float64, st.tuples(st.integers(1, 8), st.just(25)),
                          elements=st.floats(-1e6, 1e6)))
    def test_glrt_at_least_gpmf(self, bound244, windows):
        s = batch_scores(windows, bound244, detectors=("GPMF", "GLRT"))
        assert np.all(s["GLRT"] >= s["GPMF"])

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 1e6))
    def test_finite_and_pm_in_hull_up_to_1e6(self, bound244, bound9_244, seed, amplitude):
        windows = spots(bound244, seed, amplitude)
        s = batch_scores(windows, bound244, bound9_244, detectors=("ELRT", "ALRT"))
        pm = batch_estimates(windows, bound244, ("PM",))["PM"]
        assert np.all(np.isfinite(s["ELRT"])) and np.all(np.isfinite(s["ALRT"]))
        assert np.all(np.isfinite(pm))
        # a weighted mean of the node coordinates, up to float rounding
        assert np.all(np.abs(pm) <= HULL + 1e-15)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.0, 30.0),
           log_c=st.floats(-3.0, 3.0), empirical=st.booleans())
    # t^2/d reaches 3.5e4 here; a kernel that adds -log(d)/2 before it
    # shifts by the row max moves PM by 4.1e-13 between the two sides
    @example(seed=38367, amplitude=15.0, log_c=1.0, empirical=True)
    def test_covariance_scale_invariance(self, bank244, bank9_244, subspace244,
                                         seed, amplitude, log_c, empirical):
        """(z, R) -> (cz, c^2 R) keeps every score and estimate, except
        that the ELRT/ALRT integrand carries 1/sqrt(d), so those two
        shift by log c: the same detector up to a threshold offset.

        The empirical covariance is scaled by a power of two, which its
        Cholesky solve carries exactly: with any other c the solve alone
        differs by about cond(R) * 1e-16, which is not the kernel's."""
        c = 10.0 ** log_c
        if empirical:
            c = 2.0 ** round(np.log2(c))
            acf = fractal_acf(2)
            cov, cov_c = (clutter.assemble_window_covariance(a, 2) for a in (acf, c * c * acf))
        else:
            cov, cov_c = clutter.white_covariance(1.0), clutter.white_covariance(c)
        bound, bound9 = bank244.bind(cov), bank9_244.bind(cov)
        windows = spots(bound, seed, amplitude)
        scores = batch_scores(windows, bound, bound9, subspace244)
        scaled = batch_scores(c * windows, bank244.bind(cov_c), bank9_244.bind(cov_c),
                              subspace244)
        for det in ("ELRT", "ALRT"):
            scaled[det] = scaled[det] - np.log(c)
        for det in DETECTOR_IDS:
            np.testing.assert_allclose(scaled[det], scores[det], rtol=1e-12, atol=1e-12)
        est = batch_estimates(windows, bound)
        est_c = batch_estimates(c * windows, bank244.bind(cov_c))
        for name in ESTIMATOR_IDS:
            np.testing.assert_allclose(est_c[name], est[name], rtol=1e-12, atol=1e-13)


class TestOracle:
    def check(self, windows, bound, bound9, subspace):
        scores = batch_scores(windows, bound, bound9, subspace)
        est = batch_estimates(windows, bound)
        ref = oracle(windows, bound, bound9)
        _, ratios = batch_statistics(windows, bound)
        # the same bits as the plain ratios for the max/column detectors
        np.testing.assert_array_equal(scores["GPMF"], ratios[:, bound.bank.center_index])
        np.testing.assert_array_equal(scores["GLRT"], ratios.max(axis=1))
        np.testing.assert_array_equal(est["ML"], bound.bank.offsets[ratios.argmax(axis=1)])
        # log-domain scores cross 0, so the relative check needs an absolute floor
        np.testing.assert_allclose(scores["ELRT"], ref["ELRT"], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(scores["ALRT"], ref["ALRT"], rtol=1e-12, atol=1e-12)
        # PM is a coordinate in [-0.475, 0.475]: its error is absolute.  The
        # kernel's is about 1e-15; adding log d before the row-max shift
        # made it 3e-13.
        np.testing.assert_allclose(est["PM"], ref["PM"], rtol=0, atol=1e-14)
        assert np.ptp(scores["ELRT"]) > 10       # the stack spans low to high SNR

    def test_white_w5(self, sampled_w5):
        bound, bound9, subspace = sampled_w5
        rng = np.random.default_rng(7)
        windows = spots(bound, 7, rng.uniform(0, 20, (2000, 1)), n=2000)
        self.check(windows, bound, bound9, subspace)

    def test_empirical_w2(self, bank244, bank9_244, subspace244):
        cov = clutter.assemble_window_covariance(fractal_acf(2, seed=3), 2)
        bound, bound9 = bank244.bind(cov), bank9_244.bind(cov)
        self.check(fbm_spots(bank244.psf, 3), bound, bound9, subspace244)

    def test_empirical_w2_large_ratios(self, bank244, bank9_244, subspace244):
        # spots in white noise scored against the fBm covariance, whose
        # whitening takes t^2/d past 1e5: there every exponent of the
        # log-sum-exp carries an absolute rounding of about ulp(t^2/(2d))
        cov = clutter.assemble_window_covariance(fractal_acf(2), 2)
        bound, bound9 = bank244.bind(cov), bank9_244.bind(cov)
        rng = np.random.default_rng(11)
        windows = spots(bound, 11, rng.uniform(0, 30, (2000, 1)), n=2000)
        assert batch_statistics(windows, bound)[1].max() >= 1e5
        self.check(windows, bound, bound9, subspace244)


@pytest.mark.parametrize("noise", ["white-w5", "fbm-w2"])
def test_batch_of_one_matches_batch_of_many(sampled_w5, bank244, bank9_244, subspace244,
                                            noise):
    """score and estimate run one window as a batch of one, which BLAS
    multiplies by gemv; the Monte Carlo's batches of thousands go through
    gemm.  The two round differently: the same window's score differs in
    its last bits with its batch and its row in it, within this bound."""
    if noise == "white-w5":
        bound, bound9, subspace = sampled_w5
        windows = spots(bound, 5, np.random.default_rng(5).uniform(0, 20, (2000, 1)),
                        n=2000)
    else:
        cov = clutter.assemble_window_covariance(fractal_acf(2, seed=4), 2)
        bound, bound9, subspace = bank244.bind(cov), bank9_244.bind(cov), subspace244
        windows = fbm_spots(bank244.psf, 4)
    many = batch_scores(windows, bound, bound9, subspace, DETECTOR_IDS)
    many["PM"] = batch_estimates(windows, bound, ("PM",))["PM"]
    for i in range(0, 2000, 20):
        one = batch_scores(windows[i:i + 1], bound, bound9, subspace, DETECTOR_IDS)
        one["PM"] = batch_estimates(windows[i:i + 1], bound, ("PM",))["PM"]
        for name, value in one.items():
            s = many[name][i]
            assert np.all(np.abs(value[0] - s) <= 1e-12 * (1 + np.abs(s))), (name, i)


def test_peak_memory_is_one_buffer(sampled_w5):
    """Scoring and estimating 10 000 windows at w = 5 allocate about one
    (N, K) float buffer, not one per log-sum-exp pass."""
    bound, bound9, subspace = sampled_w5
    windows = np.random.default_rng(0).standard_normal((10_000, bound.whitened.shape[1]))
    limit = 1.25 * windows.shape[0] * len(bound.bank.offsets) * 8
    for call in (lambda: batch_scores(windows, bound, bound9, subspace, DETECTOR_IDS),
                 lambda: batch_estimates(windows, bound, ESTIMATOR_IDS)):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, (peak, limit)
