import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from subpixdet import clutter, harness
from subpixdet.clutter import (
    NoiseField, IndefiniteCovarianceError, synthesize_fbm,
    estimate_autocovariance, assemble_window_covariance,
    white_covariance, write_pgm,
)
from subpixdet.harness import ExperimentConfig, run_roc

from helpers import acf_padded_2x, acf_rfft2, fbm_irfft2, window_covariance


def factored(cov):
    """L L^T of the stored Cholesky factor: the matrix cov.solve inverts."""
    lower = np.tril(cov._factor[0])
    return lower @ lower.T


def radial_psd_slope(field):
    """Log-log slope of the radially binned power spectrum."""
    n = field.shape[0]
    spec = np.abs(np.fft.fft2(field)) ** 2
    f = np.fft.fftfreq(n)
    radius = np.hypot(f[:, None], f[None, :])
    mask = (radius > 2 / n) & (radius < 0.25)
    bins = np.linspace(np.log(2 / n), np.log(0.25), 12)
    which = np.digitize(np.log(radius[mask]), bins)
    logr, logp = [], []
    for b in range(1, len(bins)):
        sel = which == b
        if sel.sum() > 10:
            logr.append(np.log(radius[mask][sel]).mean())
            logp.append(np.log(spec[mask][sel].mean()))
    return np.polyfit(logr, logp, 1)[0]


def fbm_complex(hurst, size=256, seed=None, crop=None):
    """synthesize_fbm with the whole-plane spectrum: the same noise draw,
    shaped by the full complex FFT, and the real part of its inverse."""
    noise = np.random.default_rng(seed).standard_normal((size, size))
    f = np.fft.fftfreq(size)
    radius2 = f[:, None] ** 2 + f[None, :] ** 2
    with np.errstate(divide="ignore"):
        amp = np.where(radius2 > 0, radius2 ** (-(hurst + 1) / 2), 0.0)
    field = np.fft.ifft2(np.fft.fft2(noise) * amp).real
    field = (field - field.mean()) / field.std()
    if crop is not None:
        field = field[:crop, :crop]
        field = (field - field.mean()) / field.std()
    return NoiseField(values=field)


class TestSynthesizeFbm:
    @pytest.mark.parametrize("size, crop", [(2, None), (4, None), (64, None),
                                            (256, None), (256, 200)])
    def test_matches_complex_fft(self, size, crop):
        got = synthesize_fbm(0.7, size, seed=[5, 0, 0], crop=crop).values
        ref = fbm_complex(0.7, size, seed=[5, 0, 0], crop=crop).values
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("size, crop", [(2, None), (4, None), (4, 3), (64, None),
                                            (64, 48), (256, None), (256, 200),
                                            (1024, None), (1024, 768)])
    def test_bits_match_irfft2(self, size, crop):
        # the split inverse scales by 1/size twice, exact for a power of two
        got = synthesize_fbm(0.7, size, seed=[5, 0, 0], crop=crop).values
        ref = fbm_irfft2(0.7, size, seed=[5, 0, 0], crop=crop).values
        assert np.array_equal(got, ref)

    def test_peak_before_standardizing_is_about_one_spectrum(self, monkeypatch):
        # one (1024, 513) complex spectrum is 8.4 MB; a whole-plane noise
        # draw, amplitude array or inverse output would add 4-8 MB more
        standardize = clutter._standardize
        peaks = []

        def record(x):
            peaks.append(tracemalloc.get_traced_memory()[1])
            return standardize(x)

        monkeypatch.setattr(clutter, "_standardize", record)
        tracemalloc.start()
        try:
            values = synthesize_fbm(0.7, 1024, seed=[1, 0, 0]).values
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] < 1.25 * 1024 * 513 * 16
        assert values.shape == (1024, 1024) and values.dtype == np.float64
        assert values.flags.c_contiguous

    def test_standardized(self):
        f = synthesize_fbm(0.7, size=256, seed=3)
        assert f.values.shape == (256, 256)
        assert f.values.mean() == pytest.approx(0.0, abs=1e-12)
        assert f.values.std() == pytest.approx(1.0, rel=1e-12)

    def test_crop(self):
        f = synthesize_fbm(0.7, size=256, seed=3, crop=200)
        assert f.values.shape == (200, 200)
        assert f.values.mean() == pytest.approx(0.0, abs=1e-12)
        assert f.values.std() == pytest.approx(1.0, rel=1e-12)

    def test_reproducible(self):
        a = synthesize_fbm(0.5, size=64, seed=11)
        b = synthesize_fbm(0.5, size=64, seed=11)
        np.testing.assert_array_equal(a.values, b.values)

    def test_psd_slope_tracks_hurst(self):
        # PSD ~ f^-(2H+2): slope -3.4 at H=0.7, -3.0 at H=0.5, averaged
        # over realizations to tame spectral estimation noise
        for hurst in (0.5, 0.7):
            slopes = [radial_psd_slope(synthesize_fbm(hurst, 256, seed=s).values)
                      for s in range(6)]
            assert np.mean(slopes) == pytest.approx(-(2 * hurst + 2), abs=0.15)

    def test_rougher_field_has_shallower_slope(self):
        s_low = radial_psd_slope(synthesize_fbm(0.2, 256, seed=1).values)
        s_high = radial_psd_slope(synthesize_fbm(0.9, 256, seed=1).values)
        assert s_low > s_high

    def test_validation(self):
        for hurst in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError):
                synthesize_fbm(hurst, size=64, seed=0)
        with pytest.raises(ValueError):
            synthesize_fbm(0.7, size=100, seed=0)

    @pytest.mark.parametrize("size", [0, 1])
    def test_size_below_2_is_refused(self, size):
        # a 1x1 spectrum is its zeroed DC term alone: 0 / 0 when standardized
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"size must be a power of two >= 2, got {size}"):
                synthesize_fbm(0.7, size=size, seed=0)


def acf_direct(x, max_lag):
    """Brute-force biased autocovariance oracle."""
    x = x - x.mean()
    h, w = x.shape
    out = np.zeros((2 * max_lag + 1, 2 * max_lag + 1))
    for l1 in range(-max_lag, max_lag + 1):
        for l2 in range(-max_lag, max_lag + 1):
            total = 0.0
            for i in range(h):
                for j in range(w):
                    if 0 <= i + l1 < h and 0 <= j + l2 < w:
                        total += x[i, j] * x[i + l1, j + l2]
            out[l1 + max_lag, l2 + max_lag] = total / x.size
    return out


class TestEstimateAutocovariance:
    def test_matches_direct_oracle(self, rng):
        x = rng.standard_normal((14, 17))
        f = NoiseField(values=x)
        got = estimate_autocovariance(f, max_lag=4)
        ref = acf_direct(x, max_lag=4)
        np.testing.assert_allclose(got, ref, atol=1e-12)

    @pytest.mark.parametrize("shape", [(14, 23), (25, 14)])
    def test_matches_direct_oracle_at_largest_lag(self, rng, shape):
        # the FFT pads each axis to its own fast length (20 and 30, 32
        # and 20), and 14 + 6 = 20 leaves no spare zero on that axis
        max_lag = (min(shape) - 1) // 2
        x = rng.standard_normal(shape)
        got = estimate_autocovariance(NoiseField(x), max_lag)
        np.testing.assert_allclose(got, acf_direct(x, max_lag), rtol=0, atol=1e-13)

    def test_matches_2x_padded_fft(self):
        field = synthesize_fbm(0.7, 256, seed=[4, 0, 0])
        np.testing.assert_allclose(estimate_autocovariance(field, 4),
                                   acf_padded_2x(field, 4), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape, max_lag, mean", [
        ((14, 17), 4, 0.0), ((14, 23), 6, 0.0), ((25, 14), 6, 0.0),
        ((130, 70), 5, 3.7), ((130, 70), 34, -2.0), ((200, 200), 99, 0.0),
        ((1024, 1024), 4, 0.0), ((1024, 1024), 10, 0.0), ((1024, 1024), 200, 0.0)])
    def test_bits_match_rfft2_on_the_padded_plane(self, rng, shape, max_lag, mean):
        field = NoiseField(rng.standard_normal(shape) + mean)
        assert np.array_equal(estimate_autocovariance(field, max_lag),
                              acf_rfft2(field, max_lag))

    def test_bits_match_rfft2_on_fbm(self):
        field = synthesize_fbm(0.7, 256, seed=[4, 0, 0])
        assert np.array_equal(estimate_autocovariance(field, 4), acf_rfft2(field, 4))

    def test_peak_is_about_one_spectrum(self):
        # 1024 + 4 pads to 1080: one (1080, 541) complex spectrum is 9.35
        # MB, and a padded real copy of the field or a whole-plane inverse
        # would add 9.3 MB more
        field = synthesize_fbm(0.7, 1024, seed=[1, 0, 0])
        spectrum = 1080 * (1080 // 2 + 1) * 16
        tracemalloc.start()
        try:
            estimate_autocovariance(field, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * spectrum

    def test_center_is_variance(self, rng):
        x = rng.standard_normal((32, 32))
        f = NoiseField(values=x)
        acf = estimate_autocovariance(f, max_lag=3)
        assert acf[3, 3] == pytest.approx(np.var(x), rel=1e-12)

    def test_even_symmetry(self, rng):
        x = rng.standard_normal((24, 24))
        acf = estimate_autocovariance(NoiseField(x), max_lag=5)
        np.testing.assert_allclose(acf, acf[::-1, ::-1], atol=1e-13)

    def test_separable_exponential_field(self):
        # AR(1) x AR(1) process: acf(l1, l2) ~ var * a^|l1| * a^|l2|
        a, n = 0.6, 4096
        rng = np.random.default_rng(99)
        e = rng.standard_normal((n, 64))
        x = np.empty_like(e)
        x[0] = e[0] / np.sqrt(1 - a**2)
        for i in range(1, n):
            x[i] = a * x[i - 1] + e[i]
        for j in range(1, 64):
            x[:, j] = a * x[:, j - 1] + np.sqrt(1 - a**2) * x[:, j]
        f = NoiseField(values=x[:, 32:])
        acf = estimate_autocovariance(f, max_lag=2)
        ratio = acf / acf[2, 2]
        l = np.arange(-2, 3)
        expect = a ** np.abs(l[:, None]) * a ** np.abs(l[None, :])
        np.testing.assert_allclose(ratio, expect, atol=0.03)

    def test_max_lag_validation(self):
        f = NoiseField(values=np.zeros((10, 10)))
        with pytest.raises(ValueError):
            estimate_autocovariance(f, max_lag=5)
        with pytest.raises(ValueError, match="max_lag must be >= 0"):
            estimate_autocovariance(f, max_lag=-1)


def roc_steps(curve, rtol=1e-9):
    """The points of a RocCurve that end a run of thresholds equal within
    rtol.  Fractal windows repeat when two draws hit one image position,
    and the batched product can score such twins an ulp apart, depending
    on their rows in the batch: one step of the curve then splits in two."""
    t = curve.thresholds
    last = np.r_[~np.isclose(t[1:], t[:-1], rtol=rtol, atol=0), True]
    return t[last], curve.pfa[last], curve.pd[last]


@pytest.mark.parametrize("seed", [3, 11])
def test_fractal_roc_matches_complex_fft_clutter(monkeypatch, cold_background, seed):
    """A fractal ROC run on the whole-plane fBm and the 2x-padded ACF
    takes the same Pfa/Pd steps; only the thresholds move, by rounding."""
    cfg = ExperimentConfig(noise="fractal", hurst=0.7, image_size=128, alpha=0.3,
                           n_h0=2000, n_h1=2000, seed=seed)
    new = run_roc(cfg)
    # the reference run builds its own background from the patched
    # functions, rather than reading the one just cached
    harness._fractal_background.cache_clear()
    monkeypatch.setattr(clutter, "synthesize_fbm", fbm_complex)
    monkeypatch.setattr(clutter, "estimate_autocovariance", acf_padded_2x)
    old = run_roc(cfg)
    assert [c.detector for c in new] == [c.detector for c in old]
    for a, b in zip(new, old):
        (ta, pfa_a, pd_a), (tb, pfa_b, pd_b) = roc_steps(a), roc_steps(b)
        np.testing.assert_array_equal(pfa_a, pfa_b)
        np.testing.assert_array_equal(pd_a, pd_b)
        # scores cross 0, so the relative check needs an absolute floor
        np.testing.assert_allclose(ta, tb, rtol=1e-9, atol=1e-9)


def test_covariance_model_is_its_sigma2_or_its_factor():
    assert [f.name for f in fields(clutter.CovarianceModel)] == ["sigma2", "_factor"]
    assert white_covariance(2.0)._factor is None
    acf = np.zeros((9, 9))
    acf[4, 4] = 1.0
    assert assemble_window_covariance(acf, 2).sigma2 is None


class TestWhiteCovariance:
    def test_solve_divides_by_sigma2(self, rng):
        # R = sigma^2 I, for a vector or a column stack of any window size
        cov = white_covariance(2.0)
        assert cov.sigma2 == 4.0
        for y in (rng.standard_normal(9), rng.standard_normal((25, 3))):
            np.testing.assert_array_equal(cov.solve(y), y / 4.0)
        y = rng.standard_normal(9)
        assert y @ cov.solve(y) == pytest.approx(float(y @ y) / 4.0, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            white_covariance(0.0)
        # sigma**2 underflows to 0 or to a subnormal; the smallest normal passes
        for sigma in (1e-200, 1e-160):
            with pytest.raises(ValueError, match="sigma"):
                white_covariance(sigma)
        assert white_covariance(np.sqrt(np.finfo(float).tiny) * 1.001).sigma2 > 0


class TestAssembleWindowCovariance:
    def test_delta_acf_gives_scaled_identity(self):
        acf = np.zeros((9, 9))
        acf[4, 4] = 2.0
        cov = assemble_window_covariance(acf, w=2, lam=1e-6)
        np.testing.assert_allclose(factored(cov), 2.0 * (1 + 1e-6) * np.eye(25),
                                   atol=1e-15)

    def test_entries_follow_lag_table(self, rng):
        # build a guaranteed-PD stationary acf from a random spectral mix
        w = 1
        base = rng.standard_normal((12, 12))
        acf = estimate_autocovariance(NoiseField(base), 2 * w)
        cov = assemble_window_covariance(acf, w=w, lam=0.05)
        coords = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        for a, (i1, j1) in enumerate(coords):
            for b, (i2, j2) in enumerate(coords):
                expect = acf[i1 - i2 + 2 * w, j1 - j2 + 2 * w]
                if a == b:
                    expect = expect + 0.05 * acf[2 * w, 2 * w]
                assert factored(cov)[a, b] == pytest.approx(expect, rel=1e-12)

    def test_factor_is_read_only_from_birth(self):
        acf = np.zeros((9, 9))
        acf[4, 4] = 1.0
        cov = assemble_window_covariance(acf, 2)
        assert not cov._factor[0].flags.writeable

    def test_solve_inverts(self, rng):
        acf = np.zeros((5, 5))
        acf[2, 2] = 1.0
        acf[2, 1] = acf[2, 3] = acf[1, 2] = acf[3, 2] = 0.3
        cov = assemble_window_covariance(acf, w=1, lam=1e-8)
        y = rng.standard_normal(9)
        np.testing.assert_allclose(window_covariance(acf, 1, 1e-8) @ cov.solve(y), y,
                                   atol=1e-10)

    def test_indefinite_raises(self):
        acf = np.zeros((5, 5))
        acf[2, 2] = 1.0
        acf[2, 1] = acf[2, 3] = 0.9
        acf[1, 2] = acf[3, 2] = 0.9
        acf[1, 1] = acf[3, 3] = acf[1, 3] = acf[3, 1] = -0.8
        with pytest.raises(IndefiniteCovarianceError):
            assemble_window_covariance(acf, w=1, lam=1e-9)

    @pytest.mark.parametrize("lam", [-1e-6, np.nan, np.inf, -np.inf])
    def test_ridge_not_finite_and_non_negative_rejected(self, lam):
        acf = np.zeros((5, 5))
        acf[2, 2] = 1.0
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            assemble_window_covariance(acf, w=1, lam=lam)

    def test_short_acf_rejected(self):
        with pytest.raises(ValueError):
            assemble_window_covariance(np.eye(5), w=2, lam=1e-6)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (6, 6), (25,), (5, 5, 1)])
    def test_table_not_square_and_odd_rejected(self, shape):
        acf = np.zeros(shape)
        with pytest.raises(ValueError, match="square table with odd sides"):
            assemble_window_covariance(acf, w=1)


class TestWritePgm:
    def test_header_and_payload(self, tmp_path, rng):
        f = NoiseField(values=rng.standard_normal((7, 5)))
        path = tmp_path / "out.pgm"
        write_pgm(f, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n5 7\n255\n")
        assert len(data) == len(b"P5\n5 7\n255\n") + 35

    def test_constant_field(self, tmp_path):
        f = NoiseField(values=np.ones((3, 3)))
        path = tmp_path / "flat.pgm"
        write_pgm(f, path)
        assert path.read_bytes().endswith(bytes(9))
