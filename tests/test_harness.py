import csv
import math
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from subpixdet import clutter, harness
from subpixdet.detectors import batch_estimates, batch_scores
from subpixdet.harness import (
    ConfigError, ExperimentConfig, average_energy_cached, bind_detectors,
    empirical_roc_from_scores, run_mse, run_roc, snr_to_alpha,
    theoretical_pmf_roc, write_mse_csv, write_roc_csv,
)
from subpixdet.optics import EffectivePsf, PsfModel, render_signature_batch

from helpers import energy_cache, mse_row, pd_at_pfa, pfa_at_pd


class TestConfig:
    def test_defaults_validate(self):
        # a config checks its fields when it is built
        ExperimentConfig(snr_db=15.0)
        # the amplitude rule is each run's (TestRunRoc, TestRunMse)
        ExperimentConfig()

    def test_replace_validates(self):
        # an invalid config cannot exist, not even one made by replace
        with pytest.raises(ConfigError, match="trial counts"):
            replace(ExperimentConfig(), n_h0=0)

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, noise="pink")
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, noise="fractal", hurst=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, sigma=-1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, n_h0=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, detectors=("GLRT", "XYZ"))
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, estimators=("MAP",))
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, grid_size=7)

    @pytest.mark.parametrize("field, value", [
        ("snr_db", float("nan")), ("snr_db", float("inf")), ("alpha", float("nan")),
        ("sigma", float("inf")), ("snr_sweep", (10.0, float("nan"))), ("ridge", -1.0),
        ("ridge", float("inf")), ("ridge", float("nan")),
    ])
    def test_rejects_non_finite_and_negative_ridge(self, field, value):
        fields = {"snr_db": 15.0, field: value}
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("eps_fixed", [
        (0.1, 0.2, 0.3), (0.1,), (0.0, 0.6), (0.6, 0.0), (0.0, -0.51), (0.0, float("nan")),
        (float("inf"), 0.0),
    ])
    def test_rejects_bad_eps_fixed(self, eps_fixed):
        with pytest.raises(ConfigError, match="eps_fixed"):
            ExperimentConfig(snr_db=15.0, eps_fixed=eps_fixed)

    def test_eps_fixed_closed_square(self):
        ExperimentConfig(snr_db=15.0, eps_fixed=(-0.5, 0.5))
        # empty: each trial draws its offset uniformly
        ExperimentConfig(snr_db=15.0, eps_fixed=())

    @pytest.mark.parametrize("field", ["detectors", "estimators"])
    def test_rejects_empty_selection(self, field):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(snr_db=15.0, **{field: ()})

    def test_n_trials_bounded_by_substream_keys(self):
        # run_mse keys chunk i of sweep point si as si * _SWEEP_STRIDE + i:
        # one more chunk per point would reuse the next point's substream
        limit = harness._SWEEP_STRIDE * harness._CHUNK
        ExperimentConfig(snr_db=15.0, n_trials=limit)
        with pytest.raises(ConfigError, match="n_trials"):
            ExperimentConfig(snr_db=15.0, n_trials=limit + 1)

    # a value away from the default for every field UNREAD names
    AWAY = {"n_trials": 7, "estimators": ("ML",), "n_h0": 5, "n_h1": 9, "detectors": ("GLRT",),
            "subspace_order": 3, "hurst": 0.3, "image_size": 64, "ridge": 0.5,
            "train_equals_test": True, "sigma": 7.0}

    @pytest.mark.parametrize("kind, noise, name", [
        (kind, noise, name) for kind in ("roc", "mse") for noise in ("white", "fractal")
        for name in dict.fromkeys((*harness.UNREAD[kind], *harness.UNREAD[noise]))
        if name not in ("alpha", "snr_sweep")])
    def test_run_refuses_unread_fields(self, monkeypatch, kind, noise, name):
        # every field UNREAD names is refused before set-up, by run kind
        # or else by noise kind; the amplitude fields have their own rule
        monkeypatch.setattr(harness, "effective_psf", None)
        cfg = ExperimentConfig(snr_db=15.0, noise=noise, **{name: self.AWAY[name]})
        what = kind if name in harness.UNREAD[kind] else f"{noise} noise"
        with pytest.raises(ConfigError, match=f"^{what} does not read {name}$"):
            getattr(harness, f"run_{kind}")(cfg)

    def test_asdict_round_trip(self):
        cfg = ExperimentConfig(snr_db=12.0, seed=3)
        assert ExperimentConfig(**asdict(cfg)) == cfg


class TestSnrConversion:
    def test_formula(self):
        # snr = 10 log10(alpha^2 E / sigma^2)
        assert snr_to_alpha(20.0, 1.0, 1.0) == pytest.approx(10.0, rel=1e-12)
        assert snr_to_alpha(0.0, 2.0, 4.0) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        for snr in (-5.0, 0.0, 16.2):
            alpha = snr_to_alpha(snr, 1.3, 0.51)
            back = 10 * math.log10(alpha**2 * 0.51 / 1.3**2)
            assert back == pytest.approx(snr, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            snr_to_alpha(10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            snr_to_alpha(10.0, 1.0, -1.0)
        for value in (math.nan, math.inf, -math.inf):
            for snr_db, sigma in ((value, 1.0), (10.0, value)):
                with pytest.raises(ValueError, match="must be finite"):
                    snr_to_alpha(snr_db, sigma, 1.0)


class TestAverageEnergy:
    def test_aliased_design_anchor(self):
        assert average_energy_cached(2.44) == pytest.approx(0.5107, abs=2e-3)

    def test_sampled_design_anchor(self):
        assert average_energy_cached(0.5) == pytest.approx(0.0800, abs=2e-3)

    def test_cached(self):
        assert average_energy_cached(2.44) is not None
        assert energy_cache().cache_info().hits >= 1

    def test_cache_keyed_on_r_c_alone(self):
        energy_cache().cache_clear()
        average_energy_cached(2.44)
        average_energy_cached(2.44, 16)
        assert energy_cache().cache_info().misses == 1


class TestEmpiricalRoc:
    def test_hand_computed_example(self):
        curve = empirical_roc_from_scores([1.0, 2.0, 3.0], [2.5, 3.5])
        np.testing.assert_array_equal(curve.thresholds,
                                      [np.inf, 3.5, 3.0, 2.5, 2.0, 1.0])
        np.testing.assert_allclose(curve.pfa, [0, 0, 1 / 3, 1 / 3, 2 / 3, 1])
        np.testing.assert_allclose(curve.pd, [0, 0.5, 0.5, 1, 1, 1])
        np.testing.assert_array_equal(curve.h0_counts, [0, 0, 1, 1, 2, 3])
        np.testing.assert_array_equal(curve.h1_counts, [0, 1, 1, 2, 2, 2])
        assert curve.n_h0 == 3 and curve.n_h1 == 2

    def test_endpoints(self, rng):
        curve = empirical_roc_from_scores(rng.standard_normal(100),
                                          rng.standard_normal(100) + 1)
        assert curve.pfa[0] == 0 and curve.pd[0] == 0
        assert curve.pfa[-1] == 1 and curve.pd[-1] == 1
        assert np.all(np.diff(curve.pfa) >= 0)
        assert np.all(np.diff(curve.pd) >= 0)

    def test_identical_distributions_hug_diagonal(self, rng):
        s = rng.standard_normal(20_000)
        t = rng.standard_normal(20_000)
        curve = empirical_roc_from_scores(s, t)
        assert abs(pd_at_pfa(curve, 0.3) - 0.3) < 0.02

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_roc_from_scores([], [1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("which", ["H0", "H1"])
    def test_non_finite_score_raises(self, bad, which):
        scores = {"H0": [1.0, 2.0], "H1": [2.0, 3.0]}
        scores[which] = [bad, *scores[which]]
        with pytest.raises(ValueError, match=f"^GLRT: non-finite score among the {which} "):
            empirical_roc_from_scores(scores["H0"], scores["H1"], "GLRT")

    @settings(max_examples=100, deadline=None)
    @given(s0=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
           s1=st.lists(st.integers(-3, 3), min_size=1, max_size=40))
    def test_monotone_under_tied_scores(self, s0, s1):
        # integer scores on a narrow range: most thresholds are shared ties
        curve = empirical_roc_from_scores(s0, s1)
        thr = curve.thresholds
        assert thr[0] == np.inf and np.all(np.isfinite(thr[1:]))
        assert np.all(np.diff(thr) < 0)
        assert np.all(np.diff(curve.pfa) >= 0) and np.all(np.diff(curve.pd) >= 0)
        assert (curve.pfa[0], curve.pd[0]) == (0.0, 0.0)
        assert (curve.pfa[-1], curve.pd[-1]) == (1.0, 1.0)
        for scores, rates, held, n in ((s0, curve.pfa, curve.h0_counts, curve.n_h0),
                                       (s1, curve.pd, curve.h1_counts, curve.n_h1)):
            counts = np.array([np.sum(np.asarray(scores) >= tau) for tau in thr])
            assert held.dtype.kind == "i" and held[-1] == n == len(scores)
            np.testing.assert_array_equal(held, counts)
            np.testing.assert_array_equal(rates, counts / len(scores))

    def test_query_helpers(self):
        curve = empirical_roc_from_scores([1.0, 2.0, 3.0, 4.0], [3.5, 4.5, 5.0])
        assert pfa_at_pd(curve, 1.0) == 0.25
        assert 0 < pd_at_pfa(curve, 0.1) <= 1


class TestRunRoc:
    CFG = dict(snr_db=16.0, n_h0=4000, n_h1=4000, seed=5,
               detectors=("GPMF", "GLRT"))

    def test_basic_shape_and_sanity(self):
        curves = run_roc(ExperimentConfig(**self.CFG))
        assert [c.detector for c in curves] == ["GPMF", "GLRT"]
        for c in curves:
            assert c.n_h0 == 4000 and c.n_h1 == 4000
            assert 0 <= pd_at_pfa(c, 0.1) <= 1
        # at this SNR the GLRT is a strong detector
        assert pd_at_pfa(curves[1], 0.1) > 0.9

    def test_reproducible(self):
        a = run_roc(ExperimentConfig(**self.CFG))
        b = run_roc(ExperimentConfig(**self.CFG))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.thresholds, cb.thresholds)
            np.testing.assert_array_equal(ca.pd, cb.pd)

    @pytest.mark.parametrize("amplitude", [{}, {"alpha": 1.0, "snr_sweep": (5.0,)},
                                           {"snr_db": 15.0, "snr_sweep": (5.0,)},
                                           {"alpha": 1.0, "snr_db": 15.0}],
                             ids=["none", "alpha-sweep", "snr-sweep", "both"])
    def test_one_amplitude_rule(self, amplitude):
        with pytest.raises(ConfigError, match="roc needs alpha or snr_db"):
            run_roc(ExperimentConfig(n_h0=10, n_h1=10, **amplitude))

    def test_jobs_invariant(self):
        a = run_roc(ExperimentConfig(**{**self.CFG, "n_h0": 45_000,
                                        "n_h1": 1000, "jobs": 1}))
        b = run_roc(ExperimentConfig(**{**self.CFG, "n_h0": 45_000,
                                        "n_h1": 1000, "jobs": 3}))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.thresholds, cb.thresholds)
            np.testing.assert_array_equal(ca.pfa, cb.pfa)
            np.testing.assert_array_equal(ca.pd, cb.pd)

    def test_seed_changes_scores(self):
        a = run_roc(ExperimentConfig(**self.CFG))
        b = run_roc(ExperimentConfig(**{**self.CFG, "seed": 6}))
        assert not np.array_equal(a[0].thresholds, b[0].thresholds)

    def test_fixed_offset_mode(self, psf244):
        cfg = ExperimentConfig(**{**self.CFG, "eps_fixed": (0.0, 0.0),
                                  "detectors": ("GPMF",)})
        curve = run_roc(cfg)[0]
        # centered target: the pixel matched filter is the optimal test,
        # so its Pd at moderate Pfa matches the closed-form ideal curve
        pfa, pd = theoretical_pmf_roc(16.0, (0.0, 0.0), psf244)
        assert pd_at_pfa(curve, 0.1) == pytest.approx(
            float(np.interp(0.1, pfa, pd)), abs=0.03)

    def test_fractal_smoke(self):
        cfg = ExperimentConfig(noise="fractal", hurst=0.7, image_size=128,
                               alpha=0.3, n_h0=2000, n_h1=2000, seed=2,
                               detectors=("GLRT",))
        curve = run_roc(cfg)[0]
        assert curve.pfa[-1] == 1.0 and np.all(np.isfinite(curve.thresholds[1:]))

    def test_fractal_jobs_invariant(self):
        # H0 spans two chunks, so two threads gather windows at once
        cfg = ExperimentConfig(noise="fractal", hurst=0.7, image_size=128, alpha=0.3,
                               n_h0=harness._CHUNK + 1, n_h1=500, seed=3,
                               detectors=("GPMF", "GLRT"))
        a = run_roc(cfg)
        b = run_roc(replace(cfg, jobs=3))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.thresholds, cb.thresholds)
            np.testing.assert_array_equal(ca.pfa, cb.pfa)
            np.testing.assert_array_equal(ca.pd, cb.pd)

    def test_train_equals_test_synthesizes_image_once(self, monkeypatch, cold_background,
                                                      synthesized):
        cfg = ExperimentConfig(noise="fractal", hurst=0.7, image_size=128,
                               alpha=0.3, n_h0=500, n_h1=500, seed=2,
                               detectors=("GLRT",), train_equals_test=True)
        run_roc(cfg)
        assert synthesized == [[2, 0, 0]]
        synthesized.clear()
        reused = harness._Run(cfg)
        assert synthesized == []
        # the reused training image draws the same windows as a fresh
        # synthesis of it, served as the test image; the cold build under
        # this patch is cleared after the test (cold_background)
        synthesize = clutter.synthesize_fbm

        def train_image(*args, **kwargs):
            return synthesize(*args, **{**kwargs, "seed": [2, 0, 0]})

        monkeypatch.setattr(clutter, "synthesize_fbm", train_image)
        harness._fractal_background.cache_clear()
        fresh = harness._Run(replace(cfg, train_equals_test=False))

        def windows(run):
            return run.trials(lambda z, eps: {"z": z}, 300, 2)["z"]

        np.testing.assert_array_equal(windows(reused), windows(fresh))


def assert_curves_equal(a, b):
    assert [c.detector for c in a] == [c.detector for c in b]
    for ca, cb in zip(a, b):
        np.testing.assert_array_equal(ca.thresholds, cb.thresholds)
        np.testing.assert_array_equal(ca.pfa, cb.pfa)
        np.testing.assert_array_equal(ca.pd, cb.pd)


class TestFractalBackground:
    """harness._fractal_background: one build per background per process."""

    BASE = dict(noise="fractal", hurst=0.7, image_size=128, seed=2, w=2, ridge=1e-6,
                train_equals_test=False)
    ROC = dict(BASE, alpha=0.3, n_h0=1500, n_h1=1500, detectors=("GPMF", "GLRT"))

    def cold_roc(self, cfg):
        harness._fractal_background.cache_clear()
        return run_roc(cfg)

    def test_amplitudes_share_one_background(self, cold_background, synthesized):
        cfgs = [ExperimentConfig(**{**self.ROC, "alpha": alpha}) for alpha in (0.12, 0.3)]
        warm = [run_roc(cfg) for cfg in cfgs]
        assert synthesized == [[2, 0, 0], [2, 1, 0]]
        for cfg, curves in zip(cfgs, warm):
            assert_curves_equal(curves, self.cold_roc(cfg))
        assert not np.array_equal(warm[0][0].pd, warm[1][0].pd)

    @pytest.mark.parametrize("field, value", [
        ("hurst", 0.6), ("image_size", 64), ("seed", 3), ("w", 1), ("ridge", 1e-5),
        ("train_equals_test", True)])
    def test_each_key_field_builds_again(self, cold_background, synthesized, field, value):
        harness._Run(ExperimentConfig(**self.ROC))
        harness._Run(ExperimentConfig(**self.ROC))
        assert len(synthesized) == 2
        synthesized.clear()
        cfg = ExperimentConfig(**{**self.ROC, field: value})
        harness._Run(cfg)
        seed = cfg.seed
        assert synthesized == ([[seed, 0, 0]] if cfg.train_equals_test
                               else [[seed, 0, 0], [seed, 1, 0]])

    def test_cached_arrays_are_read_only(self, cold_background):
        run = harness._Run(ExperimentConfig(**self.ROC))
        cov, sigma_eff, image = harness._fractal_background(0.7, 128, 2, 2, 1e-6, False)
        assert image is run.image and sigma_eff == run.sigma_eff
        assert run.bound.cov is cov
        before = image.copy()
        with pytest.raises(ValueError, match="read-only"):
            image[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            image -= 1.0
        with pytest.raises(ValueError, match="read-only"):
            cov._factor[0][0, 0] = 1.0
        np.testing.assert_array_equal(image, before)

    def test_a_new_key_frees_the_old_image_first(self, cold_background, monkeypatch):
        # runs on one background after another hold one image at a time,
        # as cold runs do: the old one is gone before the next is made
        harness._Run(ExperimentConfig(**self.ROC))
        old = weakref.ref(harness._fractal_background(0.7, 128, 2, 2, 1e-6, False)[2])
        alive = []
        synthesize = clutter.synthesize_fbm

        def checking(*args, **kwargs):
            alive.append(old() is not None)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(clutter, "synthesize_fbm", checking)
        harness._Run(ExperimentConfig(**{**self.ROC, "seed": 3}))
        assert alive == [False, False]

    def test_jobs_on_warm_cache_match_one_job_cold(self, cold_background, synthesized):
        # H0 spans two chunks, so two threads gather from the shared image
        cfg = ExperimentConfig(**{**self.ROC, "n_h0": harness._CHUNK + 1, "n_h1": 500})
        cold = run_roc(cfg)
        synthesized.clear()
        assert_curves_equal(run_roc(replace(cfg, jobs=3)), cold)
        assert synthesized == []

    def test_mse_reuses_the_roc_background(self, cold_background, synthesized):
        mse_cfg = ExperimentConfig(**self.BASE, snr_sweep=(10.0, 20.0), n_trials=800,
                                   estimators=("PM", "DEFAULT"))
        run_roc(ExperimentConfig(**self.ROC))
        synthesized.clear()
        warm = run_mse(mse_cfg)
        assert synthesized == []
        harness._fractal_background.cache_clear()
        assert warm == run_mse(mse_cfg)


class TestSigmaInvariance:
    """At a given SNR, white noise of another sigma is the same run in
    other units: every window is sigma times its unit-noise window, up to
    rounding, so no score changes rank.  GPMF, GLRT and SM-GLRT are ratios
    t^2/d; ELRT and ALRT carry -log(d)/2, and d scales as 1/sigma^2.
    The thresholds of ELRT and ALRT still move, so roc reads sigma; an mse
    result would move only by rounding, so mse refuses it (UNREAD)."""

    SIGMAS = (0.7, 2.5)

    def test_roc(self):
        cfg = ExperimentConfig(snr_db=15.0, n_h0=3000, n_h1=3000, seed=3)
        ref = run_roc(cfg)
        for sigma in self.SIGMAS:
            for a, b in zip(ref, run_roc(replace(cfg, sigma=sigma)), strict=True):
                assert a.detector == b.detector
                np.testing.assert_array_equal(b.pfa, a.pfa)
                np.testing.assert_array_equal(b.pd, a.pd)
                if a.detector in ("ELRT", "ALRT"):
                    np.testing.assert_allclose(b.thresholds[1:] - a.thresholds[1:],
                                               math.log(sigma), rtol=0, atol=1e-12)
                else:
                    np.testing.assert_allclose(b.thresholds, a.thresholds, rtol=1e-11, atol=0)


class TestSubstreamLayout:
    """The documented (seed, stream, chunk) substreams, recomputed apart
    from the harness: H0 noise on stream 2, H1 noise on stream 3, MSE
    noise on stream 7 and offsets on stream 4, chunk i of sweep point si
    keyed si * 10^4 + i."""

    def white_context(self, cfg):
        psf = EffectivePsf(PsfModel(cfg.r_c), cfg.w)
        bound = bind_detectors(psf, clutter.white_covariance(cfg.sigma),
                               cfg.grid_size, cfg.subspace_order)
        alpha = {snr: snr_to_alpha(snr, cfg.sigma, average_energy_cached(cfg.r_c))
                 for snr in (cfg.snr_db, *cfg.snr_sweep) if snr is not None}
        return psf, bound, alpha

    def windows(self, cfg, psf, count, stream, chunk, alpha=None):
        rng = np.random.default_rng([cfg.seed, stream, chunk])
        noise = cfg.sigma * rng.standard_normal((count, (2 * cfg.w + 1) ** 2))
        if alpha is None:
            return noise, None
        eps = np.random.default_rng([cfg.seed, 4, chunk]).uniform(-0.5, 0.5, (count, 2))
        return alpha * render_signature_batch(psf, eps) + noise, eps

    def test_roc_streams(self):
        cfg = ExperimentConfig(snr_db=14.0, n_h0=50, n_h1=50, seed=8)
        psf, bound, alpha = self.white_context(cfg)
        h0, _ = self.windows(cfg, psf, 50, 2, 0)
        h1, _ = self.windows(cfg, psf, 50, 3, 0, alpha[14.0])
        s0, s1 = batch_scores(h0, *bound), batch_scores(h1, *bound)
        curves = run_roc(cfg)
        assert [c.detector for c in curves] == list(cfg.detectors)
        for curve in curves:
            scores = np.concatenate([s0[curve.detector], s1[curve.detector]])
            np.testing.assert_array_equal(np.unique(scores)[::-1], curve.thresholds[1:])

    def test_mse_streams(self):
        cfg = ExperimentConfig(snr_sweep=(12.0, 25.0), n_trials=60, seed=6)
        psf, bound, alpha = self.white_context(cfg)
        rows = run_mse(cfg)
        for si, snr in enumerate(cfg.snr_sweep):
            windows, eps = self.windows(cfg, psf, 60, 7, si * 10_000, alpha[snr])
            est = batch_estimates(windows, bound[0])
            for name in cfg.estimators:
                err = est[name] - eps
                row = mse_row(rows, name, snr)
                mse, bias = np.mean(err**2, axis=0), np.mean(err, axis=0)
                assert (row["mse_eps1"], row["mse_eps2"]) == (mse[0], mse[1])
                assert (row["bias_eps1"], row["bias_eps2"]) == (bias[0], bias[1])
                assert row["mse_total"] == mse.sum() and row["n_trials"] == 60


    # Trials run in blocks of _BLOCK within each chunk.  ELRT, SM-GLRT and
    # ML keep their bits when a chunk is scored in one stack; GPMF, GLRT,
    # ALRT and PM go through BLAS calls whose rounding may depend on the
    # row count of the call (OpenBLAS: the bank's last column, and the
    # small-matrix kernel below about 10^6 multiply-adds).
    EXACT = ("ELRT", "SM-GLRT", "ML")

    def check_columns(self, got, want):
        for name, column in want.items():
            if name in self.EXACT:
                np.testing.assert_array_equal(got[name], column, err_msg=name)
            else:
                # PM is an offset in [-0.5, 0.5] that can sit near 0
                np.testing.assert_allclose(got[name], column, rtol=1e-12, atol=1e-15,
                                           err_msg=name)

    def chunked_windows(self, cfg, psf, total, stream, first_chunk, alpha=None):
        """The run's windows, drawn chunk by chunk in one stack each."""
        parts = [self.windows(cfg, psf, min(harness._CHUNK, total - lo), stream,
                              first_chunk + i, alpha)
                 for i, lo in enumerate(range(0, total, harness._CHUNK))]
        eps = None if alpha is None else np.concatenate([e for _, e in parts])
        return np.concatenate([z for z, _ in parts]), eps

    def test_blocks_score_as_one_stack(self):
        n_h0 = harness._CHUNK + 3 * harness._BLOCK + 5     # two chunks, many blocks
        cfg = ExperimentConfig(snr_db=14.0, n_h0=n_h0, n_h1=2 * harness._BLOCK + 3,
                               seed=8)
        psf, bound, alpha = self.white_context(cfg)
        run = harness._Run(cfg, cfg.detectors)

        def score(z, eps):
            return batch_scores(z, run.bound, run.bound9, run.subspace)

        for total, stream, amp in ((cfg.n_h0, 2, None), (cfg.n_h1, 3, alpha[14.0])):
            windows, _ = self.chunked_windows(cfg, psf, total, stream, 0, amp)
            got = run.trials(score, total, stream, amp)
            self.check_columns(got, batch_scores(windows, *bound))

    def test_blocks_estimate_as_one_stack(self):
        cfg = ExperimentConfig(snr_sweep=(25.0,), n_trials=harness._CHUNK + 700, seed=6)
        psf, bound, alpha = self.white_context(cfg)
        run = harness._Run(cfg)

        def estimate(z, eps):
            return {"eps": eps, **batch_estimates(z, run.bound)}

        key = 10_000        # chunks of sweep point 1
        windows, eps = self.chunked_windows(cfg, psf, cfg.n_trials, 7, key, alpha[25.0])
        got = run.trials(estimate, cfg.n_trials, 7, alpha[25.0], key)
        np.testing.assert_array_equal(got.pop("eps"), eps)
        self.check_columns(got, batch_estimates(windows, bound[0]))


class TestWorkingSet:
    def test_run_roc_peak_stays_below_one_chunk_buffer(self):
        # scored as one stack, a chunk of w = 5 windows needs a
        # (_CHUNK, 401) float64 buffer of 64 MB, and its noise 19 MB more
        cfg = ExperimentConfig(r_c=0.5, w=5, snr_db=15.0, n_h0=harness._CHUNK, n_h1=1)
        tracemalloc.start()
        try:
            run_roc(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("train_equals_test", [False, True])
    def test_fractal_run_roc_peak_is_a_few_images(self, train_equals_test, cold_background):
        # the set-up holds one image and one half-plane spectrum at a
        # time: no padded copy, no whole-plane inverse, no second image.
        # The cache starts empty, so the run builds its background:
        # acceptance 7 leaves this key's train_equals_test entry behind.
        cfg = ExperimentConfig(noise="fractal", hurst=0.7, image_size=1024, alpha=0.12,
                               n_h0=600, n_h1=600, seed=1,
                               train_equals_test=train_equals_test)
        tracemalloc.start()
        try:
            run_roc(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 1024**2 * 8


class TestRunMse:
    def test_default_estimator_hits_uniform_variance(self):
        cfg = ExperimentConfig(snr_sweep=(20.0,), n_trials=20_000, seed=9,
                               estimators=("DEFAULT",))
        rows = run_mse(cfg)
        row = mse_row(rows, "DEFAULT", 20.0)
        assert row["mse_eps1"] == pytest.approx(1 / 12, rel=0.03)
        assert row["mse_eps2"] == pytest.approx(1 / 12, rel=0.03)
        assert row["mse_total"] == pytest.approx(row["mse_eps1"] + row["mse_eps2"],
                                                 rel=1e-12)
        assert abs(row["bias_eps1"]) < 0.01
        assert row["n_trials"] == 20_000

    def test_ml_beats_default_at_high_snr(self):
        cfg = ExperimentConfig(snr_sweep=(30.0,), n_trials=4000, seed=4,
                               estimators=("ML", "DEFAULT"))
        rows = run_mse(cfg)
        assert (mse_row(rows, "ML", 30.0)["mse_total"]
                < 0.5 * mse_row(rows, "DEFAULT", 30.0)["mse_total"])

    def test_sweep_rows(self):
        cfg = ExperimentConfig(snr_sweep=(10.0, 20.0), n_trials=500, seed=1,
                               estimators=("PM", "DEFAULT"))
        rows = run_mse(cfg)
        assert len(rows) == 4
        with pytest.raises(KeyError):
            mse_row(rows, "PM", 15.0)

    def test_jobs_invariant(self):
        # each point spans two chunks: keys 0, 1 and 10^4, 10^4 + 1
        cfg = ExperimentConfig(snr_sweep=(10.0, 30.0), n_trials=harness._CHUNK + 1, seed=2)
        assert run_mse(cfg) == run_mse(replace(cfg, jobs=3))

    def test_needs_some_snr(self):
        with pytest.raises(ConfigError):
            run_mse(ExperimentConfig(alpha=1.0, n_trials=10))
        with pytest.raises(ConfigError, match="mse needs snr_db or snr_sweep"):
            run_mse(ExperimentConfig(n_trials=10))
        with pytest.raises(ConfigError, match="not both"):
            run_mse(ExperimentConfig(snr_db=15.0, snr_sweep=(5.0,), n_trials=10))


class TestTheoreticalRoc:
    def test_centered_formula(self, psf244, bank244):
        pfa_grid, pd = theoretical_pmf_roc(15.0, (0.0, 0.0), psf244)
        s0 = bank244.vectors[bank244.center_index]
        alpha = snr_to_alpha(15.0, 1.0, average_energy_cached(2.44))
        deflection = alpha * float(s0 @ s0) / np.sqrt(float(s0 @ s0))
        for pfa in (1e-4, 1e-2, 0.1):
            expect = norm.sf(norm.isf(pfa) - deflection)
            assert float(np.interp(pfa, pfa_grid, pd)) == pytest.approx(expect, rel=1e-6)

    def test_mean_curve_below_ideal(self, psf244):
        pfa, ideal = theoretical_pmf_roc(15.0, (0.0, 0.0), psf244)
        _, mean = theoretical_pmf_roc(15.0, "mean", psf244)
        assert np.all(mean <= ideal + 1e-12)
        assert np.interp(1e-3, pfa, mean) < np.interp(1e-3, pfa, ideal)

    def test_monotone(self, psf244):
        pfa, pd = theoretical_pmf_roc(10.0, "mean", psf244)
        assert np.all(np.diff(pd) >= -1e-12)
        assert np.all(pd >= pfa - 1e-12)

    def test_bad_eps_star(self, psf244):
        with pytest.raises(ValueError):
            theoretical_pmf_roc(15.0, "median", psf244)


class TestCsvWriters:
    def test_roc_csv(self, tmp_path):
        curve = empirical_roc_from_scores([1.0, 2.0], [1.5], detector="GLRT")
        path = tmp_path / "roc.csv"
        write_roc_csv([curve], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["detector", "threshold", "pfa", "pd"]
        assert rows[1][0] == "GLRT" and float(rows[1][1]) == np.inf
        assert len(rows) == 1 + len(curve.thresholds)

    def test_roc_csv_bytes_match_row_writer(self, tmp_path, psf244):
        def row_writer(curves, path):
            # one csv.writer row per point, each value repr(float(.))
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["detector", "threshold", "pfa", "pd"])
                for curve in curves:
                    for tau, pfa, pd in zip(curve.thresholds, curve.pfa, curve.pd):
                        writer.writerow([curve.detector, repr(float(tau)),
                                         repr(float(pfa)), repr(float(pd))])

        rng = np.random.default_rng(0)
        s0 = np.round(rng.standard_normal(300), 1)           # ties
        s1 = np.round(rng.standard_normal(200) + 1.0, 1)
        curves = [empirical_roc_from_scores(s0, s1, "ELRT"),
                  empirical_roc_from_scores(s0 * 1e-300, s1 * 1e300, "ALRT"),
                  empirical_roc_from_scores(s0[:7], s1[:10], "SM-GLRT"),
                  empirical_roc_from_scores(rng.standard_normal(3000),
                                            rng.standard_normal(3000), "GLRT")]
        assert len(curves[-1].thresholds) > harness._CSV_ROWS    # written in slices
        assert curves[0].thresholds[0] == np.inf
        assert len(np.unique(curves[0].pfa)) < len(curves[0].pfa)
        assert len(np.unique(curves[0].pd)) < len(curves[0].pd)
        assert {(c.n_h0, c.n_h1) for c in curves} == {(300, 200), (7, 10), (3000, 3000)}
        write_roc_csv(curves, tmp_path / "fast.csv")
        row_writer(curves, tmp_path / "rows.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_mse_csv(self, tmp_path):
        cfg = ExperimentConfig(snr_sweep=(20.0,), n_trials=100, seed=0,
                               estimators=("DEFAULT",))
        rows = run_mse(cfg)
        path = tmp_path / "mse.csv"
        write_mse_csv(rows, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["estimator", "snr_db", "mse_eps1", "mse_eps2",
                           "mse_total", "bias_eps1", "bias_eps2", "n_trials"]
        assert rows[1][0] == "DEFAULT"
        assert float(rows[1][1]) == 20.0
        assert int(rows[1][7]) == 100
