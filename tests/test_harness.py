import csv

import numpy as np
import pytest
from scipy.stats import norm

from subpixdet import clutter, harness
from subpixdet.harness import (
    ConfigError, ExperimentConfig, alpha_to_snr, average_energy_cached,
    empirical_roc_from_scores, run_mse, run_roc, snr_to_alpha,
    theoretical_pmf_roc, write_mse_csv, write_roc_csv,
)


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig(snr_db=15.0)
        assert cfg.validate() is cfg

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, noise="pink").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, noise="fractal", hurst=1.5).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, sigma=-1.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig().validate()          # no amplitude anywhere
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, n_h0=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, eps_mode="jitter").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, detectors=("GLRT", "XYZ")).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, estimators=("MAP",)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(snr_db=15.0, grid_size=7).validate()

    @pytest.mark.parametrize("field, value", [
        ("snr_db", float("nan")), ("snr_db", float("inf")), ("alpha", float("nan")),
        ("sigma", float("inf")), ("snr_sweep", (10.0, float("nan"))), ("ridge", -1.0),
    ])
    def test_rejects_non_finite_and_negative_ridge(self, field, value):
        fields = {"snr_db": 15.0, field: value}
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**fields).validate()

    def test_asdict_round_trip(self):
        cfg = ExperimentConfig(snr_db=12.0, seed=3)
        assert ExperimentConfig(**cfg.asdict()) == cfg


class TestSnrConversion:
    def test_formula(self):
        # snr = 10 log10(alpha^2 E / sigma^2)
        assert snr_to_alpha(20.0, 1.0, 1.0) == pytest.approx(10.0, rel=1e-12)
        assert snr_to_alpha(0.0, 2.0, 4.0) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        for snr in (-5.0, 0.0, 16.2):
            alpha = snr_to_alpha(snr, 1.3, 0.51)
            assert alpha_to_snr(alpha, 1.3, 0.51) == pytest.approx(snr, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            snr_to_alpha(10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            snr_to_alpha(10.0, 1.0, -1.0)


class TestAverageEnergy:
    def test_aliased_design_anchor(self):
        assert average_energy_cached(2.44) == pytest.approx(0.5107, abs=2e-3)

    def test_sampled_design_anchor(self):
        assert average_energy_cached(0.5) == pytest.approx(0.0800, abs=2e-3)

    def test_cached(self):
        assert average_energy_cached(2.44) is not None
        assert average_energy_cached.cache_info().hits >= 1

    def test_cache_keyed_on_r_c_alone(self):
        average_energy_cached.cache_clear()
        average_energy_cached(2.44)
        average_energy_cached(2.44, 16)
        assert average_energy_cached.cache_info().misses == 1


class TestEmpiricalRoc:
    def test_hand_computed_example(self):
        curve = empirical_roc_from_scores([1.0, 2.0, 3.0], [2.5, 3.5])
        np.testing.assert_array_equal(curve.thresholds,
                                      [np.inf, 3.5, 3.0, 2.5, 2.0, 1.0])
        np.testing.assert_allclose(curve.pfa, [0, 0, 1 / 3, 1 / 3, 2 / 3, 1])
        np.testing.assert_allclose(curve.pd, [0, 0.5, 0.5, 1, 1, 1])
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
        assert abs(curve.pd_at_pfa(0.3) - 0.3) < 0.02

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            empirical_roc_from_scores([], [1.0])

    def test_query_helpers(self):
        curve = empirical_roc_from_scores([1.0, 2.0, 3.0, 4.0], [3.5, 4.5, 5.0])
        assert curve.pfa_at_pd(1.0) == 0.25
        assert 0 < curve.pd_at_pfa(0.1) <= 1


class TestRunRoc:
    CFG = dict(snr_db=16.0, n_h0=4000, n_h1=4000, seed=5,
               detectors=("GPMF", "GLRT"))

    def test_basic_shape_and_sanity(self):
        curves = run_roc(ExperimentConfig(**self.CFG))
        assert [c.detector for c in curves] == ["GPMF", "GLRT"]
        for c in curves:
            assert c.n_h0 == 4000 and c.n_h1 == 4000
            assert 0 <= c.pd_at_pfa(0.1) <= 1
        # at this SNR the GLRT is a strong detector
        assert curves[1].pd_at_pfa(0.1) > 0.9

    def test_reproducible(self):
        a = run_roc(ExperimentConfig(**self.CFG))
        b = run_roc(ExperimentConfig(**self.CFG))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.thresholds, cb.thresholds)
            np.testing.assert_array_equal(ca.pd, cb.pd)

    def test_jobs_invariant(self):
        a = run_roc(ExperimentConfig(**{**self.CFG, "n_h0": 45_000,
                                        "n_h1": 1000, "jobs": 1}))
        b = run_roc(ExperimentConfig(**{**self.CFG, "n_h0": 45_000,
                                        "n_h1": 1000, "jobs": 3}))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.pfa, cb.pfa)
            np.testing.assert_array_equal(ca.pd, cb.pd)

    def test_seed_changes_scores(self):
        a = run_roc(ExperimentConfig(**self.CFG))
        b = run_roc(ExperimentConfig(**{**self.CFG, "seed": 6}))
        assert not np.array_equal(a[0].thresholds, b[0].thresholds)

    def test_fixed_offset_mode(self, bank244):
        self.bank = bank244
        cfg = ExperimentConfig(**{**self.CFG, "eps_mode": "fixed",
                                  "eps_fixed": (0.0, 0.0),
                                  "detectors": ("GPMF",)})
        curve = run_roc(cfg)[0]
        # centered target: the pixel matched filter is the optimal test,
        # so its Pd at moderate Pfa matches the closed-form ideal curve
        ref = theoretical_pmf_roc(16.0, (0.0, 0.0), self.bank)
        assert curve.pd_at_pfa(0.1) == pytest.approx(
            float(ref.pd_at_pfa(0.1)), abs=0.03)

    def test_fractal_smoke(self):
        cfg = ExperimentConfig(noise="fractal", hurst=0.7, image_size=128,
                               alpha=0.3, n_h0=2000, n_h1=2000, seed=2,
                               detectors=("GLRT",))
        curve = run_roc(cfg)[0]
        assert curve.pfa[-1] == 1.0 and np.all(np.isfinite(curve.thresholds[1:]))

    def test_train_equals_test_synthesizes_image_once(self, monkeypatch):
        cfg = ExperimentConfig(noise="fractal", hurst=0.7, image_size=128,
                               alpha=0.3, n_h0=500, n_h1=500, seed=2,
                               detectors=("GLRT",), train_equals_test=True)
        seeds = []
        synthesize = clutter.synthesize_fbm

        def counting(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(clutter, "synthesize_fbm", counting)
        run_roc(cfg)
        assert seeds == [[2, 0, 0]]
        # the reused training image draws the same windows as a fresh
        # synthesis of it
        train = synthesize(cfg.hurst, cfg.image_size, seed=[2, 0, 0])
        reused = harness._WindowSource(cfg, 25, train).noise(300, 2, 0)
        fresh = harness._WindowSource(cfg, 25).noise(300, 2, 0)
        np.testing.assert_array_equal(reused, fresh)


class TestRunMse:
    def test_default_estimator_hits_uniform_variance(self):
        cfg = ExperimentConfig(snr_sweep=(20.0,), n_trials=20_000, seed=9,
                               estimators=("DEFAULT",))
        report = run_mse(cfg)
        row = report.get("DEFAULT", 20.0)
        assert row["mse_eps1"] == pytest.approx(1 / 12, rel=0.03)
        assert row["mse_eps2"] == pytest.approx(1 / 12, rel=0.03)
        assert row["mse_total"] == pytest.approx(row["mse_eps1"] + row["mse_eps2"],
                                                 rel=1e-12)
        assert abs(row["bias_eps1"]) < 0.01
        assert row["n_trials"] == 20_000

    def test_ml_beats_default_at_high_snr(self):
        cfg = ExperimentConfig(snr_sweep=(30.0,), n_trials=4000, seed=4,
                               estimators=("ML", "DEFAULT"))
        report = run_mse(cfg)
        assert (report.get("ML", 30.0)["mse_total"]
                < 0.5 * report.get("DEFAULT", 30.0)["mse_total"])

    def test_sweep_rows(self):
        cfg = ExperimentConfig(snr_sweep=(10.0, 20.0), n_trials=500, seed=1,
                               estimators=("PM", "DEFAULT"))
        report = run_mse(cfg)
        assert len(report.rows) == 4
        with pytest.raises(KeyError):
            report.get("PM", 15.0)

    def test_needs_some_snr(self):
        with pytest.raises(ConfigError):
            run_mse(ExperimentConfig(alpha=1.0, n_trials=10))


class TestTheoreticalRoc:
    def test_centered_formula(self, bank244):
        curve = theoretical_pmf_roc(15.0, (0.0, 0.0), bank244)
        s0 = bank244.vectors[bank244.center_index]
        alpha = snr_to_alpha(15.0, 1.0, average_energy_cached(2.44))
        deflection = alpha * float(s0 @ s0) / np.sqrt(float(s0 @ s0))
        for pfa in (1e-4, 1e-2, 0.1):
            expect = norm.sf(norm.isf(pfa) - deflection)
            assert float(curve.pd_at_pfa(pfa)) == pytest.approx(expect, rel=1e-6)

    def test_mean_curve_below_ideal(self, bank244):
        ideal = theoretical_pmf_roc(15.0, (0.0, 0.0), bank244)
        mean = theoretical_pmf_roc(15.0, "mean", bank244)
        assert np.all(mean.pd <= ideal.pd + 1e-12)
        assert mean.pd_at_pfa(1e-3) < ideal.pd_at_pfa(1e-3)

    def test_monotone(self, bank244):
        curve = theoretical_pmf_roc(10.0, "mean", bank244)
        assert np.all(np.diff(curve.pd) >= -1e-12)
        assert np.all(curve.pd >= curve.pfa - 1e-12)

    def test_bad_eps_star(self, bank244):
        with pytest.raises(ValueError):
            theoretical_pmf_roc(15.0, "median", bank244)


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

    def test_mse_csv(self, tmp_path):
        cfg = ExperimentConfig(snr_sweep=(20.0,), n_trials=100, seed=0,
                               estimators=("DEFAULT",))
        report = run_mse(cfg)
        path = tmp_path / "mse.csv"
        write_mse_csv(report, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["estimator", "snr_db", "mse_eps1", "mse_eps2",
                           "mse_total", "bias_eps1", "bias_eps2", "n_trials"]
        assert rows[1][0] == "DEFAULT"
        assert float(rows[1][1]) == 20.0
        assert int(rows[1][7]) == 100
