import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from subpixdet import optics
from subpixdet.cli import (
    PRESETS, SWEEP_OFFSETS, build_parser, load_config_file, main, resolve_config,
)
from subpixdet.clutter import white_covariance
from subpixdet.detectors import DETECTOR_IDS, batch_scores, build_subspace
from subpixdet.harness import ConfigError, ExperimentConfig, theoretical_pmf_roc
from subpixdet.optics import PsfModel

from helpers import signature


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_window(path, w=2, eps=(0.0, 0.0), alpha=5.0, rc=2.44, noise=None):
    window = alpha * signature(PsfModel(rc), eps, w)
    if noise is not None:
        window = window + noise
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(window.tolist())
    return window


class TestSignature:
    def test_stdout_patch(self, capsys):
        code, out, _ = run_cli(capsys, "signature", "--eps", "0,0", "--w", "1")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        vals = np.array([[float(v) for v in row] for row in rows])
        assert vals.shape == (3, 3)
        ref = signature(PsfModel(2.44), (0.0, 0.0), w=1)
        np.testing.assert_array_equal(vals, ref)

    def test_sweep_to_file(self, capsys, tmp_path):
        out = tmp_path / "spots.csv"
        code, _, _ = run_cli(capsys, "signature", "--sweep", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.count("# eps=") == 5
        # one batch render gives each offset's single-offset patch, bit for bit
        blocks = text.split("# eps=")[1:]
        psf = optics.EffectivePsf(PsfModel(2.44), 2)
        for block, eps in zip(blocks, SWEEP_OFFSETS):
            head, *rows = block.strip().splitlines()
            assert head == f"{eps[0]},{eps[1]}"
            vals = np.array([[float(v) for v in row.split(",")] for row in rows])
            np.testing.assert_array_equal(vals, signature(psf, eps, 2))

    def test_bad_offset_exits_1(self, capsys):
        # --eps must lie in the half-open square [-0.5, 0.5[^2
        for eps in ("0.7,0", "0.5,0", "0,-0.6"):
            code, _, err = run_cli(capsys, "signature", "--eps", eps)
            assert code == 1
            assert "error" in err


class TestClutter:
    def test_outputs(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "clutter", "--size", "40", "--seed", "3",
                             "--acf", "--max-lag", "3", "--out", str(tmp_path))
        assert code == 0
        pgm = (tmp_path / "clutter.pgm").read_bytes()
        assert pgm.startswith(b"P5\n40 40\n255\n")
        with open(tmp_path / "clutter.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 40 and len(rows[0]) == 40
        with open(tmp_path / "acf.csv") as fh:
            acf = list(csv.reader(fh))
        assert len(acf) == 7

    def test_negative_max_lag_exits_1_without_output(self, capsys, tmp_path):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "clutter", "--size", "40", "--acf",
                               "--max-lag", "-1", "--out", str(out))
        assert code == 1
        assert "max_lag" in err
        assert not out.exists()

    def test_invalid_hurst_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "clutter", "--hurst", "1.5",
                               "--out", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("size", ["1", "0", "-3"])
    def test_size_below_2_exits_1_without_output(self, capsys, tmp_path, size):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "clutter", "--size", size, "--out", str(out))
        assert code == 1
        assert "--size" in err
        assert not out.exists()


class TestScore:
    def test_all_five_detectors(self, capsys, tmp_path):
        path = tmp_path / "win.csv"
        write_window(path, eps=(0.0, 0.0), alpha=8.0)
        code, out, _ = run_cli(capsys, "score", "--window", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "detector,score,alpha_hat,eps1_hat,eps2_hat"
        table = {row.split(",")[0]: row.split(",") for row in lines[1:]}
        assert set(table) == {"GPMF", "GLRT", "ELRT", "ALRT", "SM-GLRT"}
        # noiseless centered spot: GLRT finds the exact center at the
        # right amplitude, and its score equals the GPMF score
        assert float(table["GLRT"][2]) == pytest.approx(8.0, rel=1e-9)
        assert (float(table["GLRT"][3]), float(table["GLRT"][4])) == (0.0, 0.0)
        assert float(table["GLRT"][1]) == pytest.approx(float(table["GPMF"][1]),
                                                        rel=1e-12)
        # ELRT/ALRT report log scores, no amplitude or position fields
        assert table["ELRT"][2] == "" and table["ALRT"][3] == ""

    @pytest.mark.parametrize("w, rc", [(1, 2.44), (2, 2.44), (5, 0.5)])
    def test_scores_are_batch_scores(self, capsys, tmp_path, w, rc):
        # every row is the Monte Carlo's batch statistic on a batch of
        # one, bit for bit
        rng = np.random.default_rng(w)
        psf = optics.EffectivePsf(PsfModel(rc), w)
        bank = optics.build_signature_bank(psf, 20, w)
        bound = bank.bind(white_covariance(1.0, w))
        bound9 = optics.build_alrt_bank(psf, w).bind(bound.cov)
        path = tmp_path / "win.csv"
        for _ in range(10):
            window = write_window(path, w=w, eps=rng.uniform(-0.5, 0.5, 2), rc=rc,
                                  alpha=3.0, noise=rng.standard_normal((2 * w + 1,) * 2))
            code, out, _ = run_cli(capsys, "score", "--window", str(path), "--rc", str(rc))
            assert code == 0
            got = {row.split(",")[0]: float(row.split(",")[1])
                   for row in out.strip().splitlines()[1:]}
            expect = batch_scores(window.reshape(1, -1), bound, bound9,
                                  build_subspace(bank, 1), DETECTOR_IDS)
            assert got == {det: expect[det][0] for det in DETECTOR_IDS}

    def test_acf_covariance_path(self, capsys, tmp_path):
        path = tmp_path / "win.csv"
        write_window(path, alpha=3.0)
        acf = np.zeros((9, 9))
        acf[4, 4] = 1.0
        acf_path = tmp_path / "acf.csv"
        with open(acf_path, "w", newline="") as fh:
            csv.writer(fh).writerows(acf.tolist())
        code, out, _ = run_cli(capsys, "score", "--window", str(path),
                               "--acf-file", str(acf_path))
        assert code == 0
        assert "GPMF" in out

    def test_indefinite_acf_exits_2(self, capsys, tmp_path):
        path = tmp_path / "win.csv"
        write_window(path, w=1)
        acf = np.zeros((5, 5))
        acf[2, 2] = 1.0
        acf[2, 1] = acf[2, 3] = acf[1, 2] = acf[3, 2] = 0.9
        acf[1, 1] = acf[3, 3] = acf[1, 3] = acf[3, 1] = -0.8
        acf_path = tmp_path / "acf.csv"
        with open(acf_path, "w", newline="") as fh:
            csv.writer(fh).writerows(acf.tolist())
        code, _, err = run_cli(capsys, "score", "--window", str(path),
                               "--acf-file", str(acf_path), "--ridge", "1e-9")
        assert code == 2
        assert "numerical error" in err

    def test_negative_ridge_exits_1(self, capsys, tmp_path):
        path = tmp_path / "win.csv"
        write_window(path, w=1)
        acf_path = tmp_path / "acf.csv"
        with open(acf_path, "w", newline="") as fh:
            csv.writer(fh).writerows(np.eye(5).tolist())
        code, _, err = run_cli(capsys, "score", "--window", str(path),
                               "--acf-file", str(acf_path), "--ridge", "-1")
        assert code == 1
        assert "ridge" in err

    def test_missing_window_exits_1(self, capsys, tmp_path):
        path = tmp_path / "no-such.csv"
        code, out, err = run_cli(capsys, "score", "--window", str(path))
        assert code == 1
        assert str(path) in err and out == ""

    def test_bad_window_shape_exits_1(self, capsys, tmp_path):
        path = tmp_path / "win.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(np.ones((4, 4)).tolist())
        code, _, err = run_cli(capsys, "score", "--window", str(path))
        assert code == 1


@pytest.mark.parametrize("command", ["score", "estimate"])
class TestNonFiniteWindow:
    def test_nan_entry_exits_1(self, capsys, tmp_path, command):
        path = tmp_path / "win.csv"
        window = np.zeros((5, 5))
        window[1, 3] = np.nan
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(window.tolist())
        code, out, err = run_cli(capsys, command, "--window", str(path))
        assert code == 1
        assert str(path) in err and "finite" in err
        assert out == ""

    def test_overflowing_window_exits_2(self, capsys, tmp_path, command):
        # finite entries whose t^2 overflows
        path = tmp_path / "win.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(np.full((5, 5), 1e200).tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, err = run_cli(capsys, command, "--window", str(path))
        assert code == 2
        assert "numerical error" in err and str(path) in err
        assert out == ""


BAD_TABLES = {
    "text": "0,0,0\n0,abc,0\n0,0,0\n",
    "ragged": "0,0,0\n0,0\n0,0,0\n",
    "non-square": "0,0,0\n" * 2 + "0,1,0\n" + "0,0,0\n" * 2,   # 5 x 3
}


@pytest.mark.parametrize("defect", sorted(BAD_TABLES))
@pytest.mark.parametrize("which", ["--window", "--acf-file"])
def test_bad_input_file_exits_1_naming_it(capsys, tmp_path, which, defect):
    window = tmp_path / "win.csv"
    write_window(window, w=1)
    bad = tmp_path / "bad.csv"
    bad.write_text(BAD_TABLES[defect])
    argv = ["score", "--window", str(window), "--acf-file", str(bad)]
    if which == "--window":
        argv = ["score", "--window", str(bad)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}")


class TestEstimate:
    def test_three_estimators(self, capsys, tmp_path):
        path = tmp_path / "win.csv"
        write_window(path, eps=(0.225, -0.125), alpha=50.0)
        code, out, _ = run_cli(capsys, "estimate", "--window", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "estimator,eps1,eps2,alpha_hat"
        table = {row.split(",")[0]: row.split(",") for row in lines[1:]}
        assert set(table) == {"ML", "PM", "DEFAULT"}
        assert float(table["ML"][1]) == pytest.approx(0.225, abs=1e-12)
        assert float(table["ML"][2]) == pytest.approx(-0.125, abs=1e-12)
        assert (float(table["DEFAULT"][1]), float(table["DEFAULT"][2])) == (0, 0)
        assert table["PM"][3] == ""           # amplitude marginalized out


class TestRocCommand:
    ARGS = ("roc", "--snr-db", "16", "--n-h0", "1500", "--n-h1", "1500",
            "--detectors", "GPMF,GLRT", "--seed", "7")

    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *self.ARGS, "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "roc.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["detector", "threshold", "pfa", "pd"]
        assert {r[0] for r in rows[1:]} == {"GPMF", "GLRT"}
        manifest = json.loads((tmp_path / "meta.json").read_text())
        assert manifest["tool"] == "subpixdet"
        assert manifest["config"]["snr_db"] == 16.0
        assert manifest["config"]["seed"] == 7
        assert manifest["outputs"] == [str(tmp_path / "roc.csv")]

    def test_replay_from_manifest(self, capsys, tmp_path):
        run_cli(capsys, *self.ARGS, "--out", str(tmp_path / "a"))
        code, _, _ = run_cli(capsys, "roc", "--config",
                             str(tmp_path / "a" / "meta.json"),
                             "--out", str(tmp_path / "b"))
        assert code == 0
        assert ((tmp_path / "a" / "roc.csv").read_text()
                == (tmp_path / "b" / "roc.csv").read_text())

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snr_db = 10    # comment\nn_h0 = 800\nn_h1 = 800\n"
                       "detectors = GPMF\nseed = 2\n")
        code, _, _ = run_cli(capsys, "roc", "--config", str(cfg),
                             "--snr-db", "18", "--out", str(tmp_path))
        assert code == 0
        manifest = json.loads((tmp_path / "meta.json").read_text())
        assert manifest["config"]["snr_db"] == 18.0
        assert manifest["config"]["n_h0"] == 800

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_resolves_through_its_command(self, name):
        preset = dict(PRESETS[name])
        kind = preset.pop("kind")
        args = build_parser().parse_args([kind, "--preset", name])
        config = resolve_config(args, kind)
        assert {key: getattr(config, key) for key in preset} == preset

    def test_unknown_preset_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "roc", "--preset", "fig99",
                               "--out", str(tmp_path))
        assert code == 1

    def test_wrong_kind_preset_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "mse", "--preset", "fig5-high",
                               "--out", str(tmp_path))
        assert code == 1

    def test_nan_snr_exits_1_without_output(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "roc", "--snr-db", "nan", "--n-h0", "200",
                               "--n-h1", "200", "--out", str(tmp_path))
        assert code == 1
        assert "snr_db" in err
        assert not (tmp_path / "roc.csv").exists()

    def test_negative_ridge_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "roc", "--preset", "fig7", "--ridge", "-1",
                               "--out", str(tmp_path))
        assert code == 1
        assert "ridge" in err
        assert not (tmp_path / "roc.csv").exists()

    def test_bad_config_line_reports_lineno(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("snr_db = 10\nwhat is this\n")
        code, _, err = run_cli(capsys, "roc", "--config", str(cfg),
                               "--out", str(tmp_path))
        assert code == 1
        assert "bad.cfg:2" in err


class TestMseCommand:
    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "mse", "--snr-sweep", "15,25",
                             "--n-trials", "400", "--estimators", "ML,DEFAULT",
                             "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "mse.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "estimator"
        assert len(rows) == 1 + 4                # 2 estimators x 2 SNRs
        assert (tmp_path / "meta.json").exists()


class TestTheoreticalRoc:
    def test_trio(self, capsys):
        code, out, _ = run_cli(capsys, "theoretical-roc", "--snr-db", "15")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "curve,pfa,pd"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"ideal", "worst-corner", "mean"}

    def test_fixed_offset(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "theoretical-roc", "--snr-db", "15",
                             "--eps", "0.2,0.3", "--out", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert {r[0] for r in rows[1:]} == {"fixed"}

    @pytest.mark.parametrize("argv", [
        ("--snr-db", "nan"), ("--snr-db", "inf"), ("--snr-db", "15", "--sigma", "inf"),
    ], ids=["snr-nan", "snr-inf", "sigma-inf"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_non_finite_input_exits_1_without_output(self, capsys, tmp_path, argv,
                                                     to_file):
        out_path = tmp_path / "t.csv"
        extra = ("--out", str(out_path)) if to_file else ()
        code, out, err = run_cli(capsys, "theoretical-roc", *argv, *extra)
        assert code == 1
        assert "must be finite" in err
        assert out == ""
        assert not out_path.exists()

    def test_builds_one_table(self, capsys, monkeypatch):
        builds = []
        init = optics.EffectivePsf.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(optics.EffectivePsf, "__init__", counting)
        code, out, _ = run_cli(capsys, "theoretical-roc", "--snr-db", "15")
        assert code == 0
        assert len(builds) == 1
        # the same bytes as each curve rendered through a table of its own
        monkeypatch.setattr(optics.EffectivePsf, "__init__", init)
        lines = ["curve,pfa,pd"]
        for name, eps_star in [("ideal", (0.0, 0.0)), ("worst-corner", (0.5, 0.5)),
                               ("mean", "mean")]:
            bank = optics.build_signature_bank(PsfModel(2.44), 20, 2)
            curve = theoretical_pmf_roc(15.0, eps_star, bank)
            lines += [f"{name},{float(pfa)!r},{float(pd)!r}"
                      for pfa, pd in zip(curve.pfa, curve.pd)]
        assert out == "\n".join(lines) + "\n"
        # every field parses back as a number
        rows = list(csv.reader(out.splitlines()[1:]))
        assert len(rows) == 3 * 161
        assert all(np.isfinite([float(pfa), float(pd)]).all() for _, pfa, pd in rows)

    def test_rejects_fractal(self, capsys):
        code, _, err = run_cli(capsys, "theoretical-roc", "--snr-db", "15",
                               "--noise", "fractal")
        assert code == 1


class TestConfigHelpers:
    def test_load_key_value_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("snr_sweep = 5, 10, 15\ntrain_equals_test = true\n"
                       "noise = fractal\nhurst = 0.7\n")
        values = load_config_file(cfg)
        assert values["snr_sweep"] == (5.0, 10.0, 15.0)
        assert values["train_equals_test"] is True
        assert values["noise"] == "fractal"

    @pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_field_default_round_trips(self, tmp_path, field):
        # every field's flag and config-file key parse its default back,
        # with the annotated type (snr_db and alpha default to None, which
        # has no text form, so a value of their type stands in)
        value = field.default if field.default is not None else 12.5
        if isinstance(value, bool):
            text = str(value).lower()
        elif isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:
            text = str(value)
        args = build_parser().parse_args(["roc", "--" + field.name.replace("_", "-"), text])
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{field.name} = {text}\n")
        for parsed in (getattr(args, field.name), load_config_file(cfg)[field.name]):
            assert parsed == value
            assert type(parsed) is type(value)
            if isinstance(value, tuple):
                assert [type(v) for v in parsed] == [type(v) for v in value]

    def test_unknown_key_raises(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("snr = 10\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg)

    def test_q_is_neither_key_nor_flag(self, capsys, tmp_path):
        # the quadrature order of the retired renderer: a key=value file
        # holding it exits 1 naming the key, and --q is not a flag
        cfg = tmp_path / "c.cfg"
        cfg.write_text("snr_db = 15\nq = 16\n")
        code, _, err = run_cli(capsys, "roc", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 1
        assert "c.cfg:2: unknown config key 'q'" in err
        assert main(["roc", "--snr-db", "15", "--q", "16", "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "roc.csv").exists()

    def test_manifest_with_q_replays(self, capsys, tmp_path):
        # manifests written while q was a config field still replay
        args = ("roc", "--snr-db", "16", "--n-h0", "300", "--n-h1", "300",
                "--detectors", "GPMF,ELRT", "--seed", "4")
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        meta = tmp_path / "a" / "meta.json"
        manifest = json.loads(meta.read_text())
        assert "q" not in manifest["config"]
        manifest["config"]["q"] = 16
        meta.write_text(json.dumps(manifest))
        assert main(["roc", "--config", str(meta), "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "roc.csv").read_bytes()
                == (tmp_path / "b" / "roc.csv").read_bytes())

    @pytest.mark.parametrize("argv", [
        ("signature", "--rc", "inf"),
        ("theoretical-roc", "--snr-db", "15", "--rc", "inf"),
        ("roc", "--alpha", "1", "--r-c", "inf", "--n-h0", "200", "--n-h1", "200"),
    ], ids=lambda argv: argv[0])
    def test_non_finite_r_c_exits_1(self, capsys, tmp_path, argv):
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert "r_c must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, field", [
        (("roc", "--snr-db", "15", "--n-h0", "50", "--n-h1", "50", "--detectors", ""),
         "detectors"),
        (("mse", "--snr-db", "10", "--n-trials", "50", "--estimators", ""), "estimators"),
        (("mse", "--snr-db", "20", "--n-trials", "50", "--eps-mode", "fixed",
          "--eps-fixed", "0.1,0.2,0.3"), "eps_fixed"),
        (("mse", "--snr-db", "20", "--n-trials", "50", "--eps-mode", "fixed",
          "--eps-fixed", "0.1"), "eps_fixed"),
    ], ids=["no-detectors", "no-estimators", "three-offsets", "one-offset"])
    def test_bad_selection_exits_1_without_output(self, capsys, tmp_path, argv, field):
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert field in err
        assert not (tmp_path / "out").exists()

    def test_usage_error_exits_1(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about half a second of the import
    code = "import sys, subpixdet.cli; print('scipy.stats' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert res.stdout.strip() == "False"
