import csv
import json

import numpy as np
import pytest

from subpixdet.cli import load_config_file, main
from subpixdet.harness import ConfigError
from subpixdet.optics import PsfModel, render_signature


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_window(path, w=2, eps=(0.0, 0.0), alpha=5.0, rc=2.44, noise=None):
    sig = render_signature(PsfModel(rc), eps, w=w)
    window = alpha * sig.values
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
        ref = render_signature(PsfModel(2.44), (0.0, 0.0), w=1).values
        np.testing.assert_array_equal(vals, ref)

    def test_sweep_to_file(self, capsys, tmp_path):
        out = tmp_path / "spots.csv"
        code, _, _ = run_cli(capsys, "signature", "--sweep", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.count("# eps=") == 5

    def test_bad_offset_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "signature", "--eps", "0.7,0")
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

    def test_invalid_hurst_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "clutter", "--hurst", "1.5",
                               "--out", str(tmp_path))
        assert code == 1


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

    def test_bad_window_shape_exits_1(self, capsys, tmp_path):
        path = tmp_path / "win.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(np.ones((4, 4)).tolist())
        code, _, err = run_cli(capsys, "score", "--window", str(path))
        assert code == 1


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

    def test_unknown_key_raises(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("snr = 10\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg)

    def test_usage_error_exits_1(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
