import argparse
import csv
import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy

from subpixdet import clutter, harness, optics
from subpixdet.cli import (
    PRESETS, SWEEP_OFFSETS, build_parser, load_config_file, main, resolve_config,
)
from subpixdet.clutter import white_covariance
from subpixdet.detectors import DETECTOR_IDS, batch_scores, build_subspace
from subpixdet.harness import ConfigError, ExperimentConfig, theoretical_pmf_roc
from subpixdet.optics import PsfModel

from helpers import signature


# the fields each subcommand reads, which are its field flags
RUN_FIELDS = {"r_c", "w", "grid_size", "noise", "hurst", "image_size", "snr_db",
              "seed", "eps_fixed", "ridge", "train_equals_test", "jobs"}
FIELD_FLAGS = {
    "signature": {"r_c", "w", "eps_fixed"},
    "clutter": {"hurst", "seed"},
    "score": {"r_c", "grid_size", "sigma", "ridge"},
    "estimate": {"r_c", "grid_size", "sigma", "ridge"},
    "roc": RUN_FIELDS | {"sigma", "alpha", "n_h0", "n_h1", "detectors", "subspace_order"},
    "mse": RUN_FIELDS | {"n_trials", "snr_sweep", "estimators"},
    "theoretical-roc": {"snr_db", "r_c", "w", "grid_size", "eps_fixed"},
}


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
        # the comment lines end as csv.writer's rows do
        lines = out.read_bytes().splitlines(keepends=True)
        assert all(line.endswith(b"\r\n") for line in lines)
        # one batch render gives each offset's single-offset patch, bit for bit
        blocks = text.split("# eps=")[1:]
        psf = optics.EffectivePsf(PsfModel(2.44), 2)
        for block, eps in zip(blocks, SWEEP_OFFSETS):
            head, *rows = block.strip().splitlines()
            assert head == f"{eps[0]},{eps[1]}"
            vals = np.array([[float(v) for v in row.split(",")] for row in rows])
            np.testing.assert_array_equal(vals, psf.render([eps]).reshape(5, 5))

    def test_bad_offset_exits_1(self, capsys):
        # --eps-fixed must lie in the closed square [-0.5, 0.5]^2, as the
        # eps_fixed of a roc or mse run must
        for eps in ("0.7,0", "0,-0.6"):
            code, _, err = run_cli(capsys, "signature", "--eps-fixed", eps)
            assert code == 1
            assert "error" in err
        code, out, _ = run_cli(capsys, "signature", "--eps-fixed", "0.5,0")
        assert code == 0
        vals = np.array([[float(v) for v in row.split(",")] for row in out.splitlines()])
        psf = optics.EffectivePsf(PsfModel(2.44), 2)
        np.testing.assert_array_equal(vals, psf.render([(0.5, 0.0)]).reshape(5, 5))

    def test_closed_stdout_exits_141_quietly(self):
        # the sweep at w = 40 writes 734 KB, more than a pipe buffer holds,
        # so the write fails however soon the reader closes
        with subprocess.Popen(
                [sys.executable, "-m", "subpixdet.cli", "signature", "--r-c", "0.5", "--w", "40",
                 "--sweep"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}) as proc:
            assert proc.stdout.readline().startswith(b"# eps=")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait() == 141
        assert err == b""


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

    def test_negative_seed_exits_1_before_synthesis(self, capsys, tmp_path, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("synthesize_fbm called")

        monkeypatch.setattr(clutter, "synthesize_fbm", refused)
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, "clutter", "--seed", "-1", "--out", str(out))
        assert code == 1
        assert err.strip() == "error: seed must be >= 0, got -1"
        assert stdout == ""
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
        bank = optics.build_signature_bank(psf, 20)
        bound = bank.bind(white_covariance(1.0))
        bound9 = optics.build_alrt_bank(psf).bind(bound.cov)
        path = tmp_path / "win.csv"
        for _ in range(10):
            window = write_window(path, w=w, eps=rng.uniform(-0.5, 0.5, 2), rc=rc,
                                  alpha=3.0, noise=rng.standard_normal((2 * w + 1,) * 2))
            code, out, _ = run_cli(capsys, "score", "--window", str(path), "--r-c", str(rc))
            assert code == 0
            got = {row.split(",")[0]: float(row.split(",")[1])
                   for row in out.strip().splitlines()[1:]}
            expect = batch_scores(window.reshape(1, -1), bound, bound9,
                                  build_subspace(bank, 1), DETECTOR_IDS)
            assert got == {det: expect[det][0] for det in DETECTOR_IDS}

    def test_blank_rows_are_skipped(self, capsys, tmp_path):
        path = tmp_path / "win.csv"
        write_window(path, alpha=3.0, noise=np.random.default_rng(0).standard_normal((5, 5)))
        plain = run_cli(capsys, "score", "--window", str(path))
        assert plain[0] == 0
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\n\n".join(lines) + "\n\n")
        assert run_cli(capsys, "score", "--window", str(path)) == plain

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
        code, out, err = run_cli(capsys, "score", "--window", str(path),
                                 "--acf-file", str(acf_path), "--ridge", "1e-9")
        assert code == 2 and out == ""
        assert err.startswith(f"numerical error: {acf_path}: window covariance not "
                              "positive definite") and err.count("\n") == 1

    def test_acf_of_too_few_lags_exits_1_naming_it(self, capsys, tmp_path):
        # a 3 x 3 table covers lags up to 1; a w = 1 window needs 2
        path = tmp_path / "w3.csv"
        write_window(path, w=1)
        code, out, err = run_cli(capsys, "score", "--window", str(path), "--acf-file", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}: acf covers lags up to 1, need 2\n"

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

    @pytest.mark.parametrize("command", ["score", "estimate"])
    @pytest.mark.parametrize("flags", [("--acf-file", "ACF", "--sigma", "3"), ("--ridge", "0.5")],
                             ids=["sigma-with-acf", "ridge-without-acf"])
    def test_flag_of_the_other_noise_exits_1(self, capsys, tmp_path, command, flags):
        # --sigma is the white noise's level and --ridge regularizes the
        # --acf-file covariance; each is refused where the other noise is read
        path = tmp_path / "win.csv"
        write_window(path, w=1)
        acf_path = tmp_path / "acf.csv"
        with open(acf_path, "w", newline="") as fh:
            csv.writer(fh).writerows(np.eye(5).tolist())
        argv = [str(acf_path) if flag == "ACF" else flag for flag in flags]
        code, out, err = run_cli(capsys, command, "--window", str(path), *argv)
        assert code == 1 and out == ""
        assert err == "error: --sigma applies without --acf-file, and --ridge with it\n"

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
            warnings.simplefilter("error")      # one message, no numpy warning before it
            code, out, err = run_cli(capsys, command, "--window", str(path))
        assert code == 2
        assert err.startswith(f"numerical error: {path}") and err.count("\n") == 1
        assert out == ""


BAD_TABLES = {
    "text": "0,0,0\n0,abc,0\n0,0,0\n",
    "ragged": "0,0,0\n0,0\n0,0,0\n",
    "non-square": "0,0,0\n" * 2 + "0,1,0\n" + "0,0,0\n" * 2,   # 5 x 3
    "empty": "",
    "trailing-comma": "0,0,0,\n0,1,0,\n0,0,0,\n",
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
    assert err.startswith(f"error: {bad}") and err.count("\n") == 1
    assert err.count(str(bad)) == 1


@pytest.mark.parametrize("which, what", [("--window", "window"),
                                         ("--acf-file", "autocovariance table")])
def test_empty_input_file_is_one_clean_line(capsys, tmp_path, which, what):
    window = tmp_path / "win.csv"
    write_window(window, w=1)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    argv = {"--window": ["--window", str(empty)],
            "--acf-file": ["--window", str(window), "--acf-file", str(empty)]}[which]
    assert run_cli(capsys, "score", *argv) == (1, "", f"error: {empty}: {what} holds no data\n")


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


class TestRemoveMean:
    @pytest.mark.parametrize("command", ["score", "estimate"])
    def test_prints_the_centred_window(self, capsys, tmp_path, command):
        # --remove-mean prints the bytes the command prints for the window
        # minus its mean, written with repr floats
        rng = np.random.default_rng(4)
        window = write_window(tmp_path / "win.csv", eps=(0.1, -0.3), alpha=5.0,
                              noise=rng.standard_normal((5, 5)) + 3.0)
        with open(tmp_path / "centred.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([repr(v) for v in row]
                                     for row in (window - window.mean()).tolist())
        outputs = [run_cli(capsys, command, "--window", str(tmp_path / name), *flags)
                   for name, flags in (("win.csv", ("--remove-mean",)), ("centred.csv", ()),
                                       ("win.csv", ()))]
        assert [code for code, _, _ in outputs] == [0, 0, 0]
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][1] != outputs[2][1]


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
        manifest = json.loads((tmp_path / "a" / "meta.json").read_text())
        if sys.platform != "win32":
            # the process peak, which the replay reads past as it does
            # every key outside "config"
            assert manifest["peak_rss_mb"] > 0
        # what the bits depend on besides the config, also read past
        libraries = manifest["libraries"]
        assert libraries["numpy"] == np.__version__
        assert libraries["scipy"] == scipy.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert libraries["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert libraries["threads"] == {
            name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        code, _, _ = run_cli(capsys, "roc", "--config",
                             str(tmp_path / "a" / "meta.json"),
                             "--out", str(tmp_path / "b"))
        assert code == 0
        assert ((tmp_path / "a" / "roc.csv").read_bytes()
                == (tmp_path / "b" / "roc.csv").read_bytes())

    @pytest.mark.parametrize("text, value", [
        ("yes", True), ("true", True), ("1", True), ("no", False), ("false", False),
        ("0", False), ("maybe", None)])
    def test_train_equals_test_flag(self, capsys, tmp_path, text, value):
        code, _, err = run_cli(
            capsys, "roc", "--noise", "fractal", "--image-size", "32", "--alpha", "0.3",
            "--n-h0", "100", "--n-h1", "100", "--detectors", "GPMF",
            "--train-equals-test", text, "--out", str(tmp_path))
        if value is None:
            assert code == 1
            assert "invalid bool value: 'maybe'" in err
            assert not (tmp_path / "meta.json").exists()
        else:
            assert code == 0
            manifest = json.loads((tmp_path / "meta.json").read_text())
            assert manifest["config"]["train_equals_test"] is value

    def test_fractal_replay_in_a_fresh_process(self, capsys, tmp_path, cold_background):
        # a cold and a warm background in this process, and a replay of
        # the manifest in a process of its own, write the same bytes
        argv = ("roc", "--noise", "fractal", "--image-size", "128", "--alpha", "0.3",
                "--n-h0", "2000", "--n-h1", "2000", "--detectors", "GPMF,GLRT", "--seed", "4")
        for name in ("cold", "warm"):
            assert run_cli(capsys, *argv, "--out", str(tmp_path / name))[0] == 0
        subprocess.run([sys.executable, "-m", "subpixdet.cli", "roc", "--config",
                        str(tmp_path / "cold" / "meta.json"), "--out", str(tmp_path / "replay")],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        cold = (tmp_path / "cold" / "roc.csv").read_bytes()
        assert cold.count(b"\n") > 2000
        for name in ("warm", "replay"):
            assert (tmp_path / name / "roc.csv").read_bytes() == cold

    def test_duration_ignores_a_wall_clock_step(self, capsys, tmp_path, monkeypatch):
        # the wall clock steps back an hour after its first read, as an
        # NTP adjustment during a run would
        wall = time.time
        reads = []

        def stepping():
            reads.append(None)
            return wall() - (3600.0 if len(reads) > 1 else 0.0)

        monkeypatch.setattr(time, "time", stepping)
        assert run_cli(capsys, *self.ARGS, "--out", str(tmp_path))[0] == 0
        manifest = json.loads((tmp_path / "meta.json").read_text())
        assert 0 <= manifest["duration_seconds"] < 3600

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"snr_db": 10, "n_h0": 800, "n_h1": 800,
                                   "detectors": ["GPMF"], "seed": 2}))
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


def test_runs_build_only_the_banks_their_detectors_read(capsys, monkeypatch, tmp_path):
    calls = []
    for name in ("build_alrt_bank", "build_subspace"):
        def counting(*args, name=name, original=getattr(harness, name), **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    window = tmp_path / "win.csv"
    write_window(window)
    runs = {"roc": ("roc", "--snr-db", "15", "--n-h0", "200", "--n-h1", "200"),
            "mse": ("mse", "--snr-db", "15", "--n-trials", "200")}
    for argv in ((*runs["roc"], "--detectors", "GPMF,GLRT"), runs["mse"]):
        assert run_cli(capsys, *argv, "--out", str(tmp_path / argv[0]))[0] == 0
    assert run_cli(capsys, "estimate", "--window", str(window))[0] == 0
    assert calls == []
    # each is built for the one detector that reads it, and score runs all five
    for det, name in (("ALRT", "build_alrt_bank"), ("SM-GLRT", "build_subspace")):
        assert run_cli(capsys, *runs["roc"], "--detectors", det, "--out", str(tmp_path))[0] == 0
        assert calls == [name]
        calls.clear()
    assert run_cli(capsys, "score", "--window", str(window))[0] == 0
    assert calls == ["build_alrt_bank", "build_subspace"]


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
        # only the mean curve reads the offset grid, so --grid-size is
        # refused together with --eps-fixed, before any output
        grid_path = tmp_path / "g.csv"
        code, out, err = run_cli(capsys, "theoretical-roc", "--snr-db", "15", "--eps",
                                 "0.2,0.3", "--grid-size", "10", "--out", str(grid_path))
        assert code == 1 and out == ""
        assert err == "error: theoretical-roc takes --grid-size or --eps-fixed, not both\n"
        assert not grid_path.exists()

    # the subcommand has no --sigma, so argparse refuses a non-finite one
    # as it refuses any other value, before any model code
    @pytest.mark.parametrize("argv, message", [
        (("--snr-db", "nan"), "must be finite"), (("--snr-db", "inf"), "must be finite"),
        (("--snr-db", "15", "--sigma", "inf"), "unrecognized arguments: --sigma"),
    ], ids=["snr-nan", "snr-inf", "sigma-inf"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_non_finite_input_exits_1_without_output(self, capsys, tmp_path, argv,
                                                     message, to_file):
        out_path = tmp_path / "t.csv"
        extra = ("--out", str(out_path)) if to_file else ()
        code, out, err = run_cli(capsys, "theoretical-roc", *argv, *extra)
        assert code == 1
        assert message in err
        assert out == ""
        assert not out_path.exists()

    def test_builds_one_table(self, capsys, monkeypatch):
        # one table per design and process: two theoretical-roc calls and
        # a signature call at the same design build it once between them
        optics.effective_psf.cache_clear()
        builds = []
        init = optics.EffectivePsf.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(optics.EffectivePsf, "__init__", counting)
        code, out, _ = run_cli(capsys, "theoretical-roc", "--snr-db", "15")
        assert code == 0
        assert run_cli(capsys, "theoretical-roc", "--snr-db", "15") == (0, out, "")
        assert run_cli(capsys, "signature")[0] == 0
        assert len(builds) == 1
        # the same bytes as each curve rendered through a table of its own
        monkeypatch.setattr(optics.EffectivePsf, "__init__", init)
        lines = ["curve,pfa,pd"]
        for name, eps_star in [("ideal", (0.0, 0.0)), ("worst-corner", (0.5, 0.5)),
                               ("mean", "mean")]:
            pfa_grid, pd_grid = theoretical_pmf_roc(15.0, eps_star,
                                                    optics.EffectivePsf(PsfModel(2.44), 2))
            lines += [f"{name},{float(pfa)!r},{float(pd)!r}"
                      for pfa, pd in zip(pfa_grid, pd_grid)]
        assert out == "\n".join(lines) + "\n"
        # every field parses back as a number
        rows = list(csv.reader(out.splitlines()[1:]))
        assert len(rows) == 3 * 161
        assert all(np.isfinite([float(pfa), float(pd)]).all() for _, pfa, pd in rows)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_missing_snr_db_exits_1_without_output(self, capsys, tmp_path, to_file):
        out_path = tmp_path / "t.csv"
        extra = ("--out", str(out_path)) if to_file else ()
        code, out, err = run_cli(capsys, "theoretical-roc", *extra)
        assert code == 1
        assert "--snr-db" in err
        assert out == ""
        assert not out_path.exists()

    def test_has_no_noise_flag(self, capsys):
        # the closed form is white-noise only, so the subcommand takes no
        # --noise at all, and at a given SNR a white-noise ROC does not
        # depend on sigma, so no --sigma either: argparse refuses both
        # flags before any model code
        for flag, value in (("--noise", "fractal"), ("--sigma", "2")):
            code, out, err = run_cli(capsys, "theoretical-roc", "--snr-db", "15", flag, value)
            assert code == 1
            assert f"unrecognized arguments: {flag}" in err
            assert out == ""


class TestConfigHelpers:
    @pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
    def test_field_default_round_trips(self, tmp_path, field):
        # every field's flag, on a run subcommand that reads the field, and
        # its JSON key, flat and in a manifest, parse its default back,
        # with the annotated type (snr_db and alpha default to None, which
        # has no text form, so a value of their type stands in)
        value = field.default if field.default is not None else 12.5
        if isinstance(value, bool):
            text = str(value).lower()
        elif isinstance(value, tuple):
            text = ",".join(str(v) for v in value)
        else:
            text = str(value)
        command = "roc" if field.name in FIELD_FLAGS["roc"] else "mse"
        args = build_parser().parse_args([command, "--" + field.name.replace("_", "-"), text])
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({field.name: value}))
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps({"config": {field.name: value}}))
        for parsed in (getattr(args, field.name), load_config_file(cfg)[field.name],
                       load_config_file(meta)[field.name]):
            assert parsed == value
            assert type(parsed) is type(value)
            if isinstance(value, tuple):
                assert [type(v) for v in parsed] == [type(v) for v in value]

    def test_json_values_take_their_field_types(self, tmp_path):
        # an int stands for a float and a list for a tuple; null is the
        # value of a field whose default is None
        meta = tmp_path / "m.json"
        meta.write_text(json.dumps({"snr_db": 15, "alpha": None, "eps_fixed": [0, 0.25],
                                    "detectors": ["GPMF"], "n_h0": 300}))
        values = load_config_file(meta)
        assert values == {"snr_db": 15.0, "alpha": None, "eps_fixed": (0.0, 0.25),
                          "detectors": ("GPMF",), "n_h0": 300}
        assert type(values["snr_db"]) is float
        assert [type(v) for v in values["eps_fixed"]] == [float, float]

    @pytest.mark.parametrize("text, key", [
        ('{"n_h0": 1000.0}', "n_h0"),
        ('{"snr_db": "15"}', "snr_db"),
        ('{"detectors": "GLRT"}', "detectors"),
        ('{"seed": true}', "seed"),
        ('{"snr_db": 15, "sigma": null}', "sigma"),
        ('{"config": {"snr_db": 15, "eps_fixed": [0, "0.1"]}}', "eps_fixed"),
        ('[{"snr_db": 15}]', None),
        ('{"config": ["snr_db", 15]}', None),
        ('{"snr_db": 15,', None),
        ("snr_db = 15\nn_h0 = 50\n", None),
    ], ids=["float-for-int", "string-for-float", "string-for-tuple", "bool-for-int",
            "null-for-float", "string-in-tuple", "top-level-list", "config-list",
            "not-json", "key-value"])
    def test_mistyped_json_exits_1_without_output(self, capsys, tmp_path, text, key):
        meta = tmp_path / "m.json"
        meta.write_text(text)
        code, out, err = run_cli(capsys, "roc", "--config", str(meta), "--n-h0", "50",
                                 "--n-h1", "50", "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith(f"error: {meta}: ") and err.count("\n") == 1
        if key is not None:
            assert err.startswith(f"error: {meta}: {key}: expected ")
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_unknown_key_raises(self, capsys, tmp_path):
        # a key that is no field (nor the retired q or eps_mode) exits 1
        # naming the file and the key, in a flat object and in a manifest's
        # "config"; a manifest's other top-level keys are read past
        for config, key in (({"snr": 10}, "snr"), ({"snr_db": 15, "tool": "subpixdet"}, "tool"),
                            ({"tool": "subpixdet", "config": {"snr_db": 15, "detector": "GPMF"}},
                             "detector")):
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(config))
            with pytest.raises(ConfigError):
                load_config_file(cfg)
            code, out, err = run_cli(capsys, "roc", "--config", str(cfg),
                                     "--out", str(tmp_path / "out"))
            assert code == 1
            assert err == f"error: {cfg}: unknown config key {key!r}\n" and out == ""
            assert not (tmp_path / "out").exists()

    def test_q_is_neither_key_nor_flag(self, capsys, tmp_path):
        # the quadrature order of the retired renderer: a JSON config
        # holding it reads past it, so manifests that record it replay
        # (test_manifest_with_q_replays), and --q is not a flag
        cfg = tmp_path / "c.json"
        cfg.write_text('{"snr_db": 15, "q": 16}')
        assert load_config_file(cfg) == {"snr_db": 15.0}
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

    def test_offset_rule(self, capsys, tmp_path):
        # eps_fixed alone selects the true offset: empty draws it uniformly
        # per trial, a pair fixes it (there is no eps_mode)
        args = ("mse", "--snr-db", "20", "--n-trials", "300", "--estimators", "ML,DEFAULT")

        def mse_csv(*extra, out):
            assert run_cli(capsys, *args, *extra, "--out", str(tmp_path / out))[0] == 0
            return (tmp_path / out / "mse.csv").read_text()

        fixed = mse_csv("--eps-fixed", "0.3,-0.2", out="fixed")
        uniform = mse_csv(out="uniform")
        assert fixed != uniform
        # DEFAULT estimates (0, 0), so each of its errors is -eps at a fixed offset
        (default,) = [row for row in csv.DictReader(fixed.splitlines())
                      if row["estimator"] == "DEFAULT"]
        np.testing.assert_allclose([float(default[k]) for k in ("bias_eps1", "bias_eps2",
                                                                "mse_total")],
                                   [-0.3, 0.2, 0.13], rtol=1e-12)
        # argparse still reads a prefix of the one flag
        assert mse_csv("--eps", "0.3,-0.2", out="prefix") == fixed
        # the retired selector is no flag
        code, out, err = run_cli(capsys, *args, "--eps-mode", "fixed",
                                 "--out", str(tmp_path / "mode"))
        assert code == 1 and "unrecognized arguments: --eps-mode" in err and out == ""
        assert not (tmp_path / "mode").exists()
        # signature renders the sweep or one offset, not both
        code, out, err = run_cli(capsys, "signature", "--sweep", "--eps-fixed", "0.1,0")
        assert code == 1 and err.startswith("error: ") and out == ""
        # manifests written while eps_mode was a field replay as the runs they record
        for mode, eps, want in (("uniform", [0.0, 0.0], uniform), ("fixed", [0.3, -0.2], fixed)):
            config = {f.name: getattr(ExperimentConfig, f.name) for f in fields(ExperimentConfig)}
            config.update(snr_db=20.0, n_trials=300, estimators=["ML", "DEFAULT"],
                          eps_mode=mode, eps_fixed=eps)
            meta = tmp_path / f"{mode}.json"
            meta.write_text(json.dumps({"tool": "subpixdet", "config": config}))
            out = tmp_path / f"replay-{mode}"
            assert main(["mse", "--config", str(meta), "--out", str(out)]) == 0
            assert (out / "mse.csv").read_text() == want

    @pytest.mark.parametrize("argv", [
        ("signature", "--r-c", "inf"),
        ("theoretical-roc", "--snr-db", "15", "--r-c", "inf"),
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
        (("mse", "--snr-db", "20", "--n-trials", "50", "--eps-fixed", "0.1,0.2,0.3"),
         "eps_fixed"),
        (("mse", "--snr-db", "20", "--n-trials", "50", "--eps-fixed", "0.1"), "eps_fixed"),
        (("roc", "--snr-db", "15", "--n-h0", "50", "--n-h1", "50", "--jobs", "0"), "jobs"),
        (("mse", "--snr-db", "15", "--n-trials", "50", "--jobs", "-3"), "jobs"),
        (("roc", "--snr-db", "15", "--n-h0", "50", "--n-h1", "50",
          "--detectors", "GPMF,GPMF"), "detectors"),
        (("mse", "--snr-db", "15", "--n-trials", "50", "--estimators", "PM,PM"),
         "estimators"),
        (("roc", "--snr-db", "10", "--n-h0", "50", "--n-h1", "50", "--seed", "-1"), "seed"),
    ], ids=["no-detectors", "no-estimators", "three-offsets", "one-offset", "jobs-0",
            "jobs-negative", "repeated-detector", "repeated-estimator", "seed-negative"])
    def test_bad_selection_exits_1_without_output(self, capsys, tmp_path, argv, field):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error: ") and field in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, field", [
        (("roc", "--snr-db", "1e4", "--n-h0", "50", "--n-h1", "50"), "snr_db"),
        (("theoretical-roc", "--snr-db", "1e5"), "snr_db"),
        (("roc", "--snr-db", "15", "--sigma", "1e300", "--n-h0", "50", "--n-h1", "50"),
         "sigma"),
    ], ids=["roc-snr-db", "theoretical-roc-snr-db", "roc-sigma"])
    def test_overflow_exits_1_without_output(self, capsys, tmp_path, argv, field):
        # 10 ** (snr_db / 20) and sigma ** 2 overflow a float
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, code, message", [
        (("roc", "--snr-db", "6000", "--n-h0", "50", "--n-h1", "50"), 2,
         "numerical error: non-finite"),
        (("roc", "--snr-db", "15", "--sigma", "1e-200", "--n-h0", "50", "--n-h1", "50"),
         1, "error: sigma**2 underflows"),
        (("mse", "--snr-db", "6000", "--n-trials", "50"), 2, "numerical error: non-finite PM"),
        (("mse", "--snr-db", "15", "--sigma", "1e-170", "--n-trials", "50"), 1,
         "subpixdet: error: unrecognized arguments: --sigma 1e-170"),
        (("roc", "--alpha", "1e200", "--n-h0", "600", "--n-h1", "600", "--jobs", "1"), 2,
         "numerical error: non-finite GPMF"),
        (("roc", "--alpha", "1e200", "--n-h0", "600", "--n-h1", "600", "--jobs", "2"), 2,
         "numerical error: non-finite GPMF"),
    ], ids=["roc-snr-db", "roc-sigma", "mse-snr-db", "mse-sigma", "roc-alpha-jobs-1",
            "roc-alpha-jobs-2"])
    def test_non_finite_run_exits_without_csv(self, capsys, tmp_path, argv, code, message):
        # a finite but extreme amplitude overflows t^2; a sigma whose square
        # underflows makes R singular, and mse takes no --sigma at all
        # (argparse's message is the last line, after the usage).  The
        # message is the only line: no numpy warning, in any worker thread,
        # comes before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert got == code
        lines = err.splitlines()
        assert lines[-1].startswith(message)
        assert len(lines) == 1 or message.startswith("subpixdet: error: unrecognized")
        assert out == ""
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    # roc takes no --snr-sweep and mse no --alpha, so a JSON config
    # (the second argument) brings them to the run's own refusal
    @pytest.mark.parametrize("argv, config, message", [
        (("roc", "--n-h0", "50", "--n-h1", "50"), {"snr_sweep": [5, 10]},
         "roc needs alpha or snr_db"),
        (("mse", "--snr-sweep", "5,40", "--n-trials", "50"), {"alpha": 1}, "not alpha"),
        (("roc", "--alpha", "1", "--n-h0", "50", "--n-h1", "50"), {"snr_sweep": [5]},
         "not snr_sweep"),
        (("roc", "--snr-sweep", "5,10", "--n-h0", "50", "--n-h1", "50"), None,
         "unrecognized arguments: --snr-sweep 5,10"),
        (("mse", "--alpha", "1", "--snr-sweep", "5,40", "--n-trials", "50"), None,
         "unrecognized arguments: --alpha 1"),
        (("roc", "--alpha", "1", "--snr-sweep", "5", "--n-h0", "50", "--n-h1", "50"), None,
         "unrecognized arguments: --snr-sweep 5"),
        (("roc", "--n-h0", "50", "--n-h1", "50"), None, "roc needs alpha or snr_db"),
        (("mse", "--n-trials", "50"), None, "mse needs snr_db or snr_sweep"),
        (("mse", "--snr-db", "15", "--snr-sweep", "5", "--n-trials", "50"), None, "not both"),
        (("roc", "--alpha", "1", "--snr-db", "15", "--n-h0", "50", "--n-h1", "50"), None,
         "roc needs alpha or snr_db, not both"),
        # the preset sets alpha, so --snr-db would be a second amplitude
        (("roc", "--preset", "fig7", "--snr-db", "10"), None,
         "roc needs alpha or snr_db, not both"),
        # a field the run's noise kind does not read is refused at the same point
        (("roc", "--snr-db", "15", "--hurst", "0.3"), None, "white noise does not read hurst"),
        (("roc", "--preset", "fig7", "--sigma", "7"), None, "fractal noise does not read sigma"),
        # and so is one the run kind does not read, which only a config brings
        (("mse", "--snr-db", "15"), {"n_h0": 5, "detectors": ["GLRT"]},
         "mse does not read n_h0, detectors"),
        (("mse", "--snr-db", "15"), {"subspace_order": 3}, "mse does not read subspace_order"),
        (("mse", "--snr-db", "15"), {"sigma": 2}, "mse does not read sigma"),
        (("roc", "--snr-db", "15"), {"n_trials": 7, "estimators": ["ML"]},
         "roc does not read n_trials, estimators"),
        # only SM-GLRT reads subspace_order
        (("roc", "--snr-db", "15", "--detectors", "GPMF,GLRT", "--subspace-order", "3"), None,
         "roc without SM-GLRT does not read subspace_order"),
        # the covariance reads lags up to 2w, below half a power-of-two image
        (("roc", "--noise", "fractal", "--alpha", "1", "--image-size", "1"), None,
         "fractal noise needs image_size a power of two greater than 4w = 8, got 1"),
        (("roc", "--noise", "fractal", "--alpha", "1", "--image-size", "0"), None,
         "fractal noise needs image_size a power of two greater than 4w = 8, got 0"),
        (("roc", "--noise", "fractal", "--alpha", "1", "--image-size", "8", "--w", "2"), None,
         "fractal noise needs image_size a power of two greater than 4w = 8, got 8"),
        (("roc", "--noise", "fractal", "--alpha", "1", "--image-size", "1000"), None,
         "fractal noise needs image_size a power of two greater than 4w = 8, got 1000"),
    ], ids=["roc-sweep-only", "mse-alpha", "roc-alpha-sweep", "roc-sweep-flag",
            "mse-alpha-flag", "roc-alpha-sweep-flag", "roc-none", "mse-none", "mse-both",
            "roc-both", "roc-preset-both", "white-hurst", "fractal-sigma", "mse-n-h0",
            "mse-subspace-order", "mse-sigma", "roc-n-trials", "roc-subspace-order",
            "image-size-1", "image-size-0", "image-size-8-w-2", "image-size-1000"])
    def test_amplitude_rule_exits_1_before_set_up(self, capsys, monkeypatch, tmp_path,
                                                  argv, config, message):
        built = []
        # _fractal_background too: a warm entry would skip synthesize_fbm
        for owner, name in ((harness, "effective_psf"), (harness, "build_signature_bank"),
                            (harness, "_fractal_background"), (clutter, "white_covariance"),
                            (clutter, "synthesize_fbm")):
            monkeypatch.setattr(owner, name, lambda *a, name=name, **k: built.append(name))
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            argv = (*argv, "--config", str(path))
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert message in err
        assert built == []
        assert not (tmp_path / "out").exists()

    def test_subspace_order_above_pixel_count_exits_1(self, capsys, tmp_path):
        # at w = 2 the subspace has at most 25 columns, however many nodes
        code, out, err = run_cli(capsys, "roc", "--snr-db", "15", "--detectors", "SM-GLRT",
                                 "--subspace-order", "26", "--n-h0", "50", "--n-h1", "50",
                                 "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == "error: subspace order must be in [1, 25]\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 14.9 TiB"), MemoryError()],
                             ids=["message", "bare"])
    def test_memory_error_exits_1(self, capsys, monkeypatch, tmp_path, exc):
        # stands in for the offset grid of --grid-size 1000000; nothing is allocated
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(harness, "build_signature_bank", refuse)
        code, out, err = run_cli(capsys, "roc", "--snr-db", "15", "--grid-size", "1000000",
                                 "--n-h0", "50", "--n-h1", "50", "--out", str(tmp_path / "out"))
        assert code == 1
        assert err == f"error: {exc or 'MemoryError'}\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_usage_error_exits_1(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        # r_c has one spelling, its field's
        assert main(["signature", "--rc", "0.5"]) == 1
        # a bad value is named by its field's type
        capsys.readouterr()
        assert main(["roc", "--n-h0", "abc"]) == 1
        assert "argument --n-h0: invalid int value: 'abc'" in capsys.readouterr().err
        # and so is an empty item of a list, a trailing comma's included
        for argv in (("roc", "--detectors", "GPMF,,GLRT"), ("roc", "--detectors", "GPMF,GLRT,"),
                     ("mse", "--eps-fixed", " ,0.3,-0.2")):
            assert main([*argv, "--snr-db", "15"]) == 1
            captured = capsys.readouterr()
            assert f"argument {argv[1]}: invalid tuple value: '{argv[2]}'\n" in captured.err
            assert captured.out == ""
        # a run takes no flag for a field it does not read
        for argv in (("roc", "--n-trials", "5"), ("roc", "--estimators", "ML"),
                     ("roc", "--snr-sweep", "5"), ("mse", "--n-h0", "5"),
                     ("mse", "--detectors", "GLRT"), ("mse", "--subspace-order", "3"),
                     ("mse", "--alpha", "1"), ("mse", "--sigma", "2")):
            assert main([*argv, "--snr-db", "15"]) == 1
            captured = capsys.readouterr()
            assert f"unrecognized arguments: {' '.join(argv[1:])}\n" in captured.err
            assert captured.out == ""

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0


# the flags that stand for no ExperimentConfig field
NON_FIELD_FLAGS = {"help", "sweep", "size", "max_lag", "acf", "window", "acf_file",
                   "remove_mean", "out", "config", "preset"}


def test_model_flags_are_config_fields():
    # each subcommand's field flags are the fields its command reads, each
    # spelled --<field-with-dashes> and defaulting to None, so that
    # resolve_config can tell a given flag from an absent one
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == set(FIELD_FLAGS)
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    for command, sub in commands.items():
        flags = set()
        for action in sub._actions:
            if action.dest in NON_FIELD_FLAGS:
                continue
            assert action.dest in defaults, (command, action.option_strings)
            assert action.option_strings == ["--" + action.dest.replace("_", "-")]
            assert action.default is None, (command, action.dest)
            flags.add(action.dest)
        assert flags == FIELD_FLAGS[command], command
    assert (len(FIELD_FLAGS["roc"]), len(FIELD_FLAGS["mse"])) == (18, 15)


def test_cli_import_loads_only_known_scipy_subpackages():
    # each scipy subpackage adds to every run's set-up (scipy.stats about
    # half a second, scipy.special with scipy's array-API chain about
    # 0.15 s); a new one must be a deliberate change of this empty set
    code = ("import sys, scipy, subpixdet.cli; "
            "print(sorted({m.split('.')[1] for m in sys.modules "
            "if m.startswith('scipy.')} & set(scipy.__all__)))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert res.stdout.strip() == str([])


def _scipy_loaded_after(cwd, *argvs):
    """Exit codes of cli.main on each argv, run in one fresh process, and
    which of scipy.fft, scipy.linalg, scipy.ndimage and scipy.special that
    process has loaded after them."""
    code = ("import json, sys; from subpixdet.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, sorted({'scipy.fft', 'scipy.linalg', 'scipy.ndimage', "
            "'scipy.special'} & set(sys.modules))]))")
    res = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], cwd=cwd,
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return json.loads(res.stdout.splitlines()[-1])


@pytest.fixture
def tables(tmp_path):
    """A w = 1 window and a white 9 x 9 autocovariance table, as CSV files."""
    write_window(tmp_path / "win.csv", w=1)
    acf = np.zeros((9, 9))
    acf[4, 4] = 1.0
    with open(tmp_path / "acf.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(acf.tolist())
    return tmp_path


def test_white_runs_load_neither_fft_nor_linalg(tables):
    # clutter imports them only where a fractal image, an autocovariance
    # or a Cholesky factor is made, and the effective-PSF table needs no
    # scipy at all, so a white run loads none of the four
    argvs = (["roc", "--snr-db", "15", "--n-h0", "200", "--n-h1", "20", "--out", "r"],
             ["mse", "--snr-db", "15", "--n-trials", "20", "--out", "m"],
             ["signature", "--out", "s.csv"],
             ["score", "--window", "win.csv"],
             ["estimate", "--window", "win.csv"])
    assert _scipy_loaded_after(tables, *argvs) == [[0] * len(argvs), []]


def test_theoretical_roc_loads_only_special(tables):
    # the closed-form Pd needs scipy.special's ndtr and ndtri
    argv = ["theoretical-roc", "--snr-db", "15", "--out", "t.csv"]
    assert _scipy_loaded_after(tables, argv) == [[0], ["scipy.special"]]


# scipy.fft imports scipy.special itself
@pytest.mark.parametrize("argv, loaded", [
    (["roc", "--preset", "fig7", "--image-size", "128", "--n-h0", "200", "--n-h1", "200",
      "--out", "r"], ["scipy.fft", "scipy.linalg", "scipy.special"]),
    (["clutter", "--size", "64", "--acf", "--out", "c"], ["scipy.fft", "scipy.special"]),
    (["score", "--window", "win.csv", "--acf-file", "acf.csv"], ["scipy.linalg"]),
], ids=["roc-fractal", "clutter-acf", "score-acf-file"])
def test_fractal_runs_load_what_they_use(tables, argv, loaded):
    assert _scipy_loaded_after(tables, argv) == [[0], loaded]
