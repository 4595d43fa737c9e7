"""Self-test of the benchmark's output checks and of its tracer.

    python3 bench/selftest.py

Runs one operation of each workload at seed 0, untraced and traced, and
asserts that

* the traced call writes CSVs byte-identical to the untraced call's,
  and the byte comparison of operations fails when one byte differs;
* every check passes on the program's real outputs;
* every check fails on a corrupted copy of them (GLRT and GPMF swapped,
  DEFAULT MSE scaled by 1.2, the spot energy off by 1e-4, ...).

Exits 0 when every expectation holds, 1 otherwise.  Takes about two
minutes, most of it the two spot-energy computations.
"""

import contextlib
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the single-thread BLAS environment before numpy loads
import tracing

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from subpixdet import cli, clutter, harness  # noqa: E402

SEED = 0
_results = []


def expect(name, fails, should_fail):
    ok = bool(fails) == should_fail
    _results.append(ok)
    verdict = "ok  " if ok else "BAD "
    want = "fails" if should_fail else "passes"
    detail = f": {fails[0]}" if fails else ""
    print(f"{verdict}{name} {want}{detail}")


def run_pair(name, tmp):
    """One untraced and one traced call of the workload; returns the
    untraced output directory."""
    dirs = []
    for traced in (False, True):
        out = Path(tmp) / f"{name}-{'traced' if traced else 'plain'}"
        argv = run.cli_argv(name, SEED, out)
        with contextlib.redirect_stdout(sys.stderr):
            if traced:
                with tracing.Tracer() as tracer:
                    code = tracer.wrap("cli.main", cli.main)(argv)
            else:
                code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{name}: cli.main exited {code}")
        dirs.append(out)
    same = run._digest(dirs[0]) == run._digest(dirs[1])
    expect(f"{name}: traced CSV bytes equal untraced", [] if same else ["bytes differ"], False)
    return dirs[0]


def byte_cases(name, config, out, tmp):
    """check_ops on two operations whose CSVs differ in one byte."""
    kind = run.WORKLOADS[name][0]
    other = Path(tmp) / f"{name}-one-byte"
    shutil.copytree(out, other)
    csv_path = next(other.glob("*.csv"))
    data = bytearray(csv_path.read_bytes())
    data[-2] ^= 1                       # one bit of the last row
    csv_path.write_bytes(bytes(data))
    for traced in (False, True):
        ops = [run.Op(0, False, 0, 1.0, out, 0.0), run.Op(1, traced, 0, 1.0, other, 0.0)]
        run.check_ops(kind, name, config, ops)
        expect(f"{name}: {'traced' if traced else 'repeated'} call one CSV byte off",
               ops[1].fails, True)


def with_curve(curves, det, thr=None, pfa=None, pd=None):
    out = dict(curves)
    t, fa, d = curves[det]
    out[det] = (t if thr is None else thr, fa if pfa is None else pfa, d if pd is None else pd)
    return out


def roc_cases(name, curves, detector_ids, n_h0, n_h1):
    expect(f"{name}: curve shape and counts", checks.check_roc_curves(
        curves, detector_ids, n_h0, n_h1), False)
    expect(f"{name}: GLRT >= GPMF", checks.check_glrt_dominates_gpmf(curves), False)
    swapped = dict(curves, GLRT=curves["GPMF"], GPMF=curves["GLRT"])
    expect(f"{name}: GLRT and GPMF swapped", checks.check_glrt_dominates_gpmf(swapped), True)
    thr, pfa, pd = curves["ELRT"]
    expect(f"{name}: ELRT Pd reversed", checks.check_roc_curves(
        with_curve(curves, "ELRT", pd=pd[::-1]), detector_ids, n_h0, n_h1), True)
    expect(f"{name}: last (1, 1) row dropped", checks.check_roc_curves(
        with_curve(curves, "ELRT", thr[:-1], pfa[:-1], pd[:-1]), detector_ids, n_h0, n_h1), True)
    halved = np.floor(pfa * n_h0 / 2) * 2 / n_h0
    halved[-1] = 1.0
    expect(f"{name}: Pfa counted on n_h0/2 scores", checks.check_roc_curves(
        with_curve(curves, "ELRT", pfa=halved), detector_ids, n_h0, n_h1), True)


def main():
    run.OUT.mkdir(exist_ok=True)
    configs = {name: run.resolve(cli, name, SEED)[1] for name in run.WORKLOADS}
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        # ---- roc-sampled: white noise, all ROC checks
        config = configs["roc-sampled"]
        out = run_pair("roc-sampled", tmp)
        byte_cases("roc-sampled", config, out, tmp)
        curves = checks.read_roc_csv(out / "roc.csv")
        n_h0, n_h1 = config.n_h0, config.n_h1
        roc_cases("roc-sampled", curves, config.detectors, n_h0, n_h1)
        expect("roc-sampled: chi2_1 H0 rates", checks.check_chi2_h0(curves, n_h0), False)
        thr, _, _ = curves["GPMF"]
        expect("roc-sampled: GPMF scores x0.8", checks.check_chi2_h0(
            with_curve(curves, "GPMF", thr=thr * 0.8), n_h0), True)
        thr, _, _ = curves["SM-GLRT"]
        expect("roc-sampled: SM-GLRT scores x1.25", checks.check_chi2_h0(
            with_curve(curves, "SM-GLRT", thr=thr * 1.25), n_h0), True)
        expect("roc-sampled: Pd spread", checks.check_pd_spread(curves), False)
        _, _, pd = curves["ALRT"]
        expect("roc-sampled: ALRT Pd lowered by 0.15", checks.check_pd_spread(
            with_curve(curves, "ALRT", pd=np.clip(pd - 0.15, 0, None))), True)

        # ---- roc-fractal: fBm image and the noise-agnostic ROC checks
        config = configs["roc-fractal"]
        out = run_pair("roc-fractal", tmp)
        curves = checks.read_roc_csv(out / "roc.csv")
        roc_cases("roc-fractal", curves, config.detectors, config.n_h0, config.n_h1)
        expect("roc-fractal: fBm PSD slope", run.check_run(config, None), False)
        expect("roc-fractal: H = 0.2 image", checks.check_fbm_slope(
            clutter.synthesize_fbm(0.2, config.image_size, seed=[SEED, 0, 0]).values,
            config.hurst), True)
        expect("roc-fractal: white-noise image", checks.check_fbm_slope(
            np.random.default_rng(SEED).standard_normal((config.image_size,) * 2),
            config.hurst), True)

        # ---- mse-aliased
        config = configs["mse-aliased"]
        out = run_pair("mse-aliased", tmp)
        byte_cases("mse-aliased", config, out, tmp)
        rows = checks.read_mse_csv(out / "mse.csv")
        args = (config.estimators, config.snr_sweep, config.n_trials)
        expect("mse-aliased: MSE rows", checks.check_mse(rows, *args), False)

        def scaled(estimator, factor, snr=None):
            new = [dict(r) for r in rows]
            for r in new:
                if r["estimator"] == estimator and snr in (None, r["snr_db"]):
                    for key in ("mse_eps1", "mse_eps2", "mse_total"):
                        r[key] *= factor
            return new

        expect("mse-aliased: DEFAULT MSE x1.2", checks.check_mse(scaled("DEFAULT", 1.2), *args),
               True)
        top = max(config.snr_sweep)

        def total(estimator):
            return next(r["mse_total"] for r in rows
                        if r["estimator"] == estimator and r["snr_db"] == top)

        default_top, pm_top, ml_top = total("DEFAULT"), total("PM"), total("ML")
        floor, _ = checks.nearest_node_floor()
        expect("mse-aliased: ML at 40 dB half the nearest-node floor", checks.check_mse(
            scaled("ML", floor / 2 / ml_top, top), *args), True)
        expect("mse-aliased: PM at 40 dB no better than DEFAULT/10", checks.check_mse(
            scaled("PM", default_top / 9 / pm_top, top), *args), True)
        expect("mse-aliased: a row missing", checks.check_mse(rows[1:], *args), True)

    # ---- spot energy, both designs, at the cache key the harness uses
    for name in ("roc-sampled", "mse-aliased"):
        config = configs[name]
        energy = harness.average_energy_cached(config.r_c, config.q)
        expect(f"energy r_c={config.r_c}", checks.check_energy(energy, config.r_c), False)
        expect(f"energy r_c={config.r_c} x(1 + 1e-4)",
               checks.check_energy(energy * (1 + 1e-4), config.r_c), True)

    bad = _results.count(False)
    print(f"{len(_results) - bad} of {len(_results)} expectations hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
