"""Benchmark of the subpixdet Monte Carlo pipeline, end to end and per layer.

    python3 bench/run.py --workload roc-sampled --seed 0 --seconds 16 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  A run is one fresh process: it imports the package, computes
the spot energy the CLI caches before its first trial (set-up), then
calls ``subpixdet.cli.main`` with the workload's arguments again and
again, at ``jobs = 1``, until ``--seconds`` have passed.  Every call is
one operation.  Afterwards the outputs are checked against computations
made apart from the program (see checks.py).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` operations alternate
between traced and untraced calls, and the object holds the per-layer
metrics of the traced ones plus the tracing overhead.  Outputs, spans
and the result go to ``.bench_out/<workload>-seed<n>-trace<t>/``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# a plain single-threaded baseline: BLAS must not start threads of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

# nothing above loads numpy: set-up times the package's first import.
# checks.py (numpy, scipy) is imported only after the timed part.
import tracing  # noqa: E402

# the import is timed this many times in fresh processes and set-up
# reports the median; the ~20 s spot energy is timed once per run
IMPORT_SAMPLES = 2
# repetitions of each single-detector scoring pass in a traced run
DETECTOR_REPEATS = 5

# One CLI invocation per workload.  Everything else a run relies on (trial
# counts, r_c, q, noise, detectors, SNR points, fBm parameters) is read
# back from the ExperimentConfig the CLI resolves from these arguments.
WORKLOADS = {
    # fig8-sampled: r_c = 0.5, w = 5, white noise, 15 dB, all five detectors;
    # ten H0 trials per H1 trial, as in acceptance 6
    "roc-sampled": ("roc", "--preset", "fig8-sampled", "--n-h0", "10000", "--n-h1", "1000"),
    # fig7: fBm H = 0.7 on 1024^2, empirical covariance, alpha = 0.12 given;
    # the preset's own 1:1 mix of H0 and H1 trials, scaled down
    "roc-fractal": ("roc", "--preset", "fig7", "--n-h0", "5000", "--n-h1", "5000"),
    # fig10-left: r_c = 2.44, w = 2, white noise, 8 SNR points, ML/PM/DEFAULT
    "mse-aliased": ("mse", "--preset", "fig10-left", "--n-trials", "500"),
}


def cli_argv(name, seed, out):
    return list(WORKLOADS[name]) + ["--seed", str(seed), "--jobs", "1", "--out", str(out)]


def resolve(cli, name, seed):
    """(subcommand, ExperimentConfig) that cli.main builds for the workload."""
    args = cli.build_parser().parse_args(cli_argv(name, seed, "-"))
    return args.command, cli.resolve_config(args, args.command)


def trials(kind, config):
    """Trials per operation: n_h0 + n_h1, or n_trials per SNR point."""
    if kind == "roc":
        return config.n_h0 + config.n_h1
    return config.n_trials * len(config.snr_sweep)


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import subpixdet.cli; "
                 "print(time.perf_counter() - t)")


@dataclass
class Op:
    index: int
    traced: bool
    code: int
    seconds: float
    out: Path
    peak_rss_mb: float       # process peak resident memory after this call
    spans: tuple = (0, 0)    # [lo, hi) in the tracer's span list
    digest: str = ""
    fails: list = field(default_factory=list)


def _import_seconds():
    """Time of `import subpixdet.cli` in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def _digest(out_dir):
    """SHA-256 over the CSV outputs (meta.json holds a wall time)."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _is_traced(k):
    # whole rounds of (traced, untraced); odd rounds run the untraced call first
    return k % 2 == (k // 2) % 2


def run_ops(cli, name, seed, seconds, run_dir, tracer):
    if tracer is not None:
        # one uncounted call first, so that first-call costs (FFT and LAPACK
        # set-up, a fresh heap) fall on neither side of the traced/untraced
        # comparison
        warm = run_dir / "warmup"
        with contextlib.redirect_stdout(sys.stderr):
            cli.main(cli_argv(name, seed, warm))
        shutil.rmtree(warm, ignore_errors=True)
    ops = []
    start = time.perf_counter()
    while True:
        k = len(ops)
        traced = tracer is not None and _is_traced(k)
        out = run_dir / f"op{k}"
        argv = cli_argv(name, seed, out)
        lo = len(tracer.spans) if tracer else 0
        with contextlib.redirect_stdout(sys.stderr):
            if traced:
                with tracer:
                    main = tracer.wrap("cli.main", cli.main)
                    t0 = time.perf_counter()
                    code = main(argv)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                code = cli.main(argv)
                dt = time.perf_counter() - t0
        hi = len(tracer.spans) if tracer else 0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops.append(Op(k, traced, code, dt, out, rss, (lo, hi)))
        whole = tracer is None or len(ops) % 2 == 0
        if whole and time.perf_counter() - start >= seconds:
            return ops


def check_outputs(kind, name, config, out):
    import checks
    if kind == "roc":
        curves = checks.read_roc_csv(out / "roc.csv")
        fails = checks.check_roc_curves(curves, config.detectors, config.n_h0, config.n_h1)
        if not fails:
            fails += checks.check_glrt_dominates_gpmf(curves)
            if config.noise == "white":
                fails += checks.check_chi2_h0(curves, config.n_h0)
            if name == "roc-sampled":
                fails += checks.check_pd_spread(curves)
        return fails
    rows = checks.read_mse_csv(out / "mse.csv")
    return checks.check_mse(rows, config.estimators, config.snr_sweep, config.n_trials)


def check_run(config, energy):
    """Checks of what every operation of the run shares."""
    import checks
    fails = []
    if energy is not None:
        fails += checks.check_energy(energy, config.r_c)
    if config.noise == "fractal":
        from subpixdet import clutter, harness
        image = clutter.synthesize_fbm(config.hurst, config.image_size,
                                       seed=[config.seed, harness._STREAM_TRAIN, 0]).values
        fails += checks.check_fbm_slope(image, config.hurst)
    return fails


def check_ops(kind, name, config, ops):
    """Check the first completed operation's outputs in full; every other
    operation ran the same arguments and must write the same bytes."""
    reference = None
    for op in ops:
        if op.code != 0:
            op.fails.append(f"op{op.index}: exit code {op.code}")
            continue
        op.digest = _digest(op.out)
        if reference is None:
            reference = op
            op.fails += check_outputs(kind, name, config, op.out)
        elif op.digest != reference.digest:
            what = "traced" if op.traced != reference.traced else "repeated"
            op.fails.append(f"op{op.index}: {what} run wrote other CSV bytes than "
                            f"op{reference.index} on the same seed")
        else:
            op.fails += reference.fails


def detector_costs(tracer, detector_ids):
    """Microseconds per window of each detector alone, on one fixed stack
    of the workload's windows (the first stack the traced run scored, or
    for MSE the first it estimated)."""
    from subpixdet import detectors, optics
    if "detectors.score" in tracer.first_args:
        args, _ = tracer.first_args["detectors.score"]
        windows, bound, bound9, subspace = args[:4]
    else:
        args, _ = tracer.first_args["estimators.estimate"]
        windows, bound = args[:2]
        bank = bound.bank
        bound9 = optics.build_alrt_bank(optics.PsfModel(bank.r_c), bank.w, bank.q).bind(bound.cov)
        subspace = detectors.build_subspace(bank, 1)
    out = {}
    for det in detector_ids:
        times = []
        for _ in range(DETECTOR_REPEATS):
            t0 = time.perf_counter()
            detectors.batch_scores(windows, bound, bound9, subspace, (det,))
            times.append(time.perf_counter() - t0)
        out[f"detectors.{det}_us_per_window"] = 1e6 * statistics.median(times) / len(windows)
    return out


def _per(seconds, count, scale=1e6):
    return scale * seconds / count if count else 0.0


def layer_metrics(agg):
    """Per-layer figures of one traced operation from its span totals."""
    def get(name, key="s"):
        return agg.get(name, {}).get(key, 0)

    return {
        "optics.bank_s": get("optics.bank"),
        "optics.render_s": get("optics.render"),
        "optics.signatures_rendered": get("optics.render", "items"),
        "optics.render_us_per_signature": _per(get("optics.render"), get("optics.render", "items")),
        "clutter.fbm_s": get("clutter.fbm"),
        "clutter.fbm_calls": get("clutter.fbm", "calls"),
        "clutter.acf_s": get("clutter.acf"),
        "clutter.covariance_s": get("clutter.covariance"),
        "clutter.solve_s": get("clutter.solve"),
        "clutter.solve_calls": get("clutter.solve", "calls"),
        "detectors.subspace_s": get("detectors.subspace"),
        "detectors.score_s": get("detectors.score"),
        "detectors.windows_scored": get("detectors.score", "items"),
        "detectors.score_us_per_window": _per(get("detectors.score"),
                                              get("detectors.score", "items")),
        "estimators.estimate_s": get("estimators.estimate"),
        "estimators.windows_estimated": get("estimators.estimate", "items"),
        "estimators.us_per_window": _per(get("estimators.estimate"),
                                         get("estimators.estimate", "items")),
        "optics.energy_s": get("optics.energy"),
        "optics.energy_calls": get("optics.energy", "calls"),
        "harness.run_s": get("harness.run"),
        "harness.self_s": get("harness.run", "self_s"),
        "harness.roc_reduce_s": get("harness.roc_reduce"),
        "harness.write_csv_s": get("harness.write_csv"),
        "cli.self_s": get("cli.main", "self_s"),
    }


def _declared_metrics():
    """{mode: {metric name: unit}} as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {mode: {m["name"]: m["unit"] for m in spec[key]}
            for mode, key in ((0, "end_to_end"), (1, "per_layer"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subpixdet" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/subpixdet; run from the root of "
              "a subpixdet checkout", file=sys.stderr)
        return 2

    # ---- set-up: import in this fresh process, then the spot energy
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from subpixdet import cli, harness
    import_main = time.perf_counter() - t0
    imports = [import_main] + [_import_seconds() for _ in range(IMPORT_SAMPLES - 1)]
    kind, config = resolve(cli, args.workload, args.seed)

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = tracing.Tracer(keep_args=("detectors.score", "estimators.estimate")) \
        if args.trace else None

    energy, energy_s = None, 0.0
    if config.alpha is None:
        # the same cache key the harness asks for, so the CLI reuses it
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            energy = harness.average_energy_cached(config.r_c, config.q)
            energy_s = time.perf_counter() - t0
    n_setup_spans = len(tracer.spans) if tracer else 0

    # ---- timed operations
    ops = run_ops(cli, args.workload, args.seed, args.seconds, run_dir, tracer)

    # ---- output checks, after timing; a failed run-level check (energy,
    # fBm image) fails every operation, since all of them used it
    run_fails = check_run(config, energy)
    check_ops(kind, args.workload, config, ops)
    for msg in run_fails + [msg for op in ops for msg in op.fails]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    failed = sum(1 for op in ops if op.fails or run_fails)
    completed = any(op.code == 0 for op in ops)

    def tps(sel):
        return trials(kind, config) / statistics.median(op.seconds for op in sel)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(imports) + energy_s,
            "trials_per_s": tps(ops),
            # a CLI user's process does set-up and one call; later calls
            # reuse the heap glibc kept and would read higher
            "peak_rss_mb": ops[0].peak_rss_mb,
        }
    else:
        tracer.write(run_dir / "spans.json")
        traced = [op for op in ops if op.traced]
        per_op = [layer_metrics(tracing.summarize(tracer.spans, *op.spans)) for op in traced]
        metrics = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
        setup = tracing.summarize(tracer.spans, 0, n_setup_spans).get("optics.energy", {})
        metrics["cli.import_s"] = import_main
        metrics["optics.energy_s"] += setup.get("s", 0.0)
        metrics["optics.energy_calls"] += setup.get("calls", 0)
        metrics.update(detector_costs(tracer, config.detectors))
        untraced = tps([op for op in ops if not op.traced])
        metrics["trace.trials_per_s"] = tps(traced)
        metrics["trace.untraced_trials_per_s"] = untraced
        metrics["trace.overhead_pct"] = 100.0 * (untraced / metrics["trace.trials_per_s"] - 1)

    for op in ops[1:]:
        shutil.rmtree(op.out, ignore_errors=True)
    units = _declared_metrics()[args.trace]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are measured "
                           "but not declared in BENCHMARK.json, or the reverse")
    result = {
        "correct": completed and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, "
          f"{', '.join(f'{op.seconds:.2f}' for op in ops)} s each", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
