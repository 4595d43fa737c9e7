"""Command-line front end.

Subcommands: signature | clutter | score | estimate | roc | mse |
theoretical-roc.  Every subcommand resolves one ExperimentConfig: from a
built-in preset, then a JSON config file (roc and mse only), then CLI
flags (later sources win).  A subcommand's model flags are the
ExperimentConfig fields its command reads, spelled --<field-with-dashes>
and parsed as the field's annotated type.  roc and mse write a meta.json
manifest recording the fully resolved configuration, so any run can be
replayed exactly.

Exit codes: 0 success, 1 usage/config error or out of memory, 2
numerical failure, 141 stdout closed early.
"""

import argparse
import contextlib
import csv
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import scipy

try:
    import resource
except ImportError:     # not on Windows
    resource = None

from . import __version__
from . import clutter, harness, optics
from .clutter import IndefiniteCovarianceError
from .detectors import DETECTOR_IDS, ESTIMATOR_IDS, batch_estimates, batch_scores
from .harness import ConfigError, ExperimentConfig

# offsets echoing the paper-style spot gallery: center plus four marked
# example positions
SWEEP_OFFSETS = ((0.0, 0.0), (0.25, 0.0), (-0.45, 0.2), (0.45, 0.45), (-0.3, -0.4))

PRESETS = {
    "fig5-high": {"kind": "roc", "snr_db": 16.2},
    "fig5-low": {"kind": "roc", "snr_db": 14.1},
    "fig7": {"kind": "roc", "noise": "fractal", "hurst": 0.7, "alpha": 0.12,
             "image_size": 1024, "n_h0": 10_000, "n_h1": 10_000,
             "train_equals_test": True, "seed": 1},
    "fig8-aliased": {"kind": "roc", "snr_db": 15.0},
    "fig8-sampled": {"kind": "roc", "snr_db": 15.0, "r_c": 0.5, "w": 5},
    "fig10-left": {"kind": "mse", "snr_sweep": (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)},
    "fig10-right": {"kind": "mse", "r_c": 0.5, "w": 5,
                    "snr_sweep": (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)},
}

_CONFIG_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(kind, raw):
    """Parse raw text as the annotated type of a config field."""
    if kind is bool:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if getattr(kind, "__origin__", None) is tuple:     # tuple[float, ...] etc.
        tokens = [tok.strip() for tok in raw.split(",")] if raw.strip() else []
        if "" in tokens:
            raise ValueError(f"empty item in {raw!r}")
        return tuple(map(kind.__args__[0], tokens))
    return kind(raw)


def _json_value(kind, value, where):
    """A JSON value as the annotated type of a config field: an int stands
    for a float and a list for a tuple of its item type; a bool is no int."""
    if getattr(kind, "__origin__", None) is tuple and isinstance(value, list):
        return tuple(_json_value(kind.__args__[0], v, where) for v in value)
    if type(value) is kind or (kind is float and type(value) is int):
        return kind(value)
    raise ConfigError(f"{where}: expected {kind.__name__}, got {json.dumps(value)}")


def load_config_file(path):
    """Parse a JSON config (flat, or a manifest's "config") typed as its fields."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    cfg = manifest.get("config", manifest) if isinstance(manifest, dict) else None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    for key in cfg:     # q and eps_mode: retired fields, which older manifests hold
        if key not in _CONFIG_FIELDS and key not in ("q", "eps_mode"):
            raise ConfigError(f"{path}: unknown config key {key!r}")
    if cfg.get("eps_mode") == "uniform":    # eps_mode's manifests: it ignored eps_fixed
        cfg = {key: value for key, value in cfg.items() if key != "eps_fixed"}
    return {key: None if value is None and getattr(ExperimentConfig, key) is None
            else _json_value(_CONFIG_FIELDS[key], value, f"{path}: {key}")
            for key, value in cfg.items() if key in _CONFIG_FIELDS}


def resolve_config(args, kind):
    """Preset < config file < CLI flags, each where the subcommand has it."""
    values = {}
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r} "
                              f"(known: {', '.join(sorted(PRESETS))})")
        preset = dict(PRESETS[args.preset])
        if preset.pop("kind") != kind:
            raise ConfigError(f"preset {args.preset!r} is not a {kind} preset")
        values.update(preset)
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in _CONFIG_FIELDS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return ExperimentConfig(**values)


def _libraries():
    """What the output bits depend on besides the config: the PM, GPMF and
    ALRT bits move with the BLAS build and its thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name)
                    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _write_manifest(out_dir, config, started, outputs):
    manifest = {
        "tool": "subpixdet",
        "version": __version__,
        "config": asdict(config),
        "seed": config.seed,
        "duration_seconds": round(time.perf_counter() - started, 3),
        "outputs": [str(p) for p in outputs],
        "libraries": _libraries(),
    }
    if resource is not None:
        # the process peak so far, in MiB (ru_maxrss is KiB on Linux and
        # bytes on macOS): the run and anything the process ran before it
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        manifest["peak_rss_mb"] = round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)
    path = Path(out_dir) / "meta.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _open_out(path):
    """The file at path for writing, or stdout (left open) when path is None."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


# ---------------------------------------------------------------------------
# subcommands

def cmd_signature(args, cfg):
    if args.sweep and cfg.eps_fixed:
        raise ConfigError("signature takes --sweep or --eps-fixed, not both")
    offsets = SWEEP_OFFSETS if args.sweep else (cfg.eps_fixed or (0.0, 0.0),)
    patches = optics.render_signature_batch(optics.effective_psf(cfg.r_c, cfg.w), offsets)
    with _open_out(args.out) as stream:
        for eps, patch in zip(offsets, patches):
            if args.sweep:
                stream.write(f"# eps={eps[0]},{eps[1]}\r\n")
            csv.writer(stream).writerows(patch.reshape(2 * cfg.w + 1, -1).tolist())
    return 0


def cmd_clutter(args, cfg):
    if args.size < 2:
        raise ConfigError(f"--size must be >= 2, got {args.size}")
    size = 1 << (args.size - 1).bit_length()     # the next power of two
    crop = args.size if args.size != size else None
    field = clutter.synthesize_fbm(cfg.hurst, size, seed=cfg.seed, crop=crop)
    table = clutter.estimate_autocovariance(field, args.max_lag) if args.acf else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    clutter.write_pgm(field, out_dir / "clutter.pgm")
    with open(out_dir / "clutter.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(field.values.tolist())
    if args.acf:
        with open(out_dir / "acf.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(table.tolist())
    return 0


def _load_table(path, what):
    """A square, odd-sized CSV table of finite numbers; anything else is a
    ConfigError that names the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)     # numpy's "no data"
            arr = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, quotechar='"')
    except UserWarning:
        raise ConfigError(f"{path}: {what} holds no data") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 == 0:
        raise ConfigError(f"{path}: expected a square odd-sized {what}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}: {what} entries must be finite")
    return arr


def _window_context(args, cfg, w, detectors):
    if (args.sigma if args.acf_file else args.ridge) is not None:
        raise ConfigError("--sigma applies without --acf-file, and --ridge with it")
    if args.acf_file:
        table = _load_table(args.acf_file, "autocovariance table")
        try:
            cov = clutter.assemble_window_covariance(table, w, lam=cfg.ridge)
        except (ValueError, IndefiniteCovarianceError) as exc:     # too few lags, indefinite
            raise type(exc)(f"{args.acf_file}: {exc}") from None
    else:
        cov = clutter.white_covariance(cfg.sigma)
    return harness.bind_detectors(optics.effective_psf(cfg.r_c, w), cov, cfg.grid_size,
                                  detectors=detectors)


def _read_window(args):
    """The window as a batch of one row vector, and its half-width."""
    window = _load_table(args.window, "window")
    z = window.ravel() - (window.mean() if args.remove_mean else 0.0)
    return z[None, :], (window.shape[0] - 1) // 2


@np.errstate(over="ignore")     # t^2 can overflow: _check_finite refuses it
def _amplitude_fit(windows, bound):
    """ML amplitude t_k / d_k and offset of the GPMF node (the center) and
    of the GLRT/ML node (the argmax of t_k^2 / d_k), t = windows @ (R^{-1}S)^T."""
    t = (windows @ bound.whitened.T)[0]

    def fit(k):
        e1, e2 = bound.bank.offsets[k]
        return float(t[k] / bound.gram[k]), float(e1), float(e2)

    return {"GPMF": fit(bound.bank.center_index), "GLRT": fit(np.argmax(t * t / bound.gram))}


def _check_finite(path, outputs):
    """Fail with a numerical error rather than print a non-finite result
    for a window of finite entries (t^2 can overflow)."""
    bad = [name for name, value in outputs.items() if not np.all(np.isfinite(value))]
    if bad:
        raise FloatingPointError(f"{path}: non-finite result for {', '.join(bad)}")


def cmd_score(args, cfg):
    windows, w = _read_window(args)
    bound, bound9, subspace = _window_context(args, cfg, w, DETECTOR_IDS)
    scores = batch_scores(windows, bound, bound9, subspace)
    fits = _amplitude_fit(windows, bound)
    _check_finite(args.window, scores)
    _check_finite(args.window, fits)
    print("detector,score,alpha_hat,eps1_hat,eps2_hat")
    for det in DETECTOR_IDS:
        alpha, e1, e2 = (repr(v) for v in fits[det]) if det in fits else ("", "", "")
        print(f"{det},{float(scores[det][0])!r},{alpha},{e1},{e2}")
    return 0


def cmd_estimate(args, cfg):
    windows, w = _read_window(args)
    bound, _, _ = _window_context(args, cfg, w, ())
    estimates = batch_estimates(windows, bound)
    fit = _amplitude_fit(windows, bound)["GLRT"]
    _check_finite(args.window, {**estimates, "alpha_hat": fit})
    alpha = {"ML": repr(fit[0])}
    print("estimator,eps1,eps2,alpha_hat")
    for name in ESTIMATOR_IDS:
        e1, e2 = estimates[name][0]
        print(f"{name},{float(e1)!r},{float(e2)!r},{alpha.get(name, '')}")
    return 0


def cmd_experiment(args, cfg):
    """roc or mse, after the subcommand: run it, write <kind>.csv and meta.json."""
    started = time.perf_counter()      # monotonic: a clock step moves no duration
    kind = args.command
    # looked up per call, so that wrappers installed on harness take effect
    result = getattr(harness, f"run_{kind}")(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{kind}.csv"
    getattr(harness, f"write_{kind}_csv")(result, path)
    _write_manifest(out_dir, cfg, started, [path])
    print(f"wrote {path}")
    return 0


def cmd_theoretical_roc(args, cfg):
    if cfg.snr_db is None:
        raise ConfigError("theoretical-roc needs --snr-db")
    if cfg.eps_fixed and args.grid_size is not None:
        # only the mean curve reads the grid
        raise ConfigError("theoretical-roc takes --grid-size or --eps-fixed, not both")
    psf = optics.effective_psf(cfg.r_c, cfg.w)
    specs = ([("fixed", cfg.eps_fixed)] if cfg.eps_fixed else
             [("ideal", (0.0, 0.0)), ("worst-corner", (0.5, 0.5)), ("mean", "mean")])
    # every curve first, so that a refused input writes nothing
    curves = [(name, harness.theoretical_pmf_roc(cfg.snr_db, eps, psf, cfg.grid_size))
              for name, eps in specs]
    with _open_out(args.out) as stream:
        stream.write("curve,pfa,pd\n")
        for name, (pfa_grid, pd_grid) in curves:
            for pfa, pd in zip(pfa_grid.tolist(), pd_grid.tolist()):
                stream.write(f"{name},{pfa!r},{pd!r}\n")
    return 0


# ---------------------------------------------------------------------------

def _add_field_flags(parser, names):
    """Add --<field-with-dashes> for each named ExperimentConfig field,
    parsed as its annotated type and defaulting to None, so that
    resolve_config can tell a given flag from an absent one."""
    for name in names:
        kind = _CONFIG_FIELDS[name]
        parse = lambda raw, kind=kind: _parse_value(kind, raw)
        parse.__name__ = kind.__name__      # argparse: "invalid <name> value"
        parser.add_argument("--" + name.replace("_", "-"), type=parse)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subpixdet",
        description="Subpixel point-target detection and position estimation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("signature", help="render a pixel-integrated spot")
    _add_field_flags(p, ("r_c", "w", "eps_fixed"))
    p.add_argument("--sweep", action="store_true",
                   help="render the five example offsets instead of --eps-fixed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("clutter", help="synthesize fractal clutter")
    _add_field_flags(p, ("hurst", "seed"))
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--acf", action="store_true", help="also write acf.csv")
    p.add_argument("--max-lag", type=int, default=4)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_clutter)

    for name, func, what in (("score", cmd_score, "run all five detectors"),
                             ("estimate", cmd_estimate, "run the position estimators")):
        p = sub.add_parser(name, help=f"{what} on a window CSV")
        p.add_argument("--window", required=True, help="window CSV path")
        _add_field_flags(p, ("r_c", "grid_size", "sigma", "ridge"))
        p.add_argument("--acf-file", help="autocovariance CSV (else white noise)")
        p.add_argument("--remove-mean", action="store_true",
                       help="subtract the window's empirical mean first")
        p.set_defaults(func=func)

    for name, what in (("roc", "ROC"), ("mse", "estimator MSE")):
        p = sub.add_parser(name, help=f"Monte Carlo {what} experiment")
        p.add_argument("--config", help="JSON config: an object of fields or a meta.json")
        p.add_argument("--preset", help="built-in preset name")
        p.add_argument("--out", default=".", help="output directory")
        _add_field_flags(p, [key for key in _CONFIG_FIELDS if key not in harness.UNREAD[name]])
        p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("theoretical-roc", help="closed-form PMF ROC curves")
    _add_field_flags(p, ("snr_db", "r_c", "w", "grid_size", "eps_fixed"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_theoretical_roc)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code 1
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args, resolve_config(args, args.command))
    except BrokenPipeError:
        # stdout closed early (`| head`): SIGPIPE's status, and no error at the last flush
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, MemoryError) as exc:
        # bad input (a ConfigError is a ValueError), file errors, out of
        # memory; a LinAlgError reaches neither clause (clutter converts it)
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 1
    except (IndefiniteCovarianceError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
