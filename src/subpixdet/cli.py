"""Command-line front end.

Subcommands: signature | clutter | score | estimate | roc | mse |
theoretical-roc.  Experiment subcommands resolve their configuration
from built-in presets, then a key=value config file, then CLI flags
(later sources win), and write a meta.json manifest recording the fully
resolved configuration so any run can be replayed exactly.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

import argparse
import contextlib
import csv
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import clutter, harness, optics
from .clutter import IndefiniteCovarianceError
from .detectors import (
    DETECTOR_IDS, ESTIMATOR_IDS, batch_estimates, batch_scores, batch_statistics,
)
from .harness import ConfigError, ExperimentConfig
from .optics import PsfModel

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
        item = kind.__args__[0]
        return tuple(item(tok.strip()) for tok in raw.split(",") if tok.strip())
    return kind(raw)


def load_config_file(path):
    """Parse a flat key=value config file (or a meta.json manifest)."""
    path = Path(path)
    if path.suffix == ".json":
        manifest = json.loads(path.read_text())
        cfg = manifest.get("config", manifest)
        return {k: tuple(v) if isinstance(v, list) else v
                for k, v in cfg.items() if k in _CONFIG_FIELDS}
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(_CONFIG_FIELDS[key], raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}")
    return values


def resolve_config(args, kind):
    """Preset < config file < CLI flags, in increasing precedence."""
    values = {}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r} "
                              f"(known: {', '.join(sorted(PRESETS))})")
        preset = dict(PRESETS[args.preset])
        if preset.pop("kind") != kind:
            raise ConfigError(f"preset {args.preset!r} is not a {kind} preset")
        values.update(preset)
    if args.config:
        values.update(load_config_file(args.config))
    for key in _CONFIG_FIELDS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return ExperimentConfig(**values).validate()


def _parse_eps(raw):
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected eps as 'e1,e2', got {raw!r}")
    return float(parts[0]), float(parts[1])


def _check_offset(eps):
    e1, e2 = float(eps[0]), float(eps[1])
    if not (-0.5 <= e1 < 0.5 and -0.5 <= e2 < 0.5):
        raise ValueError(f"subpixel offset {eps} outside [-0.5, 0.5[^2")
    return e1, e2


def _write_manifest(out_dir, config, started, outputs):
    manifest = {
        "tool": "subpixdet",
        "version": __version__,
        "config": config.asdict(),
        "seed": config.seed,
        "duration_seconds": round(time.time() - started, 3),
        "outputs": [str(p) for p in outputs],
    }
    path = Path(out_dir) / "meta.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _open_out(path):
    """The file at path for writing, or stdout (left open) when path is None."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _emit_patch(values, stream):
    writer = csv.writer(stream)
    for row in values:
        writer.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# subcommands

def cmd_signature(args):
    offsets = SWEEP_OFFSETS if args.sweep else (_check_offset(_parse_eps(args.eps)),)
    psf = optics.EffectivePsf(PsfModel(args.rc), args.w)
    patches = optics.render_signature_batch(psf, offsets, args.w)
    n_pix = 2 * args.w + 1
    with _open_out(args.out) as stream:
        for eps, patch in zip(offsets, patches):
            if args.sweep:
                stream.write(f"# eps={eps[0]},{eps[1]}\n")
            _emit_patch(patch.reshape(n_pix, n_pix), stream)
    return 0


def cmd_clutter(args):
    if args.size < 2:
        raise ConfigError(f"--size must be >= 2, got {args.size}")
    size = 1
    while size < args.size:
        size *= 2
    crop = args.size if args.size != size else None
    field = clutter.synthesize_fbm(args.hurst, size, seed=args.seed, crop=crop)
    table = clutter.estimate_autocovariance(field, args.max_lag) if args.acf else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    clutter.write_pgm(field, out_dir / "clutter.pgm")
    with open(out_dir / "clutter.csv", "w", newline="") as fh:
        _emit_patch(field.values, fh)
    if args.acf:
        with open(out_dir / "acf.csv", "w", newline="") as fh:
            _emit_patch(table, fh)
    return 0


def _load_table(path, what):
    """A square, odd-sized CSV table of finite numbers; anything else is a
    ConfigError that names the file."""
    rows = []
    with open(path) as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            try:
                rows.append([float(tok) for tok in row])
            except ValueError as exc:
                raise ConfigError(f"{path}:{reader.line_num}: {exc}") from None
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise ConfigError(f"{path}: rows differ in length ({lengths})")
    arr = np.array(rows)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 == 0:
        raise ConfigError(f"{path}: expected a square odd-sized {what}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}: {what} entries must be finite")
    return arr


def _window_context(args, w):
    if args.acf_file:
        table = _load_table(args.acf_file, "autocovariance table")
        cov = clutter.assemble_window_covariance(table, w, lam=args.ridge)
    else:
        cov = clutter.white_covariance(args.sigma, w)
    return harness.bind_detectors(optics.EffectivePsf(PsfModel(args.rc), w), cov,
                                  args.grid_size)


def _read_window(args):
    """The window as a batch of one row vector, and its half-width."""
    window = _load_table(args.window, "window")
    z = window.ravel() - (window.mean() if args.remove_mean else 0.0)
    return z[None, :], (window.shape[0] - 1) // 2


def _amplitude_fit(windows, bound):
    """ML amplitude t_k / d_k and offset of the GPMF node (the center) and
    of the GLRT/ML node (the argmax)."""
    t, ratios = batch_statistics(windows, bound)

    def fit(k):
        e1, e2 = bound.bank.offsets[k]
        return float(t[0, k] / bound.gram[k]), float(e1), float(e2)

    return {"GPMF": fit(bound.bank.center_index), "GLRT": fit(int(np.argmax(ratios[0])))}


def _check_finite(path, outputs):
    """Fail with a numerical error rather than print a non-finite result
    for a window of finite entries (t^2 can overflow)."""
    bad = [name for name, value in outputs.items() if not np.all(np.isfinite(value))]
    if bad:
        raise FloatingPointError(f"{path}: non-finite result for {', '.join(bad)}")


def cmd_score(args):
    windows, w = _read_window(args)
    bound, bound9, subspace = _window_context(args, w)
    scores = batch_scores(windows, bound, bound9, subspace)
    fits = _amplitude_fit(windows, bound)
    _check_finite(args.window, scores)
    _check_finite(args.window, fits)
    print("detector,score,alpha_hat,eps1_hat,eps2_hat")
    for det in DETECTOR_IDS:
        alpha, e1, e2 = (repr(v) for v in fits[det]) if det in fits else ("", "", "")
        print(f"{det},{float(scores[det][0])!r},{alpha},{e1},{e2}")
    return 0


def cmd_estimate(args):
    windows, w = _read_window(args)
    bound, _, _ = _window_context(args, w)
    estimates = batch_estimates(windows, bound)
    fit = _amplitude_fit(windows, bound)["GLRT"]
    _check_finite(args.window, {**estimates, "alpha_hat": fit})
    alpha = {"ML": repr(fit[0])}
    print("estimator,eps1,eps2,alpha_hat")
    for name in ESTIMATOR_IDS:
        e1, e2 = estimates[name][0]
        print(f"{name},{float(e1)!r},{float(e2)!r},{alpha.get(name, '')}")
    return 0


def cmd_experiment(args):
    """roc or mse, after the subcommand: run it, write <kind>.csv and meta.json."""
    started = time.time()
    kind = args.command
    config = resolve_config(args, kind)
    # looked up per call, so that wrappers installed on harness take effect
    result = getattr(harness, f"run_{kind}")(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{kind}.csv"
    getattr(harness, f"write_{kind}_csv")(result, path)
    _write_manifest(out_dir, config, started, [path])
    print(f"wrote {path}")
    return 0


def cmd_theoretical_roc(args):
    bank = optics.build_signature_bank(PsfModel(args.rc), args.grid_size, args.w)
    specs = [("ideal", (0.0, 0.0)), ("worst-corner", (0.5, 0.5)), ("mean", "mean")]
    if args.eps:
        specs = [("fixed", _parse_eps(args.eps))]
    # every curve first, so that a refused input writes nothing
    curves = [(name, harness.theoretical_pmf_roc(args.snr_db, eps_star, bank,
                                                 sigma=args.sigma))
              for name, eps_star in specs]
    with _open_out(args.out) as stream:
        stream.write("curve,pfa,pd\n")
        for name, curve in curves:
            for pfa, pd in zip(curve.pfa.tolist(), curve.pd.tolist()):
                stream.write(f"{name},{pfa!r},{pd!r}\n")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="subpixdet",
        description="Subpixel point-target detection and position estimation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("signature", help="render a pixel-integrated spot")
    p.add_argument("--rc", type=float, default=ExperimentConfig.r_c)
    p.add_argument("--eps", default="0,0", help="subpixel offset 'e1,e2'")
    p.add_argument("--w", type=int, default=ExperimentConfig.w)
    p.add_argument("--sweep", action="store_true",
                   help="render the five example offsets instead of --eps")
    p.add_argument("--out")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("clutter", help="synthesize fractal clutter")
    p.add_argument("--hurst", type=float, default=0.7)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--acf", action="store_true", help="also write acf.csv")
    p.add_argument("--max-lag", type=int, default=4)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_clutter)

    for name, func, what in (("score", cmd_score, "run all five detectors"),
                             ("estimate", cmd_estimate, "run the position estimators")):
        p = sub.add_parser(name, help=f"{what} on a window CSV")
        p.add_argument("--window", required=True, help="window CSV path")
        p.add_argument("--rc", type=float, default=ExperimentConfig.r_c)
        p.add_argument("--grid-size", type=int, default=ExperimentConfig.grid_size)
        p.add_argument("--sigma", type=float, default=ExperimentConfig.sigma)
        p.add_argument("--acf-file", help="autocovariance CSV (else white noise)")
        p.add_argument("--ridge", type=float, default=ExperimentConfig.ridge)
        p.add_argument("--remove-mean", action="store_true",
                       help="subtract the window's empirical mean first")
        p.set_defaults(func=func)

    for name, what in (("roc", "ROC"), ("mse", "estimator MSE")):
        p = sub.add_parser(name, help=f"Monte Carlo {what} experiment")
        p.add_argument("--config", help="key=value config file or meta.json manifest")
        p.add_argument("--preset", help="built-in preset name")
        p.add_argument("--out", default=".", help="output directory")
        for key, kind in _CONFIG_FIELDS.items():
            p.add_argument("--" + key.replace("_", "-"),
                           type=lambda raw, kind=kind: _parse_value(kind, raw))
        p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("theoretical-roc", help="closed-form PMF ROC curves")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--eps", help="fixed true offset 'e1,e2' (default: the trio)")
    p.add_argument("--rc", type=float, default=ExperimentConfig.r_c)
    p.add_argument("--w", type=int, default=ExperimentConfig.w)
    p.add_argument("--grid-size", type=int, default=ExperimentConfig.grid_size)
    p.add_argument("--sigma", type=float, default=ExperimentConfig.sigma)
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
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IndefiniteCovarianceError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
