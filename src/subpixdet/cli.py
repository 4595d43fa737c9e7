"""Command-line front end.

Subcommands: signature | clutter | score | estimate | roc | mse |
theoretical-roc.  Experiment subcommands resolve their configuration
from built-in presets, then a key=value config file, then CLI flags
(later sources win), and write a meta.json manifest recording the fully
resolved configuration so any run can be replayed exactly.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

import argparse
import csv
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from . import clutter, estimators, harness, optics
from .clutter import IndefiniteCovarianceError
from .detectors import alrt, build_subspace, elrt, glrt, gpmf, sm_glrt
from .harness import ConfigError, ExperimentConfig
from .optics import PsfModel

# offsets echoing the paper-style spot gallery: center plus four marked
# example positions
SWEEP_OFFSETS = ((0.0, 0.0), (0.25, 0.0), (-0.45, 0.2), (0.45, 0.45), (-0.3, -0.4))

PRESETS = {
    "fig3": {"kind": "theoretical-roc", "snr_db": 15.0},
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
_TUPLE_KEYS = {"snr_sweep", "detectors", "estimators", "eps_fixed"}
_INT_KEYS = {"w", "grid_size", "q", "image_size", "n_h0", "n_h1", "n_trials",
             "seed", "subspace_order", "jobs"}
_BOOL_KEYS = {"train_equals_test"}
_STR_KEYS = {"noise", "eps_mode"}


def _parse_value(key, raw):
    if key in _TUPLE_KEYS:
        items = [tok.strip() for tok in raw.split(",") if tok.strip()]
        if key in ("detectors", "estimators"):
            return tuple(items)
        return tuple(float(tok) for tok in items)
    if key in _BOOL_KEYS:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ValueError(f"expected a boolean for {key}, got {raw!r}")
    if key in _INT_KEYS:
        return int(raw)
    if key in _STR_KEYS:
        return raw
    return float(raw)


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
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}")
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


def _emit_patch(values, stream):
    writer = csv.writer(stream)
    for row in values:
        writer.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# subcommands

def cmd_signature(args):
    offsets = SWEEP_OFFSETS if args.sweep else (_parse_eps(args.eps),)
    psf = optics.EffectivePsf(PsfModel(args.rc), args.w)
    stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        for eps in offsets:
            sig = optics.render_signature(psf, eps, args.w)
            if args.sweep:
                stream.write(f"# eps={eps[0]},{eps[1]}\n")
            _emit_patch(sig.values, stream)
    finally:
        if args.out:
            stream.close()
    return 0


def cmd_clutter(args):
    size = 1
    while size < args.size:
        size *= 2
    crop = args.size if args.size != size else None
    field = clutter.synthesize_fbm(args.hurst, size, seed=args.seed, crop=crop)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    clutter.write_pgm(field, out_dir / "clutter.pgm")
    with open(out_dir / "clutter.csv", "w", newline="") as fh:
        _emit_patch(field.values, fh)
    if args.acf:
        table = clutter.estimate_autocovariance(field, args.max_lag)
        with open(out_dir / "acf.csv", "w", newline="") as fh:
            _emit_patch(table, fh)
    return 0


def _load_window(path):
    with open(path) as fh:
        rows = [[float(tok) for tok in row] for row in csv.reader(fh) if row]
    arr = np.array(rows)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 == 0:
        raise ConfigError(f"{path}: expected a square odd-sized window, got {arr.shape}")
    return arr


def _window_context(args, w):
    psf = optics.EffectivePsf(PsfModel(args.rc), w)
    bank = optics.build_signature_bank(psf, args.grid_size, w)
    bank9 = optics.build_alrt_bank(psf, w)
    if args.acf_file:
        with open(args.acf_file) as fh:
            table = np.array([[float(tok) for tok in row] for row in csv.reader(fh) if row])
        cov = clutter.assemble_window_covariance(table, w, lam=args.ridge)
    else:
        cov = clutter.white_covariance(args.sigma, w)
    return bank.bind(cov), bank9.bind(cov), build_subspace(bank, 1), cov


def cmd_score(args):
    window = _load_window(args.window)
    z = window.ravel() - (window.mean() if args.remove_mean else 0.0)
    w = (window.shape[0] - 1) // 2
    bound, bound9, subspace, cov = _window_context(args, w)
    scores = [gpmf(z, bound), glrt(z, bound), elrt(z, bound),
              alrt(z, bound9), sm_glrt(z, subspace, cov)]
    print("detector,score,alpha_hat,eps1_hat,eps2_hat")
    for s in scores:
        alpha = "" if s.alpha_hat is None else repr(s.alpha_hat)
        e1, e2 = ("", "") if s.eps_hat is None else (repr(s.eps_hat[0]), repr(s.eps_hat[1]))
        print(f"{s.detector},{s.score!r},{alpha},{e1},{e2}")
    return 0


def cmd_estimate(args):
    window = _load_window(args.window)
    z = window.ravel() - (window.mean() if args.remove_mean else 0.0)
    w = (window.shape[0] - 1) // 2
    bound, _, _, _ = _window_context(args, w)
    results = [estimators.estimate_ml(z, bound), estimators.estimate_pm(z, bound),
               estimators.estimate_default()]
    print("estimator,eps1,eps2,alpha_hat")
    for r in results:
        alpha = "" if r.alpha_hat is None else repr(r.alpha_hat)
        print(f"{r.estimator},{r.eps_hat[0]!r},{r.eps_hat[1]!r},{alpha}")
    return 0


def cmd_roc(args):
    started = time.time()
    config = resolve_config(args, "roc")
    curves = harness.run_roc(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    roc_path = out_dir / "roc.csv"
    harness.write_roc_csv(curves, roc_path)
    _write_manifest(out_dir, config, started, [roc_path])
    print(f"wrote {roc_path}")
    return 0


def cmd_mse(args):
    started = time.time()
    config = resolve_config(args, "mse")
    report = harness.run_mse(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mse_path = out_dir / "mse.csv"
    harness.write_mse_csv(report, mse_path)
    _write_manifest(out_dir, config, started, [mse_path])
    print(f"wrote {mse_path}")
    return 0


def cmd_theoretical_roc(args):
    if args.noise not in (None, "white"):
        raise ConfigError("theoretical ROC is defined for white noise only")
    model = PsfModel(args.rc)
    bank = optics.build_signature_bank(model, args.grid_size, args.w)
    specs = [("ideal", (0.0, 0.0)), ("worst-corner", (0.5, 0.5)), ("mean", "mean")]
    if args.eps:
        specs = [("fixed", _parse_eps(args.eps))]
    stream = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        stream.write("curve,pfa,pd\n")
        for name, eps_star in specs:
            curve = harness.theoretical_pmf_roc(args.snr_db, eps_star, bank,
                                                sigma=args.sigma)
            for pfa, pd in zip(curve.pfa, curve.pd):
                stream.write(f"{name},{pfa!r},{pd!r}\n")
    finally:
        if args.out:
            stream.close()
    return 0


# ---------------------------------------------------------------------------

def _add_experiment_flags(parser):
    parser.add_argument("--config", help="key=value config file or meta.json manifest")
    parser.add_argument("--preset", help="built-in preset name")
    parser.add_argument("--out", default=".", help="output directory")
    for key in _CONFIG_FIELDS:
        flag = "--" + key.replace("_", "-")
        if key in _TUPLE_KEYS:
            parser.add_argument(flag, type=lambda raw, k=key: _parse_value(k, raw))
        elif key in _BOOL_KEYS:
            parser.add_argument(flag, type=lambda raw, k=key: _parse_value(k, raw))
        elif key in _INT_KEYS:
            parser.add_argument(flag, type=int)
        elif key in _STR_KEYS:
            parser.add_argument(flag)
        else:
            parser.add_argument(flag, type=float)


_Q_HELP = "accepted and ignored: rendering no longer uses a quadrature order"


def _add_window_flags(parser):
    parser.add_argument("--window", required=True, help="window CSV path")
    parser.add_argument("--rc", type=float, default=2.44)
    parser.add_argument("--grid-size", type=int, default=20)
    parser.add_argument("--q", type=int, default=optics.DEFAULT_QUAD_ORDER, help=_Q_HELP)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--acf-file", help="autocovariance CSV (else white noise)")
    parser.add_argument("--ridge", type=float, default=1e-6)
    parser.add_argument("--remove-mean", action="store_true",
                        help="subtract the window's empirical mean first")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subpixdet",
        description="Subpixel point-target detection and position estimation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("signature", help="render a pixel-integrated spot")
    p.add_argument("--rc", type=float, default=2.44)
    p.add_argument("--eps", default="0,0", help="subpixel offset 'e1,e2'")
    p.add_argument("--w", type=int, default=2)
    p.add_argument("--q", type=int, default=optics.DEFAULT_QUAD_ORDER, help=_Q_HELP)
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

    p = sub.add_parser("score", help="run all five detectors on a window CSV")
    _add_window_flags(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("estimate", help="run the position estimators on a window CSV")
    _add_window_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("roc", help="Monte Carlo ROC experiment")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("mse", help="Monte Carlo estimator MSE experiment")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_mse)

    p = sub.add_parser("theoretical-roc", help="closed-form PMF ROC curves")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--eps", help="fixed true offset 'e1,e2' (default: the trio)")
    p.add_argument("--rc", type=float, default=2.44)
    p.add_argument("--w", type=int, default=2)
    p.add_argument("--grid-size", type=int, default=20)
    p.add_argument("--q", type=int, default=optics.DEFAULT_QUAD_ORDER, help=_Q_HELP)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--noise", help="must be white (closed form)")
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
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IndefiniteCovarianceError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
