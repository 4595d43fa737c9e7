"""Detection in fractal cloud clutter.

Synthesizes a fractional-Brownian-motion background (Hurst 0.7), writes
it out as a PGM image, estimates its autocovariance, and runs a small
detection experiment with the empirical window covariance doing the
whitening.
"""

from pathlib import Path

import numpy as np

from subpixdet.clutter import estimate_autocovariance, synthesize_fbm, write_pgm
from subpixdet.harness import ExperimentConfig, run_roc

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

field = synthesize_fbm(0.7, size=256, seed=1, crop=200)
write_pgm(field, out_dir / "clutter.pgm")
print(f"wrote {out_dir / 'clutter.pgm'} "
      f"({field.values.shape[0]}x{field.values.shape[1]}, unit variance)")

acf = estimate_autocovariance(field, max_lag=4)
print("\nautocovariance (normalized, lags 0..4 along one axis):")
print("  " + " ".join(f"{acf[4, 4 + lag] / acf[4, 4]:.3f}" for lag in range(5)))
print("strong positive correlation at short lags: the clutter is smooth,")
print("so whitening by the estimated covariance buys a lot.")

config = ExperimentConfig(noise="fractal", hurst=0.7, alpha=0.12,
                          image_size=512, n_h0=5_000, n_h1=5_000,
                          train_equals_test=True, seed=1, jobs=2,
                          detectors=("GPMF", "GLRT", "ELRT", "ALRT"))
curves = {c.detector: c for c in run_roc(config)}

print(f"\nfractal clutter, amplitude/clutter-sigma = {config.alpha}, "
      f"{config.n_h1:,} trials per hypothesis")
for name, curve in curves.items():
    print(f"  {name:<6} Pd@Pfa=0.05 = {np.interp(0.05, curve.pfa, curve.pd):.3f}")
