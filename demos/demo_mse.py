"""How well can you localize a point target inside a pixel?

Sweeps SNR and compares three position estimators: the ML grid search,
the posterior mean (PM), and the do-nothing default that always answers
the pixel center (per-axis MSE exactly 1/12 against a uniform truth).
"""

import numpy as np

from subpixdet.harness import ExperimentConfig, run_mse

config = ExperimentConfig(snr_sweep=(10.0, 15.0, 20.0, 30.0),
                          n_trials=3_000, seed=0, jobs=2)
rows = {(row["estimator"], row["snr_db"]): row for row in run_mse(config)}

print(f"white noise, r_c = {config.r_c}, {config.n_trials:,} trials per point")
print(f"default baseline: total MSE = 2/12 = {2 / 12:.4f}\n")
print("  SNR(dB)      ML        PM   DEFAULT")
for snr in config.snr_sweep:
    cells = "".join(f"{rows[name, snr]['mse_total']:10.4f}"
                    for name in ("ML", "PM", "DEFAULT"))
    print(f"  {snr:7.1f}" + cells)

print("\nAt low SNR nothing beats the prior (everyone sits near 2/12); the")
print("PM estimator improves first because averaging over the posterior")
print("shrinks toward the center; at high SNR both informed estimators")
print("collapse toward the grid quantization floor.")
