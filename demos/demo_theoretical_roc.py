"""Closed-form performance of the pixel matched filter.

The matched filter tuned to a pixel-centered target has a closed-form
ROC in white noise. Its detection probability collapses when the true
target sits off-center — the motivating gap the grid-search and
marginalizing detectors close.
"""

import numpy as np

from subpixdet.harness import theoretical_pmf_roc
from subpixdet.optics import PsfModel, build_signature_bank

SNR_DB = 15.0
bank = build_signature_bank(PsfModel(2.44), grid_size=20, w=2)

curves = {
    "centered target (ideal)": theoretical_pmf_roc(SNR_DB, (0.0, 0.0), bank),
    "corner target (worst)": theoretical_pmf_roc(SNR_DB, (0.5, 0.5), bank),
    "uniform random target": theoretical_pmf_roc(SNR_DB, "mean", bank),
}

print(f"Pixel matched filter, white noise, SNR = {SNR_DB} dB\n")
header = "  Pfa      " + "".join(f"{name:>26}" for name in curves)
print(header)
for pfa in (1e-6, 1e-4, 1e-2):
    row = f"  {pfa:8.0e}"
    for curve in curves.values():
        row += f"{np.interp(pfa, curve.pfa, curve.pd):26.4f}"
    print(row)

print("\nAt Pfa = 1e-4 the filter catches a centered target almost surely")
print("but a uniformly random one only ~80% of the time, and a corner")
print("target almost never — subpixel position matters enormously.")
