"""How aliasing scrambles a point target's pixel footprint.

Renders the pixel-integrated spot of a diffraction-limited optic at a
few subpixel positions, for the common aliased sensor design (r_c=2.44,
pixel width = Airy main lobe) and the correctly sampled one (r_c=0.5).
Watch the central-pixel energy swing wildly in the first case and stay
nearly constant in the second.
"""

import numpy as np

from subpixdet.optics import EffectivePsf, PsfModel, average_energy, render_signature_batch

OFFSETS = [(0.0, 0.0), (0.25, 0.0), (0.45, 0.45), (-0.3, -0.4)]


def show(r_c, w):
    model = PsfModel(r_c)
    psf = EffectivePsf(model, w)    # one table serves every offset
    sigs = render_signature_batch(psf, OFFSETS, w).reshape(len(OFFSETS), 2 * w + 1, 2 * w + 1)
    print(f"\n=== r_c = {r_c} ({2 * w + 1}x{2 * w + 1} window) ===")
    for eps, sig in zip(OFFSETS, sigs):
        print(f"  offset {eps}: central pixel {sig[w, w]:.3f}, "
              f"window total {sig.sum():.3f}")
    print(f"  average spot energy E = {average_energy(model):.4f}")


print("A centered spot at r_c=2.44 keeps ~85% of its light in one pixel;")
print("a corner-offset spot splits it four ways. That swing is what the")
print("subpixel-aware detectors exploit.")
show(2.44, w=2)
show(0.5, w=5)

print("\nFull 5x5 signature of a corner-offset spot (r_c=2.44):")
sig = render_signature_batch(PsfModel(2.44), [(0.45, 0.45)], w=2)[0]
for row in sig.reshape(5, 5):
    print("   " + " ".join(f"{v:7.4f}" for v in row))
