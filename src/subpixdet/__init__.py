"""Subpixel point-target detection and position estimation in aliased optics."""

__version__ = "0.1.0"

from .optics import (
    PsfModel, EffectivePsf, SignatureBank, psf_value,
    render_signature_batch, average_energy, build_signature_bank,
)
from .clutter import (
    NoiseField, CovarianceModel, IndefiniteCovarianceError,
    synthesize_fbm, estimate_autocovariance,
    assemble_window_covariance, white_covariance,
)
from .detectors import build_subspace, batch_scores, batch_estimates
from .harness import (
    ExperimentConfig, RocCurve, snr_to_alpha,
    empirical_roc_from_scores, run_roc, run_mse, theoretical_pmf_roc,
)
