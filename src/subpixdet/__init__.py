"""Subpixel point-target detection and position estimation in aliased optics."""

__version__ = "0.1.0"

from .optics import (
    PsfModel, EffectivePsf, Signature, SignatureBank, bessel_j1, psf_value,
    render_signature, average_energy, build_signature_bank,
)
from .clutter import (
    NoiseField, CovarianceModel, IndefiniteCovarianceError,
    sample_white, synthesize_fbm, remove_mean, estimate_autocovariance,
    assemble_window_covariance, white_covariance,
)
from .detectors import (
    DetectorScore, SubspaceModel, matched_statistic, gpmf, glrt, elrt, alrt,
    build_subspace, sm_glrt,
)
from .estimators import PositionEstimate, estimate_ml, estimate_pm, estimate_default
from .harness import (
    ExperimentConfig, RocCurve, MseReport, snr_to_alpha,
    empirical_roc_from_scores, run_roc, run_mse, theoretical_pmf_roc,
)
