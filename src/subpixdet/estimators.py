"""Subpixel position estimators: ML, posterior mean, and the center default.

The ML estimator picks the offset-grid node maximizing the same
amplitude-ML filter the GLRT thresholds, so both share one code path.
The posterior-mean (PM) estimator averages the grid nodes under the
amplitude-marginalized posterior; its weights use the same log-domain
stabilization as the ELRT.  The default estimator always answers the
pixel center, whose per-axis MSE against a uniform true offset is 1/12.
One window is estimated as a batch of one.
"""

import numpy as np
from scipy.special import logsumexp

from .detectors import batch_statistics

__all__ = [
    "ESTIMATOR_IDS",
    "batch_estimates",
]

ESTIMATOR_IDS = ("ML", "PM", "DEFAULT")


def _pm_log_weights(ratios, bound):
    gi = bound.bank.grid_indices
    return ratios[..., gi] / 2 - 0.5 * np.log(bound.gram[gi])


def batch_estimates(windows, bound, estimators=ESTIMATOR_IDS):
    """Offset estimates for a stack of windows.

    Returns a dict estimator -> (N, 2) array of offset estimates.  ML is
    the GLRT argmax node (ties resolve to the first node in bank order);
    PM averages the grid nodes with weights proportional to
    exp(t_k^2 / (2 d_k)) / sqrt(d_k), so it stays inside their convex
    hull; DEFAULT is (0, 0).
    """
    windows = np.asarray(windows, dtype=float)
    out = {}
    t, ratios = batch_statistics(windows, bound)
    if "ML" in estimators:
        k = np.argmax(ratios, axis=1)
        out["ML"] = bound.bank.offsets[k]
    if "PM" in estimators:
        logw = _pm_log_weights(ratios, bound)
        logw -= logsumexp(logw, axis=1, keepdims=True)
        out["PM"] = np.exp(logw) @ bound.bank.offsets[bound.bank.grid_indices]
    if "DEFAULT" in estimators:
        out["DEFAULT"] = np.zeros((len(windows), 2))
    return out
