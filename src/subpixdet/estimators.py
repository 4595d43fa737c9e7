"""Subpixel position estimators: ML, posterior mean, and the center default.

The ML estimator picks the offset-grid node maximizing the same
amplitude-ML filter the GLRT thresholds, so both share one code path.
The posterior-mean (PM) estimator averages the grid nodes under the
amplitude-marginalized posterior; its weights are the ELRT integrand,
shifted by its row max in place, as in the ELRT.  The default estimator
always answers the pixel center, whose per-axis MSE against a uniform
true offset is 1/12.
One window is estimated as a batch of one.
"""

import numpy as np

from .detectors import _ratios, _shifted_exp

__all__ = [
    "ESTIMATOR_IDS",
    "batch_estimates",
]

ESTIMATOR_IDS = ("ML", "PM", "DEFAULT")


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
    ratios = _ratios(windows, bound)
    if "ML" in estimators:
        out["ML"] = bound.bank.offsets[np.argmax(ratios, axis=1)]
    if "PM" in estimators:
        g = bound.bank.grid_size ** 2
        weights = ratios[:, :g]
        _shifted_exp(weights, bound.gram[:g], 0.0)
        out["PM"] = (weights @ bound.bank.offsets[:g]) / weights.sum(axis=1)[:, None]
    if "DEFAULT" in estimators:
        out["DEFAULT"] = np.zeros((len(windows), 2))
    return out
