"""Queries the tests make of package objects, which the package itself
never makes."""

import math

import numpy as np

from subpixdet import harness
from subpixdet.optics import render_signature_batch


def signature(psf, eps, w):
    """One offset's (2w+1, 2w+1) signature patch: render_signature_batch
    on a batch of one."""
    return render_signature_batch(psf, [eps], w)[0].reshape(2 * w + 1, 2 * w + 1)


def pd_at_pfa(curve, pfa):
    """Interpolated Pd of a RocCurve at the requested false-alarm rate(s)."""
    return np.interp(pfa, curve.pfa, curve.pd)


def pfa_at_pd(curve, pd_target):
    """Smallest observed Pfa whose Pd reaches the target (curve walk)."""
    idx = np.flatnonzero(curve.pd >= pd_target)
    if len(idx) == 0:
        return 1.0
    return float(curve.pfa[idx[0]])


def mse_row(rows, estimator, snr_db):
    """The run_mse row of one estimator at one SNR point."""
    for row in rows:
        if row["estimator"] == estimator and math.isclose(row["snr_db"], snr_db):
            return row
    raise KeyError((estimator, snr_db))


def subspace_order(subspace):
    return subspace.basis.shape[1]


def covariance_size(cov):
    """Pixels in the window a CovarianceModel covers."""
    return (2 * cov.w + 1) ** 2


def energy_cache():
    """The lru_cache behind harness.average_energy_cached."""
    return harness._average_energy
