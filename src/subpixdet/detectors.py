"""The five detection statistics and the three position estimators,
computed on a stack of data windows.

All detectors score mean-removed window vectors z against a signature
bank bound to a covariance model.  GPMF assumes a pixel-centered target;
GLRT maximizes over the offset grid; ELRT marginalizes the offset by
quadrature of the flat-amplitude-prior likelihood ratio; ALRT is the
same integral under another rule, the coarse 3x3 half-pixel trapezoid.
Each bank carries its rule (SignatureBank.log_weights over its leading
nodes), so one integral serves both.  SM-GLRT replaces the signature
family by its leading singular subspace.

The ML estimator picks the offset-grid node maximizing the same
amplitude-ML filter the GLRT thresholds, so both share one code path.
The posterior-mean (PM) estimator averages the rule's nodes under the
amplitude-marginalized posterior; its weights are the ELRT integrand,
shifted by its row max in place, as in the ELRT.  The default estimator
always answers the pixel center, whose per-axis MSE against a uniform
true offset is 1/12.

The ratios t^2/d of a call live in one (N, K) buffer.  Each pass of the
log-sum-exp runs over the whole contiguous buffer, the columns past the
rule first set to the rule's row max so that they reach exp as 0.  The
exponents are floored at _EXP_FLOOR, where exp is still normal and
fast; a floored weight lies below ulp of its row sum, so only PM's
weighted node sum can move, by a broken rounding tie of at most 2 ulp.

One window is scored or estimated as a batch of one, so a single-window
score is the statistic the Monte Carlo measured.

ELRT and ALRT scores are reported in the log domain: the likelihood
ratio integrand grows like exp(t^2/2) and overflows at high amplitude,
and the log is a monotone transform so thresholding is unaffected.
"""

import numpy as np

__all__ = [
    "DETECTOR_IDS",
    "ESTIMATOR_IDS",
    "build_subspace",
    "batch_scores",
    "batch_estimates",
]

DETECTOR_IDS = ("GPMF", "GLRT", "ELRT", "ALRT", "SM-GLRT")
ESTIMATOR_IDS = ("ML", "PM", "DEFAULT")

# The log-sum-exp's exponent floor: exp(-700) = 9.9e-305 is still a
# normal number, and numpy's exp slows down many times below about -708.
_EXP_FLOOR = -700.0


def build_subspace(bank, order=1):
    """SVD of the raw (unwhitened) signature family, top singular vectors.

    Returns the (n, P) basis of the leading singular subspace, P = order,
    with orthonormal columns; each column's largest-magnitude entry is
    positive.  P is at most min(K, n), the thin SVD's column count.  The
    subspace is noise-independent; whitening enters only through the
    SM-GLRT quadratic form.
    """
    if not 1 <= order <= min(bank.vectors.shape):
        raise ValueError(f"subspace order must be in [1, {min(bank.vectors.shape)}]")
    u = np.linalg.svd(bank.vectors.T, full_matrices=False)[0]
    basis = u[:, :order].copy()
    for p in range(order):
        if basis[np.argmax(np.abs(basis[:, p])), p] < 0:
            basis[:, p] = -basis[:, p]
    return basis


# ---------------------------------------------------------------------------
# Scoring and estimation, shared by the Monte Carlo harness and the CLI.

def _ratios(windows, bound):
    """Per-node amplitude-ML ratios t^2 / gram, t = windows @ (R^{-1}S)^T,
    of a float (N, n) array, in one fresh (N, K) buffer."""
    r = windows @ bound.whitened.T
    r *= r
    r /= bound.gram
    return r


def _weights(ratios, bound, log_weights, rule_max):
    """Turn ratios (N, K) into the rule's weights in place; return the
    rule's (N, M) view of them and their log scale.

    rule_max is the row max of the rule's ratios.  With
    c_k = log(weight_k) - log(d_k)/2 and m0 = rule_max/2, afterwards the
    rule's columns hold exp(ratio/2 - m0 + c - max(c)), so
    log sum_k weight_k exp(ratio_k/2) / sqrt(d_k) is m0 + max(c) +
    log(row sum): the shifted log-sum-exp, accurate without overflow
    (Blanchard, Higham & Higham 2021).  m0 goes off before c goes on, so
    at large t^2/d no exponent is rounded at the scale of ulp(ratio/2).
    An infinite m0 is replaced by 0, as scipy.special.logsumexp does.

    Every pass runs over the whole contiguous buffer: the columns past
    the rule are first set to rule_max, so they reach exp as 0.  Exponents
    are floored at _EXP_FLOOR, where exp still returns a normal number;
    below it numpy's exp leaves its fast path, and a floored weight is
    below ulp of the row sum, which holds a weight of at least
    exp(min(c) - max(c)).
    """
    n = len(bound.bank.log_weights)
    ratios[:, n:] = rule_max[:, None]
    ratios *= 0.5
    m = rule_max * 0.5
    m[~np.isfinite(m)] = 0.0
    ratios -= m[:, None]
    c = log_weights - 0.5 * np.log(bound.gram[:n])
    c_max = c.max()
    shift = np.zeros(ratios.shape[1])
    shift[:n] = c - c_max
    ratios += shift
    np.maximum(ratios, _EXP_FLOOR, out=ratios)
    np.exp(ratios, out=ratios)
    return ratios[:, :n], m + c_max


def _rule_max(ratios, bound):
    """Row max of the ratios over the rule of bound's bank."""
    return ratios[:, :len(bound.bank.log_weights)].max(axis=1)


def _log_integral(ratios, bound, rule_max):
    """log sum_k weight_k exp(ratio_k/2) / sqrt(d_k) per row, over the
    rule of bound's bank; overwrites ratios."""
    weights, scale = _weights(ratios, bound, bound.bank.log_weights, rule_max)
    return scale + np.log(weights.sum(axis=1))


# t^2 can overflow, without a warning: the callers refuse non-finite results
@np.errstate(over="ignore", invalid="ignore")
def batch_scores(windows, bound, bound9=None, subspace=None,
                 detectors=DETECTOR_IDS):
    """Score a stack of windows with the selected detectors.

    Returns a dict detector -> (N,) score array.  GPMF is t^2/d at the
    exact-center node; GLRT is its maximum over the bank; ELRT is the
    log-integral of exp(t^2 / (2d)) / sqrt(d) under the bank's rule (the
    grid nodes, equally weighted); ALRT is the same integral under the
    9-node bank's rule (the trapezoid); SM-GLRT is
    z^T R^{-1} S (S^T R^{-1} S)^{-1} S^T R^{-1} z, with S the
    build_subspace basis passed as subspace.

    The full-bank detectors share one (N, K) buffer, which ELRT then
    overwrites (see SignatureBank).  GLRT is the larger of the rule's row
    max and the columns past the rule, the bits of the buffer's row max.
    """
    windows = np.asarray(windows, dtype=float)
    out = {}
    if any(d in detectors for d in ("GPMF", "GLRT", "ELRT")):
        ratios = _ratios(windows, bound)
        if "GPMF" in detectors:
            out["GPMF"] = ratios[:, bound.bank.center_index].copy()
        if "GLRT" in detectors or "ELRT" in detectors:
            rule_max = _rule_max(ratios, bound)
        if "GLRT" in detectors:
            past = ratios[:, len(bound.bank.log_weights):].max(axis=1, initial=-np.inf)
            out["GLRT"] = np.maximum(rule_max, past)
        if "ELRT" in detectors:
            out["ELRT"] = _log_integral(ratios, bound, rule_max)
    if "ALRT" in detectors:
        if bound9 is None or len(bound9.bank.log_weights) != 9:
            raise ValueError("ALRT selected but no 9-node bank supplied")
        ratios9 = _ratios(windows, bound9)
        out["ALRT"] = _log_integral(ratios9, bound9, _rule_max(ratios9, bound9))
    if "SM-GLRT" in detectors:
        if subspace is None:
            raise ValueError("SM-GLRT selected but no subspace supplied")
        # row by row in einsum's own loops: a BLAS gemv or solve over the
        # whole stack may split its rows between threads and round the
        # rows at the split differently
        wh = bound.cov.solve(subspace)
        tsub = np.einsum("nk,kp->np", windows, wh)             # (N, P)
        out["SM-GLRT"] = np.einsum("np,pq,nq->n", tsub,
                                   np.linalg.inv(subspace.T @ wh), tsub)
    return out


@np.errstate(over="ignore", invalid="ignore")
def batch_estimates(windows, bound, estimators=ESTIMATOR_IDS):
    """Offset estimates for a stack of windows.

    Returns a dict estimator -> (N, 2) array of offset estimates.  ML is
    the GLRT argmax node (ties resolve to the first node in bank order);
    PM averages the nodes of the bank's rule with weights proportional
    to exp(t_k^2 / (2 d_k)) / sqrt(d_k), so it stays inside their convex
    hull; DEFAULT is (0, 0).  PM leaves the rule's log weights out: the
    grid's are equal and cancel in the ratio, and folding them into the
    exponent would only change its rounding.
    """
    windows = np.asarray(windows, dtype=float)
    out = {}
    if "ML" in estimators or "PM" in estimators:
        ratios = _ratios(windows, bound)
        best = np.argmax(ratios, axis=1)
    if "ML" in estimators:
        out["ML"] = bound.bank.offsets[best]
    if "PM" in estimators:
        # the argmax's value is the rule's row max unless the argmax lies
        # past the rule
        n = len(bound.bank.log_weights)
        rule_max = np.take_along_axis(ratios, best[:, None], axis=1)[:, 0]
        past = best >= n
        if past.any():
            rule_max[past] = ratios[past, :n].max(axis=1)
        weights, _ = _weights(ratios, bound, 0.0, rule_max)
        out["PM"] = (weights @ bound.bank.offsets[:n]) / weights.sum(axis=1)[:, None]
    if "DEFAULT" in estimators:
        out["DEFAULT"] = np.zeros((len(windows), 2))
    return out
