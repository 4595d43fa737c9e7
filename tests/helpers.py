"""Queries the tests make of package objects, which the package itself
never makes."""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import fft as sfft, ndimage, special
from scipy.fft import irfft2, next_fast_len, rfft2
from scipy.linalg import cho_factor, cho_solve

from subpixdet import harness, optics
from subpixdet.clutter import NoiseField
from subpixdet.optics import effective_psf, render_signature_batch

# The ALRT oracles' weights, defined apart from the bank that carries
# them: the trapezoid on [-0.5, 0.5]^2 with nodes {-0.5, 0, 0.5},
# (1/4, 1/2, 1/4) per axis, tensorized in build_alrt_bank's node order.
TRAPEZOID = np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25]).ravel()


def airy_psf(model, u, v):
    """psf_value's Airy PSF pi r_c^2 [J1(t)/t]^2, t = pi r_c |(u, v)|, on
    scipy.special.j1, so that the quadrature oracles do not share the
    package's J1."""
    t = np.pi * np.hypot(u, v) * model.r_c
    ratio = np.divide(special.j1(t), t, out=np.full_like(t, 0.5), where=t > 0)
    return np.pi * model.r_c**2 * ratio**2


def signature(model, eps, w):
    """One offset's (2w+1, 2w+1) signature patch: render_signature_batch
    on a batch of one, from the table of design (model.r_c, w)."""
    patch = render_signature_batch(effective_psf(model.r_c, w), [eps])[0]
    return patch.reshape(2 * w + 1, 2 * w + 1)


def batch_statistics(windows, bound):
    """Per-node amplitude-ML filter values of a stack of (N, n) windows:
    (t, t^2 / d), each (N, K), with t = windows @ (R^{-1}S)^T, formed as
    the CLI's amplitude fit forms them."""
    t = np.asarray(windows, dtype=float) @ bound.whitened.T
    return t, t * t / bound.gram


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


def subspace_order(basis):
    return basis.shape[1]


def energy_cache():
    """The lru_cache behind harness.average_energy_cached."""
    return harness._average_energy


def acf_padded_2x(field, max_lag):
    """estimate_autocovariance by a complex power spectrum, each axis
    zero-padded to twice its length."""
    x = field.values - field.values.mean()
    fh, fw = 2 * x.shape[0], 2 * x.shape[1]
    spec = np.fft.rfft2(x, s=(fh, fw))
    corr = np.fft.irfft2(spec * np.conj(spec), s=(fh, fw)) / x.size
    lags = np.arange(-max_lag, max_lag + 1)
    return corr[np.ix_(lags % fh, lags % fw)]


def acf_rfft2(field, max_lag):
    """estimate_autocovariance by two-axis real FFTs of the field copied
    into its zero-padded plane, inverted on the whole plane."""
    h, wdt = field.values.shape
    fh, fw = (next_fast_len(n + max_lag, real=True) for n in (h, wdt))
    x = np.zeros((fh, fw))
    x[:h, :wdt] = field.values
    x[:h, :wdt] -= field.values.mean()
    spec = rfft2(x)
    corr = irfft2(spec.real ** 2 + spec.imag ** 2 + 0j, s=(fh, fw))
    lags = np.arange(-max_lag, max_lag + 1)
    return corr[np.ix_(lags % fh, lags % fw)] / (h * wdt)


def acf_scipy_fft(field, max_lag):
    """estimate_autocovariance's 1-D passes run by scipy.fft, each on the
    whole zero-padded plane, with scipy's pad length."""
    h, wdt = field.values.shape
    fh, fw = (next_fast_len(n + max_lag, real=True) for n in (h, wdt))
    spec = sfft.fft(sfft.rfft(field.values - field.values.mean(), n=fw, axis=1), n=fh, axis=0)
    spec = sfft.ifft(spec.real ** 2 + spec.imag ** 2 + 0j, axis=0, norm="forward")
    lags = np.arange(-max_lag, max_lag + 1)
    corr = sfft.irfft(spec[lags % fh], n=fw, axis=1, norm="forward")[:, lags % fw]
    return corr * (1.0 / (fh * fw)) / (h * wdt)


def next_power_of_two(size):
    """The FFT grid synthesize_fbm draws an image of this size on."""
    n = 1
    while n < size:
        n *= 2
    return n


def fbm_amplitude(hurst, n):
    """synthesize_fbm's half-plane amplitude on an n x n grid, DC zeroed."""
    amp = np.fft.fftfreq(n)[:, None] ** 2 + np.fft.rfftfreq(n)[None, :] ** 2
    with np.errstate(divide="ignore"):
        amp **= -(hurst + 1) / 2
    amp[0, 0] = 0.0
    return amp


def fbm_crop(field, size):
    """synthesize_fbm's standardized crop of its n x n field."""

    def standardize(x):
        mean, std = x.mean(), x.std()
        return (x - mean) / std

    if len(field) > size:
        field = standardize(field)[:size, :size].copy()
    return NoiseField(values=standardize(field))


def fbm_irfft2(hurst, size, seed):
    """synthesize_fbm with the shaped half-plane spectrum of the next power
    of two inverted by one two-axis irfft2, and cropped to size x size."""
    n = next_power_of_two(size)
    spec = rfft2(np.random.default_rng(seed).standard_normal((n, n)))
    return fbm_crop(irfft2(spec * fbm_amplitude(hurst, n), s=(n, n)), size)


def fbm_scipy_fft(hurst, size, seed):
    """synthesize_fbm's 1-D passes run by scipy.fft, each on the whole
    plane: the row rfft, the column fft, the shaping, the column ifft and
    the row irfft."""
    n = next_power_of_two(size)
    spec = sfft.rfft(np.random.default_rng(seed).standard_normal((n, n)), axis=1)
    spec = sfft.fft(spec, axis=0) * fbm_amplitude(hurst, n)
    return fbm_crop(sfft.irfft(sfft.ifft(spec, axis=0), n=n, axis=1), size)


def quadrant(psf):
    """EffectivePsf's quintic spline coefficients on the quadrant x, y >= 0:
    the block of its whole-plane table from the x = y = 0 node on."""
    m = (len(psf._plane) + 1) // 2
    return psf._plane[m - 1:, m - 1:]


def render_map_coordinates(psf, offsets):
    """EffectivePsf.render by scipy.ndimage.map_coordinates on the
    quadrant's coefficients: order-5 interpolation at every pixel's own
    lattice coordinate, x < 0 read as -x by mirror mode (g is even)."""
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    w, n_pix = psf.w, 2 * psf.w + 1
    pix = np.arange(-w, w + 1)
    x = psf.lattice * (pix - offsets[:, :1])
    y = psf.lattice * (pix - offsets[:, 1:])
    coords = [np.repeat(x, n_pix, axis=1).ravel(), np.tile(y, n_pix).ravel()]
    vals = ndimage.map_coordinates(quadrant(psf), coords, order=5, prefilter=False, mode="mirror")
    return vals.reshape(len(offsets), -1)


def effective_psf_coeffs_rowblocks(psf):
    """EffectivePsf's spline coefficients, with h evaluated on the whole
    node grid (no symmetry), one block of cell rows at a time."""
    order, k = optics._CELL_ORDER, psf.lattice
    n_cells = k * (psf.w + 1) + optics._SPLINE_MARGIN
    nodes, weights = leggauss(order)
    pts = ((np.arange(n_cells)[:, None] + 0.5 * (nodes + 1)) / k).ravel()
    wts = np.tile(0.5 * weights / k, n_cells)
    cells = np.empty((n_cells, n_cells))
    rows = max(1, 2**20 // (len(pts) * order))
    for lo in range(0, n_cells, rows):
        sl = slice(lo * order, min(n_cells, lo + rows) * order)
        h = airy_psf(psf.model, pts[sl, None], pts[None, :]) * wts[sl, None] * wts
        cells[lo:lo + rows] = h.reshape(-1, order, n_cells, order).sum(axis=(1, 3))
    g = psf._pixel_sums(psf._pixel_sums(cells).T).T
    return ndimage.spline_filter(g, order=5, mode="mirror")


def window_covariance(acf, w, lam):
    """The window covariance assemble_window_covariance factors, with its
    numpy operations: R[(i,j),(k,l)] = acf(i-k, j-l), plus ridge
    lam * acf(0,0) on the diagonal."""
    max_lag = (acf.shape[0] - 1) // 2
    coords = np.arange(-w, w + 1)
    ii, jj = np.meshgrid(coords, coords, indexing="ij")
    pi, pj = ii.ravel(), jj.ravel()
    di = pi[:, None] - pi[None, :]
    dj = pj[:, None] - pj[None, :]
    matrix = acf[di + max_lag, dj + max_lag]
    return matrix + lam * acf[max_lag, max_lag] * np.eye(len(matrix))


@dataclass(frozen=True)
class CholeskyCovariance:
    """A window covariance model solved by scipy.linalg.cho_solve on its
    stored cho_factor."""

    factor: tuple
    sigma2 = None

    def solve(self, y):
        return cho_solve(self.factor, np.asarray(y, dtype=float))


def covariance_cho(acf, w, lam=1e-6):
    """assemble_window_covariance on scipy.linalg: cho_factor of the same
    window covariance (which is positive definite here), solved by
    cho_solve."""
    return CholeskyCovariance(cho_factor(window_covariance(acf, w, lam), lower=True))


# The scoring and estimation kernel as it ran before its passes covered
# the whole (N, K) buffer: each log-sum-exp pass on the rule's strided
# view, with no exponent floor.  detectors keeps these bits whenever its
# _EXP_FLOOR is -inf.

def rule_view_ratios(windows, bound):
    """Per-node amplitude-ML ratios t^2 / gram, t = windows @ (R^{-1}S)^T,
    of a float (N, n) array, in one fresh (N, K) buffer."""
    r = windows @ bound.whitened.T
    r *= r
    r /= bound.gram
    return r


def rule_view_shifted_exp(ratios, gram, log_weights):
    """Turn ratios (N, M) into weights in place and return their log scale.

    With c_k = log(weight_k) - log(d_k)/2 and m0 the row max of ratio/2,
    afterwards ratios holds exp(ratio/2 - m0 + c - max(c)), so
    log sum_k weight_k exp(ratio_k/2) / sqrt(d_k) is m0 + max(c) +
    log(row sum).  An infinite m0 is replaced by 0.
    """
    ratios *= 0.5
    m = ratios.max(axis=1)
    m[~np.isfinite(m)] = 0.0
    ratios -= m[:, None]
    c = log_weights - 0.5 * np.log(gram)
    c_max = c.max()
    ratios += c - c_max
    np.exp(ratios, out=ratios)
    return m + c_max


def rule_view_log_integral(ratios, bound):
    """log sum_k weight_k exp(ratio_k/2) / sqrt(d_k) per row, over the
    rule of bound's bank; overwrites the rule's columns of ratios."""
    rule = ratios[:, :len(bound.bank.log_weights)]
    m = rule_view_shifted_exp(rule, bound.gram[:rule.shape[1]], bound.bank.log_weights)
    return m + np.log(rule.sum(axis=1))


def rule_view_kernel(windows, bound, bound9):
    """GPMF, GLRT, ELRT and ML on bound, ALRT on bound9 and PM on bound,
    by the rule-view kernel."""
    windows = np.asarray(windows, dtype=float)
    ratios = rule_view_ratios(windows, bound)
    out = {"GPMF": ratios[:, bound.bank.center_index].copy(),
           "GLRT": ratios.max(axis=1),
           "ML": bound.bank.offsets[np.argmax(ratios, axis=1)]}
    out["ELRT"] = rule_view_log_integral(ratios, bound)
    out["ALRT"] = rule_view_log_integral(rule_view_ratios(windows, bound9), bound9)
    n = len(bound.bank.log_weights)
    weights = rule_view_ratios(windows, bound)[:, :n]
    rule_view_shifted_exp(weights, bound.gram[:n], 0.0)
    out["PM"] = (weights @ bound.bank.offsets[:n]) / weights.sum(axis=1)[:, None]
    return out
