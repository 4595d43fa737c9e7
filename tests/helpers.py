"""Queries the tests make of package objects, which the package itself
never makes."""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import ndimage, special
from scipy.fft import irfft2, next_fast_len, rfft2

from subpixdet import harness, optics
from subpixdet.clutter import NoiseField
from subpixdet.optics import effective_psf, render_signature_batch

# The ALRT oracles' weights, defined apart from the bank that carries
# them: the trapezoid on [-0.5, 0.5]^2 with nodes {-0.5, 0, 0.5},
# (1/4, 1/2, 1/4) per axis, tensorized in build_alrt_bank's node order.
TRAPEZOID = np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25]).ravel()


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


def fbm_irfft2(hurst, size=256, seed=None, crop=None):
    """synthesize_fbm with the shaped half-plane spectrum inverted by one
    two-axis irfft2."""
    spec = rfft2(np.random.default_rng(seed).standard_normal((size, size)))
    amp = np.fft.fftfreq(size)[:, None] ** 2 + np.fft.rfftfreq(size)[None, :] ** 2
    with np.errstate(divide="ignore"):
        amp **= -(hurst + 1) / 2
    amp[0, 0] = 0.0
    field = irfft2(spec * amp, s=(size, size))

    def standardize(x):
        mean, std = x.mean(), x.std()
        return (x - mean) / std

    if crop is not None:
        field = standardize(field)[:crop, :crop].copy()
    return NoiseField(values=standardize(field))


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
    r_c, order, k = psf.r_c, optics._CELL_ORDER, psf.lattice
    n_cells = k * (psf.w + 1) + optics._SPLINE_MARGIN
    nodes, weights = leggauss(order)
    pts = ((np.arange(n_cells)[:, None] + 0.5 * (nodes + 1)) / k).ravel()
    wts = np.tile(0.5 * weights / k, n_cells)
    cells = np.empty((n_cells, n_cells))
    rows = max(1, 2**20 // (len(pts) * order))
    for lo in range(0, n_cells, rows):
        sl = slice(lo * order, min(n_cells, lo + rows) * order)
        t = np.pi * np.hypot(pts[sl, None], pts[None, :]) * r_c
        safe = np.where(t > 0, t, 1.0)
        ratio = np.where(t > 0, special.j1(safe) / safe, 0.5)
        h = np.pi * r_c**2 * ratio**2 * wts[sl, None] * wts
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
