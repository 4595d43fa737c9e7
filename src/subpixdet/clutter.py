"""Noise environments and window covariance models.

Two backgrounds are supported: i.i.d. Gaussian white noise, and fractal
cloud clutter synthesized as fractional Brownian motion by spectral
shaping of white noise.  For correlated backgrounds the detector window
covariance is assembled from the empirical autocovariance of the image,
giving a block-Toeplitz matrix with Toeplitz blocks.

The FFTs are numpy.fft's, which from numpy 2.0 runs scipy.fft's
pocketfft code and so gives its bits; the window covariance is
numpy.linalg's.
"""

import numpy as np
from dataclasses import dataclass

__all__ = [
    "NoiseField",
    "CovarianceModel",
    "IndefiniteCovarianceError",
    "synthesize_fbm",
    "estimate_autocovariance",
    "assemble_window_covariance",
    "white_covariance",
    "write_pgm",
]


class IndefiniteCovarianceError(Exception):
    """Raised when the assembled window covariance is not positive definite."""


@dataclass(frozen=True)
class NoiseField:
    """A rectangular clutter image."""

    values: np.ndarray


def synthesize_fbm(hurst, size, seed):
    """Fractional-Brownian-motion clutter by spectral synthesis.

    White Gaussian noise is shaped in the Fourier domain by the
    power-law amplitude (f1^2 + f2^2)^(-(H+1)/2), i.e. power spectral
    density proportional to f^-(2H+2), the DC coefficient is zeroed, and
    the inverse FFT is standardized to zero mean and unit variance.  A
    size that is not a power of two is cropped from the next one, n, and
    standardized again (the paper-style cloud image is 256 cropped to 200).

    The whole synthesis holds one (n, n // 2 + 1) half-plane spectrum:
    the noise is drawn and transformed into it in row blocks, shaped and
    inverted along the columns in place, and the image is written over
    the spectrum's own storage.  At 1024^2 its traced peak before
    standardizing is 1.13 spectra (9.5 MB), not the 2.00 (16.8 MB) of a
    whole noise draw, amplitude array and separate output.  The bits are
    those of rfft2 and irfft2 on the whole plane.
    """
    if not 0 < hurst < 1:
        raise ValueError(f"Hurst parameter must be in (0, 1), got {hurst}")
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    n = 1 << (int(size) - 1).bit_length()    # the FFT grid, a power of two
    rng = np.random.default_rng(seed)
    # the shaped spectrum is Hermitian, so its half plane carries it all
    spec = np.empty((n, n // 2 + 1), dtype=complex)
    step = max(1, 2**16 // n)                # rows per 512 KiB of noise
    for lo in range(0, n, step):
        spec[lo:lo + step] = np.fft.rfft(rng.standard_normal((min(step, n - lo), n)), axis=1)
    spec = np.fft.fft(spec, axis=0, out=spec)
    fy, fx = np.fft.fftfreq(n) ** 2, np.fft.rfftfreq(n) ** 2
    for lo in range(0, n, step):
        amp = fy[lo:lo + step, None] + fx[None, :]
        with np.errstate(divide="ignore"):
            amp **= -(hurst + 1) / 2
        if lo == 0:
            amp[0, 0] = 0.0                  # the DC term, the only zero radius
        spec[lo:lo + step] *= amp
    # irfft2 split into its two passes.  Each scales by 1/n, which is
    # exact for a power of two, so the bits are irfft2's.  Image row i
    # ends at byte 8 * n * (i + 1), before spectrum row i ends, so each
    # block of the last pass overwrites only spectrum rows it has read.
    spec = np.fft.ifft(spec, axis=0, out=spec)
    field = spec.view(float).reshape(-1)[:n * n].reshape(n, n)
    for lo in range(0, n, step):
        field[lo:lo + step] = np.fft.irfft(spec[lo:lo + step], n=n, axis=1)
    if n > size:
        field = _standardize(field)[:size, :size].copy()
    return NoiseField(values=_standardize(field))


def _standardize(x):
    """(x - mean) / std, in place."""
    mean, std = x.mean(), x.std()
    x -= mean
    x /= std
    return x


def estimate_autocovariance(field, max_lag):
    """Biased (divide-by-N) sample autocovariance of the mean-removed field.

    Returns a (2*max_lag+1, 2*max_lag+1) table indexed by lags
    [-max_lag, max_lag] on both axes; entry [max_lag, max_lag] is the
    sample variance.  The biased normalization keeps the implied
    spectral density nonnegative.
    """
    h, wdt = field.values.shape
    if max_lag < 0:
        raise ValueError(f"max_lag must be >= 0, got {max_lag}")
    if not (max_lag < min(h, wdt) / 2):
        raise ValueError(f"max_lag {max_lag} too large for a {h}x{wdt} field")
    # Linear correlation by a zero-padded FFT.  With at least max_lag
    # zeros after each axis, the circular wrap-around reaches no lag in
    # [-max_lag, max_lag].  These are rfft2's and irfft2's 1-D passes,
    # run on one half-plane spectrum: the rows are transformed in blocks
    # with their padding, and the inverse of the second pass is taken on
    # the returned lags only.
    fh, fw = (_fast_len(n + max_lag) for n in (h, wdt))
    mean = field.values.mean()
    spec = np.zeros((fh, fw // 2 + 1), dtype=complex)
    step = max(1, 2**16 // fw)               # rows per 1 MiB of spectrum
    for lo in range(0, h, step):
        rows = field.values[lo:lo + step]
        spec[lo:lo + len(rows)] = np.fft.rfft(rows - mean, n=fw, axis=1)
    spec = np.fft.fft(spec, axis=0, out=spec)
    # |spec|^2 in spec's own storage
    np.square(spec.real, out=spec.real)
    np.square(spec.imag, out=spec.imag)
    spec.real += spec.imag
    spec.imag = 0.0
    spec = np.fft.ifft(spec, axis=0, norm="forward", out=spec)
    lags = np.arange(-max_lag, max_lag + 1)
    # irfft2's one 1/(fh*fw) scale, after its last pass
    corr = np.fft.irfft(spec[lags % fh], n=fw, axis=1, norm="forward")[:, lags % fw]
    return corr * (1.0 / (fh * fw)) / (h * wdt)


def _fast_len(n):
    """The least 2^a 3^b 5^c >= n, scipy.fft.next_fast_len(n, real=True)."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:                    # p35 times the least power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def white_covariance(sigma):
    """Exact white-noise covariance R = sigma^2 I, of any window size."""
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    try:
        sigma2 = float(sigma) ** 2
    except OverflowError:
        raise ValueError(f"sigma**2 overflows, got sigma = {sigma}") from None
    if sigma2 < np.finfo(float).tiny:
        raise ValueError(f"sigma**2 underflows the normal floats, got sigma = {sigma}")
    return CovarianceModel(sigma2=sigma2, _factor=None)


def assemble_window_covariance(acf, w, lam=1e-6):
    """Window covariance from a stationary autocovariance table.

    R[(i,j),(k,l)] = acf(i-k, j-l) over the row-major (2w+1)^2 window
    pixels, plus ridge lam * acf(0,0) on the diagonal.  Raises
    IndefiniteCovarianceError if the result is not positive definite.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"ridge must be finite and >= 0, got {lam}")
    acf = np.asarray(acf, dtype=float)
    if acf.ndim != 2 or acf.shape[0] != acf.shape[1] or acf.shape[0] % 2 == 0:
        raise ValueError(f"acf must be a square table with odd sides, got {acf.shape}")
    max_lag = (acf.shape[0] - 1) // 2
    if max_lag < 2 * w:
        raise ValueError(f"acf covers lags up to {max_lag}, need {2 * w}")
    pi, pj = np.indices((2 * w + 1,) * 2).reshape(2, -1)     # row-major pixel coordinates
    matrix = acf[pi[:, None] - pi + max_lag, pj[:, None] - pj + max_lag]
    matrix = matrix + lam * acf[max_lag, max_lag] * np.eye(len(matrix))
    if not np.isfinite(matrix).all():
        raise ValueError("window covariance entries must be finite")
    try:
        lower = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        smallest = np.linalg.eigvalsh(matrix)[0]
        raise IndefiniteCovarianceError(
            f"window covariance not positive definite after ridge {lam} "
            f"(smallest eigenvalue {smallest:.3e})"
        )
    factor = np.linalg.inv(lower)
    factor.flags.writeable = False
    return CovarianceModel(sigma2=None, _factor=factor)


@dataclass(frozen=True)
class CovarianceModel:
    """Window noise covariance with a solve service: sigma2 I (white
    noise, no _factor) or a stored, read-only whitening factor
    W = L^{-1} of its Cholesky factor L (sigma2 None), so that
    R^{-1} = W^T W and every statistic shares numerically identical
    solves.  W is np.linalg.inv's, whose pivoting can leave rounding-size
    entries above the diagonal.
    """

    sigma2: float
    _factor: np.ndarray

    def solve(self, y):
        """R^{-1} y for a vector or a (n, k) stack of columns."""
        y = np.asarray(y, dtype=float)
        if self._factor is None:
            return y / self.sigma2
        return self._factor.T @ (self._factor @ y)


def write_pgm(field, path):
    """8-bit PGM, min-max scaled, for eyeballing the clutter texture."""
    vals = field.values
    lo, hi = vals.min(), vals.max()
    scaled = np.zeros_like(vals) if hi == lo else (vals - lo) / (hi - lo)
    img = np.round(255 * scaled).astype(np.uint8)
    h, wdt = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{wdt} {h}\n255\n".encode())
        fh.write(img.tobytes())
