"""Airy optics model and pixel-integrated target signatures.

The imaging system is a diffraction-limited circular aperture with
incoherent illumination.  Its point spread function is the Airy disk,
parameterized by a single dimensionless number ``r_c`` (optical cutoff
frequency over sampling frequency).  A point source at subpixel offset
``(eps1, eps2)`` deposits in pixel ``(i, j)`` the integral of the PSF
over that pixel's unit square; the resulting patch of pixel values is
the target *signature*.  Signatures are read off one table of the
pixel-integrated PSF (EffectivePsf), built once per model and window.
"""

import itertools
import math

import numpy as np
from dataclasses import dataclass, field
from typing import ClassVar
from numpy.polynomial.legendre import leggauss
from scipy import ndimage, special

__all__ = [
    "PsfModel",
    "SignatureBank",
    "BoundBank",
    "EffectivePsf",
    "DEFAULT_QUAD_ORDER",
    "psf_value",
    "render_signature_batch",
    "average_energy",
    "build_signature_bank",
    "alrt_offsets",
    "build_alrt_bank",
]

# Per-pixel Gauss-Legendre order of the retired direct renderer, kept as
# the constant ExperimentConfig.q and SignatureBank.q only because
# bench/run.py and bench/selftest.py read them.  Rendering and the spot
# energy do not depend on it.
DEFAULT_QUAD_ORDER = 16


@dataclass(frozen=True)
class PsfModel:
    """Airy PSF with normalized cutoff frequency r_c > 0.

    r_c = 2.44 is the common sensor design (pixel width equals the main
    lobe, heavily aliased); r_c = 0.5 is the correctly sampled design.
    """

    r_c: float

    def __post_init__(self):
        if not (math.isfinite(self.r_c) and self.r_c > 0):
            raise ValueError(f"r_c must be finite and > 0, got {self.r_c}")


def psf_value(model, u, v):
    """Airy PSF h(u, v) = (1/pi) * [J1(pi*rho*r_c)/rho]^2, rho = |(u,v)|.

    Vectorized over u, v.  The removable singularity at rho = 0 takes
    its analytic limit pi * r_c**2 / 4.  J1 is scipy.special.j1 (absolute
    error <= 1e-10 over |x| <= 500, checked against a power-series
    oracle in the test suite).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    rho = np.hypot(u, v)
    t = np.pi * rho * model.r_c
    # J1(t)/t -> 1/2 as t -> 0; divide only where safe.
    ratio = np.divide(special.j1(t), t, out=np.full_like(t, 0.5), where=t > 0)
    out = np.pi * model.r_c**2 * ratio**2
    if out.ndim == 0:
        return float(out)
    return out


def _lattice_nodes(r_c):
    """Table nodes per pixel: the power of two at or above 24 r_c, at least 16.

    g is band-limited to |f| <= r_c cycles per pixel, so a fixed number
    of nodes per cycle fixes the quintic spline's interpolation error
    (about 1e-10 at r_c = 2.44, far below the renderer's 1e-6 promise).
    """
    return max(16, 1 << math.ceil(math.log2(24 * r_c)))


# Lattice nodes beyond the largest |x| a window reads.  The spline
# prefilter's end transient decays as 0.43^n; 32 nodes put it below
# 1e-11, where 8 left errors of about 2e-9.
_SPLINE_MARGIN = 32
# Gauss-Legendre nodes per axis of one lattice cell.
_CELL_ORDER = 4


class EffectivePsf:
    """The PSF integrated over a unit pixel, tabulated once for a model.

    g(x, y) is the integral of h over the unit square centred on (x, y),
    so a source at offset eps puts s[i, j] = g(i - eps1, j - eps2) into
    pixel (i, j) (the "effective PSF" of Anderson & King 2000, PASP
    112:1360).  g is even in x and in y, so the table holds the quadrant
    x, y >= 0 on a 1/K-pixel lattice, for every |x| up to w + 1/2: the
    windows of half-width <= w at any offset in the closed square
    [-0.5, 0.5]^2.  It is built by integrating h over the lattice cells
    (composite Gauss-Legendre), summing whole pixels out of the cells
    with a summed-area table, and spline-filtering the result; windows
    are read off it by quintic B-spline interpolation.
    """

    def __init__(self, model, w):
        if w < 1:
            raise ValueError("window half-width must be >= 1")
        self.model, self.w = model, w
        k = self.lattice = _lattice_nodes(model.r_c)
        n_cells = k * (w + 1) + _SPLINE_MARGIN   # cells [a, a+1]/k, a >= 0
        nodes, weights = leggauss(_CELL_ORDER)
        pts = ((np.arange(n_cells)[:, None] + 0.5 * (nodes + 1)) / k).ravel()
        wts = np.tile(0.5 * weights / k, n_cells)
        # h is symmetric on this square node grid: evaluate its upper
        # triangle in blocks of n/16 rows, which keeps the psf_value
        # temporaries small and the overlap past the diagonal near 1/32,
        # and mirror each block below the diagonal.
        n = len(pts)
        h = np.empty((n, n))
        rows = max(1, n // 16)
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            h[lo:hi, lo:] = psf_value(model, pts[lo:hi, None], pts[None, lo:])
            h[hi:, lo:hi] = h[lo:hi, hi:].T
        h *= wts[:, None]
        h *= wts
        cells = h.reshape(n_cells, _CELL_ORDER, n_cells, _CELL_ORDER).sum(axis=(1, 3))
        g = self._pixel_sums(self._pixel_sums(cells).T).T
        self.coeffs = ndimage.spline_filter(g, order=5, mode="mirror")

    def _pixel_sums(self, cells):
        """Sum the k cells of a unit pixel centred on each node, along axis 0.

        Node n sits at x = n/k; its pixel covers cells n - k/2 .. n + k/2 - 1,
        and the cells at x < 0 mirror those at x > 0.
        """
        half = self.lattice // 2
        cells = np.concatenate([cells[half - 1::-1], cells])
        table = np.concatenate([np.zeros((1,) + cells.shape[1:]), np.cumsum(cells, axis=0)])
        return table[self.lattice:] - table[:-self.lattice]

    @property
    def r_c(self):
        return self.model.r_c

    def render(self, offsets, w):
        """Signatures of half-width w for offsets of shape (N, 2), as an
        (N, (2w+1)**2) array of row-major flattened values."""
        offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
        if w < 1 or w > self.w:
            raise ValueError(f"window half-width {w} outside this table's 1..{self.w}")
        if not np.all(np.abs(offsets) <= 0.5):
            raise ValueError("subpixel offsets outside [-0.5, 0.5]^2")
        n_pix = 2 * w + 1
        pix = np.arange(-w, w + 1)
        out = np.empty((len(offsets), n_pix * n_pix))
        chunk = max(1, 2**18 // n_pix**2)
        for lo in range(0, len(offsets), chunk):
            eps = offsets[lo:lo + chunk]
            # lattice coordinates of pixel (i, j); mirror mode reads x < 0
            # as -x, which is exact because g is even
            x = self.lattice * (pix - eps[:, :1])
            y = self.lattice * (pix - eps[:, 1:])
            coords = [np.repeat(x, n_pix, axis=1).ravel(), np.tile(y, n_pix).ravel()]
            vals = ndimage.map_coordinates(self.coeffs, coords, order=5,
                                           prefilter=False, mode="mirror")
            out[lo:lo + chunk] = vals.reshape(len(eps), -1)
        return out


def _table(psf, w):
    """psf itself if it is an EffectivePsf, else a table of it for half-width w."""
    return psf if isinstance(psf, EffectivePsf) else EffectivePsf(psf, w)


def render_signature_batch(psf, offsets, w):
    """Pixel-integrate the PSF over a (2w+1) x (2w+1) window, for many offsets.

    Each value is the integral of the PSF over the pixel's unit square.
    psf is an EffectivePsf covering half-width w, or a PsfModel to
    tabulate first.  offsets: array of shape (N, 2), each in the closed
    square [-0.5, 0.5]^2 (the ALRT bank needs the boundary value +0.5).
    Returns an (N, (2w+1)**2) array of row-major flattened signature
    values; one signature is a batch of one.
    """
    return _table(psf, w).render(offsets, w)


def _grid_offsets(grid_size):
    """Cell-center nodes of an even partition of [-0.5, 0.5[^2, row-major."""
    e = (np.arange(grid_size) + 0.5) / grid_size - 0.5
    e1, e2 = np.meshgrid(e, e, indexing="ij")
    return np.column_stack([e1.ravel(), e2.ravel()])


def average_energy(model):
    """Average spot energy E = mean over offsets of sum_ij s[i,j]^2.

    Averaged over a uniform offset, the full-plane pixel sum becomes the
    plane integral of g^2 (Poisson summation), and by Parseval
    E = int_{|f| <= r_c} MTF(f)^2 sinc^2(f1) sinc^2(f2) df, with MTF the
    circular-pupil OTF (Goodman, Fourier Optics).  Gauss-Legendre in
    polar coordinates over the eighth of the disc that symmetry allows;
    the radius is rho = r_c cos(beta), where MTF = (2 beta - sin 2 beta)/pi
    is smooth up to the cutoff.
    """
    r_c = model.r_c
    n = 64 + 16 * math.ceil(r_c)   # converged to 1e-15 by 32 + 8 ceil(r_c)
    nodes, weights = leggauss(n)
    beta, w_beta = np.pi / 4 * (nodes + 1), np.pi / 4 * weights
    theta, w_theta = np.pi / 8 * (nodes + 1), np.pi / 8 * weights
    rho = r_c * np.cos(beta)
    mtf = (2 * beta - np.sin(2 * beta)) / np.pi
    ring = (np.sinc(rho[:, None] * np.cos(theta)) * np.sinc(rho[:, None] * np.sin(theta))) ** 2
    radial = 8 * r_c**2 * np.cos(beta) * np.sin(beta) * mtf**2
    return float(np.sum(w_beta * radial * (ring @ w_theta)))


@dataclass(frozen=True)
class SignatureBank:
    """Signatures rendered on the offset grid, plus the exact (0, 0) node.

    Node order: the grid_size^2 cell centers in row-major (eps1 outer,
    eps2 inner) order, then the appended (0, 0) node.  All detector and
    estimator searches scan this fixed ordering, so argmax ties resolve
    to the first node deterministically.
    """

    offsets: np.ndarray          # (K, 2)
    vectors: np.ndarray          # (K, (2w+1)^2)
    w: int
    r_c: float
    grid_size: int
    psf: EffectivePsf = field(compare=False, repr=False)   # the table rendered from
    q: ClassVar[int] = DEFAULT_QUAD_ORDER       # a constant; see DEFAULT_QUAD_ORDER
    center_index: int = field(default=-1)

    @property
    def n_nodes(self):
        return len(self.offsets)

    @property
    def grid_indices(self):
        """Indices of the plain grid nodes (the ELRT/PM quadrature set)."""
        return np.arange(self.grid_size**2)

    def bind(self, cov):
        """Precompute whitened products against a covariance model."""
        whitened = cov.solve(self.vectors.T).T          # R^{-1} s_k, per row
        gram = np.einsum("kn,kn->k", self.vectors, whitened)
        if np.any(gram <= 0):
            raise ValueError("non-positive signature quadratic form; covariance not PD")
        return BoundBank(bank=self, cov=cov, whitened=whitened, gram=gram)


@dataclass(frozen=True)
class BoundBank:
    """SignatureBank with cached R^{-1} s_k and s_k^T R^{-1} s_k."""

    bank: SignatureBank
    cov: object
    whitened: np.ndarray   # (K, n)
    gram: np.ndarray       # (K,)


def build_signature_bank(psf, grid_size=20, w=2):
    """Render the offset-grid signature bank used by all detectors.

    psf is an EffectivePsf covering half-width w, or a PsfModel.

    grid_size must be even so the cell centers tile [-0.5, 0.5[ without
    touching the excluded +0.5 boundary; the exact (0, 0) node is then
    appended so the GLRT search set contains the GPMF hypothesis.
    """
    if grid_size < 2 or grid_size % 2 != 0:
        raise ValueError("grid_size must be even and >= 2")
    offsets = _grid_offsets(grid_size)
    offsets = np.vstack([offsets, [0.0, 0.0]])
    table = _table(psf, w)
    return SignatureBank(
        offsets=offsets, vectors=render_signature_batch(table, offsets, w), w=w,
        r_c=psf.r_c, grid_size=grid_size, psf=table, center_index=len(offsets) - 1,
    )


def alrt_offsets():
    """The nine half-pixel offsets of the coarse trapezoidal quadrature."""
    return np.array(list(itertools.product((-0.5, 0.0, 0.5), repeat=2)))


def build_alrt_bank(psf, w=2, q=None):
    """Bank over the 3x3 half-pixel nodes.

    The +0.5 boundary lies outside the half-open offset set but the
    trapezoidal rule needs its value; it equals the -0.5 signature
    shifted by one pixel.  psf is an EffectivePsf or a PsfModel; q is
    ignored, and stays only while bench/run.py passes it.
    """
    offsets = alrt_offsets()
    table = _table(psf, w)
    return SignatureBank(
        offsets=offsets, vectors=render_signature_batch(table, offsets, w), w=w,
        r_c=psf.r_c, grid_size=3, psf=table, center_index=4,
    )
