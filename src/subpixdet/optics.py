"""Airy optics model and pixel-integrated target signatures.

The imaging system is a diffraction-limited circular aperture with
incoherent illumination.  Its point spread function is the Airy disk,
parameterized by a single dimensionless number ``r_c`` (optical cutoff
frequency over sampling frequency).  A point source at subpixel offset
``(eps1, eps2)`` deposits in pixel ``(i, j)`` the integral of the PSF
over that pixel's unit square; the resulting patch of pixel values is
the target *signature*.  Signatures are read off one table of the
pixel-integrated PSF (EffectivePsf), built once per design (r_c, w) and
process by effective_psf; the renderer and the banks take that table,
and each bank carries the quadrature rule its integrating statistics
read.  build_alrt_bank's PsfModel branch is bench residue: bench/run.py
calls build_alrt_bank(PsfModel, w, q).

The table build runs on numpy alone, so that a white-noise process
loads no scipy subpackage: J1 is Cephes' algorithm and the spline
prefilter scipy.ndimage's recursion, both bit-equal to scipy's where
measured (tests/test_optics.py).
"""

import itertools
import math

import numpy as np
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar
from numpy.polynomial.legendre import leggauss

__all__ = [
    "PsfModel",
    "SignatureBank",
    "BoundBank",
    "EffectivePsf",
    "effective_psf",
    "psf_value",
    "render_signature_batch",
    "average_energy",
    "build_signature_bank",
    "build_alrt_bank",
]

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


# Cephes' J1 (Moshier 1989, Methods and Programs for Mathematical
# Functions; j1.c): a rational approximation on [0, 5], and above it
# the asymptotic form in w = 5/x with P/Q ratios in w^2.  Coefficients
# highest power first; RQ and QQ carry Cephes' implicit leading 1.
_J1_RP = (-8.99971225705559398224E8, 4.52228297998194034323E11,
          -7.27494245221818276015E13, 3.68295732863852883286E15)
_J1_RQ = (1.0, 6.20836478118054335476E2, 2.56987256757748830383E5,
          8.35146791431949253037E7, 2.21511595479792499675E10,
          4.74914122079991414898E12, 7.84369607876235854894E14,
          8.95222336184627338078E16, 5.32278620332680085395E18)
_J1_Z1, _J1_Z2 = 1.46819706421238932572E1, 4.92184563216946036703E1   # j_{1,1}^2, j_{1,2}^2
_J1_PP = (7.62125616208173112003E-4, 7.31397056940917570436E-2,
          1.12719608129684925192E0, 5.11207951146807644818E0,
          8.42404590141772420927E0, 5.21451598682361504063E0,
          1.00000000000000000254E0)
_J1_PQ = (5.71323128072548699714E-4, 6.88455908754495404082E-2,
          1.10514232634061696926E0, 5.07386386128601488557E0,
          8.39985554327604159757E0, 5.20982848682361821619E0,
          9.99999999999999997461E-1)
_J1_QP = (5.10862594750176621635E-2, 4.98213872951233449420E0,
          7.58238284132545283818E1, 3.66779609360150777800E2,
          7.10856304998926107277E2, 5.97489612400613639965E2,
          2.11688757100572135698E2, 2.52070205858023719784E1)
_J1_QQ = (1.0, 7.42373277035675149943E1, 1.05644886038262816351E3,
          4.98641058337653607651E3, 9.56231892404756170795E3,
          7.99704160447350683650E3, 2.82619278517639096600E3,
          3.36093607810698293419E2)
_THREE_PI_4 = 2.35619449019234492885
_SQRT_2_PI = 7.9788456080286535587989E-1
# Elements of x one pass of _j1 evaluates, so its temporaries stay in cache.
_J1_BLOCK = 8192


def _polevl(z, coefs):
    """Horner's rule in Cephes' order of operations."""
    out = coefs[0] * z
    out += coefs[1]
    for c in coefs[2:]:
        out *= z
        out += c
    return out


def _j1(x):
    """Bessel J1 at x >= 0, elementwise, as a new float array of x's shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat, res = x.ravel(), out.reshape(-1)
    for lo in range(0, flat.size, _J1_BLOCK):
        xb, rb = flat[lo:lo + _J1_BLOCK], res[lo:lo + _J1_BLOCK]
        near = xb <= 5.0
        far = ~near
        s = xb[near]
        z = s * s
        rb[near] = _polevl(z, _J1_RP) / _polevl(z, _J1_RQ) * s * (z - _J1_Z1) * (z - _J1_Z2)
        s = xb[far]
        w = 5.0 / s
        z = w * w
        p = _polevl(z, _J1_PP) / _polevl(z, _J1_PQ)
        q = _polevl(z, _J1_QP) / _polevl(z, _J1_QQ)
        xn = s - _THREE_PI_4
        rb[far] = (p * np.cos(xn) - w * q * np.sin(xn)) * _SQRT_2_PI / np.sqrt(s)
    return out


def psf_value(model, u, v):
    """Airy PSF h(u, v) = (1/pi) * [J1(pi*rho*r_c)/rho]^2, rho = |(u,v)|.

    Vectorized over u, v; scalar u and v give an np.float64.  The
    removable singularity at rho = 0 takes its analytic limit
    pi * r_c**2 / 4.  J1 is _j1, Cephes' algorithm, bit-equal to
    scipy.special.j1 on the measured grid over [0, 500] (absolute error
    <= 1e-10 there against a power-series oracle in the test suite).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    rho = np.hypot(u, v)
    t = np.pi * rho * model.r_c
    # J1(t)/t -> 1/2 as t -> 0; divide only where safe.
    ratio = np.divide(_j1(t), t, out=np.full_like(t, 0.5), where=t > 0)
    return np.pi * model.r_c**2 * ratio**2


def _lattice_nodes(r_c):
    """Table nodes per pixel: the power of two at or above 24 r_c, at least 16
    (the exponent is clamped at 0, so r_c <= 1/48 gets 16 too).

    g is band-limited to |f| <= r_c cycles per pixel, so a fixed number
    of nodes per cycle fixes the quintic spline's interpolation error
    (about 1e-10 at r_c = 2.44, far below the renderer's 1e-6 promise).
    """
    return max(16, 1 << max(0, math.ceil(math.log2(24 * r_c))))


# Lattice nodes beyond the largest |x| a window reads.  The spline
# prefilter's end transient decays as 0.43^n; 32 nodes put it below
# 1e-11, where 8 left errors of about 2e-9.
_SPLINE_MARGIN = 32
# Gauss-Legendre nodes per axis of one lattice cell.
_CELL_ORDER = 4
# Table values one render group gathers (36 per pixel): about 7
# signatures at w = 5, 36 at w = 2, so a group's taps stay in cache.
_GATHER = 2**15
# Designs whose tables effective_psf keeps, dropping the least recently
# used: the test suite's three common ones, (2.44, 2), (2.44, 1) and
# (0.5, 5), fit.
_TABLES = 4


def _quintic_weights(t):
    """Weights of the 6 quintic B-spline taps floor(x) - 2 .. floor(x) + 3
    at fractions t = x - floor(x), as an array of shape t.shape + (6,)
    (Thevenaz, Blu & Unser 2000, IEEE TMI 19:739)."""
    out = np.empty(t.shape + (6,))
    t2 = t * t
    out[..., 5] = t * t2 * t2 / 120.0
    t2 -= t
    t4 = t2 * t2
    c = t - 0.5
    u = t2 * (t2 - 3.0)
    out[..., 0] = (0.2 + t2 + t4) / 24.0 - out[..., 5]
    even = (t2 * (t2 - 5.0) + 9.2) / 24.0
    odd = -c * (u + 4.0) / 12.0
    out[..., 2] = even + odd
    out[..., 3] = even - odd
    even = (1.8 - u) / 16.0
    odd = c * (t4 - t2 - 5.0) / 24.0
    out[..., 1] = even + odd
    out[..., 4] = even - odd
    return out


# Poles of the quintic B-spline's direct filter to the digits
# scipy.ndimage writes them; their closed forms sqrt(135/2 -+
# sqrt(17745/4)) +- sqrt(105/4) - 13/2 round differently and move the
# coefficients by up to about 1e-12.
_QUINTIC_POLES = (-0.430575347099973791851434783493520110,
                  -0.043096288203264653822712376822550182)


def _prefilter(g):
    """Quintic B-spline coefficients of the 2-D samples g, with mirror
    boundaries, as a new array (Unser 1999, IEEE Signal Process. Mag.
    16(6):22).  Along axis 0, then axis 1: the gain, then per pole a
    causal and an anticausal recursion from their mirror-boundary
    initial values, in scipy.ndimage.spline_filter's order of operations."""
    c = np.array(g, dtype=float, order="C")
    gain = 1.0
    for z in _QUINTIC_POLES:
        gain *= (1.0 - z) * (1.0 - 1.0 / z)
    for _ in range(2):
        n = len(c)
        c *= gain
        for z in _QUINTIC_POLES:
            z_n = z ** (n - 1)
            c0, z_i = c[0] + z_n * c[n - 1], z
            for i in range(1, n - 1):
                c0 += z_i * (c[i] + z_n * c[n - 1 - i])
                z_i *= z
            c[0] = c0 / (1 - z_n * z_n)
            for i in range(1, n):
                c[i] += z * c[i - 1]
            c[n - 1] = (z * c[n - 2] + c[n - 1]) * z / (z * z - 1)
            for i in range(n - 2, -1, -1):
                c[i] = z * (c[i + 1] - c[i])
        c = np.ascontiguousarray(c.T)      # next along axis 1; two passes restore g's axes
    return c


def _cell_sums(h, row_wts, col_wts):
    """Weight a block of node values of h in place and sum each lattice
    cell's _CELL_ORDER x _CELL_ORDER nodes."""
    h *= row_wts[:, None]
    h *= col_wts
    p = _CELL_ORDER
    return h.reshape(len(row_wts) // p, p, len(col_wts) // p, p).sum(axis=(1, 3))


class EffectivePsf:
    """The PSF integrated over a unit pixel, tabulated once for a model.

    g(x, y) is the integral of h over the unit square centred on (x, y),
    so a source at offset eps puts s[i, j] = g(i - eps1, j - eps2) into
    pixel (i, j) (the "effective PSF" of Anderson & King 2000, PASP
    112:1360).  The table covers every |x| up to w + 1/2 on a 1/K-pixel
    lattice: the windows of half-width w at any offset in the closed
    square [-0.5, 0.5]^2.  It is built on the quadrant x, y >= 0 by
    integrating h over the lattice cells (composite Gauss-Legendre),
    summing whole pixels out of the cells with a summed-area table, and
    spline-filtering the result; g is even in x and in y, so the
    quadrant's quintic B-spline coefficients are mirrored into a
    whole-plane table once, and windows are read off that plane.  The
    table's arrays are read-only once built, so any caller may share it.
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
        # h is symmetric on this square node grid.  Build the cell table
        # in strips of n_cells/16 cell rows: evaluate h right of the
        # strip's diagonal only, and fill the mirrored strip from a
        # C-contiguous copy of the transpose, so that its cells sum in
        # the order a direct evaluation of those rows would.
        cells = np.empty((n_cells, n_cells))
        p, step = _CELL_ORDER, max(1, n_cells // 16)
        for lo in range(0, n_cells, step):
            hi = min(n_cells, lo + step)
            h = psf_value(model, pts[lo * p:hi * p, None], pts[None, lo * p:])
            below = np.ascontiguousarray(h[:, (hi - lo) * p:].T)
            cells[lo:hi, lo:] = _cell_sums(h, wts[lo * p:hi * p], wts[lo * p:])
            cells[hi:, lo:hi] = _cell_sums(below, wts[hi * p:], wts[lo * p:hi * p])
        g = self._pixel_sums(self._pixel_sums(cells).T).T
        quadrant = _prefilter(g)
        m = len(quadrant)
        plane = self._plane = np.empty((2 * m - 1, 2 * m - 1))
        plane[m - 1:, m - 1:] = quadrant
        plane[m - 1:, :m - 1] = quadrant[:, :0:-1]
        plane[:m - 1] = plane[:m - 1:-1]
        # Pixel (i, j) of a window, counted 0 .. 2w from its corner, reads
        # the 6 x 6 coefficients that start K i rows and K j columns past
        # the corner pixel's first tap.  _gather holds the flat offsets of
        # those 36 taps per pixel; _origin is the plane row (and column)
        # of the corner's first tap when floor(-K eps) is 0.
        n_pix = 2 * w + 1
        taps = (k * np.arange(n_pix)[:, None] + np.arange(6)).ravel()
        flat = (taps[:, None] * len(plane) + taps).reshape(n_pix, 6, n_pix, 6)
        self._gather = flat.transpose(0, 2, 1, 3).reshape(n_pix * n_pix, 36)
        self._origin = m - 1 - k * w - 2
        for table in (plane, self._gather):
            table.flags.writeable = False

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

    def render(self, offsets):
        """Signatures of the table's half-width w for offsets of shape
        (N, 2), each in the closed square [-0.5, 0.5]^2 (the ALRT bank
        needs the boundary value +0.5), as an (N, (2w+1)**2) array of
        row-major flattened values; one signature is a batch of one.

        Pixel i of a window sits at lattice coordinate K(i - eps1) (and
        likewise along eps2); K is an integer, so every pixel shares the
        fraction of -K eps1 and one 6-tap weight vector per axis serves
        the whole window.  Each group of signatures gathers its 36 taps
        per pixel with one take and contracts them with the outer
        product of its two weight vectors.
        """
        offsets = np.asarray(offsets, dtype=float)
        if offsets.ndim != 2 or offsets.shape[1] != 2:
            raise ValueError(f"offsets must have shape (N, 2), got {offsets.shape}")
        if not np.all(np.abs(offsets) <= 0.5):
            raise ValueError("subpixel offsets outside [-0.5, 0.5]^2")
        x = -self.lattice * offsets                  # exact: K is a power of two
        cell = np.floor(x)
        weights = _quintic_weights(x - cell)         # (N, 2, 6)
        first = (cell + self._origin).astype(np.intp)
        first = first[:, 0] * len(self._plane) + first[:, 1]
        plane = self._plane.ravel()
        out = np.empty((len(offsets), len(self._gather)))
        group = max(1, _GATHER // self._gather.size)
        for lo in range(0, len(offsets), group):
            hi = lo + group
            taps = plane.take(first[lo:hi, None, None] + self._gather)
            outer = weights[lo:hi, 0, :, None] * weights[lo:hi, 1, None, :]
            out[lo:hi] = np.matmul(taps, outer.reshape(-1, 36, 1))[..., 0]
        return out


# The renderer under the name the benchmark traces (harness imports it).
render_signature_batch = EffectivePsf.render


@lru_cache(maxsize=_TABLES)
def effective_psf(r_c, w):
    """The EffectivePsf of the design (r_c, w), built once per process
    while it stays among the _TABLES most recently used designs; every
    caller may share it, as its arrays are read-only."""
    return EffectivePsf(PsfModel(r_c), w)


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
    """Signatures rendered at a set of offset nodes, with the quadrature
    rule the integrating statistics use.

    The leading len(log_weights) nodes are the rule: the detectors
    integrate over them with these log weights (ELRT, ALRT), PM averages
    them, and the closed-form PMF mean averages over them.  Nodes past
    the rule are searched only (GLRT, ML).  center_index is the (0, 0)
    node (GPMF).  All searches scan this fixed ordering, so argmax ties
    resolve to the first node deterministically.
    """

    offsets: np.ndarray          # (K, 2)
    vectors: np.ndarray          # (K, (2w+1)^2)
    log_weights: np.ndarray      # (M,), M <= K; exp sums to 1
    center_index: int
    psf: EffectivePsf = field(compare=False, repr=False)   # the table rendered from
    q: ClassVar[int] = 16    # the retired renderer's quadrature order: bench/ reads it

    @property
    def w(self):
        return self.psf.w

    @property
    def r_c(self):
        return self.psf.r_c

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


def build_signature_bank(psf, grid_size=20):
    """Render the offset-grid signature bank used by all detectors, at
    the half-width of the EffectivePsf psf.

    The rule is the n = grid_size^2 cell centers in row-major (eps1
    outer, eps2 inner) order, each of weight 1/n.  grid_size must be even
    so they tile [-0.5, 0.5[ without touching the excluded +0.5
    boundary; the exact (0, 0) node is then appended so the GLRT search
    set contains the GPMF hypothesis.
    """
    if grid_size < 2 or grid_size % 2 != 0:
        raise ValueError("grid_size must be even and >= 2")
    n = grid_size**2
    e = (np.arange(grid_size) + 0.5) / grid_size - 0.5
    e1, e2 = np.meshgrid(e, e, indexing="ij")
    offsets = np.vstack([np.column_stack([e1.ravel(), e2.ravel()]), [0.0, 0.0]])
    return SignatureBank(offsets=offsets, vectors=render_signature_batch(psf, offsets),
                         log_weights=np.full(n, -np.log(n)), center_index=n, psf=psf)


def build_alrt_bank(psf, w=2, q=None):
    """Bank over the 3x3 half-pixel nodes, at the half-width of the
    EffectivePsf psf, all of them its rule: the trapezoid on
    [-0.5, 0.5]^2, (1/4, 1/2, 1/4) per axis, tensorized.

    The +0.5 boundary lies outside the half-open offset set but the
    trapezoidal rule needs its value; it equals the -0.5 signature
    shifted by one pixel.  Bench residue, like q (both ignored for a
    table): a PsfModel psf is read as the design's table at half-width w,
    because bench/run.py calls build_alrt_bank(PsfModel, w, q).
    """
    if not isinstance(psf, EffectivePsf):
        psf = effective_psf(psf.r_c, w)
    offsets = np.array(list(itertools.product((-0.5, 0.0, 0.5), repeat=2)))
    weights = np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25]).ravel()
    return SignatureBank(offsets=offsets, vectors=render_signature_batch(psf, offsets),
                         log_weights=np.log(weights), center_index=4, psf=psf)
