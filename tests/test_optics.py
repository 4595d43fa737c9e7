import math
import re
import tracemalloc

import numpy as np
import mpmath
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import ndimage
from scipy.special import j0, j1

from subpixdet import optics
from subpixdet.clutter import CovarianceModel
from subpixdet.optics import (
    EffectivePsf, PsfModel, build_alrt_bank, effective_psf, psf_value,
    render_signature_batch, average_energy, build_signature_bank,
)

from helpers import (
    airy_psf, effective_psf_coeffs_rowblocks, quadrant, render_map_coordinates, signature,
)


# ---------------------------------------------------------------------------
# Test-local oracles, independent of the effective-PSF table and of the
# Parseval energy: direct per-pixel Gauss-Legendre integration of the
# PSF (helpers.airy_psf, on scipy's J1), and the spot energy averaged
# over a grid of offsets.

def direct_signature_batch(model, offsets, w, q=16):
    """Tensor-product Gauss-Legendre (order q per axis per pixel) pixel
    integrals of the PSF; an (N, (2w+1)**2) array, row-major."""
    if q < 2:
        raise ValueError("quadrature order must be >= 2")
    offsets = np.atleast_2d(np.asarray(offsets, dtype=float))
    nodes, weights = leggauss(q)
    coords = (np.arange(-w, w + 1)[:, None] + 0.5 * nodes).ravel()
    wts = 0.5 * weights
    n_pix = 2 * w + 1
    chunk = max(1, int(2e7) // len(coords) ** 2)
    out = np.empty((len(offsets), n_pix * n_pix))
    for lo in range(0, len(offsets), chunk):
        eps = offsets[lo:lo + chunk]
        du = coords - eps[:, :1]
        dv = coords - eps[:, 1:]
        h = airy_psf(model, du[:, :, None], dv[:, None, :])
        h = h.reshape(len(eps), n_pix, q, n_pix, q)
        out[lo:lo + chunk] = np.einsum("a,b,niajb->nij", wts, wts, h).reshape(len(eps), -1)
    return out


def direct_signature(model, eps, w, q=16):
    return direct_signature_batch(model, [eps], w, q)[0].reshape(2 * w + 1, 2 * w + 1)


def grid_average_energy(model, w=25, grid_size=20, q=16):
    """Mean of sum_ij s[i,j]^2 over the grid_size^2 cell-center offsets."""
    e = (np.arange(grid_size) + 0.5) / grid_size - 0.5
    offsets = np.column_stack([np.repeat(e, grid_size), np.tile(e, grid_size)])
    vecs = direct_signature_batch(model, offsets, w, q)
    return float(np.mean(np.sum(vecs**2, axis=1)))


def j1_series(x, dps=400):
    """Power-series oracle: sum (-1)^k (x/2)^(2k+1) / (k! (k+1)!)."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        total = mpmath.mpf(0)
        term_k = 0
        while True:
            term = (-1) ** term_k * (x / 2) ** (2 * term_k + 1) / (
                mpmath.factorial(term_k) * mpmath.factorial(term_k + 1))
            total += term
            if abs(term) < mpmath.mpf(10) ** (-dps + 10) and term_k > abs(x):
                break
            term_k += 1
        return float(total)


class TestBesselJ1:
    # psf_value evaluates J1 with optics._j1 on t = pi rho r_c >= 0

    def test_zero(self):
        assert optics._j1(0.0) == 0.0

    def test_value_at_one(self):
        assert optics._j1(1.0) == pytest.approx(0.4400505857, abs=1e-10)
        assert optics._j1(1.0) == pytest.approx(j1_series(1.0), abs=1e-12)

    def test_first_zero(self):
        # first positive zero of J1, bracketed by bisection on the series
        lo, hi = 3.0, 4.5
        for _ in range(60):
            mid = (lo + hi) / 2
            if j1_series(lo) * j1_series(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = (lo + hi) / 2
        assert root == pytest.approx(3.8317059702, abs=1e-9)
        assert optics._j1(3.8317059702) == pytest.approx(0.0, abs=1e-9)

    def test_accuracy_sweep(self):
        xs = np.linspace(0, 500, 2001)
        with mpmath.workdps(60):
            ref = np.array([float(mpmath.besselj(1, float(x))) for x in xs])
        assert np.max(np.abs(optics._j1(xs) - ref)) <= 1e-10

    def test_series_agrees_at_moderate_x(self):
        for x in (0.5, 2.0, 7.9, 15.0):
            assert optics._j1(x) == pytest.approx(j1_series(x), abs=1e-12)

    def test_bits_of_scipy(self):
        # the algorithm of scipy.special.j1: both sides of its x = 5
        # switch and the switch itself, and a 2-D array whose rows its
        # blocks cross
        xs = np.concatenate([np.linspace(0, 500, 1_000_001),
                             np.random.default_rng(13).uniform(0, 500, 500_000),
                             [5.0, np.nextafter(5.0, 6.0), np.nextafter(5.0, 4.0)]])
        assert np.array_equal(optics._j1(xs), j1(xs))
        grid = xs[:3 * 7001].reshape(3, 7001)
        assert np.array_equal(optics._j1(grid), j1(grid))


class TestQuinticPrefilter:
    @pytest.mark.parametrize("n", [33, 120, 192, 705])
    def test_bits_of_scipy(self, n):
        g = np.random.default_rng(n).standard_normal((n, n))
        assert np.array_equal(optics._prefilter(g),
                              ndimage.spline_filter(g, order=5, mode="mirror"))


class TestPsfValue:
    def test_central_limit(self):
        m = PsfModel(2.44)
        assert psf_value(m, 0.0, 0.0) == pytest.approx(np.pi * 2.44**2 / 4, rel=1e-14)
        assert psf_value(PsfModel(0.5), 0.0, 0.0) == pytest.approx(np.pi / 16, rel=1e-14)

    def test_first_dark_ring(self):
        # pi*rho*r_c equals the first J1 zero at rho = 1.2197/2.44, i.e. the
        # pixel half-width: the main lobe exactly fills one pixel
        m = PsfModel(2.44)
        rho = 3.8317059702 / (np.pi * 2.44)
        assert rho == pytest.approx(0.49989, abs=1e-4)
        assert psf_value(m, rho, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_radial_symmetry_exact(self, rng):
        m = PsfModel(2.44)
        for u, v in rng.uniform(-3, 3, (20, 2)):
            assert psf_value(m, u, v) == psf_value(m, v, u)
            assert psf_value(m, u, v) == psf_value(m, -u, v)
            assert psf_value(m, u, v) == psf_value(m, u, -v)

    def test_scalar_offsets_give_a_float64(self):
        for u, v in [(0.3, -0.2), (0.0, 0.0), (2, 1)]:
            assert type(psf_value(PsfModel(2.44), u, v)) is np.float64

    def test_rc_validation(self):
        with pytest.raises(ValueError):
            PsfModel(0.0)
        with pytest.raises(ValueError):
            PsfModel(-1.0)
        for r_c in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                PsfModel(r_c)


def airy_encircled_energy(r_c, radius):
    """Share of the unit-mass Airy PSF within radius of its centre:
    1 - J0^2(x) - J1^2(x) at x = pi radius r_c (Rayleigh; Born & Wolf,
    section 8.5)."""
    x = np.pi * radius * r_c
    return 1.0 - j0(x) ** 2 - j1(x) ** 2


def midpoint_pixel_integral(model, i, j, eps, n=2048):
    """Brute-force midpoint rule on an n x n subgrid of the unit square."""
    u = i - 0.5 + (np.arange(n) + 0.5) / n
    v = j - 0.5 + (np.arange(n) + 0.5) / n
    h = airy_psf(model, (u - eps[0])[:, None], (v - eps[1])[None, :])
    return h.sum() / n**2


class TestRenderSignature:
    def test_quadrature_vs_midpoint_oracle(self, model244):
        for eps, (i, j) in [((0.0, 0.0), (0, 0)), ((0.3, -0.2), (0, 0)),
                            ((0.3, -0.2), (1, -1))]:
            sig = signature(model244, eps, w=2)
            ref = midpoint_pixel_integral(model244, i, j, eps)
            assert sig[i + 2, j + 2] == pytest.approx(ref, rel=1e-6)

    def test_window_sum_bounds(self):
        # h >= 0, so a window's sum lies between the encircled energies of
        # the largest disc about eps inside the window and of the smallest
        # disc about eps that contains it
        for r_c, w in [(2.44, 8), (0.5, 25)]:
            for eps in [(0.0, 0.0), (0.5, 0.5), (0.3, -0.2)]:
                total = signature(PsfModel(r_c), eps, w).sum()
                a1, a2 = abs(eps[0]), abs(eps[1])
                inner = airy_encircled_energy(r_c, w + 0.5 - max(a1, a2))
                outer = airy_encircled_energy(r_c, math.hypot(w + 0.5 + a1, w + 0.5 + a2))
                assert inner <= total <= outer, (r_c, w, eps)

    def test_sum_monotone_in_window(self, model244):
        sums = [signature(model244, (0.2, 0.1), w=w).sum()
                for w in (1, 2, 4, 8)]
        assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))

    def test_nonnegative(self, model244):
        sig = signature(model244, (0.49, -0.5 + 1e-9), w=3)
        assert np.all(sig >= 0)

    def test_mirror_symmetry(self, model244):
        a = signature(model244, (0.3, -0.2), w=2)
        b = signature(model244, (-0.3, -0.2), w=2)
        np.testing.assert_allclose(a, b[::-1, :], atol=1e-12)
        c = signature(model244, (0.3, 0.2), w=2)
        np.testing.assert_allclose(a, c[:, ::-1], atol=1e-12)

    def test_quadrature_converged(self, model244):
        # the direct oracle at q=16 is the reference of TestEffectivePsf
        a = direct_signature(model244, (0.37, -0.11), w=2, q=16)
        b = direct_signature(model244, (0.37, -0.11), w=2, q=32)
        assert np.max(np.abs(a - b)) <= 1e-8

    def test_offset_validation(self, model244):
        # the half-open [-0.5, 0.5[^2 check on a user's offset is the
        # CLI's (tests/test_cli.py); the renderer takes the closed square
        for eps in [(0.0, -0.6), (0.7, 0.0)]:
            with pytest.raises(ValueError):
                signature(model244, eps, w=2)
        with pytest.raises(ValueError):
            signature(model244, (0.0, 0.0), w=0)
        with pytest.raises(ValueError):
            direct_signature(model244, (0.0, 0.0), w=2, q=1)


class TestEffectivePsf:
    @pytest.mark.parametrize("r_c, w", [(2.44, 1), (2.44, 2), (2.44, 4), (0.5, 5), (0.02, 2)])
    def test_matches_direct_quadrature(self, r_c, w):
        model = PsfModel(r_c)
        psf = EffectivePsf(model, w)
        offsets = np.vstack([np.random.default_rng(7).uniform(-0.5, 0.5, (2000, 2)),
                             build_alrt_bank(psf).offsets])
        table = render_signature_batch(psf, offsets)
        assert np.max(np.abs(table - direct_signature_batch(model, offsets, w))) <= 1e-9

    @pytest.mark.parametrize("r_c, w", [(2.44, 2), (0.5, 5), (1 / 48, 1), (0.02, 1), (0.01, 2)])
    def test_lattice_nodes(self, r_c, w):
        # the power of two at or above 24 r_c, at least 16; at r_c <= 1/48
        # that power is 2^-1 or less, and the table takes 16
        model = PsfModel(r_c)
        psf = EffectivePsf(model, w)
        k = psf.lattice
        assert k == max(16, 2.0 ** math.ceil(math.log2(24 * r_c)))
        e = np.arange(-k // 2, k // 2 + 1, 3) / k
        offsets = np.column_stack([np.repeat(e, len(e)), np.tile(e, len(e))])
        err = np.abs(psf.render(offsets) - direct_signature_batch(model, offsets, w))
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("r_c, w", [(2.44, 2), (0.5, 5), (2.44, 5), (0.3, 1)])
    def test_symmetric_build_matches_row_blocks(self, r_c, w):
        psf = EffectivePsf(PsfModel(r_c), w)
        assert np.array_equal(quadrant(psf), effective_psf_coeffs_rowblocks(psf))

    @pytest.mark.parametrize("r_c, w", [(2.44, 2), (0.5, 5), (0.3, 1), (0.01, 2)])
    def test_matches_map_coordinates(self, r_c, w):
        # random offsets, the ALRT nodes, the +-0.5 edges, and offsets on
        # the lattice (tap fraction 0) against per-pixel interpolation
        psf = EffectivePsf(PsfModel(r_c), w)
        k = psf.lattice
        lattice = np.arange(-k // 2, k // 2 + 1) / k
        offsets = np.vstack([np.random.default_rng(11).uniform(-0.5, 0.5, (2000, 2)),
                             build_alrt_bank(psf).offsets,
                             [(0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (-0.0, 0.0)],
                             np.column_stack([lattice, lattice[::-1]])])
        err = np.abs(psf.render(offsets) - render_map_coordinates(psf, offsets))
        assert err.max() <= 1e-14

    def test_build_memory(self):
        # the cell table is built in strips: the (n, n) node array of the
        # r_c = 2.44, w = 2 table alone is 6.1 MiB
        tracemalloc.start()
        try:
            EffectivePsf(PsfModel(2.44), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_render_memory(self):
        # beyond its output, render holds per-offset tap weights and one
        # group's gathered taps (the per-pixel interpolation took 11 MiB)
        psf = EffectivePsf(PsfModel(0.5), 5)
        offsets = np.random.default_rng(5).uniform(-0.5, 0.5, (4096, 2))
        tracemalloc.start()
        try:
            out = psf.render(offsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2 * 2**20

    def test_render_shape_checks(self, psf244):
        for offsets in ([[0.1, 0.2, 0.3]], [], [0.1, 0.2], np.zeros((2, 2, 2))):
            shape = np.shape(offsets)
            with pytest.raises(ValueError, match=f"shape \\(N, 2\\), got {re.escape(str(shape))}"):
                psf244.render(offsets)
        assert psf244.render(np.empty((0, 2))).shape == (0, 25)
        assert EffectivePsf(PsfModel(0.5), 5).render(np.empty((0, 2))).shape == (0, 121)

    def test_range_checks(self, psf244):
        assert render_signature_batch(psf244, [(0.0, 0.0)]).shape == (1, 25)
        for eps in [(0.5 + 1e-9, 0.0), (0.0, -0.7), (np.nan, 0.0)]:
            with pytest.raises(ValueError):
                render_signature_batch(psf244, [eps])


class TestEffectivePsfCache:
    def test_one_table_per_design(self):
        assert effective_psf(2.44, 2) is effective_psf(2.44, 2)
        assert effective_psf(2.44, 1) is not effective_psf(2.44, 2)

    def test_cached_table_is_read_only(self):
        psf = effective_psf(2.44, 2)
        for table in (psf._plane, quadrant(psf), psf._gather):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0

    def test_table_is_read_only_from_birth(self):
        # the table guards its own arrays, not only effective_psf's copy
        psf = EffectivePsf(PsfModel(2.44), 2)
        for table in (psf._plane, psf._gather):
            assert not table.flags.writeable

    @pytest.mark.parametrize("r_c, w", [(2.44, 2), (0.5, 5), (2.44, 1)])
    def test_renders_as_a_fresh_table(self, r_c, w):
        offsets = np.vstack([np.random.default_rng(3).uniform(-0.5, 0.5, (500, 2)),
                             build_alrt_bank(effective_psf(r_c, w)).offsets])
        np.testing.assert_array_equal(effective_psf(r_c, w).render(offsets),
                                      EffectivePsf(PsfModel(r_c), w).render(offsets))


class TestAverageEnergy:
    def test_degenerate_grid_is_single_node_energy(self, model244):
        # the grid-average oracle at one node is that node's energy
        sig = direct_signature(model244, (0.0, 0.0), w=8)
        assert grid_average_energy(model244, w=8, grid_size=1) == pytest.approx(
            float(np.sum(sig**2)), rel=1e-12)

    @pytest.mark.parametrize("r_c, grid_size", [(2.44, 6), (0.5, 2)])
    def test_parseval_matches_grid_average(self, r_c, grid_size):
        # by Poisson summation a small offset grid already averages
        # the full-plane energy exactly, up to the w=25 truncation
        model = PsfModel(r_c)
        assert average_energy(model) == pytest.approx(
            grid_average_energy(model, w=25, grid_size=grid_size), rel=1e-6)


class TestSignatureBank:
    def test_cardinality_and_sums(self, bank244):
        assert len(bank244.offsets) == 401
        assert bank244.vectors.shape == (401, 25)
        assert np.all(bank244.vectors.sum(axis=1) <= 1.0)
        assert np.all(bank244.vectors >= 0)

    def test_center_node_appended(self, bank244):
        np.testing.assert_array_equal(bank244.offsets[bank244.center_index], [0.0, 0.0])
        assert bank244.center_index == 400

    def test_small_grid_nodes(self, psf244):
        bank = build_signature_bank(psf244, grid_size=2)
        expect = {(-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25), (0.0, 0.0)}
        assert {tuple(o) for o in bank.offsets} == expect

    def test_center_value_bracketed_by_encircled_energy(self, bank244):
        # the unit square sits between its inscribed (R=1/2) and
        # circumscribed (R=sqrt(2)/2) disks
        central = bank244.vectors[bank244.center_index, 12]
        assert (airy_encircled_energy(2.44, 0.5) < central
                < airy_encircled_energy(2.44, np.sqrt(2) / 2))

    def test_central_pixel_aliasing_span(self, bank244):
        # the centered spot holds the full encircled main-lobe energy
        # (~0.85) while a corner-offset spot splits it four ways (~0.28)
        central = bank244.vectors[:400, 12]
        assert central.min() <= 0.30
        assert central.max() >= 0.80

    def test_grid_size_validation(self, psf244):
        with pytest.raises(ValueError):
            build_signature_bank(psf244, grid_size=5)
        with pytest.raises(ValueError):
            build_signature_bank(psf244, grid_size=0)

    def test_rule_is_the_cell_centers(self, bank244):
        # exactly the 20^2 cell centers, row-major, each of weight 1/400;
        # the appended center node is searched only
        e = (np.arange(20) + 0.5) / 20 - 0.5
        np.testing.assert_array_equal(bank244.offsets[:len(bank244.log_weights)],
                                      np.column_stack([np.repeat(e, 20), np.tile(e, 20)]))
        np.testing.assert_array_equal(bank244.log_weights, np.full(400, -np.log(400)))
        assert np.exp(bank244.log_weights).sum() == pytest.approx(1.0, rel=1e-15)

    def test_design_is_the_table(self, bank244, psf244):
        assert (bank244.w, bank244.r_c) == (psf244.w, psf244.r_c) == (2, 2.44)

    def test_bind_refuses_a_non_positive_quadratic_form(self, bank244):
        with pytest.raises(ValueError, match="non-positive signature quadratic form at "
                                             "r_c = 2.44; covariance not PD"):
            bank244.bind(CovarianceModel(-1.0, None))

    def test_row_major_ordering(self, bank244):
        # eps1 is the slow axis
        assert bank244.offsets[0] == pytest.approx([-0.475, -0.475])
        assert bank244.offsets[1] == pytest.approx([-0.475, -0.425])
        assert bank244.offsets[20] == pytest.approx([-0.425, -0.475])


class TestAlrtBank:
    def test_nodes(self, bank9_244):
        assert len(bank9_244.offsets) == len(bank9_244.log_weights) == 9
        assert np.exp(bank9_244.log_weights).sum() == pytest.approx(1.0, rel=1e-15)
        assert set(np.unique(bank9_244.offsets)) == {-0.5, 0.0, 0.5}
        np.testing.assert_array_equal(bank9_244.offsets[bank9_244.center_index],
                                      [0.0, 0.0])

    def test_boundary_node_is_shifted_negative_node(self, model244):
        # s at eps1=+0.5 equals s at eps1=-0.5 shifted one pixel along i
        wide = render_signature_batch(EffectivePsf(model244, 4), [(0.5, 0.1), (-0.5, 0.1)])
        a = wide[0].reshape(9, 9)
        b = wide[1].reshape(9, 9)
        np.testing.assert_allclose(a[1:, :], b[:-1, :], atol=1e-12)

    def test_model_tabulated_at_w(self, model244, bank9_244):
        # a PsfModel, w and q are accepted because the benchmark passes them
        bank = build_alrt_bank(model244, 2, 16)
        assert (bank.w, bank.r_c) == (2, 2.44) and isinstance(bank.psf, EffectivePsf)
        np.testing.assert_array_equal(bank.vectors, bank9_244.vectors)
