import numpy as np
import mpmath
import pytest
from numpy.polynomial.legendre import leggauss

from subpixdet.optics import (
    EffectivePsf, PsfModel, alrt_offsets, bessel_j1, psf_value, render_signature,
    render_signature_batch, average_energy, build_signature_bank, save_bank_csv,
    load_bank_csv,
)


# ---------------------------------------------------------------------------
# Test-local oracles, independent of the effective-PSF table and of the
# Parseval energy: direct per-pixel Gauss-Legendre integration of the
# PSF, and the spot energy averaged over a grid of offsets.

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
        h = psf_value(model, du[:, :, None], dv[:, None, :])
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
    def test_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_value_at_one(self):
        assert bessel_j1(1.0) == pytest.approx(0.4400505857, abs=1e-10)
        assert bessel_j1(1.0) == pytest.approx(j1_series(1.0), abs=1e-12)

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
        assert bessel_j1(3.8317059702) == pytest.approx(0.0, abs=1e-9)

    def test_accuracy_sweep(self):
        xs = np.linspace(-500, 500, 2001)
        with mpmath.workdps(60):
            ref = np.array([float(mpmath.besselj(1, float(x))) for x in xs])
        assert np.max(np.abs(bessel_j1(xs) - ref)) <= 1e-10

    def test_series_agrees_at_moderate_x(self):
        for x in (0.5, 2.0, 7.9, 15.0):
            assert bessel_j1(x) == pytest.approx(j1_series(x), abs=1e-12)


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

    def test_rc_validation(self):
        with pytest.raises(ValueError):
            PsfModel(0.0)
        with pytest.raises(ValueError):
            PsfModel(-1.0)


def midpoint_pixel_integral(model, i, j, eps, n=2048):
    """Brute-force midpoint rule on an n x n subgrid of the unit square."""
    u = i - 0.5 + (np.arange(n) + 0.5) / n
    v = j - 0.5 + (np.arange(n) + 0.5) / n
    h = psf_value(model, (u - eps[0])[:, None], (v - eps[1])[None, :])
    return h.sum() / n**2


class TestRenderSignature:
    def test_quadrature_vs_midpoint_oracle(self, model244):
        for eps, (i, j) in [((0.0, 0.0), (0, 0)), ((0.3, -0.2), (0, 0)),
                            ((0.3, -0.2), (1, -1))]:
            sig = render_signature(model244, eps, w=2)
            ref = midpoint_pixel_integral(model244, i, j, eps)
            assert sig.values[i + 2, j + 2] == pytest.approx(ref, rel=1e-6)

    def test_window_sum_bounds(self, model244):
        sig = render_signature(model244, (0.0, 0.0), w=25)
        assert 0.99 <= sig.values.sum() <= 1.0

    def test_sum_monotone_in_window(self, model244):
        sums = [render_signature(model244, (0.2, 0.1), w=w).values.sum()
                for w in (1, 2, 4, 8)]
        assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))

    def test_nonnegative(self, model244):
        sig = render_signature(model244, (0.49, -0.5 + 1e-9), w=3)
        assert np.all(sig.values >= 0)

    def test_mirror_symmetry(self, model244):
        a = render_signature(model244, (0.3, -0.2), w=2).values
        b = render_signature(model244, (-0.3, -0.2), w=2).values
        np.testing.assert_allclose(a, b[::-1, :], atol=1e-12)
        c = render_signature(model244, (0.3, 0.2), w=2).values
        np.testing.assert_allclose(a, c[:, ::-1], atol=1e-12)

    def test_quadrature_converged(self, model244):
        # the direct oracle at q=16 is the reference of TestEffectivePsf
        a = direct_signature(model244, (0.37, -0.11), w=2, q=16)
        b = direct_signature(model244, (0.37, -0.11), w=2, q=32)
        assert np.max(np.abs(a - b)) <= 1e-8

    def test_offset_validation(self, model244):
        for eps in [(0.5, 0.0), (0.0, -0.6), (0.7, 0.0)]:
            with pytest.raises(ValueError):
                render_signature(model244, eps, w=2)
        with pytest.raises(ValueError):
            render_signature(model244, (0.0, 0.0), w=0)
        with pytest.raises(ValueError):
            direct_signature(model244, (0.0, 0.0), w=2, q=1)


class TestEffectivePsf:
    @pytest.mark.parametrize("r_c, w", [(2.44, 1), (2.44, 2), (2.44, 4), (0.5, 5)])
    def test_matches_direct_quadrature(self, r_c, w):
        model = PsfModel(r_c)
        offsets = np.vstack([np.random.default_rng(7).uniform(-0.5, 0.5, (2000, 2)),
                             alrt_offsets()])
        table = render_signature_batch(EffectivePsf(model, w), offsets, w)
        assert np.max(np.abs(table - direct_signature_batch(model, offsets, w))) <= 1e-9

    @pytest.mark.parametrize("r_c, w", [(2.44, 2), (0.5, 5)])
    def test_lattice_nodes(self, r_c, w):
        model = PsfModel(r_c)
        psf = EffectivePsf(model, w)
        k = psf.lattice
        e = np.arange(-k // 2, k // 2 + 1, 3) / k
        offsets = np.column_stack([np.repeat(e, len(e)), np.tile(e, len(e))])
        err = np.abs(psf.render(offsets, w) - direct_signature_batch(model, offsets, w))
        assert err.max() <= 1e-12

    def test_narrower_windows_share_one_table(self, model244):
        psf = EffectivePsf(model244, 4)
        offsets = [(0.3, -0.2), (-0.5, 0.5)]
        wide = psf.render(offsets, 4).reshape(2, 9, 9)
        np.testing.assert_array_equal(psf.render(offsets, 2).reshape(2, 5, 5),
                                      wide[:, 2:7, 2:7])

    def test_range_checks(self, model244):
        psf = EffectivePsf(model244, 2)
        with pytest.raises(ValueError):
            psf.render([(0.0, 0.0)], 3)
        for eps in [(0.5 + 1e-9, 0.0), (0.0, -0.7), (np.nan, 0.0)]:
            with pytest.raises(ValueError):
                render_signature_batch(psf, [eps], 2)


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
        assert bank244.n_nodes == 401
        assert bank244.vectors.shape == (401, 25)
        assert np.all(bank244.vectors.sum(axis=1) <= 1.0)
        assert np.all(bank244.vectors >= 0)

    def test_center_node_appended(self, bank244):
        np.testing.assert_array_equal(bank244.offsets[bank244.center_index], [0.0, 0.0])
        assert bank244.center_index == 400

    def test_small_grid_nodes(self, model244):
        bank = build_signature_bank(model244, grid_size=2, w=2)
        expect = {(-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25), (0.0, 0.0)}
        assert {tuple(o) for o in bank.offsets} == expect

    def test_center_value_bracketed_by_encircled_energy(self, bank244):
        # encircled energy in radius R is 1 - J0(x)^2 - J1(x)^2 with
        # x = pi*R*r_c; the unit square sits between its inscribed
        # (R=1/2) and circumscribed (R=sqrt(2)/2) disks
        from scipy.special import j0
        central = bank244.vectors[bank244.center_index, 12]

        def encircled(radius):
            x = np.pi * radius * 2.44
            return 1 - j0(x)**2 - bessel_j1(x)**2

        assert encircled(0.5) < central < encircled(np.sqrt(2) / 2)

    def test_central_pixel_aliasing_span(self, bank244):
        # the centered spot holds the full encircled main-lobe energy
        # (~0.85) while a corner-offset spot splits it four ways (~0.28)
        central = bank244.vectors[:400, 12]
        assert central.min() <= 0.30
        assert central.max() >= 0.80

    def test_grid_size_validation(self, model244):
        with pytest.raises(ValueError):
            build_signature_bank(model244, grid_size=5, w=2)
        with pytest.raises(ValueError):
            build_signature_bank(model244, grid_size=0, w=2)

    def test_row_major_ordering(self, bank244):
        # eps1 is the slow axis
        assert bank244.offsets[0] == pytest.approx([-0.475, -0.475])
        assert bank244.offsets[1] == pytest.approx([-0.475, -0.425])
        assert bank244.offsets[20] == pytest.approx([-0.425, -0.475])

    def test_csv_round_trip(self, bank244, tmp_path):
        path = tmp_path / "bank.csv"
        save_bank_csv(bank244, path)
        loaded = load_bank_csv(path)
        np.testing.assert_array_equal(loaded.offsets, bank244.offsets)
        np.testing.assert_array_equal(loaded.vectors, bank244.vectors)
        assert loaded.w == bank244.w and loaded.r_c == bank244.r_c
        assert loaded.center_index == bank244.center_index


class TestAlrtBank:
    def test_nodes(self, bank9_244):
        assert bank9_244.n_nodes == 9
        assert set(np.unique(bank9_244.offsets)) == {-0.5, 0.0, 0.5}
        np.testing.assert_array_equal(bank9_244.offsets[bank9_244.center_index],
                                      [0.0, 0.0])

    def test_boundary_node_is_shifted_negative_node(self, model244):
        # s at eps1=+0.5 equals s at eps1=-0.5 shifted one pixel along i
        wide = render_signature_batch(model244, [(0.5, 0.1), (-0.5, 0.1)], w=4)
        a = wide[0].reshape(9, 9)
        b = wide[1].reshape(9, 9)
        np.testing.assert_allclose(a[1:, :], b[:-1, :], atol=1e-12)
