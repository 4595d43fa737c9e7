"""Output checks for the benchmark, computed apart from the program.

Every check compares a program output with an independent computation
(a closed-form distribution, a numerical integral made here with scipy,
a nearest-node distance) or with a property the method must have.  None
compares with a stored copy of an earlier output.  Each check returns a
list of failure messages; an empty list means it passed.

Statistical intervals are set at a family-wise false-failure rate of
about one in a million, so a correct program passes on any seed.
"""

import csv
import math

import numpy as np
from scipy import integrate, stats

# family-wise false-failure rate of every statistical check
FAMILY_ALPHA = 1e-6


# ---------------------------------------------------------------------------
# reading the program's outputs

def read_roc_csv(path):
    """roc.csv -> {detector: (thresholds, pfa, pd)} in file order."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["detector", "threshold", "pfa", "pd"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for det, thr, pfa, pd in reader:
            rows.setdefault(det, []).append((float(thr), float(pfa), float(pd)))
    return {det: tuple(np.array(col) for col in zip(*vals)) for det, vals in rows.items()}


def read_mse_csv(path):
    """mse.csv -> list of row dicts with numeric fields converted."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, val in row.items():
            if key == "n_trials":
                row[key] = int(val)
            elif key != "estimator":
                row[key] = float(val)
    return rows


# ---------------------------------------------------------------------------
# ROC checks

def rate_at(curve, tau):
    """(Pfa, Pd) of a curve at threshold tau: the share of scores >= tau.

    Thresholds are listed in decreasing order after the +inf sentinel,
    so the rate at tau is the one of the last listed threshold >= tau.
    """
    thr, pfa, pd = curve
    idx = np.searchsorted(-thr, -np.asarray(tau, dtype=float), side="right") - 1
    return pfa[idx], pd[idx]


def _counted_on(rate, n):
    """Problems with a rate column that should count n scores one by one."""
    counts = rate * n
    steps = np.diff(counts)
    if not np.allclose(counts, np.round(counts), rtol=0, atol=1e-6):
        return "rates are not multiples of 1/n"
    if np.any(steps < -1e-6):
        return "not monotone"
    # continuous scores are distinct, so almost every step adds one score;
    # a curve counted on n/2 (or n/k) scores steps by 2 (k) every time
    if np.count_nonzero(np.round(steps) == 1) <= n / 2:
        return "steps do not count single scores"
    return None


def check_roc_curves(curves, detectors, n_h0, n_h1):
    """Each curve is monotone, runs from (0, 0) to (1, 1) and counts
    exactly n_h0 H0 and n_h1 H1 scores."""
    fails = []
    if list(curves) != list(detectors):
        fails.append(f"roc.csv detectors {list(curves)} != configured {list(detectors)}")
    for det, (thr, pfa, pd) in curves.items():
        if not (np.isinf(thr[0]) and thr[0] > 0 and np.all(np.diff(thr) < 0)):
            fails.append(f"{det}: thresholds are not +inf then strictly decreasing")
        if (pfa[0], pd[0]) != (0.0, 0.0) or (pfa[-1], pd[-1]) != (1.0, 1.0):
            fails.append(f"{det}: curve runs ({pfa[0]}, {pd[0]})..({pfa[-1]}, {pd[-1]}), "
                         "not (0, 0)..(1, 1)")
        for name, rate, n in (("Pfa", pfa, n_h0), ("Pd", pd, n_h1)):
            problem = _counted_on(rate, n)
            if problem:
                fails.append(f"{det}: {name} {problem} (n={n})")
    return fails


def check_glrt_dominates_gpmf(curves):
    """GLRT maximizes over a node set that holds GPMF's node, so its score
    is >= GPMF's window by window: at every threshold its Pfa and Pd are
    at least GPMF's."""
    glrt, gpmf = curves["GLRT"], curves["GPMF"]
    taus = np.union1d(glrt[0], gpmf[0])
    fa_g, d_g = rate_at(glrt, taus)
    fa_p, d_p = rate_at(gpmf, taus)
    fails = []
    for name, a, b in (("Pfa", fa_g, fa_p), ("Pd", d_g, d_p)):
        bad = np.flatnonzero(a < b)
        if len(bad):
            i = bad[0]
            fails.append(f"GLRT {name} {a[i]} < GPMF {name} {b[i]} at threshold {taus[i]!r} "
                         f"({len(bad)} thresholds)")
    return fails


def check_chi2_h0(curves, n_h0, detectors=("GPMF", "SM-GLRT"), pfas=(1e-1, 1e-2, 1e-3)):
    """In white noise GPMF and the order-1 SM-GLRT score a unit-variance
    Gaussian squared, so under H0 they are exactly chi-square with one
    degree of freedom: the H0 count above the chi2_1 quantile for p is
    Binomial(n_h0, p)."""
    alpha = FAMILY_ALPHA / (len(detectors) * len(pfas))
    fails = []
    for det in detectors:
        for p in pfas:
            tau = stats.chi2.isf(p, 1)
            count = round(float(rate_at(curves[det], tau)[0]) * n_h0)
            lo = stats.binom.ppf(alpha / 2, n_h0, p)
            hi = stats.binom.isf(alpha / 2, n_h0, p)
            if not lo <= count <= hi:
                fails.append(f"{det}: {count} of {n_h0} H0 scores above the chi2_1 "
                             f"quantile for {p:g}, outside [{lo:.0f}, {hi:.0f}]")
    return fails


def pd_spread(curves, pfa_grid=None):
    """Largest Pd difference across detectors over Pfa in [1e-3, 1e-1]."""
    if pfa_grid is None:
        pfa_grid = np.logspace(-3, -1, 41)
    pd = np.array([np.interp(pfa_grid, c[1], c[2]) for c in curves.values()])
    return float(np.max(pd.max(axis=0) - pd.min(axis=0)))


def check_pd_spread(curves, limit=0.1):
    """Correct sampling makes the five detectors equivalent (the paper's
    r_c = 0.5 claim): their Pd differs by at most `limit`."""
    spread = pd_spread(curves)
    return [] if spread <= limit else [f"Pd spread {spread:.4f} > {limit}"]


# ---------------------------------------------------------------------------
# optics and clutter checks

def parseval_energy(r_c):
    """Average spot energy by Parseval over the circular-pupil MTF.

    E = int_{|f| <= r_c} MTF(f)^2 sinc^2(f1) sinc^2(f2) df, integrated in
    polar coordinates over the eighth of the disc that symmetry allows.
    """
    def mtf(rho):
        x = rho / r_c
        return 2 / np.pi * (np.arccos(x) - x * np.sqrt(1 - x * x))

    def ring(rho):
        def f(theta):
            return (np.sinc(rho * np.cos(theta)) * np.sinc(rho * np.sin(theta))) ** 2
        return integrate.quad(f, 0, np.pi / 4, epsabs=0, epsrel=1e-10)[0]

    value, _ = integrate.quad(lambda rho: 8 * rho * mtf(rho) ** 2 * ring(rho), 0, r_c,
                              epsabs=0, epsrel=1e-10, limit=200)
    return value


def check_energy(energy, r_c, rel=1e-5):
    ref = parseval_energy(r_c)
    err = abs(energy - ref) / ref
    if err <= rel:
        return []
    return [f"spot energy {energy!r} at r_c={r_c} is {err:.2e} from the Parseval "
            f"integral {ref!r} (want <= {rel:g})"]


def psd_slope(image):
    """Log-log slope of the periodogram against radial frequency.

    Least squares of log P on log |f| over all nonzero frequencies up to
    0.5 cycles/pixel.  The log of an exponential variate has a constant
    mean, so the fit is unbiased for a power-law spectrum.
    """
    n0, n1 = image.shape
    power = np.abs(np.fft.fft2(image - image.mean())) ** 2
    f = np.hypot(np.fft.fftfreq(n0)[:, None], np.fft.fftfreq(n1)[None, :])
    keep = (f > 0) & (f <= 0.5)
    slope, _ = np.polyfit(np.log(f[keep]), np.log(power[keep]), 1)
    return float(slope)


def check_fbm_slope(image, hurst, tol=0.3):
    slope = psd_slope(image)
    want = -(2 * hurst + 2)
    if abs(slope - want) <= tol:
        return []
    return [f"fBm PSD log-log slope {slope:.3f}, want {want:.3f} +- {tol}"]


# ---------------------------------------------------------------------------
# MSE checks

# z-score for 25 comparisons at FAMILY_ALPHA: DEFAULT at 8 SNR points x
# 2 axes and pooled (two-sided), ML against its floor at 8 SNR points
_Z_MSE = float(stats.norm.isf(FAMILY_ALPHA / 50))


def nearest_node_floor(grid_size=20, n=2000):
    """Mean and standard deviation of the squared distance from a uniform
    offset to the nearest ML node (grid cell centres plus (0, 0)).

    Midpoint rule on an n x n lattice of offsets.  Along each axis the
    nearest cell centre is at most half a cell away; the extra (0, 0)
    node is closer only near the origin.
    """
    e = (np.arange(n) + 0.5) / n - 0.5
    cell = 1.0 / grid_size
    d_axis = (e - (np.floor(e / cell) + 0.5) * cell) ** 2
    d_grid = d_axis[:, None] + d_axis[None, :]
    d_origin = e[:, None] ** 2 + e[None, :] ** 2
    d = np.minimum(d_grid, d_origin)
    return float(d.mean()), float(d.std())


def check_mse(rows, estimators, snr_sweep, n_trials, grid_size=20):
    """DEFAULT per-axis MSE is 1/12; ML and PM beat it tenfold at the top
    SNR; ML's MSE is at least the nearest-node quantization floor."""
    fails = []
    got = sorted((r["estimator"], r["snr_db"]) for r in rows)
    want = sorted((e, float(s)) for e in estimators for s in snr_sweep)
    if got != want:
        return [f"mse.csv rows {got} != configured {want}"]
    by = {(r["estimator"], r["snr_db"]): r for r in rows}
    for r in rows:
        if r["n_trials"] != n_trials:
            fails.append(f"{r['estimator']} at {r['snr_db']} dB: n_trials {r['n_trials']} "
                         f"!= {n_trials}")
    # eps ~ U[-1/2, 1/2): E[eps^2] = 1/12, Var[eps^2] = 1/80 - 1/144 = 1/180
    se_default = math.sqrt(1 / 180 / n_trials)
    floor, floor_sd = nearest_node_floor(grid_size)
    se_floor = floor_sd / math.sqrt(n_trials)
    per_axis = []
    for snr in snr_sweep:
        d = by[("DEFAULT", float(snr))]
        for axis in ("mse_eps1", "mse_eps2"):
            per_axis.append(d[axis])
            z = (d[axis] - 1 / 12) / se_default
            if abs(z) > _Z_MSE:
                fails.append(f"DEFAULT {axis} at {snr} dB is {d[axis]:.6f}, "
                             f"{z:+.1f} SE from 1/12 (want within {_Z_MSE:.1f})")
    # every SNR point draws its own offsets, so the 2 x 8 values are independent
    pooled = float(np.mean(per_axis))
    z = (pooled - 1 / 12) / (se_default / math.sqrt(len(per_axis)))
    if abs(z) > _Z_MSE:
        fails.append(f"DEFAULT per-axis MSE pooled over SNR points is {pooled:.6f}, "
                     f"{z:+.1f} SE from 1/12 (want within {_Z_MSE:.1f})")
    # ML answers a node, so per trial its error is at least the distance
    # to the nearest node; the floor is that distance's mean
    for snr in snr_sweep:
        ml = by[("ML", float(snr))]["mse_total"]
        if ml < floor - _Z_MSE * se_floor:
            fails.append(f"ML total MSE {ml:.3e} at {snr} dB is below the nearest-node "
                         f"floor {floor:.3e} - {_Z_MSE:.1f} SE ({se_floor:.1e})")
    top = float(max(snr_sweep))
    default_top = by[("DEFAULT", top)]["mse_total"]
    for est in ("ML", "PM"):
        val = by[(est, top)]["mse_total"]
        if not val <= default_top / 10:
            fails.append(f"{est} total MSE {val:.3e} at {top} dB is not a tenth of "
                         f"DEFAULT's {default_top:.3e}")
    return fails
