"""End-to-end acceptance suite.

Each test checks one headline behavior of the package at full scale and
prints a single PASS/FAIL line (visible even under output capture).
Expensive Monte Carlo runs are shared through module-scoped fixtures.
"""

import numpy as np
import pytest
from scipy import optimize, special
from scipy.integrate import trapezoid
from scipy.special import logsumexp
from scipy.stats import chi2

from subpixdet.clutter import (
    assemble_window_covariance, synthesize_fbm, white_covariance,
)
from subpixdet.detectors import DETECTOR_IDS, batch_scores, build_subspace
from subpixdet.harness import (
    ExperimentConfig, average_energy_cached, empirical_roc_from_scores,
    run_mse, run_roc, theoretical_pmf_roc,
)
from subpixdet.optics import (
    EffectivePsf, PsfModel, build_alrt_bank, build_signature_bank, effective_psf,
    render_signature_batch,
)

from helpers import TRAPEZOID, airy_psf, mse_row, pd_at_pfa, signature, window_covariance

JOBS = 4

pytestmark = pytest.mark.acceptance


def report(capsys, number, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nacceptance {number} ({name}): {status} [{detail}]")
    assert ok, f"acceptance {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared full-scale runs

@pytest.fixture(scope="module")
def mse_report_15db():
    cfg = ExperimentConfig(snr_sweep=(15.0,), n_trials=10_000, seed=0,
                           jobs=JOBS)
    return run_mse(cfg)


@pytest.fixture(scope="module")
def roc_16_2db():
    cfg = ExperimentConfig(snr_db=16.2, n_h0=100_000, n_h1=100_000, seed=0,
                           jobs=JOBS)
    return {c.detector: c for c in run_roc(cfg)}


@pytest.fixture(scope="module")
def roc_15db_both_designs():
    # Pfa at Pd=0.8 sits at a few counts per 1e5 H0 trials, hence 1e6 H0
    # trials.  Even so the sampled design leaves only 5-10 H0 counts at
    # Pd=0.8, so its Pfa is a Poisson count, not a resolved value, and
    # acceptance 6 compares counts through their confidence intervals.
    out = {}
    for r_c, w in ((2.44, 2), (0.5, 5)):
        cfg = ExperimentConfig(r_c=r_c, w=w, snr_db=15.0, n_h0=1_000_000,
                               n_h1=100_000, seed=0, jobs=2)
        out[r_c] = {c.detector: c for c in run_roc(cfg)}
    return out


@pytest.fixture(scope="module")
def roc_fractal():
    cfg = ExperimentConfig(noise="fractal", hurst=0.7, alpha=0.12,
                           image_size=1024, n_h0=10_000, n_h1=10_000,
                           train_equals_test=True, seed=1, jobs=JOBS,
                           detectors=("GPMF", "GLRT", "ELRT", "ALRT"))
    return {c.detector: c for c in run_roc(cfg)}


# ---------------------------------------------------------------------------

def test_1_average_spot_energy(capsys):
    e_aliased = average_energy_cached(2.44)
    e_sampled = average_energy_cached(0.5)
    ok = abs(e_aliased - 0.52) <= 0.01 and abs(e_sampled - 0.08) <= 0.01
    report(capsys, 1, "average spot energy", ok,
           f"E(2.44)={e_aliased:.4f} (want 0.52±0.01), "
           f"E(0.5)={e_sampled:.4f} (want 0.08±0.01)")


def test_2_theoretical_pmf_anchor(capsys):
    psf = effective_psf(2.44, 2)
    pfa, ideal = theoretical_pmf_roc(15.0, (0.0, 0.0), psf)
    _, mean = theoretical_pmf_roc(15.0, "mean", psf, grid_size=20)
    pd_ideal = float(np.interp(1e-4, pfa, ideal))
    pd_mean = float(np.interp(1e-4, pfa, mean))
    ok = pd_ideal >= 0.99 and abs(pd_mean - 0.80) <= 0.05
    report(capsys, 2, "closed-form matched-filter anchor", ok,
           f"Pd(ideal)={pd_ideal:.4f} (want >=0.99), "
           f"Pd(mean)={pd_mean:.4f} (want 0.80±0.05) at Pfa=1e-4")


def test_3_default_estimator_baseline(capsys, mse_report_15db):
    row = mse_row(mse_report_15db, "DEFAULT", 15.0)
    # per-axis variance of eps^2 for eps ~ U(-1/2, 1/2): 1/80 - 1/144
    se = np.sqrt((1 / 80 - 1 / 144) / row["n_trials"])
    dev = max(abs(row["mse_eps1"] - 1 / 12), abs(row["mse_eps2"] - 1 / 12))
    ok = dev <= 3 * se
    report(capsys, 3, "default estimator baseline", ok,
           f"per-axis MSE=({row['mse_eps1']:.5f}, {row['mse_eps2']:.5f}), "
           f"want 1/12={1/12:.5f} within 3*SE={3*se:.5f}")


def test_4_estimator_ordering_15db(capsys, mse_report_15db):
    ml = mse_row(mse_report_15db, "ML", 15.0)["mse_total"]
    pm = mse_row(mse_report_15db, "PM", 15.0)["mse_total"]
    default = mse_row(mse_report_15db, "DEFAULT", 15.0)["mse_total"]
    ok = abs(ml - default) <= 0.30 * default and pm <= 0.65 * default
    report(capsys, 4, "estimator ordering at 15 dB", ok,
           f"MSE ML/DEFAULT={ml/default:.3f} (want within ±0.30), "
           f"PM/DEFAULT={pm/default:.3f} (want <=0.65)")


def test_5_detector_ordering_16_2db(capsys, roc_16_2db):
    # GPMF's own Pd passes 0.98 at Pfa~1.6e-2, so a fixed Pd margin cannot
    # be met near Pfa=0.1.  Ask instead that each of the trio at least
    # halves GPMF's miss rate 1-Pd at every Pfa on the grid.
    pfa_grid = np.logspace(-3, -1, 41)
    pd = {name: pd_at_pfa(curve, pfa_grid)
          for name, curve in roc_16_2db.items()}
    trio = ("GLRT", "ELRT", "ALRT")
    miss = {name: 1 - pd[name] for name in ("GPMF",) + trio}
    halved = all(np.all(miss[name] <= 0.5 * miss["GPMF"]) for name in trio)
    glrt_elrt = np.abs(pd["GLRT"] - pd["ELRT"])
    ok = bool(halved and np.all(glrt_elrt <= 0.03))
    ratio = {name: miss[name] / miss["GPMF"] for name in trio}
    worst = max(trio, key=lambda name: ratio[name].max())
    i = int(np.argmax(ratio[worst]))
    n_h1 = roc_16_2db[worst].n_h1
    report(capsys, 5, "detector ordering at 16.2 dB", ok,
           f"max miss ratio={ratio[worst][i]:.3f} ({worst}/GPMF at "
           f"Pfa={pfa_grid[i]:.2e}: {miss[worst][i] * n_h1:.0f}/"
           f"{miss['GPMF'][i] * n_h1:.0f} misses of {n_h1} H1, want <=0.5), "
           f"max|GLRT-ELRT|={glrt_elrt.max():.4f} (want <=0.03)")


def poisson_interval(count, level=0.95):
    """Exact (Garwood) confidence interval for a Poisson mean."""
    tail = (1 - level) / 2
    lo = chi2.ppf(tail, 2 * count) / 2 if count > 0 else 0.0
    return lo, chi2.ppf(1 - tail, 2 * count + 2) / 2


def h0_count_at_pd(curve, pd_target):
    """H0 scores at or above the threshold where Pd first reaches target."""
    return int(curve.h0_counts[np.flatnonzero(curve.pd >= pd_target)[0]])


def test_6_sensor_design_gain(capsys, roc_15db_both_designs):
    aliased = roc_15db_both_designs[2.44]
    sampled = roc_15db_both_designs[0.5]

    # (a) GPMF gains >=10x in closed form, and the Monte Carlo GPMF agrees
    # with the closed form in both designs.  theoretical_pmf_roc is the
    # one-sided T0 while GPMF scores t^2/d, so the two-sided Pfa is twice
    # the curve's.
    pfa_pmf, gpmf_agree = {}, {}
    for r_c, w in ((2.44, 2), (0.5, 5)):
        pfa, pd = theoretical_pmf_roc(15.0, "mean", effective_psf(r_c, w), grid_size=20,
                                      pfa_grid=np.logspace(-8, 0, 8001))
        pfa_pmf[r_c] = 2 * float(np.interp(0.8, pd, pfa))
        gpmf = roc_15db_both_designs[r_c]["GPMF"]
        lo, hi = poisson_interval(h0_count_at_pd(gpmf, 0.8))
        gpmf_agree[r_c] = lo <= gpmf.n_h0 * pfa_pmf[r_c] <= hi
    pmf_ratio = pfa_pmf[0.5] / pfa_pmf[2.44]
    gpmf_ok = pmf_ratio <= 0.1 and all(gpmf_agree.values())

    # (b) every detector gains: the sampled design's H0 count at Pd=0.8 is
    # significantly below the aliased design's (disjoint 95% intervals).
    # 10x is out of reach for a detector that already recovers the
    # aliasing loss: the offset-clairvoyant matched filter bounds every
    # detector's Pd in both designs, and its own closed-form gain is 4.8x.
    counts = {name: (h0_count_at_pd(sampled[name], 0.8),
                     h0_count_at_pd(aliased[name], 0.8)) for name in aliased}
    margin = {name: poisson_interval(ka)[0] - poisson_interval(ks)[1]
              for name, (ks, ka) in counts.items()}
    gain_ok = all(m > 0 for m in margin.values())

    # (c) once correctly sampled, all five detectors perform alike
    pfa_grid = np.logspace(-3, -1, 41)
    pd_sampled = np.array([pd_at_pfa(sampled[name], pfa_grid) for name in sampled])
    spread = float(np.max(pd_sampled.max(axis=0) - pd_sampled.min(axis=0)))

    ok = gpmf_ok and gain_ok and spread <= 0.1
    worst = min(margin, key=margin.get)
    ks, ka = counts[worst]
    n_h0 = aliased[worst].n_h0
    gs, ga = counts["GPMF"]
    report(capsys, 6, "correct sampling gain", ok,
           f"closed-form GPMF Pfa ratio={pmf_ratio:.3g} (want <=0.1); "
           f"MC GPMF H0 counts {gs}/{ga} of {n_h0} vs closed form "
           f"{n_h0 * pfa_pmf[0.5]:.1f}/{n_h0 * pfa_pmf[2.44]:.1f} "
           f"(want inside 95% CI: {gpmf_agree[0.5]}/{gpmf_agree[2.44]}); "
           f"weakest gain {worst}: H0 counts {ks}/{ka} of {n_h0}, "
           f"ratio {ks / ka:.3g}, CI upper {poisson_interval(ks)[1]:.1f} "
           f"vs lower {poisson_interval(ka)[0]:.1f} (want below); "
           f"Pd spread at r_c=0.5: {spread:.4f} (want <=0.1)")


def dkw_half_width(n, level):
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz band on an empirical
    distribution function of n draws, with Massart's constant."""
    return np.sqrt(np.log(2 / (1 - level)) / (2 * n))


def test_6b_whole_curve_closed_form(capsys, roc_15db_both_designs):
    # In unit white noise GPMF (t^2/d at the center node) and order-1
    # SM-GLRT are chi^2_1 under H0.  Under H1 at offset eps, GPMF's
    # s0^T z / |s0| is normal with mean mu = alpha s0^T s_eps / |s0|, so
    # t^2/d is noncentral chi^2_1, averaged here over the 60x60 midpoint
    # grid of the uniform eps.  Each of the six empirical survival
    # functions (a curve's Pfa or Pd at its own thresholds) must lie
    # inside the DKW band around its law, at every H0 threshold and at
    # 999 H1 thresholds spread evenly in Pd.  The bands hold jointly at
    # 95% (Bonferroni, 1 - 0.05/6 each): one 95% band per curve would
    # miss on about a quarter of seeds, and seed 0's aliased GPMF H0
    # curve alone reaches 0.00146 against that band's 0.00136.
    level = 1 - 0.05 / 6
    mid = (np.arange(60) + 0.5) / 60 - 0.5
    grid = np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1).reshape(-1, 2)
    worst = {}
    for r_c, w in ((2.44, 2), (0.5, 5)):
        curves = roc_15db_both_designs[r_c]
        for name in ("GPMF", "SM-GLRT"):
            curve = curves[name]
            tau = curve.thresholds[1:]
            dev = np.abs(curve.pfa[1:] - special.erfc(np.sqrt(tau / 2)))   # chi^2_1 sf
            worst[f"{name} H0 {r_c}"] = (dev.max(), dkw_half_width(curve.n_h0, level))
        gpmf = curves["GPMF"]
        psf = EffectivePsf(PsfModel(r_c), w)
        s0 = render_signature_batch(psf, [(0.0, 0.0)])[0]
        alpha = 10 ** (15.0 / 20) / np.sqrt(average_energy_cached(r_c))
        mu = alpha * (render_signature_batch(psf, grid) @ s0) / np.sqrt(s0 @ s0)
        idx = np.searchsorted(gpmf.pd, np.arange(1, 1000) / 1000)
        root = np.sqrt(gpmf.thresholds[idx])[:, None]
        sf = (special.ndtr(mu - root) + special.ndtr(-mu - root)).mean(axis=1)
        worst[f"GPMF H1 {r_c}"] = (np.abs(gpmf.pd[idx] - sf).max(),
                                   dkw_half_width(gpmf.n_h1, level))
    ok = all(d <= band for d, band in worst.values())
    report(capsys, "6b", "whole-curve closed form", ok,
           "; ".join(f"{key} max dev {d:.5f} (band {band:.5f})"
                     for key, (d, band) in worst.items()))


def ec_curvatures(psf, cov, half=0.475, n=41, h=1e-4):
    """L1 (half the boundary length) and L2 (the area) of the offset
    square [-half, half]^2 in the metric Lambda = J^T J of the unit field
    u(eps) = R^{-1/2} s_eps / |R^{-1/2} s_eps|, J = du/deps: central
    differences of step h on psf's table, and an n x n trapezoid."""
    x = np.linspace(-half, half, n)
    grid = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    chol = np.linalg.cholesky(cov)

    def unit(eps):
        v = np.linalg.solve(chol, psf.render(eps).T).T
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    j1, j2 = ((unit(grid + h * e) - unit(grid - h * e)) / (2 * h) for e in np.eye(2))
    g11, g22, g12 = (np.einsum("np,np->n", a, b).reshape(n, n)
                     for a, b in ((j1, j1), (j2, j2), (j1, j2)))
    area = trapezoid(trapezoid(np.sqrt(g11 * g22 - g12**2), x), x)
    edges = (trapezoid(np.sqrt(g22[[0, -1]]), x).sum()             # eps1 = +-half
             + trapezoid(np.sqrt(g11[:, [0, -1]]), x, axis=0).sum())  # eps2 = +-half
    return edges / 2, area


def ec_tail(tau, l1, l2):
    """P(max over the square of Z^2 >= tau), Z = u^T z, by the expected
    Euler characteristic of the excursions of Z and -Z above x = sqrt(tau)."""
    x = np.sqrt(tau)
    rho = np.exp(-x * x / 2)
    return 2 * (special.ndtr(-x) + l1 * rho / (2 * np.pi) + l2 * x * rho / (2 * np.pi)**1.5)


def h0_count_at(curve, tau):
    """H0 scores at or above tau."""
    i = np.searchsorted(-curve.thresholds, -tau, side="right") - 1
    return int(curve.h0_counts[i])


def test_6c_glrt_false_alarm_law(capsys, roc_15db_both_designs):
    # In unit white noise the GLRT score is max over the grid of (u^T z)^2,
    # a search of the unit-variance Gaussian field Z(eps) = u(eps)^T z
    # over the offset square.  Its upper tail is the expected-Euler-
    # characteristic (EC) heuristic (Siegmund & Worsley 1995, Ann.
    # Statist. 23:608), on the hull of the grid's cell centres, where the
    # grid searches.  At 7 Pfa levels over [1e-5, 1e-2] the EC count
    # n_h0 * Pfa must lie inside the Poisson interval of the Monte Carlo
    # count (joint 95% over both designs, Bonferroni), stretched by the
    # heuristic's own bias: a separate run (2e6 H0 trials, seed 5) read
    # EC/MC 1.061-1.065 at r_c = 2.44 and 0.984-0.989 at r_c = 0.5
    # where the counts resolve it, so the stretch is [0.97, 1.08].  Small
    # counts are judged by the interval, large ones by the stretch.
    levels = np.logspace(-2, -5, 7)
    conf = 1 - 0.05 / (2 * len(levels))
    stretch = (0.97, 1.08)
    ok, details = True, []
    for r_c, w in ((2.44, 2), (0.5, 5)):
        curves = roc_15db_both_designs[r_c]
        glrt, gpmf = curves["GLRT"], curves["GPMF"]
        l1, l2 = ec_curvatures(EffectivePsf(PsfModel(r_c), w), np.eye((2 * w + 1)**2))
        ratios = []
        for pfa in levels:
            tau = optimize.brentq(lambda t: ec_tail(t, l1, l2) - pfa, 1.0, 100.0)
            count = h0_count_at(glrt, tau)
            lo, hi = poisson_interval(count, conf)
            ok &= stretch[0] * lo <= glrt.n_h0 * pfa <= stretch[1] * hi
            ratios.append(glrt.n_h0 * pfa / max(count, 1))
        # the search price: GLRT's Pfa over GPMF's at GPMF's Pd = 0.8 threshold
        tau80 = gpmf.thresholds[np.searchsorted(gpmf.pd, 0.8)]
        price = ec_tail(tau80, l1, l2) / special.erfc(np.sqrt(tau80 / 2))
        mc = f"{h0_count_at(glrt, tau80)}/{h0_count_at(gpmf, tau80)}"
        details.append(f"r_c={r_c}: L1={l1:.3f} L2={l2:.3f}, EC/MC "
                       + " ".join(f"{r:.3f}" for r in ratios)
                       + f"; search price at GPMF Pd=0.8 {price:.2f}x (MC H0 counts {mc})")
    report(capsys, "6c", "GLRT false-alarm law", ok,
           "; ".join(details) + f" (want EC count in [{stretch[0]}, {stretch[1]}] x "
           f"the {conf:.4f} Poisson interval at Pfa 1e-2..1e-5)")


def test_7_fractal_clutter(capsys, roc_fractal):
    # power-law spectrum check on the synthesized field
    field = synthesize_fbm(0.7, size=256, seed=0).values
    n = field.shape[0]
    spec = np.abs(np.fft.fft2(field)) ** 2
    f = np.fft.fftfreq(n)
    radius = np.hypot(f[:, None], f[None, :])
    mask = (radius > 2 / n) & (radius < 0.25)
    slope = np.polyfit(np.log(radius[mask]), np.log(spec[mask]), 1)[0]
    slope_ok = abs(slope - (-3.4)) <= 0.3

    pfa_grid = np.logspace(-2, -1, 21)
    pd = {name: pd_at_pfa(curve, pfa_grid) for name, curve in roc_fractal.items()}
    gap = (np.minimum(np.minimum(pd["GLRT"], pd["ELRT"]), pd["ALRT"])
           - pd["GPMF"])
    dom_ok = bool(np.all(gap >= 0.02))
    report(capsys, 7, "fractal clutter", slope_ok and dom_ok,
           f"PSD slope={slope:.2f} (want -3.4±0.3), "
           f"min dominance gap={gap.min():.4f} (want >=0.02)")


def test_8_oracle_suites(capsys):
    model = PsfModel(2.44)
    details = []

    # (a) pixel quadrature vs a 2048^2 midpoint-rule oracle; the raw
    # midpoint sum has its own O(1/n^2) error just above 1e-6 on the
    # smallest pixels, so remove it by Richardson extrapolation against
    # the 1024^2 sum
    eps = (0.31, -0.17)
    sig = signature(model, eps, w=1)
    worst = 0.0
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            refs = {}
            for n in (1024, 2048):
                u = i - 0.5 + (np.arange(n) + 0.5) / n
                v = j - 0.5 + (np.arange(n) + 0.5) / n
                refs[n] = airy_psf(model, (u - eps[0])[:, None],
                                   (v - eps[1])[None, :]).sum() / n**2
            ref = (4 * refs[2048] - refs[1024]) / 3
            worst = max(worst, abs(sig[i + 1, j + 1] - ref) / ref)
    quad_ok = worst <= 1e-6
    details.append(f"quad rel err {worst:.2e}")

    # (b) all five statistics vs cache-free brute force, correlated noise
    rng = np.random.default_rng(7)
    a = 0.5
    lags = np.arange(-4, 5)
    acf = a ** np.abs(lags)[:, None] * a ** np.abs(lags)[None, :]
    cov = assemble_window_covariance(acf, w=2, lam=1e-6)
    psf = EffectivePsf(model, 2)
    bank = build_signature_bank(psf, 20)
    bank9 = build_alrt_bank(psf)
    bound = bank.bind(cov)
    bound9 = bank9.bind(cov)
    sub = build_subspace(bank, 1)
    r_inv = np.linalg.inv(window_covariance(acf, 2, 1e-6))
    worst_stat = 0.0
    for _ in range(20):
        z = rng.standard_normal(25)
        t = bank.vectors @ r_inv @ z
        d = np.einsum("kn,nm,km->k", bank.vectors, r_inv, bank.vectors)
        bf = {
            "GPMF": t[-1] ** 2 / d[-1],
            "GLRT": float(np.max(t**2 / d)),
            "ELRT": float(logsumexp(t[:400] ** 2 / (2 * d[:400])
                                    - 0.5 * np.log(d[:400])) - np.log(400)),
        }
        t9 = bank9.vectors @ r_inv @ z
        d9 = np.einsum("kn,nm,km->k", bank9.vectors, r_inv, bank9.vectors)
        bf["ALRT"] = float(logsumexp(t9**2 / (2 * d9) - 0.5 * np.log(d9),
                                     b=TRAPEZOID))
        u = sub[:, 0]
        bf["SM-GLRT"] = float(u @ r_inv @ z) ** 2 / float(u @ r_inv @ u)
        got = batch_scores(z[None, :], bound, bound9, sub, DETECTOR_IDS)
        for name in bf:
            worst_stat = max(worst_stat,
                             abs(got[name][0] - bf[name]) / max(1.0, abs(bf[name])))
    stat_ok = worst_stat <= 1e-10
    details.append(f"detector brute-force err {worst_stat:.2e}")

    # (c) empirical ROC vs O(n^2) counting oracle, exact
    s0 = rng.standard_normal(300)
    s1 = rng.standard_normal(200) + 0.8
    curve = empirical_roc_from_scores(s0, s1)
    roc_ok = True
    for tau, pfa, pd in zip(curve.thresholds, curve.pfa, curve.pd):
        roc_ok &= pfa == np.mean(s0 >= tau) and pd == np.mean(s1 >= tau)
    details.append(f"ROC counting oracle {'exact' if roc_ok else 'mismatch'}")

    # (d) rank-one subspace statistic equals the matched-filter form on
    # the leading singular vector
    cov_w = white_covariance(1.3)
    bound_w = bank.bind(cov_w)
    worst_sm = 0.0
    for _ in range(20):
        z = rng.standard_normal(25)
        u = sub[:, 0]
        ref = float(u @ z / 1.3**2) ** 2 / float(u @ u / 1.3**2)
        got = batch_scores(z[None, :], bound_w, subspace=sub,
                           detectors=("SM-GLRT",))["SM-GLRT"][0]
        worst_sm = max(worst_sm, abs(got - ref))
    sm_ok = worst_sm <= 1e-10
    details.append(f"rank-1 identity err {worst_sm:.2e}")

    # (e) GLRT >= GPMF on 10^4 random windows, zero violations
    windows = rng.standard_normal((10_000, 25))
    scores = batch_scores(windows, bank.bind(white_covariance(1.0)),
                          detectors=("GPMF", "GLRT"))
    violations = int(np.sum(scores["GLRT"] < scores["GPMF"]))
    dom_ok = violations == 0
    details.append(f"GLRT>=GPMF violations {violations}")

    ok = quad_ok and stat_ok and roc_ok and sm_ok and dom_ok
    report(capsys, 8, "oracle suites", ok, "; ".join(details))
