"""End-to-end acceptance suite.

Each test checks one headline behavior of the package at full scale and
prints a single PASS/FAIL line (visible even under output capture).
Expensive Monte Carlo runs are shared through module-scoped fixtures.
"""

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chi2

from subpixdet.clutter import (
    assemble_window_covariance, synthesize_fbm, white_covariance,
)
from subpixdet.detectors import (
    ALRT_WEIGHTS, alrt, batch_scores, build_subspace, elrt, glrt, gpmf, sm_glrt,
)
from subpixdet.harness import (
    ExperimentConfig, average_energy_cached, empirical_roc_from_scores,
    run_mse, run_roc, theoretical_pmf_roc,
)
from subpixdet.optics import (
    PsfModel, build_alrt_bank, build_signature_bank, psf_value,
    render_signature,
)

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
    # The 11x11-window design is memory-heavy; run it single-threaded.
    out = {}
    for r_c, w, jobs in ((2.44, 2, 2), (0.5, 5, 1)):
        cfg = ExperimentConfig(r_c=r_c, w=w, snr_db=15.0, n_h0=1_000_000,
                               n_h1=100_000, seed=0, jobs=jobs)
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
    bank = build_signature_bank(PsfModel(2.44), grid_size=20, w=2)
    ideal = theoretical_pmf_roc(15.0, (0.0, 0.0), bank)
    mean = theoretical_pmf_roc(15.0, "mean", bank)
    pd_ideal = float(ideal.pd_at_pfa(1e-4))
    pd_mean = float(mean.pd_at_pfa(1e-4))
    ok = pd_ideal >= 0.99 and abs(pd_mean - 0.80) <= 0.05
    report(capsys, 2, "closed-form matched-filter anchor", ok,
           f"Pd(ideal)={pd_ideal:.4f} (want >=0.99), "
           f"Pd(mean)={pd_mean:.4f} (want 0.80±0.05) at Pfa=1e-4")


def test_3_default_estimator_baseline(capsys, mse_report_15db):
    row = mse_report_15db.get("DEFAULT", 15.0)
    # per-axis variance of eps^2 for eps ~ U(-1/2, 1/2): 1/80 - 1/144
    se = np.sqrt((1 / 80 - 1 / 144) / row["n_trials"])
    dev = max(abs(row["mse_eps1"] - 1 / 12), abs(row["mse_eps2"] - 1 / 12))
    ok = dev <= 3 * se
    report(capsys, 3, "default estimator baseline", ok,
           f"per-axis MSE=({row['mse_eps1']:.5f}, {row['mse_eps2']:.5f}), "
           f"want 1/12={1/12:.5f} within 3*SE={3*se:.5f}")


def test_4_estimator_ordering_15db(capsys, mse_report_15db):
    ml = mse_report_15db.get("ML", 15.0)["mse_total"]
    pm = mse_report_15db.get("PM", 15.0)["mse_total"]
    default = mse_report_15db.get("DEFAULT", 15.0)["mse_total"]
    ok = abs(ml - default) <= 0.30 * default and pm <= 0.65 * default
    report(capsys, 4, "estimator ordering at 15 dB", ok,
           f"MSE ML/DEFAULT={ml/default:.3f} (want within ±0.30), "
           f"PM/DEFAULT={pm/default:.3f} (want <=0.65)")


def test_5_detector_ordering_16_2db(capsys, roc_16_2db):
    # GPMF's own Pd passes 0.98 at Pfa~1.6e-2, so a fixed Pd margin cannot
    # be met near Pfa=0.1.  Ask instead that each of the trio at least
    # halves GPMF's miss rate 1-Pd at every Pfa on the grid.
    pfa_grid = np.logspace(-3, -1, 41)
    pd = {name: curve.pd_at_pfa(pfa_grid)
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
    return round(curve.pfa_at_pd(pd_target) * curve.n_h0)


def test_6_sensor_design_gain(capsys, roc_15db_both_designs):
    aliased = roc_15db_both_designs[2.44]
    sampled = roc_15db_both_designs[0.5]

    # (a) GPMF gains >=10x in closed form, and the Monte Carlo GPMF agrees
    # with the closed form in both designs.  theoretical_pmf_roc is the
    # one-sided T0 while GPMF scores t^2/d, so the two-sided Pfa is twice
    # the curve's.
    pfa_pmf, gpmf_agree = {}, {}
    for r_c, w in ((2.44, 2), (0.5, 5)):
        bank = build_signature_bank(PsfModel(r_c), grid_size=20, w=w)
        curve = theoretical_pmf_roc(15.0, "mean", bank,
                                    pfa_grid=np.logspace(-8, 0, 8001))
        pfa_pmf[r_c] = 2 * float(np.interp(0.8, curve.pd, curve.pfa))
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
    pd_sampled = np.array([sampled[name].pd_at_pfa(pfa_grid) for name in sampled])
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
    pd = {name: curve.pd_at_pfa(pfa_grid) for name, curve in roc_fractal.items()}
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
    sig = render_signature(model, eps, w=1)
    worst = 0.0
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            refs = {}
            for n in (1024, 2048):
                u = i - 0.5 + (np.arange(n) + 0.5) / n
                v = j - 0.5 + (np.arange(n) + 0.5) / n
                refs[n] = psf_value(model, (u - eps[0])[:, None],
                                    (v - eps[1])[None, :]).sum() / n**2
            ref = (4 * refs[2048] - refs[1024]) / 3
            worst = max(worst, abs(sig.values[i + 1, j + 1] - ref) / ref)
    quad_ok = worst <= 1e-6
    details.append(f"quad rel err {worst:.2e}")

    # (b) all five statistics vs cache-free brute force, correlated noise
    rng = np.random.default_rng(7)
    a = 0.5
    lags = np.arange(-4, 5)
    acf = a ** np.abs(lags)[:, None] * a ** np.abs(lags)[None, :]
    cov = assemble_window_covariance(acf, w=2, lam=1e-6)
    bank = build_signature_bank(model, 20, 2)
    bank9 = build_alrt_bank(model, 2)
    bound = bank.bind(cov)
    bound9 = bank9.bind(cov)
    sub = build_subspace(bank, 1)
    r_inv = np.linalg.inv(cov.matrix)
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
                                     b=ALRT_WEIGHTS))
        u = sub.basis[:, 0]
        bf["SM-GLRT"] = float(u @ r_inv @ z) ** 2 / float(u @ r_inv @ u)
        got = {
            "GPMF": gpmf(z, bound).score,
            "GLRT": glrt(z, bound).score,
            "ELRT": elrt(z, bound).score,
            "ALRT": alrt(z, bound9).score,
            "SM-GLRT": sm_glrt(z, sub, cov).score,
        }
        for name in bf:
            worst_stat = max(worst_stat,
                             abs(got[name] - bf[name]) / max(1.0, abs(bf[name])))
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
    cov_w = white_covariance(1.3, w=2)
    worst_sm = 0.0
    for _ in range(20):
        z = rng.standard_normal(25)
        u = sub.basis[:, 0]
        ref = float(u @ z / 1.3**2) ** 2 / float(u @ u / 1.3**2)
        got = sm_glrt(z, sub, cov_w).score
        worst_sm = max(worst_sm, abs(got - ref))
    sm_ok = worst_sm <= 1e-10
    details.append(f"rank-1 identity err {worst_sm:.2e}")

    # (e) GLRT >= GPMF on 10^4 random windows, zero violations
    windows = rng.standard_normal((10_000, 25))
    scores = batch_scores(windows, bank.bind(white_covariance(1.0, 2)),
                          detectors=("GPMF", "GLRT"))
    violations = int(np.sum(scores["GLRT"] < scores["GPMF"]))
    dom_ok = violations == 0
    details.append(f"GLRT>=GPMF violations {violations}")

    ok = quad_ok and stat_ok and roc_ok and sm_ok and dom_ok
    report(capsys, 8, "oracle suites", ok, "; ".join(details))
