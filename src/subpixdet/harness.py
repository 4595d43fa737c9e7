"""Monte Carlo experiment engine: empirical ROC curves, theoretical
pixel-matched-filter ROC curves, and estimator MSE sweeps.

All randomness flows from a single master seed through fixed
(stream, chunk) substreams, keyed by the index of each chunk of _CHUNK
trials, so results are reproducible bit-for-bit and independent of the
number of worker threads.
"""

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import clutter, optics
from .detectors import (
    DETECTOR_IDS, ESTIMATOR_IDS, batch_estimates, batch_scores, build_subspace,
)
from .optics import (
    PsfModel, build_alrt_bank, build_signature_bank, effective_psf, render_signature_batch,
)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "UNREAD",
    "bind_detectors",
    "RocCurve",
    "snr_to_alpha",
    "empirical_roc_from_scores",
    "run_roc",
    "run_mse",
    "theoretical_pmf_roc",
    "write_roc_csv",
    "write_mse_csv",
    "average_energy_cached",
]

_CHUNK = 20_000
# trials per call of the scoring or estimation kernel: its (_BLOCK, K)
# buffer (1.6 MB at K = 401) stays in cache, where a chunk's would not
_BLOCK = 512
# run_mse keys chunk i of sweep point si as si * _SWEEP_STRIDE + i, so a
# point may hold at most _SWEEP_STRIDE chunks before two points would
# share a substream
_SWEEP_STRIDE = 10_000

# substream tags: one fixed integer per independent random ingredient.
# 5 and 6 are retired; renumbering a tag would change every result.
_STREAM_TRAIN = 0
_STREAM_TEST = 1
_STREAM_H0 = 2
_STREAM_H1 = 3
_STREAM_EPS = 4
_STREAM_MSE = 7


class ConfigError(ValueError):
    """Inconsistent or incomplete experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a ROC or MSE run needs, with paper-style defaults.

    The CLI derives each flag and config-file key from a field and
    parses its value as the field's annotated type.  Building a config
    (replace included) raises ConfigError on any bad field.
    """

    # not a field (no flag, config key or manifest entry); see SignatureBank.q
    q: ClassVar[int] = optics.SignatureBank.q

    r_c: float = 2.44
    w: int = 2
    grid_size: int = 20
    noise: str = "white"            # "white" | "fractal"
    sigma: float = 1.0
    hurst: float = 0.7
    image_size: int = 512
    snr_db: float = None
    alpha: float = None
    n_h0: int = 100_000
    n_h1: int = 100_000
    n_trials: int = 10_000          # per MSE SNR point
    snr_sweep: tuple[float, ...] = ()
    seed: int = 0
    detectors: tuple[str, ...] = DETECTOR_IDS
    estimators: tuple[str, ...] = ESTIMATOR_IDS
    eps_fixed: tuple[float, ...] = ()   # () draws each offset uniformly; a pair fixes it
    subspace_order: int = 1
    ridge: float = 1e-6
    train_equals_test: bool = False  # fractal: reuse the training image
    jobs: int = 1

    def __post_init__(self):
        for name in ("snr_db", "alpha", "sigma"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not all(math.isfinite(snr) for snr in self.snr_sweep):
            raise ConfigError(f"snr_sweep entries must be finite, got {self.snr_sweep}")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ConfigError(f"ridge must be finite and >= 0, got {self.ridge}")
        if self.noise not in ("white", "fractal"):
            raise ConfigError(f"unknown noise kind {self.noise!r}")
        if self.noise == "fractal" and not (0 < self.hurst < 1):
            raise ConfigError(f"fractal noise needs Hurst in (0, 1), got {self.hurst}")
        # the covariance reads lags up to 2w, which must stay below half the image
        if self.noise == "fractal" and not self.image_size > 4 * self.w:
            raise ConfigError(f"fractal noise needs image_size greater than 4w = {4 * self.w}, "
                              f"got {self.image_size}")
        if self.noise == "white" and not self.sigma > 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if self.n_h0 < 1 or self.n_h1 < 1 or self.n_trials < 1:
            raise ConfigError("trial counts must be >= 1")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_trials > _SWEEP_STRIDE * _CHUNK:
            raise ConfigError(f"n_trials must be <= {_SWEEP_STRIDE * _CHUNK}, "
                              f"got {self.n_trials}")
        if self.eps_fixed and not (len(self.eps_fixed) == 2 and all(
                math.isfinite(e) and -0.5 <= e <= 0.5 for e in self.eps_fixed)):
            raise ConfigError("eps_fixed must be two finite values in [-0.5, 0.5], "
                              f"got {self.eps_fixed}")
        if not self.detectors:
            raise ConfigError("detectors must name at least one detector")
        if not self.estimators:
            raise ConfigError("estimators must name at least one estimator")
        for name in ("detectors", "estimators"):
            names = getattr(self, name)
            if len(set(names)) < len(names):
                raise ConfigError(f"{name} must not repeat a name, got {names}")
        for name, known in (("detectors", DETECTOR_IDS), ("estimators", ESTIMATOR_IDS)):
            unknown = set(getattr(self, name)) - set(known)
            if unknown:
                raise ConfigError(f"unknown {name} {sorted(unknown)}")
        if self.grid_size % 2 != 0 or self.grid_size < 2:
            raise ConfigError("grid_size must be even and >= 2")


@dataclass(frozen=True)
class RocCurve:
    """An empirical ROC, thresholds falling from +inf: h0_counts[i] of the
    n_h0 H0 scores and h1_counts[i] of the n_h1 H1 scores are >=
    thresholds[i], so the counts run from 0 to n_h0 and n_h1."""

    detector: str
    thresholds: np.ndarray
    h0_counts: np.ndarray
    h1_counts: np.ndarray
    n_h0: int
    n_h1: int

    @property
    def pfa(self):
        return self.h0_counts / self.n_h0

    @property
    def pd(self):
        return self.h1_counts / self.n_h1


def snr_to_alpha(snr_db, sigma, energy):
    """Amplitude from SNR = 10 log10(alpha^2 E / sigma^2)."""
    if not (math.isfinite(snr_db) and math.isfinite(sigma)):
        raise ValueError(f"snr_db and sigma must be finite, got {snr_db} and {sigma}")
    if not (sigma > 0 and energy > 0):
        raise ValueError("sigma and energy must be positive")
    try:
        alpha = sigma * 10 ** (snr_db / 20) / math.sqrt(energy)
    except OverflowError:
        alpha = math.inf
    if not math.isfinite(alpha):
        raise ValueError(f"snr_db = {snr_db} at sigma = {sigma} gives an amplitude "
                         "that overflows")
    return alpha


@lru_cache(maxsize=None)
def _average_energy(r_c):
    energy = optics.average_energy(PsfModel(r_c))
    if not energy > 0:
        raise ValueError(f"spot energy underflows to 0 at r_c = {r_c}")
    return energy


def average_energy_cached(r_c, q=None):
    """Memoized full-plane average spot energy E(r_c).

    The cache is keyed on r_c alone; q is ignored (E does not depend on
    it) and stays only while bench/run.py and bench/selftest.py pass it.
    """
    return _average_energy(r_c)


def empirical_roc_from_scores(scores_h0, scores_h1, detector="custom"):
    """Exact empirical ROC: one threshold per distinct pooled score.

    The counts at tau are the H0/H1 scores >= tau.  A sentinel +inf
    threshold supplies the (0, 0) endpoint; the smallest score supplies
    (n_h0, n_h1).  Raises ValueError if a score is not finite.
    """
    s0, s1 = (np.asarray(s, dtype=float) for s in (scores_h0, scores_h1))
    for name, s in (("H0", s0), ("H1", s1)):
        if not np.all(np.isfinite(s)):
            raise ValueError(f"{detector}: non-finite score among the {name} scores")
    s0, s1 = np.sort(s0), np.sort(s1)
    if len(s0) == 0 or len(s1) == 0:
        raise ValueError("both score sets must be nonempty")
    thr = np.unique(np.concatenate([s0, s1]))[::-1]
    h0 = np.concatenate([[0], len(s0) - np.searchsorted(s0, thr, side="left")])
    h1 = np.concatenate([[0], len(s1) - np.searchsorted(s1, thr, side="left")])
    return RocCurve(detector, np.concatenate([[np.inf], thr]), h0, h1, len(s0), len(s1))


# ---------------------------------------------------------------------------
# Monte Carlo runs

def _rng(seed, stream, chunk):
    return np.random.default_rng([int(seed), int(stream), int(chunk)])


def bind_detectors(psf, cov, grid_size, subspace_order=1, detectors=DETECTOR_IDS):
    """The precomputation of the selected detectors for one design and
    covariance: the offset-grid bank bound to cov, the ALRT bank bound to
    cov if ALRT is selected, and the SM-GLRT subspace if SM-GLRT is (None
    in place of each one not read).  psf is an EffectivePsf of cov's
    window half-width."""
    bank = build_signature_bank(psf, grid_size)
    bound = bank.bind(cov)
    bound9 = build_alrt_bank(psf).bind(cov) if "ALRT" in detectors else None
    subspace = build_subspace(bank, subspace_order) if "SM-GLRT" in detectors else None
    return bound, bound9, subspace


# The fields each run kind and noise kind does not read: roc and mse take
# no flag for their kind's, and a run refuses any set away from its default.
# At a given SNR, white mse results depend on sigma only through rounding.
UNREAD = {"roc": ("n_trials", "estimators", "snr_sweep"),
          "mse": ("n_h0", "n_h1", "detectors", "subspace_order", "alpha", "sigma"),
          "white": ("hurst", "image_size", "ridge", "train_equals_test"), "fractal": ("sigma",)}
_AMPLITUDES = ("alpha", "snr_db", "snr_sweep")


def _check_reads(config, kind):
    """Before any set-up: the amplitude must be one of the two the run kind
    reads, and no field the run or noise kind does not read may be set;
    without SM-GLRT, that includes subspace_order."""
    own = [name for name in _AMPLITUDES if name not in UNREAD[kind]]
    given = [name for name in _AMPLITUDES if getattr(config, name) not in (None, ())]
    foreign = [name for name in given if name not in own]
    if foreign or len(given) != 1:
        why = f", not {', '.join(foreign) or 'both'}" if given else ""
        raise ConfigError(f"{kind} needs {own[0]} or {own[1]}{why}")
    unread = [(kind, UNREAD[kind]), (f"{config.noise} noise", UNREAD[config.noise])]
    if "SM-GLRT" not in config.detectors:
        unread.append((f"{kind} without SM-GLRT", ("subspace_order",)))
    for what, names in unread:
        given = [name for name in names if getattr(config, name) != getattr(ExperimentConfig, name)]
        if given:
            raise ConfigError(f"{what} does not read {', '.join(given)}")


@lru_cache(maxsize=1)
def _fractal_background(hurst, image_size, seed, w, ridge, train_equals_test):
    """(cov, patches) of a fractal run, built once per process while it
    is the last background built.

    The covariance is trained on image (seed, 0, 0).  patches, the view
    of all (2w+1)^2 windows of the mean-removed test image (seed, 1, 0),
    or of the training image when train_equals_test, has window (i, j)
    at top-left pixel image[i, j].  It and the whitening factor are
    read-only, so every run on this background may share them.  A new
    key clears the cache before it synthesizes, so no two images (8 MiB
    each at 1024^2) are held.
    """
    _fractal_background.cache_clear()
    image = clutter.synthesize_fbm(hurst, image_size, seed=[int(seed), _STREAM_TRAIN, 0])
    cov = clutter.assemble_window_covariance(
        clutter.estimate_autocovariance(image, 2 * w), w, lam=ridge)
    if not train_equals_test:
        del image                            # one image in memory at a time
        image = clutter.synthesize_fbm(hurst, image_size, seed=[int(seed), _STREAM_TEST, 0])
    values = image.values
    values -= values.mean()
    values.flags.writeable = False
    return cov, np.lib.stride_tricks.sliding_window_view(values, (2 * w + 1,) * 2)


class _Run:
    """One run's set-up and its chunk driver.

    Holds the design's effective-PSF table, which every signature of the
    run is read from, the bound precomputation of the given detectors
    (bind_detectors) and, for fractal noise, the view of the windows the
    trials gather from: they draw its positions below its own extent.
    The fractal covariance and view come from _fractal_background, so
    runs on the same background (any amplitude, trial counts, detectors,
    grid or jobs) share one build of them.  An SNR refers to sigma for
    white noise and to 1 for fractal clutter, the unit sigma
    synthesize_fbm gives every image of any image_size.
    """

    def __init__(self, config, detectors=()):
        self.config = config
        self.psf = effective_psf(config.r_c, config.w)
        if config.noise == "white":
            cov = clutter.white_covariance(config.sigma)
        else:
            cov, self.patches = _fractal_background(
                config.hurst, config.image_size, config.seed, config.w, config.ridge,
                config.train_equals_test)
        self.bound, self.bound9, self.subspace = bind_detectors(
            self.psf, cov, config.grid_size, config.subspace_order, detectors)

    def alpha(self, snr_db):
        sigma = self.config.sigma if self.config.noise == "white" else 1.0
        return snr_to_alpha(snr_db, sigma, average_energy_cached(self.config.r_c))

    def trials(self, fn, total, stream, alpha=None, first_chunk=0):
        """fn(windows, eps) over total trials, in chunks of _CHUNK.

        Chunk i draws its noise from substream (seed, stream, key) with
        key = first_chunk + i.  With alpha, each window is alpha * s_eps
        + noise, the offsets eps drawn from (seed, _STREAM_EPS, key) (or
        all eps_fixed); without it, windows are noise and eps is None.
        A chunk is passed to fn in blocks of _BLOCK trials, so a run's
        working set is a few blocks, not a chunk; the draws are those of
        the whole chunk (white noise block by block from the chunk's
        generator, fractal rows and columns up front).  Returns fn's
        {name: column} dicts concatenated over the blocks.  Raises
        FloatingPointError if a column holds a non-finite value.
        """
        cfg = self.config
        n = (2 * cfg.w + 1) ** 2

        def chunk(i):
            count = min(_CHUNK, total - i * _CHUNK)
            key = first_chunk + i
            rng = _rng(cfg.seed, stream, key)
            if cfg.noise == "fractal":
                rows = rng.integers(len(self.patches), size=count)
                cols = rng.integers(len(self.patches), size=count)
            eps = None
            if alpha is not None and cfg.eps_fixed:
                eps = np.tile(np.asarray(cfg.eps_fixed, dtype=float), (count, 1))
            elif alpha is not None:
                eps = _rng(cfg.seed, _STREAM_EPS, key).uniform(-0.5, 0.5, (count, 2))
            parts = []
            for lo in range(0, count, _BLOCK):
                hi = min(lo + _BLOCK, count)
                if cfg.noise == "white":
                    windows = cfg.sigma * rng.standard_normal((hi - lo, n))
                else:
                    windows = self.patches[rows[lo:hi], cols[lo:hi]].reshape(hi - lo, n)
                if eps is None:
                    part = fn(windows, None)
                else:
                    windows += alpha * render_signature_batch(self.psf, eps[lo:hi])
                    part = fn(windows, eps[lo:hi])
                for name, column in part.items():
                    if not np.all(np.isfinite(column)):
                        raise FloatingPointError(
                            f"non-finite {name} in trial chunk {key} of stream {stream}")
                parts.append(part)
            return parts

        n_chunks = -(-total // _CHUNK)
        if cfg.jobs > 1:
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                parts = [p for ps in pool.map(chunk, range(n_chunks)) for p in ps]
        else:
            parts = [p for i in range(n_chunks) for p in chunk(i)]
        return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def run_roc(config):
    """Empirical ROC curves for the configured detectors.

    H0 windows are pure noise; H1 windows are alpha * s_eps + noise with
    a fresh uniform offset per trial (or eps_fixed), alpha given or set
    by snr_db (not both).  Thresholds sweep every distinct score.
    """
    _check_reads(config, "roc")
    run = _Run(config, config.detectors)
    alpha = run.alpha(config.snr_db) if config.alpha is None else config.alpha

    def score(windows, eps):
        return batch_scores(windows, run.bound, run.bound9, run.subspace, config.detectors)

    s0 = run.trials(score, config.n_h0, _STREAM_H0)
    s1 = run.trials(score, config.n_h1, _STREAM_H1, alpha)
    return [empirical_roc_from_scores(s0[det], s1[det], detector=det)
            for det in config.detectors]


def run_mse(config):
    """Estimator MSE/bias at each snr_sweep point, or at snr_db alone.

    Returns a tuple of per-(estimator, SNR) row dicts, whose keys are
    mse.csv's header in order.  Rows are labelled by SNR, so alpha is
    refused.  The true offset is eps_fixed, or else continuous-uniform
    per trial (never grid-snapped), so grid quantization of ML/PM is
    honestly penalized.
    """
    _check_reads(config, "mse")
    run = _Run(config)
    sweep = config.snr_sweep or (config.snr_db,)
    alphas = [run.alpha(snr_db) for snr_db in sweep]

    def error(windows, eps):
        est = batch_estimates(windows, run.bound, config.estimators)
        return {name: val - eps for name, val in est.items()}

    rows = []
    for si, (snr_db, alpha) in enumerate(zip(sweep, alphas)):
        err = run.trials(error, config.n_trials, _STREAM_MSE, alpha, si * _SWEEP_STRIDE)
        for name in config.estimators:
            mse = np.mean(err[name]**2, axis=0)
            bias = np.mean(err[name], axis=0)
            rows.append({
                "estimator": name, "snr_db": float(snr_db),
                "mse_eps1": float(mse[0]), "mse_eps2": float(mse[1]),
                "mse_total": float(mse.sum()),
                "bias_eps1": float(bias[0]), "bias_eps2": float(bias[1]),
                "n_trials": len(err[name]),
            })
    return tuple(rows)


def theoretical_pmf_roc(snr_db, eps_star, psf, grid_size=20, pfa_grid=None):
    """Closed-form ROC of the pixel matched filter T0(z) = s0^T z in unit
    white noise, as (pfa_grid, pd): Pd at each Pfa of pfa_grid (by default
    161 points log-spaced over [1e-8, 1]).

    At a given SNR a white-noise ROC does not depend on sigma.  psf is
    the design's EffectivePsf.  eps_star selects the H1 truth: a fixed
    offset pair, or "mean" to average Pd at each Pfa over the rule of the
    offset-grid bank of grid_size (uniformly random true position); only
    "mean" renders that bank.  Pfa = Q(tau / sqrt(d00)) and
    Pd = Q(Q^{-1}(Pfa) - alpha * s0^T s_eps / sqrt(d00)), with d00 = s0^T s0.

    The curve is for the one-sided T0.  The GPMF detector scores
    t^2/d = T0^2 / d00, a two-sided test, so at a given threshold its
    Pfa is twice this curve's: read the GPMF Pd at Pfa off this curve
    at Pfa/2 (the lower tail under H1 is negligible).

    The first call loads scipy.special, which no other run needs.
    """
    from scipy import special

    if pfa_grid is None:
        pfa_grid = np.logspace(-8, 0, 161)
    alpha = snr_to_alpha(snr_db, 1.0, average_energy_cached(psf.r_c))
    if isinstance(eps_star, str):
        if eps_star != "mean":
            raise ValueError(f"eps_star must be a pair or 'mean', got {eps_star!r}")
        bank = build_signature_bank(psf, grid_size)
        s0 = bank.vectors[bank.center_index]
        cross = bank.vectors[:len(bank.log_weights)] @ s0
    else:
        s0, sig = render_signature_batch(psf, [(0.0, 0.0), tuple(eps_star)])
        cross = np.array([sig @ s0])
    deflection = alpha * cross / math.sqrt(s0 @ s0)
    tau_std = -special.ndtri(pfa_grid)                   # Q^{-1}(Pfa)
    pd = special.ndtr(deflection[None, :] - tau_std[:, None]).mean(axis=1)
    return pfa_grid, pd


# ---------------------------------------------------------------------------
# CSV emission

_CSV_ROWS = 4096


def write_roc_csv(curves, path):
    """One detector,threshold,pfa,pd row per point of each RocCurve, as
    csv.writer writes it, with each value as repr of a Python float.
    The detector is written as it is: a DETECTOR_IDS name, which csv
    does not quote and which holds no %.

    A rate is a count k of n scores, read as k/n, so the text of every
    k/n is formatted once per file, in one table per n, and each rate is
    read from its table by its count.  Thresholds are formatted per row.
    Rows are written _CSV_ROWS at a time, with one % format per slice, so
    the text of a whole curve is never held at once.
    """
    tables = {}
    with open(path, "w", newline="") as fh:
        fh.write("detector,threshold,pfa,pd\r\n")
        for curve in curves:
            row = curve.detector + ",%r,%s,%s\r\n"
            tau = np.asarray(curve.thresholds, dtype=float)
            counts = ((curve.n_h0, curve.h0_counts), (curve.n_h1, curve.h1_counts))
            for n, _ in counts:
                if n not in tables:
                    tables[n] = [repr(k / n) for k in range(n + 1)]
            for lo in range(0, len(tau), _CSV_ROWS):
                hi = lo + _CSV_ROWS
                block = tau[lo:hi].tolist()
                fields = [None] * (3 * len(block))
                fields[0::3] = block
                for pos, (n, k) in enumerate(counts, 1):
                    fields[pos::3] = map(tables[n].__getitem__, k[lo:hi].tolist())
                fh.write(row * len(block) % tuple(fields))


def write_mse_csv(rows, path):
    """run_mse's rows under a header of the first row's keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, rows[0])
        writer.writeheader()
        writer.writerows(rows)
