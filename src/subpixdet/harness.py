"""Monte Carlo experiment engine: empirical ROC curves, theoretical
pixel-matched-filter ROC curves, and estimator MSE sweeps.

All randomness flows from a single master seed through fixed
(stream, chunk) substreams, keyed by the index of each chunk of _CHUNK
trials, so results are reproducible bit-for-bit and independent of the
number of worker threads.
"""

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from functools import lru_cache
from typing import ClassVar

import numpy as np
from scipy import special

from . import clutter, optics
from .detectors import (
    DETECTOR_IDS, ESTIMATOR_IDS, batch_estimates, batch_scores, build_subspace,
)
from .optics import (
    EffectivePsf, PsfModel, build_alrt_bank, build_signature_bank, render_signature_batch,
)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
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
    parses its value as the field's annotated type.
    """

    # not a field (no flag, config key or manifest entry); see DEFAULT_QUAD_ORDER
    q: ClassVar[int] = optics.DEFAULT_QUAD_ORDER

    r_c: float = 2.44
    w: int = 2
    grid_size: int = 20
    noise: str = "white"            # "white" | "fractal"
    sigma: float = 1.0
    hurst: float = 0.7
    image_size: int = 512
    snr_db: float = None
    alpha: float = None             # overrides snr_db when given
    n_h0: int = 100_000
    n_h1: int = 100_000
    n_trials: int = 10_000          # per MSE SNR point
    snr_sweep: tuple[float, ...] = ()
    seed: int = 0
    detectors: tuple[str, ...] = DETECTOR_IDS
    estimators: tuple[str, ...] = ESTIMATOR_IDS
    eps_mode: str = "uniform"       # "uniform" | "fixed"
    eps_fixed: tuple[float, ...] = (0.0, 0.0)
    subspace_order: int = 1
    ridge: float = 1e-6
    train_equals_test: bool = False  # fractal: reuse the training image
    jobs: int = 1

    def validate(self):
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
        if self.noise == "white" and not self.sigma > 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
        if self.alpha is None and self.snr_db is None and not self.snr_sweep:
            raise ConfigError("need alpha, snr_db, or snr_sweep")
        if self.n_h0 < 1 or self.n_h1 < 1 or self.n_trials < 1:
            raise ConfigError("trial counts must be >= 1")
        if self.n_trials > _SWEEP_STRIDE * _CHUNK:
            raise ConfigError(f"n_trials must be <= {_SWEEP_STRIDE * _CHUNK}, "
                              f"got {self.n_trials}")
        if self.eps_mode not in ("uniform", "fixed"):
            raise ConfigError(f"unknown eps_mode {self.eps_mode!r}")
        if not (len(self.eps_fixed) == 2
                and all(math.isfinite(e) and -0.5 <= e <= 0.5 for e in self.eps_fixed)):
            raise ConfigError("eps_fixed must be two finite values in [-0.5, 0.5], "
                              f"got {self.eps_fixed}")
        if not self.detectors:
            raise ConfigError("detectors must name at least one detector")
        if not self.estimators:
            raise ConfigError("estimators must name at least one estimator")
        unknown = set(self.detectors) - set(DETECTOR_IDS)
        if unknown:
            raise ConfigError(f"unknown detectors {sorted(unknown)}")
        unknown = set(self.estimators) - set(ESTIMATOR_IDS)
        if unknown:
            raise ConfigError(f"unknown estimators {sorted(unknown)}")
        if self.grid_size % 2 != 0 or self.grid_size < 2:
            raise ConfigError("grid_size must be even and >= 2")
        return self

    def asdict(self):
        return asdict(self)


@dataclass(frozen=True)
class RocCurve:
    """Empirical or theoretical (threshold, Pfa, Pd) triples, threshold-sorted."""

    detector: str
    thresholds: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray
    n_h0: int = 0
    n_h1: int = 0


def snr_to_alpha(snr_db, sigma, energy):
    """Amplitude from SNR = 10 log10(alpha^2 E / sigma^2)."""
    if not (math.isfinite(snr_db) and math.isfinite(sigma)):
        raise ValueError(f"snr_db and sigma must be finite, got {snr_db} and {sigma}")
    if not (sigma > 0 and energy > 0):
        raise ValueError("sigma and energy must be positive")
    return sigma * 10 ** (snr_db / 20) / math.sqrt(energy)


@lru_cache(maxsize=None)
def _average_energy(r_c):
    return optics.average_energy(PsfModel(r_c))


def average_energy_cached(r_c, q=None):
    """Memoized full-plane average spot energy E(r_c).

    The cache is keyed on r_c alone; q is ignored (E does not depend on
    it) and stays only while bench/run.py and bench/selftest.py pass it.
    """
    return _average_energy(r_c)


def empirical_roc_from_scores(scores_h0, scores_h1, detector="custom"):
    """Exact empirical ROC: one threshold per distinct pooled score.

    Pfa(tau) and Pd(tau) are the fractions of H0/H1 scores >= tau.  A
    sentinel +inf threshold supplies the (0, 0) endpoint; the smallest
    score supplies (1, 1).
    """
    s0 = np.sort(np.asarray(scores_h0, dtype=float))
    s1 = np.sort(np.asarray(scores_h1, dtype=float))
    if len(s0) == 0 or len(s1) == 0:
        raise ValueError("both score sets must be nonempty")
    thr = np.unique(np.concatenate([s0, s1]))[::-1]
    pfa = (len(s0) - np.searchsorted(s0, thr, side="left")) / len(s0)
    pd = (len(s1) - np.searchsorted(s1, thr, side="left")) / len(s1)
    thr = np.concatenate([[np.inf], thr])
    pfa = np.concatenate([[0.0], pfa])
    pd = np.concatenate([[0.0], pd])
    return RocCurve(detector=detector, thresholds=thr, pfa=pfa, pd=pd,
                    n_h0=len(s0), n_h1=len(s1))


# ---------------------------------------------------------------------------
# Window generation

def _rng(seed, stream, chunk):
    return np.random.default_rng([int(seed), int(stream), int(chunk)])


def _chunks(total):
    return [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]


class _WindowSource:
    """Draws mean-removed noise windows for one hypothesis stream.

    Fractal windows are gathered from image: by default the test image,
    or the training image when train_equals_test is set.  A caller that
    already holds that image passes it instead of synthesizing it again.
    """

    def __init__(self, config, n_window, image=None):
        self.config = config
        self.n_window = n_window
        if config.noise == "fractal":
            if image is None:
                stream = _STREAM_TRAIN if config.train_equals_test else _STREAM_TEST
                image = clutter.synthesize_fbm(config.hurst, config.image_size,
                                               seed=[int(config.seed), stream, 0])
            self.image = image.values - image.values.mean()

    def noise(self, count, stream, chunk):
        cfg = self.config
        rng = _rng(cfg.seed, stream, chunk)
        if cfg.noise == "white":
            return cfg.sigma * rng.standard_normal((count, self.n_window))
        side = 2 * cfg.w + 1
        size = cfg.image_size
        rows = rng.integers(cfg.w, size - cfg.w, count)
        cols = rng.integers(cfg.w, size - cfg.w, count)
        off = np.arange(-cfg.w, cfg.w + 1)
        ri = rows[:, None, None] + off[None, :, None]
        ci = cols[:, None, None] + off[None, None, :]
        return self.image[ri, ci].reshape(count, side * side)


def _fractal_covariance(config):
    """Train-image empirical covariance, its clutter sigma, and the image."""
    train = clutter.synthesize_fbm(config.hurst, config.image_size,
                                   seed=[int(config.seed), _STREAM_TRAIN, 0])
    acf = clutter.estimate_autocovariance(train, 2 * config.w)
    cov = clutter.assemble_window_covariance(acf, config.w, lam=config.ridge)
    sigma_clutter = math.sqrt(acf[2 * config.w, 2 * config.w])
    return cov, sigma_clutter, train


def bind_detectors(psf, cov, grid_size, subspace_order=1):
    """The detectors' precomputation for one design and covariance: the
    offset-grid bank and the ALRT bank bound to cov, and the SM-GLRT
    subspace.  psf is an EffectivePsf covering the window of cov."""
    bank = build_signature_bank(psf, grid_size, cov.w)
    bank9 = build_alrt_bank(psf, cov.w)
    return bank.bind(cov), bank9.bind(cov), build_subspace(bank, subspace_order)


def _setup(config):
    """Shared precomputation: the effective-PSF table every signature of
    the run is read from, covariance, bound banks, windows."""
    config.validate()
    psf = EffectivePsf(PsfModel(config.r_c), config.w)
    train = None
    if config.noise == "white":
        cov = clutter.white_covariance(config.sigma, config.w)
        sigma_eff = config.sigma
    else:
        cov, sigma_eff, train = _fractal_covariance(config)
    bound, bound9, subspace = bind_detectors(psf, cov, config.grid_size,
                                             config.subspace_order)
    source = _WindowSource(config, (2 * config.w + 1) ** 2,
                           train if config.train_equals_test else None)
    return psf, bound, bound9, subspace, sigma_eff, source


def _resolve_alpha(config, sigma_eff, snr_db=None):
    if config.alpha is not None:
        return config.alpha
    snr = config.snr_db if snr_db is None else snr_db
    return snr_to_alpha(snr, sigma_eff, average_energy_cached(config.r_c))


def _draw_offsets(config, count, chunk, stream=_STREAM_EPS):
    if config.eps_mode == "fixed":
        return np.tile(np.asarray(config.eps_fixed, dtype=float), (count, 1))
    rng = _rng(config.seed, stream, chunk)
    return rng.uniform(-0.5, 0.5, (count, 2))


def _map_chunks(fn, chunks, jobs):
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, range(len(chunks)), chunks))
    return [fn(i, c) for i, c in enumerate(chunks)]


def run_roc(config):
    """Empirical ROC curves for the configured detectors.

    H0 windows are pure noise; H1 windows are alpha * s_eps + noise with
    a fresh uniform offset per trial.  For fractal noise the covariance
    is trained on a separate image from the one windows are drawn from
    (unless train_equals_test).  Thresholds sweep every distinct score.
    """
    psf, bound, bound9, subspace, sigma_eff, source = _setup(config)
    alpha = _resolve_alpha(config, sigma_eff)

    def score_h0(i, span):
        windows = source.noise(span[1] - span[0], _STREAM_H0, i)
        return batch_scores(windows, bound, bound9, subspace, config.detectors)

    def score_h1(i, span):
        count = span[1] - span[0]
        eps = _draw_offsets(config, count, i)
        sig = render_signature_batch(psf, eps, config.w)
        windows = alpha * sig + source.noise(count, _STREAM_H1, i)
        return batch_scores(windows, bound, bound9, subspace, config.detectors)

    parts0 = _map_chunks(score_h0, _chunks(config.n_h0), config.jobs)
    parts1 = _map_chunks(score_h1, _chunks(config.n_h1), config.jobs)
    curves = []
    for det in config.detectors:
        s0 = np.concatenate([p[det] for p in parts0])
        s1 = np.concatenate([p[det] for p in parts1])
        curves.append(empirical_roc_from_scores(s0, s1, detector=det))
    return curves


def run_mse(config):
    """Estimator MSE/bias across the configured SNR sweep.

    Returns a tuple of per-(estimator, SNR) row dicts, keyed as the
    mse.csv header.  Per trial the true offset is continuous-uniform
    (never grid-snapped), so grid quantization of ML/PM is honestly
    penalized.
    """
    psf, bound, bound9, subspace, sigma_eff, source = _setup(config)
    sweep = config.snr_sweep or (config.snr_db,)
    if sweep == (None,):
        raise ConfigError("MSE run needs snr_db or snr_sweep")
    rows = []
    for si, snr_db in enumerate(sweep):
        alpha = _resolve_alpha(config, sigma_eff, snr_db)

        def one_chunk(i, span):
            count = span[1] - span[0]
            tag = si * _SWEEP_STRIDE + i
            eps = _draw_offsets(config, count, tag)
            sig = render_signature_batch(psf, eps, config.w)
            windows = alpha * sig + source.noise(count, _STREAM_MSE, tag)
            est = batch_estimates(windows, bound, config.estimators)
            return {name: val - eps for name, val in est.items()}

        parts = _map_chunks(one_chunk, _chunks(config.n_trials), config.jobs)
        for name in config.estimators:
            err = np.concatenate([p[name] for p in parts])
            mse = np.mean(err**2, axis=0)
            bias = np.mean(err, axis=0)
            rows.append({
                "estimator": name, "snr_db": float(snr_db),
                "mse_eps1": float(mse[0]), "mse_eps2": float(mse[1]),
                "mse_total": float(mse.sum()),
                "bias_eps1": float(bias[0]), "bias_eps2": float(bias[1]),
                "n_trials": len(err),
            })
    return tuple(rows)


def theoretical_pmf_roc(snr_db, eps_star, bank, sigma=1.0, pfa_grid=None):
    """Closed-form ROC of the pixel matched filter T0(z) = s0^T R^{-1} z.

    White noise only.  eps_star selects the H1 truth: a fixed offset
    pair, or "mean" to average Pd over the bank's offset grid at each
    Pfa (uniformly random true position).  Pfa = Q(tau / sqrt(d00)) and
    Pd = Q(Q^{-1}(Pfa) - alpha * s0^T s_eps / (sigma * sqrt(s0^T s0))).

    The curve is for the one-sided T0.  The GPMF detector scores
    t^2/d = T0^2 / d00, a two-sided test, so at a given threshold its
    Pfa is twice this curve's: read the GPMF Pd at Pfa off this curve
    at Pfa/2 (the lower tail under H1 is negligible).
    """
    if pfa_grid is None:
        pfa_grid = np.logspace(-8, 0, 161)
    alpha = snr_to_alpha(snr_db, sigma, average_energy_cached(bank.r_c))
    s0 = bank.vectors[bank.center_index]
    scale = sigma * math.sqrt(s0 @ s0)
    if isinstance(eps_star, str):
        if eps_star != "mean":
            raise ValueError(f"eps_star must be a pair or 'mean', got {eps_star!r}")
        cross = bank.vectors[bank.grid_indices] @ s0
        name = "PMF-mean"
    else:
        sig = render_signature_batch(bank.psf, [tuple(eps_star)], bank.w)[0]
        cross = np.array([sig @ s0])
        name = f"PMF({eps_star[0]},{eps_star[1]})"
    deflection = alpha * cross / scale
    tau_std = -special.ndtri(pfa_grid)                   # Q^{-1}(Pfa)
    pd = special.ndtr(deflection[None, :] - tau_std[:, None]).mean(axis=1)
    return RocCurve(detector=name, thresholds=tau_std * scale,
                    pfa=pfa_grid, pd=pd)


# ---------------------------------------------------------------------------
# CSV emission

def _csv_field(text):
    """text quoted as csv.writer quotes a field of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-len(",\r\n")]


def write_roc_csv(curves, path):
    """One detector,threshold,pfa,pd row per curve point, as csv.writer
    writes it, with each value as repr of a Python float."""
    with open(path, "w", newline="") as fh:
        fh.write("detector,threshold,pfa,pd\r\n")
        for curve in curves:
            det = _csv_field(curve.detector)
            cols = (np.asarray(c, dtype=float).tolist()
                    for c in (curve.thresholds, curve.pfa, curve.pd))
            fh.write("".join(f"{det},{tau!r},{pfa!r},{pd!r}\r\n"
                             for tau, pfa, pd in zip(*cols)))


def write_mse_csv(rows, path):
    header = ["estimator", "snr_db", "mse_eps1", "mse_eps2", "mse_total",
              "bias_eps1", "bias_eps2", "n_trials"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[k] if k in ("estimator", "n_trials")
                             else repr(row[k]) for k in header])
