import numpy as np
import pytest

from subpixdet import clutter, harness
from subpixdet.clutter import white_covariance
from subpixdet.detectors import build_subspace
from subpixdet.optics import PsfModel, build_alrt_bank, build_signature_bank, effective_psf


@pytest.fixture(scope="session")
def model244():
    return PsfModel(2.44)


@pytest.fixture(scope="session")
def psf244(model244):
    return effective_psf(model244.r_c, 2)


@pytest.fixture(scope="session")
def bank244(psf244):
    return build_signature_bank(psf244, grid_size=20)


@pytest.fixture(scope="session")
def bank9_244(psf244):
    return build_alrt_bank(psf244)


@pytest.fixture(scope="session")
def cov_white():
    return white_covariance(1.0)


@pytest.fixture(scope="session")
def bound244(bank244, cov_white):
    return bank244.bind(cov_white)


@pytest.fixture(scope="session")
def bound9_244(bank9_244, cov_white):
    return bank9_244.bind(cov_white)


@pytest.fixture(scope="session")
def subspace244(bank244):
    return build_subspace(bank244, order=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def cold_background():
    """An empty fractal-background cache before the test and after it, so
    the test builds its own and no entry made under a patch outlives it."""
    harness._fractal_background.cache_clear()
    yield
    harness._fractal_background.cache_clear()


@pytest.fixture
def synthesized(monkeypatch):
    """The seed of every clutter.synthesize_fbm call the test makes."""
    seeds = []
    synthesize = clutter.synthesize_fbm

    def counting(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(clutter, "synthesize_fbm", counting)
    return seeds
