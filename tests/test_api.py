import importlib
import importlib.util
from pathlib import Path

import pytest

import subpixdet
from subpixdet import cli, detectors, harness, optics

MODULES = ["optics", "clutter", "detectors", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module but still listed fails here
    module = importlib.import_module(f"subpixdet.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_root_binds_only_submodules():
    # names are imported from their modules; the root holds __version__
    # and the submodules imported so far, and nothing else public
    public = [attr for attr, value in vars(subpixdet).items()
              if not attr.startswith("_") and not isinstance(value, type(subpixdet))]
    assert public == []
    assert subpixdet.__version__


def test_bench_calls_resolve(tmp_path):
    # bench/run.py wraps every name bench/tracing.py lists and, on a traced
    # run, repeats the first scoring call per detector and the spot energy
    # with these arguments: a change here that breaks them breaks every
    # `bench/run.py --trace 1` run.  Goes with bench/tracing.py.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, _, _ in tracing.targets():
        assert callable(getattr(owner, attr, None)), (owner, attr)
    with tracing.Tracer(keep_args=("detectors.score",)) as tracer:
        assert cli.main(["roc", "--snr-db", "15", "--n-h0", "60", "--n-h1", "60",
                         "--out", str(tmp_path)]) == 0
    names = {span.name for span in tracer.spans}
    assert {"harness.run", "optics.render", "detectors.score", "harness.write_csv"} <= names
    assert sum(s.items for s in tracer.spans if s.name == "detectors.score") == 120
    windows, bound, bound9, subspace = tracer.first_args["detectors.score"][0][:4]
    bank = bound.bank
    bound9_again = optics.build_alrt_bank(optics.PsfModel(bank.r_c), bank.w, bank.q)
    assert bound9_again.bind(bound.cov).gram.shape == bound9.gram.shape == (9,)
    assert (detectors.build_subspace(bank, 1) == subspace).all()
    for det in detectors.DETECTOR_IDS:
        assert len(detectors.batch_scores(windows, bound, bound9, subspace, (det,))[det]) \
            == len(windows)
    config = harness.ExperimentConfig()
    assert harness.average_energy_cached(config.r_c, config.q) > 0
