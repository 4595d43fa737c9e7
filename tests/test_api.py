import importlib

import pytest

import subpixdet

MODULES = ["optics", "clutter", "detectors", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module but still listed fails here
    module = importlib.import_module(f"subpixdet.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_come_from_module_all():
    # the package re-exports only names its modules declare public
    public = {attr for name in MODULES
              for attr in importlib.import_module(f"subpixdet.{name}").__all__}
    exported = {attr for attr, value in vars(subpixdet).items()
                if not attr.startswith("_") and not isinstance(value, type(subpixdet))}
    assert exported <= public
