import importlib
import pkgutil

import pytest

import youngspec

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(youngspec.__path__) if m.name != "__main__")


def test_every_module_is_listed():
    assert MODULES == ["cli", "combinatorics", "errors", "limitlaw", "matrices", "partitions",
                       "spectra", "streams"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a deleted function must leave no stale export behind
    module = importlib.import_module(f"youngspec.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), exported
    assert [n for n in exported if not hasattr(module, n)] == []
