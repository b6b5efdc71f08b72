import ast
import importlib
import pkgutil
from pathlib import Path

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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("name", MODULES + ["__main__"])
def test_no_module_reads_another_modules_private_names(name):
    # each module's private names stay its own: none is imported from another package module,
    # nor read as an attribute of one
    path = Path(youngspec.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text(), str(path))
    modules, bad = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("youngspec")):
            bad += [alias.name for alias in node.names if _private(alias.name)]
            if node.module in (None, "youngspec"):  # from . import spectra
                modules |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            bad += [f"{node.value.id}.{node.attr}"] if _private(node.attr) else []
    assert bad == [], bad
