"""The package surface: every exported or re-exported name resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mrsi_cs

MODULES = sorted(info.name for info in pkgutil.iter_modules(mrsi_cs.__path__))


def package_imports():
    """(module, name, bound name) for each ``from .module import name`` at the top of ``__init__.py``."""
    tree = ast.parse(Path(mrsi_cs.__file__).read_text())
    return [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_a_modules_all_resolves(module_name):
    module = importlib.import_module(f"mrsi_cs.{module_name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []


def test_every_name_the_package_imports_is_its_modules_object():
    imports = package_imports()
    assert imports  # the parse found the re-exports
    for module_name, name, bound in imports:
        module = importlib.import_module(f"mrsi_cs.{module_name}")
        assert getattr(mrsi_cs, bound) is getattr(module, name), f"mrsi_cs.{bound}"


@pytest.mark.parametrize("name", ["OracleConfig", "kkt_residual", "oracle_solve"])
def test_oracle_names_load_on_first_use(name):
    from mrsi_cs import oracle

    assert getattr(mrsi_cs, name) is getattr(oracle, name)
