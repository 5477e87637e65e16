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


@pytest.mark.parametrize("module_name", ["solver", "sampling", "evaluate", "model", "selection"])
def test_numeric_modules_import_no_text_format(module_name):
    """configio writes every JSON document and the CLI every CSV table, so the numeric modules import neither."""
    module = importlib.import_module(f"mrsi_cs.{module_name}")
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()  # top-level names of the modules imported, at any depth of the file
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "numpy" in imported, "the import scan missed the module's imports"
    assert not imported & {"csv", "json"}, sorted(imported)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: mrsi_cs.SolverConfig(outer_iters=v), "outer_iters"),
        (lambda v: mrsi_cs.SolverConfig(inner_iters=v), "inner_iters"),
        (lambda v: mrsi_cs.OracleConfig(max_iters=v), "max_iters"),
        (lambda v: mrsi_cs.OracleConfig(window=v), "window"),
        (lambda v: mrsi_cs.band_cholesky(4, 1.0, width=v), "width"),
    ],
    ids=["outer_iters", "inner_iters", "max_iters", "window", "width"],
)
@pytest.mark.parametrize("value", [0, -2, True, 2.0, "3"])
def test_every_count_is_refused_alike(make, name, value):
    with pytest.raises(mrsi_cs.ParameterError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
        make(value)
