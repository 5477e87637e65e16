"""The benchmark tracer's hook targets exist in the package the CLI loads.

``perfbench/trace_cli.py`` times the package by wrapping functions it
names by module and qualified name; a target that is renamed or deleted
turns its per-layer metrics into nulls.  Its ``HOOKS`` table is loaded
from the file and only read: ``install`` is never called, since it
rewraps the package for the rest of the process.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACE_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


def tracer_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, qualname) for module_name, qualname, _ in module.HOOKS]


@pytest.mark.parametrize("module_name, qualname", tracer_hooks())
def test_hook_target_resolves_in_a_module_the_cli_loads(module_name, qualname):
    importlib.import_module("mrsi_cs.cli")
    assert f"mrsi_cs.{module_name}" in sys.modules, "the CLI does not load the module"
    target = sys.modules[f"mrsi_cs.{module_name}"]
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)
