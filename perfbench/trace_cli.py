"""Run one mrsi-cs CLI command with timing spans around the package's functions.

Usage::

    PYTHONPATH=src python3 perfbench/trace_cli.py SPANS_JSON <cli arguments...>

Every hook in ``HOOKS`` is resolved by module and qualified name and
replaced, from outside the package, by a wrapper that records one span
per call: name, start, end (``time.perf_counter`` seconds), the index
of the enclosing span (-1 at top level) and, for file-producing hooks,
the size in bytes of the file named by the first argument.  Spans stay
in memory and are written to SPANS_JSON when the command ends, together
with the hooks that could not be resolved and why.  The package code is
not modified; a hook whose target no longer exists is reported, not
fatal.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module under mrsi_cs, qualified name, record the size of the file named by argument 0)
HOOKS = (
    ("solver", "solve", False),
    ("solver", "update_x_frame", False),
    ("solver", "update_h", False),
    ("solver", "project_constraint", False),
    ("model", "FactorizationCache.get", False),
    ("model", "normal_matrix", False),
    ("model", "apply_adjoint", False),
    ("model", "apply_forward", False),
    ("selection", "grid_search", False),
    ("selection", "split_readouts", False),
    ("selection", "cv_rmse", False),
    ("phantom", "make_phantom", False),
    ("phantom", "make_base_spectra", False),
    ("phantom", "acquire", False),
    ("sampling", "build_schedule", False),
    ("mrst", "read_tensor", False),
    ("mrst", "write_tensor", True),
    ("manifest", "sha256_file", True),
    ("evaluate", "substance_metrics", False),
)


class SpanRecorder:
    """In-memory span list with a parent stack (the CLI is single-threaded)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, sized: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                size = os.path.getsize(args[0]) if sized and os.path.exists(args[0]) else None
                spans[index] = (name, start, end, parent, size)

        return traced


def install(recorder: SpanRecorder) -> dict[str, str]:
    """Wrap every resolvable hook; return {hook name: reason} for the rest."""
    importlib.import_module("mrsi_cs.cli")  # loads every module the CLI uses
    package = {
        name: module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "mrsi_cs" or name.startswith("mrsi_cs."))
    }
    missing = {}
    for module_name, qualname, sized in HOOKS:
        name = f"{module_name}.{qualname}"
        module = package.get(f"mrsi_cs.{module_name}")
        if module is None:
            missing[name] = f"module mrsi_cs.{module_name} is not loaded by the CLI"
            continue
        owner_path, _, attr = qualname.rpartition(".")
        owner = module
        try:
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError as exc:
            missing[name] = f"target not found: {exc}"
            continue
        wrapped = recorder.wrap(name, original, sized)
        if owner is module:
            # rebind every module-level alias, e.g. `from .model import apply_adjoint`
            for mod in package.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        else:
            setattr(owner, attr, wrapped)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    missing = install(recorder)
    from mrsi_cs import cli

    code = 0
    try:
        cli.main(args=cli_args, prog_name="mrsi-cs")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": recorder.spans, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
