"""The benchmark tracer's hooks exist and keep recording the work they name.

``perfbench/trace_cli.py`` times the package by wrapping functions it
names by module and qualified name; a target that is renamed or deleted,
or that the pipeline stops calling, turns its per-layer metrics into
nulls or zeros.  The first test loads its ``HOOKS`` table from the file
and only reads it: ``install`` is never called in this process, since it
rewraps the package for the rest of the process.  The others run the
pipeline on a small version of the benchmark's cv workload through the
tracer, one subprocess per stage, and read the recorded spans.  The
data stages read a hand-written schedule that samples some point sets
in more than one frame, so per-frame work shows apart from per-set work.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from mrsi_cs.model import SamplePoint, SamplingSchedule
from mrsi_cs.configio import write_schedule

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


def tracer_hooks():
    return [(module_name, qualname) for module_name, qualname, _ in load_bench_module("trace_cli").HOOKS]


@pytest.mark.parametrize("module_name, qualname", tracer_hooks())
def test_hook_target_resolves_in_a_module_the_cli_loads(module_name, qualname):
    importlib.import_module("mrsi_cs.cli")
    assert f"mrsi_cs.{module_name}" in sys.modules, "the CLI does not load the module"
    target = sys.modules[f"mrsi_cs.{module_name}"]
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.fixture(scope="module")
def bench():
    return load_bench_module("run")


def point_set(*points):
    return tuple(SamplePoint(d, k) for d, k in points)


# 8 frames on the cv workload's 4 x 4 grid and 4 evolution points: 7 acquired frames sample 4 distinct point sets
A = point_set((1, (1, 1)))
B = point_set((2, (3, 2)))
C = point_set((4, (2, 4)), (3, (1, 3)))
D = point_set((2, (4, 4)))
SCHEDULE = SamplingSchedule(frames=(A, B, A, None, C, B, D, A))


@pytest.fixture(scope="module")
def traced_spans(bench, tmp_path_factory):
    """{stage: spans} of one traced pipeline on the cv workload's phantom, cut to 8 frames.

    ``design`` runs on its own configuration; the stages after it read :data:`SCHEDULE`.
    """
    cwd = tmp_path_factory.mktemp("traced")
    (cwd / "phantom.json").write_text(json.dumps({**bench._cv_phantom(), "n_frames": SCHEDULE.n_frames}))
    (cwd / "design.json").write_text(json.dumps(bench._design([4, 4, 4], SCHEDULE.n_frames)))
    write_schedule(cwd / "schedule.json", SCHEDULE)
    data = ["--signals", "ac/signals.mrst", "--schedule", "schedule.json", "--base", "ph/base.mrst"]
    stages = {
        "phantom": ["--config", "phantom.json", "--out", "ph", "--seed", "1"],
        "design": ["--config", "design.json", "--out", "de"],
        "acquire": ["--config", "phantom.json", "--schedule", "schedule.json", "--truth", "ph/truth.mrst",
                    "--base", "ph/base.mrst", "--out", "ac", "--seed", "1"],
        "cv": ["--config", "phantom.json", *data, "--out", "cv", "--iters", "3"],
        "reconstruct": ["--config", "phantom.json", *data, "--out", "re", "--iters", "3"],
        "evaluate": ["--recon", "re/recon.mrst", "--truth", "ph/truth.mrst", "--out", "ev"],
    }
    spans = {}
    for stage, args in stages.items():
        out = cwd / f"spans-{stage}.json"
        proc = subprocess.run(
            [sys.executable, str(bench.TRACER), str(out), stage, *args],
            cwd=cwd, env=bench.cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["missing"] == {}
        spans[stage] = doc["spans"]
    return spans


@pytest.mark.parametrize("module_name, qualname", tracer_hooks())
def test_hook_records_a_span_on_the_pipeline(traced_spans, module_name, qualname):
    name = f"{module_name}.{qualname}"
    assert any(span[0] == name for spans in traced_spans.values() for span in spans)


def test_cv_solves_run_under_the_grid_search(bench, traced_spans):
    # the benchmark's selection.* metrics read only the solve spans under the grid search
    spans = traced_spans["cv"]
    solves = [i for i, span in enumerate(spans) if span[0] == "solver.solve"]
    assert solves
    assert all(bench._has_ancestor(spans, i, "selection.grid_search") for i in solves)


def test_each_factor_request_builds_one_point_set(traced_spans):
    # model.factor_requests and model.factor_builds count these spans; a stack requests only distinct sets
    for stage, spans in traced_spans.items():
        names = [span[0] for span in spans]
        assert names.count("model.FactorizationCache.get") == names.count("model.normal_matrix"), stage


def test_reconstruct_builds_each_distinct_point_set_once(traced_spans):
    # one factor request and build per distinct point set, not per acquired frame
    names = [span[0] for span in traced_spans["reconstruct"]]
    acquired = [points for points in SCHEDULE.frames if points is not None]
    assert len(set(acquired)) < len(acquired)
    for hook in ("model.normal_matrix", "model.FactorizationCache.get"):
        assert names.count(hook) == len(set(acquired)), hook
