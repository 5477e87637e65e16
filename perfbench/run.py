"""End-to-end and per-layer benchmark of the mrsi-cs command-line pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload recon-exp3 --seed 1 --seconds 55 --trace 0

Each run drives the real CLI (``python -m mrsi_cs.cli`` with
``PYTHONPATH=src``) in fresh processes: phantom -> design -> acquire ->
headline stage (reconstruct or cv) -> evaluate, repeated as passes until
``--seconds`` have been spent.  Timings are scaled to a nominal host
speed by a fixed reference workload timed between the processes
(``host_reference.py``).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics from spans recorded by ``trace_cli.py``.  Every
invocation's outputs are checked; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = SRC / "mrsi_cs" / "configs"
TRACER = BENCH_DIR / "trace_cli.py"
BASELINE = BENCH_DIR / "baseline.json"
RUNS_DIR = ROOT / ".perfbench"

# 1 and 2 BLAS threads give results that differ in the last bits, so the
# count is pinned for every CLI process and recorded with the results.
BLAS_THREADS = 1
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
HARD_LIMIT_S = 170.0  # every run must exit within 180 s
MIN_PASSES = 2
# Penalties of the acceptance tests: with the CLI defaults (rho1 = mu = 1e-3)
# the short budgets below leave the estimate worse than all-zero.
SOLVER_SECTION = {"rho1": 0.1, "rho2": 0.5, "mu": 0.1}
LAMBDAS = ("--lambda-x", "5e-4", "--lambda-w1", "1e-2", "--lambda-w2", "5e-2")  # weights of the README
ITERS_TOL = 1e-3  # solver.iters_to_tol: first iteration with rms_x_minus_z <= this
FINAL_FIT_ITERS = 200  # cv-coarse: budget of the fit that measures solver.iters_to_tol
RESULT_RTOL = 1e-6  # result_err against the seed's recorded value, same workload seed
ENVELOPE = 0.25  # unrecorded seeds: result_err may leave the recorded range by this share of its maximum
# Seconds the host reference takes at the nominal host speed: timings are
# reported as wall time x REFERENCE_NOMINAL_S / (measured reference time).
REFERENCE_NOMINAL_S = 0.25


@dataclass(frozen=True)
class Workload:
    """Inputs and headline stage of one workload; why each exists is in README.md."""

    name: str
    phantom_doc: Callable[[], dict]
    design_doc: dict
    stage: str
    stage_args: tuple[str, ...]
    iters: int


def _shipped(name: str) -> Callable[[], dict]:
    def load() -> dict:
        doc = json.loads((CONFIGS / name).read_text())
        doc["solver"] = dict(SOLVER_SECTION)
        return doc

    return load


def _cv_phantom() -> dict:
    return {
        "geometry": {
            "spatial_dims": [4, 4],
            "spectral_evolution_points": 4,
            "readout_points": 8,
            "frame_interval_s": 4.0,
        },
        "n_frames": 32,
        "noise_sigma": 0.02,
        "rng_seed": 0,
        "substances": [
            {
                "label": "glucose",
                "region": [[1, 1], [2, 1], [1, 2], [2, 2]],
                "profile": {"ramp": {"rate": 0.05, "cap": 1.0, "start_frame": 0}},
                "peaks": [{"center": [1.0, 2.0], "width": 1.0, "amplitude": 1.0}],
            }
        ],
        "solver": dict(SOLVER_SECTION),
    }


def _design(dims: list[int], n_points: int) -> dict:
    return {"n_points": n_points, "dims": dims, "skip": 0, "frame_interval_s": 4.0}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recon-exp3",
            _shipped("exp3.json"),
            _design([16, 8, 16], 256),
            "reconstruct",
            LAMBDAS,
            40,
        ),
        Workload(
            "cv-coarse",
            _cv_phantom,
            _design([4, 4, 4], 32),
            "cv",
            ("--threads", "1"),
            20,
        ),
    )
}


# ---------------------------------------------------------------- processes


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_ENV:
        env[name] = str(BLAS_THREADS)
    env["MRSI_CS_LOG"] = "error"
    return env


@dataclass
class Invocation:
    label: str
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class Runner:
    """Spawns CLI processes, times them from spawn to exit and checks each one."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = cli_env()
        self.invocations: list[Invocation] = []

    def python(self, args: list[str], cwd: Path, label: str) -> Invocation:
        out_path, err_path = cwd / f"{label}.stdout", cwd / f"{label}.stderr"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        inv = Invocation(
            label, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
        )
        if code != 0:
            inv.errors.append(f"exit code {code}")
        if "Traceback (most recent call last)" in inv.stderr:
            inv.errors.append("traceback on stderr")
        self.invocations.append(inv)
        return inv

    def cli(self, argv: list[str], cwd: Path, spans: Path | None = None) -> Invocation:
        args = ["-m", "mrsi_cs.cli", *argv] if spans is None else [str(TRACER), str(spans), *argv]
        inv = self.python(args, cwd, argv[0])
        if inv.ok:
            check_cli_output(inv, argv[0], cwd)
        return inv


def check_cli_output(inv: Invocation, command: str, cwd: Path) -> None:
    """Summary line on stdout, and manifest hashes that match the files."""
    lines = inv.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        inv.errors.append("no JSON summary on stdout")
        return
    if summary.get("command") != command:
        inv.errors.append(f"summary names command {summary.get('command')!r}")
    out_dir = cwd / OUT_DIRS[command]
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        inv.errors.append(f"unreadable manifest: {exc}")
        return
    if not manifest.get("outputs"):
        inv.errors.append("manifest lists no outputs")
    for entry in manifest.get("inputs", []) + manifest.get("outputs", []):
        path = cwd / entry["path"]
        if not path.is_file():
            inv.errors.append(f"manifest names missing file {entry['path']}")
        elif sha256(path) != entry["sha256"]:
            inv.errors.append(f"sha256 mismatch for {entry['path']}")


class HostReference:
    """Times the fixed work of ``host_reference.py`` between CLI processes.

    The host's speed drifts by tens of percent over seconds and over tens of
    minutes, and a process's wall time drifts with it.  Each group of CLI
    processes is bracketed by two timings of the reference, whose mean gives
    the host's speed at that moment.  The reference runs in a helper
    process that waits, idle, while the CLI processes run.
    """

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "host_reference.py")],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[list[float]] = []
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host reference did not start")

    def time(self) -> float:
        """Run the reference once; return its seconds and keep each part's."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        parts = json.loads(self.proc.stdout.readline())
        self.samples.append(parts)
        return sum(parts)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# output directory of each CLI command inside a pass directory
OUT_DIRS = {"phantom": "ph", "design": "de", "acquire": "ac", "reconstruct": "re", "cv": "cv", "evaluate": "ev"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_mrst(path: Path) -> np.ndarray:
    """Reader for the documented MRST layout, independent of the package."""
    raw = path.read_bytes()
    if raw[:4] != b"MRST":
        raise ValueError(f"{path.name}: bad magic")
    _, code, ndim = struct.unpack_from("<III", raw, 4)
    dims = struct.unpack_from(f"<{ndim}Q", raw, 16)
    dtype = {1: "<f8", 2: "<c16"}[code]
    return np.frombuffer(raw, dtype=dtype, offset=16 + 8 * ndim).reshape(dims)


def normalized_rmse(recon: np.ndarray, truth: np.ndarray) -> float:
    """Definition of evaluate.normalized_rmse: RMSE of max-normalized tensors over the truth's norm."""

    def max_normalize(a):
        peak = a.max(initial=0.0)
        return np.zeros_like(a) if peak <= 0 else a / peak

    r, t = max_normalize(recon), max_normalize(truth)
    return float(np.linalg.norm(r - t) / np.linalg.norm(t))


# ------------------------------------------------------------------- passes


@dataclass
class Pass:
    traced: bool
    invocations: list[Invocation] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    result_err: float | None = None
    selected: list[float] | None = None
    stage_dir: Path | None = None
    # label -> mean of the host reference timings just before and after its group of processes
    reference_s: dict[str, float] = field(default_factory=dict)
    last_reference_s: float = 0.0

    def wall(self, *labels: str) -> float:
        return sum(inv.wall_s for inv in self.invocations if inv.label in labels)

    def labels(self) -> list[str]:
        return [inv.label for inv in self.invocations]

    def timed(self, *labels: str) -> float:
        """Wall time at the nominal host speed: scaled by the reference around each process."""
        return sum(
            inv.wall_s * REFERENCE_NOMINAL_S / self.reference_s[inv.label]
            for inv in self.invocations if inv.label in labels
        )

    @property
    def ok(self) -> bool:
        return not self.errors and all(inv.ok for inv in self.invocations)

    def stage(self) -> Invocation:
        return next(inv for inv in self.invocations if inv.label in ("reconstruct", "cv"))


def run_pass(
    runner: Runner, reference: HostReference, before: float, wl: Workload, seed: int, pass_dir: Path, traced: bool
) -> Pass:
    """One pass; ``before`` is the host reference timed just before it, ``last_reference_s`` the one after."""
    pass_dir.mkdir(parents=True)
    (pass_dir / "phantom.json").write_text(json.dumps(wl.phantom_doc()))
    (pass_dir / "design.json").write_text(json.dumps(wl.design_doc))
    result = Pass(traced)
    data = ("--signals", "ac/signals.mrst", "--schedule", "de/schedule.json", "--base", "ph/base.mrst")
    # groups of processes; the host reference is timed after each group
    groups = [
        [
            ["phantom", "--config", "phantom.json", "--out", "ph", "--seed", str(seed)],
            ["design", "--config", "design.json", "--out", "de"],
            ["acquire", "--config", "phantom.json", "--schedule", "de/schedule.json",
             "--truth", "ph/truth.mrst", "--base", "ph/base.mrst", "--out", "ac", "--seed", str(seed)],
        ],
        [[wl.stage, "--config", "phantom.json", *data, "--out", OUT_DIRS[wl.stage], "--iters", str(wl.iters), *wl.stage_args]],
    ]
    if wl.stage == "reconstruct":
        groups.append([["evaluate", "--recon", "re/recon.mrst", "--truth", "ph/truth.mrst",
                        "--config", "phantom.json", "--out", "ev"]])
    for group in groups:
        for argv in group:
            spans = pass_dir / f"spans-{argv[0]}.json" if traced else None
            inv = runner.cli(argv, pass_dir, spans)
            result.invocations.append(inv)
            if not inv.ok:
                return result
        after = reference.time()
        for argv in group:
            result.reference_s[argv[0]] = (before + after) / 2
        before = result.last_reference_s = after
    result.stage_dir = pass_dir / OUT_DIRS[wl.stage]
    try:
        if wl.stage == "reconstruct":
            check_reconstruction(result, pass_dir)
        else:
            check_cv(result, pass_dir)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        result.errors.append(f"output check failed: {exc!r}")
    return result


def check_reconstruction(result: Pass, pass_dir: Path) -> None:
    recon = read_mrst(pass_dir / "re" / "recon.mrst")
    truth = read_mrst(pass_dir / "ph" / "truth.mrst")
    if recon.shape != truth.shape:
        result.errors.append(f"recon shape {recon.shape} != truth shape {truth.shape}")
        return
    if not np.all(np.isfinite(recon)):
        result.errors.append("reconstruction is not finite")
        return
    reported = json.loads((pass_dir / "ev" / "metrics.json").read_text())["substances"]
    labels = [sub["label"] for sub in json.loads((pass_dir / "phantom.json").read_text())["substances"]]
    errs = [normalized_rmse(recon[..., j], truth[..., j]) for j in range(truth.shape[-1])]
    for label, err in zip(labels, errs):
        if not math.isclose(err, reported[label]["normalized_rmse"], rel_tol=1e-9):
            result.errors.append(f"evaluate reports nRMSE {reported[label]['normalized_rmse']} for {label}, recomputed {err}")
    result.result_err = statistics.fmean(errs)


def check_cv(result: Pass, pass_dir: Path) -> None:
    with open(pass_dir / "cv" / "cv_table.csv", newline="") as fh:
        rows = [tuple(float(v) for v in row) for row in list(csv.reader(fh))[1:]]
    if len(rows) != 125:
        result.errors.append(f"cv table has {len(rows)} rows, expected 125")
    if not rows or not all(math.isfinite(r[3]) for r in rows):
        result.errors.append("cv table has non-finite scores")
        return
    best = min(rows, key=lambda r: (r[3], r[:3]))
    selected = json.loads((pass_dir / "cv" / "selected.json").read_text())
    triple = [selected["lambda_x"], selected["lambda_w1"], selected["lambda_w2"]]
    if triple != list(best[:3]) or selected["rmse"] != best[3]:
        result.errors.append(f"selected {triple} is not the table's minimum {list(best[:3])}")
    result.selected = triple
    result.result_err = float(selected["rmse"])


def check_against_baseline(wl: Workload, seed: int, passes: list[Pass]) -> tuple[list[str], str]:
    """Compare result_err (and the cv triple) with the values recorded for the seed commit."""
    record = json.loads(BASELINE.read_text())["results"][wl.name]
    errors = []
    if len({p.result_err for p in passes}) > 1 or len({str(p.selected) for p in passes}) > 1:
        errors.append("passes of one run disagree on result_err or the selected triple")
    value = passes[0].result_err
    known = record["result_err"].get(str(seed))
    if known is not None:
        how = f"recorded value for seed {seed}, relative tolerance {RESULT_RTOL}"
        if not math.isclose(value, known, rel_tol=RESULT_RTOL):
            errors.append(f"result_err {value!r} != recorded {known!r} for seed {seed}")
        triple = record.get("selected", {}).get(str(seed))
        if triple is not None and passes[0].selected != triple:
            errors.append(f"selected triple {passes[0].selected} != recorded {triple}")
    elif record["result_err"]:
        recorded = record["result_err"].values()
        lo, hi = min(recorded), max(recorded)
        slack = ENVELOPE * hi
        how = f"seed {seed} not recorded: within {ENVELOPE} x max of the range of {len(recorded)} recorded seeds"
        if not lo - slack <= value <= hi + slack:
            errors.append(f"result_err {value!r} outside [{lo - slack!r}, {hi + slack!r}]")
    else:
        how = "no recorded values: consistency checks only"
    return errors, how


# ------------------------------------------------------------------ metrics


def stats(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it (None below 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else None
    return {
        "n": n,
        "median": statistics.median(ordered),
        "percentile": pct,
        "percentile_value": ordered[math.ceil(pct * n / 100) - 1] if pct else None,
    }


SETUP = ("phantom", "design", "acquire")
END_TO_END_UNITS = {
    "setup_s": "s",
    "stage_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "result_err": "ratio",
}


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    samples = {
        "setup_s": [p.timed(*SETUP) for p in passes],
        "stage_s": [p.timed(p.stage().label) for p in passes],
        "pipeline_s": [p.timed(*p.labels()) for p in passes],
        "peak_rss_mb": [p.stage().peak_rss_mb for p in passes],
        "result_err": [p.result_err for p in passes],
    }
    metrics = {
        name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
        for name, values in samples.items()
    }
    details = {name: stats(values) | {"samples": values} for name, values in samples.items()}
    details["wall_s"] = {  # unscaled
        "setup_s": [p.wall(*SETUP) for p in passes],
        "stage_s": [p.stage().wall_s for p in passes],
        "pipeline_s": [p.wall(*p.labels()) for p in passes],
    }
    details["reference_s"] = [p.reference_s for p in passes]
    return metrics, details


class SpanTotals:
    """Per-name totals over the span files of one traced pass."""

    def __init__(self):
        self.count = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.bytes = defaultdict(int)
        self.cv_solve_s: list[float] = []
        self.cv_predict_s = 0.0
        self.missing: dict[str, str] = {}

    def add(self, doc: dict) -> None:
        self.missing.update(doc["missing"])
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, size) in enumerate(spans):
            duration = end - start
            self.count[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - covered[i]
            if size:
                self.bytes[name] += size
            if name == "solver.solve" and _has_ancestor(spans, i, "selection.grid_search"):
                self.cv_solve_s.append(duration)
            elif name == "model.apply_forward" and parent >= 0 and spans[parent][0] == "selection.cv_rmse":
                self.cv_predict_s += duration


def _has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _percentile_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# name -> (unit, hooks it reads, value from SpanTotals)
PER_LAYER = {
    "solver.x_update_s": ("s", ("solver.update_x_frame",), lambda t: t.total["solver.update_x_frame"]),
    "solver.x_update_calls": ("count", ("solver.update_x_frame",), lambda t: t.count["solver.update_x_frame"]),
    "solver.h_update_s": ("s", ("solver.update_h",), lambda t: t.total["solver.update_h"]),
    "solver.projection_s": ("s", ("solver.project_constraint",), lambda t: t.total["solver.project_constraint"]),
    "solver.loop_other_s": (
        "s",
        ("solver.solve", "solver.update_x_frame", "solver.update_h", "solver.project_constraint",
         "model.FactorizationCache.get", "model.apply_adjoint"),
        lambda t: t.self_time["solver.solve"],
    ),
    "solver.outer_iters": ("count", ("solver.update_h",), lambda t: t.count["solver.update_h"]),
    "solver.frame_iters_per_s": (
        "1/s",
        ("solver.update_x_frame",),
        lambda t: t.count["solver.update_x_frame"] / t.total["solver.update_x_frame"]
        if t.total["solver.update_x_frame"] else 0.0,
    ),
    "model.factor_build_s": ("s", ("model.normal_matrix",), lambda t: t.total["model.normal_matrix"]),
    "model.factor_builds": ("count", ("model.normal_matrix",), lambda t: t.count["model.normal_matrix"]),
    "model.factor_requests": ("count", ("model.FactorizationCache.get",), lambda t: t.count["model.FactorizationCache.get"]),
    "model.factor_cache_hit_ratio": (
        "ratio",
        ("model.FactorizationCache.get", "model.normal_matrix"),
        lambda t: 1.0 - t.count["model.normal_matrix"] / t.count["model.FactorizationCache.get"]
        if t.count["model.FactorizationCache.get"] else 0.0,
    ),
    "model.adjoint_s": ("s", ("model.apply_adjoint",), lambda t: t.total["model.apply_adjoint"]),
    "model.adjoint_calls": ("count", ("model.apply_adjoint",), lambda t: t.count["model.apply_adjoint"]),
    "model.forward_s": ("s", ("model.apply_forward",), lambda t: t.total["model.apply_forward"]),
    "model.forward_calls": ("count", ("model.apply_forward",), lambda t: t.count["model.apply_forward"]),
    "selection.solves": ("count", ("selection.grid_search", "solver.solve"), lambda t: len(t.cv_solve_s)),
    "selection.solve_s": ("s", ("selection.grid_search", "solver.solve"), lambda t: sum(t.cv_solve_s)),
    "selection.solve_ms_p50": ("ms", ("selection.grid_search", "solver.solve"), lambda t: _percentile_ms(t.cv_solve_s, 0.50)),
    "selection.solve_ms_p95": ("ms", ("selection.grid_search", "solver.solve"), lambda t: _percentile_ms(t.cv_solve_s, 0.95)),
    "selection.predict_s": ("s", ("selection.cv_rmse", "model.apply_forward"), lambda t: t.cv_predict_s),
    "selection.split_s": ("s", ("selection.split_readouts",), lambda t: t.total["selection.split_readouts"]),
    "phantom.make_s": (
        "s",
        ("phantom.make_phantom", "phantom.make_base_spectra"),
        lambda t: t.total["phantom.make_phantom"] + t.total["phantom.make_base_spectra"],
    ),
    "phantom.acquire_s": ("s", ("phantom.acquire",), lambda t: t.total["phantom.acquire"]),
    "sampling.build_schedule_s": ("s", ("sampling.build_schedule",), lambda t: t.total["sampling.build_schedule"]),
    "mrst.read_s": ("s", ("mrst.read_tensor",), lambda t: t.total["mrst.read_tensor"]),
    "mrst.write_s": ("s", ("mrst.write_tensor",), lambda t: t.total["mrst.write_tensor"]),
    "mrst.bytes_written": ("bytes", ("mrst.write_tensor",), lambda t: t.bytes["mrst.write_tensor"]),
    "manifest.hash_s": ("s", ("manifest.sha256_file",), lambda t: t.total["manifest.sha256_file"]),
    "manifest.bytes_hashed": ("bytes", ("manifest.sha256_file",), lambda t: t.bytes["manifest.sha256_file"]),
    "evaluate.metrics_s": ("s", ("evaluate.substance_metrics",), lambda t: t.total["evaluate.substance_metrics"]),
}


def per_layer(traced: list[Pass]) -> tuple[dict, dict]:
    """Median over traced passes of each span-derived metric; null with a reason for missing hooks."""
    values = defaultdict(list)
    missing: dict[str, str] = {}
    for p in traced:
        totals = SpanTotals()
        for path in sorted(p.stage_dir.parent.glob("spans-*.json")):
            totals.add(json.loads(path.read_text()))
        missing.update(totals.missing)
        for name, (_, hooks, fn) in PER_LAYER.items():
            if not any(h in totals.missing for h in hooks):
                values[name].append(fn(totals))
    metrics, notes = {}, {}
    for name, (unit, hooks, _) in PER_LAYER.items():
        gone = [h for h in hooks if h in missing]
        if gone:
            metrics[name] = {"value": None, "unit": unit, "reason": f"hook {gone[0]}: {missing[gone[0]]}"}
        else:
            # median_low: a measured sample, so counts stay whole numbers
            metrics[name] = {"value": statistics.median_low(values[name]), "unit": unit}
            if not any(values[name]):
                notes[name] = "layer not exercised by this workload (no such calls)"
    return metrics, notes


def iters_to_tol(residuals_csv: Path) -> int | None:
    with open(residuals_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            # the seed writes repr() of numpy scalars: "np.float64(0.0196...)"
            value = row["rms_x_minus_z"].removeprefix("np.float64(").removesuffix(")")
            if float(value) <= ITERS_TOL:
                return int(row["iteration"])
    return None


# -------------------------------------------------------------- environment


def environment(seed: int) -> dict:
    def blas(module) -> dict:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return {"name": info.get("name"), "version": info.get("version")}
        except Exception as exc:  # informational only; never fail a run on it
            return {"error": repr(exc)}

    import scipy

    cpu_model, llc = None, None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
        caches = Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")
        best = max(((int((c / "level").read_text()), (c / "size").read_text().strip()) for c in caches), default=None)
        llc = f"L{best[0]} {best[1]}" if best else None
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "mrsi_cs").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(np), "scipy": blas(scipy), "threads": BLAS_THREADS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": llc,
        "git_commit": commit or "unavailable (checkout is not a git repository)",
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


# --------------------------------------------------------------------- main


def import_time(runner: Runner, cwd: Path) -> float | None:
    """Seconds to import mrsi_cs.cli in a fresh process; None (and a failed process) if it cannot."""
    code = "import time; t = time.perf_counter(); import mrsi_cs.cli; print(time.perf_counter() - t)"
    inv = runner.python(["-c", code], cwd, "import")
    return float(inv.stdout) if inv.ok else None


def final_fit_iters(runner: Runner, wl: Workload, last: Pass, run_dir: Path) -> Invocation:
    """cv writes no residuals: fit once at the selected weights and read those."""
    fit_dir = run_dir / "final-fit"
    pass_dir = last.stage_dir.parent
    fit_dir.mkdir()
    shutil.copy(pass_dir / "phantom.json", fit_dir / "phantom.json")
    for sub in ("ph", "de", "ac"):
        shutil.copytree(pass_dir / sub, fit_dir / sub)
    lam_x, lam_w1, lam_w2 = (repr(v) for v in last.selected)
    argv = ["reconstruct", "--config", "phantom.json", "--signals", "ac/signals.mrst",
            "--schedule", "de/schedule.json", "--base", "ph/base.mrst", "--out", "re",
            "--iters", str(FINAL_FIT_ITERS), "--lambda-x", lam_x, "--lambda-w1", lam_w1, "--lambda-w2", lam_w2]
    return runner.cli(argv, fit_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mrsi_cs" / "cli.py").is_file():
        print(f"error: no mrsi-cs sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    wl = WORKLOADS[args.workload]
    run_dir = RUNS_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(deadline=started + HARD_LIMIT_S)
    env = environment(args.seed)
    print(json.dumps({"environment": env}))

    # warm-up: compiles bytecode and fills the page cache before anything is timed
    imports = [import_time(runner, run_dir) for _ in range(3 if args.trace else 1)]
    reference = HostReference(runner.env)
    window = time.monotonic()
    passes: list[Pass] = []
    try:
        while None not in imports:
            traced = bool(args.trace) and len(passes) % 2 == 1
            before = passes[-1].last_reference_s if passes else reference.time()
            p = run_pass(runner, reference, before, wl, args.seed, run_dir / f"pass{len(passes)}", traced)
            passes.append(p)
            if not p.ok:
                break
            spent = time.monotonic() - window
            # stop when the next pass would end more than half a pass after the window
            if len(passes) >= MIN_PASSES and spent * (1 + 0.5 / len(passes)) > args.seconds:
                break
    finally:
        reference.close()

    errors = [f"pass {i}: {e}" for i, p in enumerate(passes) for e in p.errors]
    errors += [f"{inv.label}: {e}" for inv in runner.invocations for e in inv.errors]
    report: dict = {"workload": wl.name, "seed": args.seed, "environment": env, "passes": len(passes)}
    metrics: dict = {}
    if not errors:
        baseline_errors, how = check_against_baseline(wl, args.seed, passes)
        errors += baseline_errors
        report["result_check"] = how
        report["selected"] = passes[0].selected
        e2e, details = end_to_end([p for p in passes if not p.traced])
        report["end_to_end"] = details
        metrics = e2e
    if not errors and args.trace:
        metrics, notes = per_layer([p for p in passes if p.traced])
        residuals = passes[-1].stage_dir / "residuals.csv"
        if wl.stage == "cv":
            fit = final_fit_iters(runner, wl, passes[-1], run_dir)
            errors += [f"final fit: {e}" for e in fit.errors]
            residuals = run_dir / "final-fit" / "re" / "residuals.csv"
        reached = None if errors else iters_to_tol(residuals)
        metrics["solver.iters_to_tol"] = {"value": reached, "unit": "iter"}
        if reached is None:
            metrics["solver.iters_to_tol"]["reason"] = f"rms_x_minus_z never <= {ITERS_TOL}"
        metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
        traced_stage = statistics.median(p.timed(p.stage().label) for p in passes if p.traced)
        overhead = traced_stage / e2e["stage_s"]["value"]
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        report["per_layer_notes"] = notes

    attempted = len(runner.invocations)
    failed = sum(not inv.ok for inv in runner.invocations)
    if errors and failed == 0:
        failed = 1  # a failed output check counts against the run
    report["reference_parts_s"] = {"interpreter, small_lapack, memory": reference.samples}
    report["failed_ratio"] = {"value": failed / attempted, "unit": "ratio", "base": f"{attempted} processes"}
    report["errors"] = errors
    report["metrics"] = metrics
    for path in run_dir.glob("*/*"):
        if path.is_dir():  # keep spans, stdout and stderr; drop tensors and other outputs
            shutil.rmtree(path)
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}" + (f"  ({m['reason']})" if "reason" in m else ""))
    print(f"failed_ratio = {failed}/{attempted} processes")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
