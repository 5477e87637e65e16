"""Command-line pipeline: phantom -> design -> acquire -> reconstruct -> cv -> evaluate.

Each command reads JSON configuration and MRST tensors, writes its
products plus a run manifest into ``--out``, prints a machine-readable
summary to stdout and diagnostics to stderr.  The CLI writes every CSV
table (:func:`_write_csv`); every JSON document goes through
:func:`mrsi_cs.configio.write_json`.  The manifest's command
name, arguments and inputs come from the command's click declaration
(see :func:`_finish`).  A package error exits with its class's
``exit_code`` (see :mod:`mrsi_cs.errors`), and sizes that do not fit in
memory exit 2.  Verbosity, Python warnings included, is controlled by
the MRSI_CS_LOG environment variable (error, info or debug).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .configio import (
    load_json,
    parse_design_config,
    parse_geometry,
    parse_phantom_config,
    parse_solver_config,
    read_schedule,
    write_json,
    write_schedule,
)
from .errors import ConfigError, MrsiCsError, ShapeError
from .evaluate import max_normalize, substance_metrics, write_pgm
from .manifest import StageTimer, write_manifest
from .model import (
    AcquisitionGeometry,
    BaseSpectraSet,
    SignalSet,
    SubstanceDistribution,
)
from .mrst import read_tensor, write_tensor
from .phantom import acquire as simulate_acquisition
from .phantom import make_base_spectra, make_phantom
from .sampling import build_schedule
from .selection import COARSE_GRID, PAPER_GRID, CvPlan, grid_search
from .solver import solve

logger = logging.getLogger(__name__)


def _finish(outdir: Path, timer: StageTimer, outputs: dict, summary: dict, **manifest) -> None:
    """Close the "write" stage, write the run manifest and print the stdout summary.

    ``outputs`` maps each summary key to its output file, or list of
    files; the summary gives their paths under those keys and the
    manifest lists the files in that order.  The running command's click
    declaration gives the name, the ``arguments`` (every option under its
    first flag, ``--paper-grid`` as ``paper_grid``, with the value click
    resolved) and the ``inputs`` (every existing-file option given, in
    declaration order).
    """
    timer.lap("write")
    files = []
    for key, value in outputs.items():
        summary[key] = [str(p) for p in value] if isinstance(value, list) else str(value)
        files += value if isinstance(value, list) else [value]
    ctx = click.get_current_context()
    arguments, inputs = {}, []
    for param in ctx.command.params:
        value = ctx.params[param.name]
        arguments[param.opts[0].lstrip("-").replace("-", "_")] = value
        if isinstance(param.type, click.Path) and param.type.exists and value is not None:
            inputs.append(value)
    command = ctx.command.name
    write_manifest(outdir, command, timer.timings_s, arguments=arguments, inputs=inputs, outputs=files,
                   **manifest)
    click.echo(json.dumps({"command": command, **summary}, sort_keys=True))


def _outdir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a CSV table: an int cell as it is, any other cell as ``repr(float(cell))``.

    ``repr(float(...))`` prints a numpy scalar as a plain, round-trippable number.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell if isinstance(cell, int) else repr(float(cell)) for cell in row] for row in rows)


def _load_distribution(path: str) -> SubstanceDistribution:
    tensor = read_tensor(path)
    if tensor.ndim < 3 or 0 in tensor.shape:
        raise ShapeError(f"{path}: expected non-empty (frames, ...spatial, substances); got {tensor.shape}")
    m, *spatial, j = tensor.shape
    geometry = AcquisitionGeometry(
        spatial_dims=tuple(spatial),
        spectral_evolution_points=1,
        readout_points=1,
    )
    return SubstanceDistribution(values=tensor.reshape(m, -1, j), geometry=geometry)


def _load_base(path: str) -> BaseSpectraSet:
    tensor = read_tensor(path)
    if tensor.ndim != 3:
        raise ShapeError(f"{path}: base spectra must be (substances, evolution, readout)")
    return BaseSpectraSet.from_spectra(tensor)


class _Commands(click.Group):
    """The command group: a package error ends any command with its class's exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MrsiCsError as exc:
            logger.error("%s: %s", type(exc).__name__, exc)
            sys.exit(exc.exit_code)
        except MemoryError as exc:
            logger.error("the configured sizes do not fit in memory (%s)", exc)
            sys.exit(2)


@click.group(cls=_Commands)
@click.version_option(version=__version__, prog_name="mrsi-cs")
def main():
    level = os.environ.get("MRSI_CS_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    logging.captureWarnings(True)  # numpy's RuntimeWarnings follow MRSI_CS_LOG too


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None, help="Override the configured rng seed.")
def phantom(config_path, out, seed):
    """Generate ground truth and base spectra from a phantom configuration."""
    timer = StageTimer()
    doc = load_json(config_path)
    if seed is not None:
        doc["rng_seed"] = seed
    config = parse_phantom_config(doc)
    truth = make_phantom(config)
    base = make_base_spectra(config)
    timer.lap("generate")

    outdir = _outdir(out)
    truth_path = outdir / "truth.mrst"
    base_path = outdir / "base.mrst"
    write_tensor(truth_path, truth.spatial())
    write_tensor(base_path, base.spectra)

    _finish(
        outdir, timer, {"truth": truth_path, "base": base_path},
        {
            "n_frames": config.n_frames,
            "spatial_dims": list(config.geometry.spatial_dims),
            "substances": list(config.labels),
        },
        config=doc, seeds={"rng_seed": config.rng_seed},
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
def design(config_path, out):
    """Build the undersampling schedule from a sampler configuration."""
    timer = StageTimer()
    doc = load_json(config_path)
    config, geometry = parse_design_config(doc)
    schedule = build_schedule(config, geometry)
    timer.lap("design")

    outdir = _outdir(out)
    schedule_path = outdir / "schedule.json"
    write_schedule(schedule_path, schedule)

    _finish(
        outdir, timer, {"schedule": schedule_path},
        {"n_frames": schedule.n_frames, "n_acquired": schedule.n_acquired, "psi": config.psi},
        config=doc, seeds={"sobol_skip": config.skip},
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--schedule", "schedule_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--base", "base_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None, help="Override the configured rng seed.")
def acquire(config_path, schedule_path, truth_path, base_path, out, seed):
    """Simulate the noisy undersampled acquisition of a ground-truth phantom."""
    timer = StageTimer()
    doc = load_json(config_path)
    if seed is not None:
        doc["rng_seed"] = seed
    config = parse_phantom_config(doc)
    geometry = config.geometry
    schedule = read_schedule(schedule_path)
    truth_tensor = read_tensor(truth_path)
    expected = (config.n_frames, *geometry.spatial_dims, len(config.substances))
    if truth_tensor.shape != expected:
        raise ShapeError(f"{truth_path}: shape {truth_tensor.shape}, config implies {expected}")
    truth = SubstanceDistribution(
        values=truth_tensor.reshape(config.n_frames, -1, len(config.substances)),
        geometry=geometry,
    )
    base = _load_base(base_path)
    timer.lap("load")

    signals = simulate_acquisition(truth, base, schedule, config.noise_sigma, config.rng_seed)
    timer.lap("acquire")

    outdir = _outdir(out)
    signals_path = outdir / "signals.mrst"
    write_tensor(signals_path, signals.concatenated(schedule))

    _finish(
        outdir, timer, {"signals": signals_path},
        {"n_acquired": schedule.n_acquired, "noise_sigma": config.noise_sigma},
        config=doc, seeds={"rng_seed": config.rng_seed},
    )


def _reconstruction_options(func):
    """Declare the data options that ``reconstruct`` and ``cv`` share, in this order."""
    file = click.Path(exists=True, dir_okay=False)
    options = (
        click.option("--config", "config_path", required=True, type=file),
        click.option("--signals", "signals_path", required=True, type=file),
        click.option("--schedule", "schedule_path", required=True, type=file),
        click.option("--base", "base_path", required=True, type=file),
        click.option("--out", required=True, type=click.Path(file_okay=False)),
    )
    for option in reversed(options):  # as stacked decorators, which apply bottom-up
        func = option(func)
    return func


def _load_reconstruction_inputs(config_path, schedule_path, signals_path, base_path):
    doc = load_json(config_path)
    geometry = parse_geometry(doc)
    schedule = read_schedule(schedule_path)
    base = _load_base(base_path)
    vector = read_tensor(signals_path)
    signals = SignalSet.from_concatenated(schedule, vector, base.n_readout)
    return doc, geometry, schedule, base, signals


@main.command()
@_reconstruction_options
@click.option("--iters", type=int, default=None, help="Outer iteration budget.")
@click.option("--inner-iters", type=int, default=None, help="Inner iteration budget.")
@click.option("--lambda-x", type=float, default=None)
@click.option("--lambda-w1", type=float, default=None)
@click.option("--lambda-w2", type=float, default=None)
def reconstruct(
    config_path, signals_path, schedule_path, base_path, out, iters, inner_iters,
    lambda_x, lambda_w1, lambda_w2,
):
    """Reconstruct the substance distributions from undersampled signals."""
    timer = StageTimer()
    doc, geometry, schedule, base, signals = _load_reconstruction_inputs(
        config_path, schedule_path, signals_path, base_path
    )
    solver_config = parse_solver_config(
        doc.get("solver", {}),
        lambda_x=lambda_x,
        lambda_w1=lambda_w1,
        lambda_w2=lambda_w2,
        outer_iters=iters,
        inner_iters=inner_iters,
    )
    timer.lap("load")

    estimate, residuals = solve(signals, schedule, base, geometry, solver_config)
    timer.lap("solve")

    outdir = _outdir(out)
    recon_path = outdir / "recon.mrst"
    residual_path = outdir / "residuals.csv"
    write_tensor(recon_path, estimate.spatial())
    _write_csv(
        residual_path, ["iteration", "rms_x_minus_z", "rms_z_delta"],
        zip(range(1, len(residuals) + 1), residuals.rms_x_minus_z, residuals.rms_z_delta),
    )

    _finish(
        outdir, timer, {"recon": recon_path, "residuals": residual_path},
        {"iterations": len(residuals), "final_rms_x_minus_z": residuals.rms_x_minus_z[-1]},
        config={"geometry": doc["geometry"], "solver": dataclasses.asdict(solver_config)},
    )


@main.command()
@_reconstruction_options
@click.option("--paper-grid", is_flag=True, help="Use the full 12-value grid per axis.")
@click.option("--threads", type=click.IntRange(min=1), default=1,
              help="Accepted for compatibility; has no effect (the sweep runs on one thread).")
@click.option("--iters", type=int, default=None, help="Outer iterations per CV solve.")
def cv(config_path, signals_path, schedule_path, base_path, out, paper_grid, threads, iters):
    """Select regularization weights by 2-fold cross validation."""
    timer = StageTimer()
    doc, geometry, schedule, base, signals = _load_reconstruction_inputs(
        config_path, schedule_path, signals_path, base_path
    )
    solver_doc = doc.get("solver", {})
    solver_config = parse_solver_config(solver_doc, outer_iters=iters)
    if iters is None and "outer_iters" not in solver_doc:  # ranking needs less polish than the final fit
        solver_config = dataclasses.replace(solver_config, outer_iters=CvPlan.base_config.outer_iters)
    grid = PAPER_GRID if paper_grid else COARSE_GRID
    plan = CvPlan(grid_x=grid, grid_w1=grid, grid_w2=grid, base_config=solver_config)
    timer.lap("load")

    best, table = grid_search(plan, schedule, signals, base, geometry)
    timer.lap("search")

    outdir = _outdir(out)
    table_path = outdir / "cv_table.csv"
    selected_path = outdir / "selected.json"
    _write_csv(table_path, ["lambda_x", "lambda_w1", "lambda_w2", "rmse"], table)
    best_rmse = min(row.rmse for row in table)
    write_json(
        selected_path,
        {"lambda_x": best[0], "lambda_w1": best[1], "lambda_w2": best[2], "rmse": best_rmse},
    )

    _finish(
        outdir, timer, {"table": table_path, "selected": selected_path},
        {"lambda_x": best[0], "lambda_w1": best[1], "lambda_w2": best[2], "combinations": len(table)},
        config={"grid": list(grid), "solver": dataclasses.asdict(solver_config)},
    )


@main.command()
@click.option("--recon", "recon_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--truth", "truth_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Phantom configuration supplying substance labels.")
@click.option("--frames", default=None, help="Comma-separated snapshot frame indices.")
@click.option("--upsample", type=click.IntRange(min=1), default=1, help="Integer nearest-neighbor upscaling.")
def evaluate(recon_path, truth_path, out, config_path, frames, upsample):
    """Compare a reconstruction against ground truth and export summaries."""
    timer = StageTimer()
    recon = _load_distribution(recon_path)
    truth = _load_distribution(truth_path)
    if recon.spatial().shape != truth.spatial().shape:
        raise ShapeError(f"reconstruction {recon.spatial().shape} and truth {truth.spatial().shape} differ")
    if config_path is not None:
        labels = list(parse_phantom_config(load_json(config_path)).labels)
        if len(labels) != recon.n_substances:
            raise ShapeError(
                f"{len(labels)} labels in config but {recon.n_substances} substances in tensors"
            )
    else:
        labels = [f"substance_{j}" for j in range(recon.n_substances)]
    m_total = recon.n_frames
    if frames:
        try:
            snapshot_frames = sorted({int(tok) for tok in frames.split(",")})
        except ValueError as exc:
            raise ConfigError(f"--frames must be comma-separated integers: {exc}") from exc
        if any(not 0 <= f < m_total for f in snapshot_frames):
            raise ConfigError(f"--frames indices must lie in [0, {m_total})")
    else:
        snapshot_frames = sorted({0, m_total // 2, m_total - 1})
    timer.lap("load")

    metrics = {"normalization": "per-substance max", "substances": {}}
    profiles = np.zeros((m_total, recon.n_substances, 2))  # each substance's hottest voxel, recon then truth
    for j, label in enumerate(labels):
        stats = substance_metrics(recon.values[:, :, j], truth.values[:, :, j])
        metrics["substances"][label] = stats
        voxel = stats["hottest_voxel"]
        profiles[:, j, 0] = recon.values[:, voxel, j]
        profiles[:, j, 1] = truth.values[:, voxel, j]
    timer.lap("metrics")

    outdir = _outdir(out)
    metrics_path = outdir / "metrics.json"
    profiles_path = outdir / "profiles.csv"
    write_json(metrics_path, metrics)
    _write_csv(
        profiles_path, ["frame", *(f"{label}_{kind}" for label in labels for kind in ("recon", "truth"))],
        ([m, *row] for m, row in enumerate(profiles.reshape(m_total, -1))),
    )
    snapshot_dir = outdir / "snapshots"
    snapshot_dir.mkdir(exist_ok=True)
    snapshot_paths = []
    spatial = recon.spatial()
    for j, label in enumerate(labels):
        scaled = max_normalize(spatial[:, ..., j])
        for f in snapshot_frames:
            path = snapshot_dir / f"{label}_frame{f:04d}.pgm"
            write_pgm(path, scaled[f], upsample=upsample)
            snapshot_paths.append(path)

    _finish(
        outdir, timer, {"metrics": metrics_path, "profiles": profiles_path, "snapshots": snapshot_paths}, {}
    )


if __name__ == "__main__":
    main()
