"""Regularization-weight selection by 2-fold cross validation.

Acquired readouts are split by the parity of their acquisition order;
each fold keeps the full frame axis but withholds the other fold's data
(the withheld frames simply become data-free).  A candidate weight
triple is scored by reconstructing from one fold, predicting the
withheld readouts, and averaging the root-mean-square prediction error
over both orientations.  The search is an exhaustive sweep of the grid.
"""

from __future__ import annotations

import itertools
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError
from .model import (
    AcquisitionGeometry,
    BaseSpectraSet,
    SamplingSchedule,
    SignalSet,
    apply_forward,
)
from .solver import SolverConfig, solve

logger = logging.getLogger(__name__)

__all__ = [
    "PAPER_GRID",
    "COARSE_GRID",
    "CvPlan",
    "Fold",
    "split_readouts",
    "cv_rmse",
    "grid_search",
]

PAPER_GRID: tuple[float, ...] = tuple(10.0**k for k in range(-4, 8))
COARSE_GRID: tuple[float, ...] = tuple(10.0**k for k in (-3, -1, 1, 3, 5))


class Fold(NamedTuple):
    schedule: SamplingSchedule
    signals: SignalSet


class GridRow(NamedTuple):
    lambda_x: float
    lambda_w1: float
    lambda_w2: float
    rmse: float


@dataclass(frozen=True)
class CvPlan:
    """Per-axis candidate values plus the solver settings used during CV.

    The default solver budget is deliberately small (ranking candidates
    does not need a fully polished solution); the final reconstruction
    should rerun with the full budget.
    """

    grid_x: tuple[float, ...] = PAPER_GRID
    grid_w1: tuple[float, ...] = PAPER_GRID
    grid_w2: tuple[float, ...] = PAPER_GRID
    base_config: SolverConfig = SolverConfig(outer_iters=200)

    def __post_init__(self):
        for name, grid in (("grid_x", self.grid_x), ("grid_w1", self.grid_w1), ("grid_w2", self.grid_w2)):
            grid = tuple(float(v) for v in grid)
            if not grid or any(v <= 0 for v in grid):
                raise ParameterError(f"{name} must be a non-empty list of positive values")
            object.__setattr__(self, name, grid)

    def combinations(self) -> list[tuple[float, float, float]]:
        return list(itertools.product(self.grid_x, self.grid_w1, self.grid_w2))


def split_readouts(schedule: SamplingSchedule, signals: SignalSet) -> tuple[Fold, Fold]:
    """Partition acquired frames by acquisition-order parity.

    The 1st, 3rd, 5th, ... acquired readouts form the first fold.  Each
    fold retains all frames; the other fold's frames lose their data and
    are treated as gaps.
    """
    acquired = schedule.acquired_index_set
    if len(acquired) < 2:
        raise ShapeError("need at least two acquired frames to split")
    odd = set(acquired[0::2])
    even = set(acquired[1::2])
    folds = []
    for keep in (odd, even):
        frames = tuple(
            f if (f is None or m in keep) else None for m, f in enumerate(schedule.frames)
        )
        sub_schedule = SamplingSchedule(frames=frames, frame_interval_s=schedule.frame_interval_s)
        sub_signals = SignalSet(per_frame={m: signals.per_frame[m] for m in sorted(keep)})
        folds.append(Fold(sub_schedule, sub_signals))
    return folds[0], folds[1]


def _directional_rmse(
    lambdas: tuple[float, float, float],
    train: Fold,
    test: Fold,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    config: SolverConfig,
) -> float:
    lam_x, lam_w1, lam_w2 = lambdas
    cfg = replace(config, lambda_x=lam_x, lambda_w1=lam_w1, lambda_w2=lam_w2)
    estimate, _ = solve(train.signals, train.schedule, base, geometry, cfg)
    x = estimate.frame_matrix()
    squared = 0.0
    count = 0
    for m in test.schedule.acquired_index_set:
        predicted = apply_forward(x[m], test.schedule.frames[m], base, geometry)
        residual = predicted - test.signals.per_frame[m]
        squared += float(np.vdot(residual, residual).real)
        count += 2 * residual.size  # real and imaginary parts each counted
    return float(np.sqrt(squared / count))


def cv_rmse(
    lambdas: tuple[float, float, float],
    fold_a: Fold,
    fold_b: Fold,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    config: SolverConfig,
) -> float:
    """Prediction RMSE for one weight triple, averaged over both orientations."""
    ab = _directional_rmse(lambdas, fold_a, fold_b, base, geometry, config)
    ba = _directional_rmse(lambdas, fold_b, fold_a, base, geometry, config)
    return 0.5 * (ab + ba)


_WORKER_CONTEXT: dict = {}


def _init_worker(fold_a, fold_b, base, geometry, config):
    _WORKER_CONTEXT.update(
        fold_a=fold_a, fold_b=fold_b, base=base, geometry=geometry, config=config
    )


def _evaluate_combo(lambdas: tuple[float, float, float]) -> float:
    c = _WORKER_CONTEXT
    return cv_rmse(lambdas, c["fold_a"], c["fold_b"], c["base"], c["geometry"], c["config"])


def grid_search(
    plan: CvPlan,
    schedule: SamplingSchedule,
    signals: SignalSet,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    threads: int = 1,
) -> tuple[tuple[float, float, float], list[GridRow]]:
    """Exhaustive sweep; returns the winning triple and the full score table.

    Ties are broken toward the lexicographically smallest triple, so the
    result is independent of enumeration order and worker scheduling.
    """
    fold_a, fold_b = split_readouts(schedule, signals)
    combos = plan.combinations()
    logger.info("cross-validation sweep over %d combinations", len(combos))
    if threads > 1:
        with ProcessPoolExecutor(
            max_workers=threads,
            initializer=_init_worker,
            initargs=(fold_a, fold_b, base, geometry, plan.base_config),
        ) as pool:
            scores = list(pool.map(_evaluate_combo, combos, chunksize=4))
    else:
        scores = []
        for i, lambdas in enumerate(combos, start=1):
            scores.append(cv_rmse(lambdas, fold_a, fold_b, base, geometry, plan.base_config))
            if i % 25 == 0 or i == len(combos):
                logger.info("evaluated %d/%d combinations", i, len(combos))
    table = [GridRow(*lams, rmse) for lams, rmse in zip(combos, scores)]
    best = min(table, key=lambda row: (row.rmse, (row.lambda_x, row.lambda_w1, row.lambda_w2)))
    logger.info(
        "selected lambda_x=%g lambda_w1=%g lambda_w2=%g (rmse=%g)",
        best.lambda_x,
        best.lambda_w1,
        best.lambda_w2,
        best.rmse,
    )
    return (best.lambda_x, best.lambda_w1, best.lambda_w2), table
