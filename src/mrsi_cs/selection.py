"""Regularization-weight selection by 2-fold cross validation.

Acquired readouts are split by the parity of their acquisition order;
each fold keeps the full frame axis but withholds the other fold's data
(the withheld frames simply become data-free).  A candidate weight
triple is scored by reconstructing from one fold, predicting the
withheld readouts, and averaging the root-mean-square prediction error
over both orientations.  The search is an exhaustive sweep of the grid.

The sweep runs as a regularization path without warm starts: the
triples form a (C, 3) weight axis, and each orientation solves the stack
with :func:`~mrsi_cs.solver.solve` in blocks of rows that iterate in
lockstep.  The solver holds up to nine (M, N*J) arrays per row (state,
work buffers and smaller temporaries; the inner splitting's one state
covers the frames with data only), and :data:`STACK_BYTES` bounds one
block's share: 32 rows at 32 frames and NJ = 16 (a 1.2 MB budget,
within a 2 MiB L2 cache), but one row on exp3 (256 frames, NJ = 384,
7.1 MB per row), where the rows run one after another.  Each orientation prepares its training fold once
(:func:`~mrsi_cs.solver.prepare`: the adjoints, the stacked factor and
the banded factor), every block's solve reuses that set-up, and each
block is scored before the next is solved.  A row's score does not
depend on the block it ran in.
"""

from __future__ import annotations

import itertools
import logging
import math
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
from .solver import _ROW_STATE_ARRAYS, SolverConfig, prepare, solve

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

# Byte budget for the per-row arrays of one solve's block of weight rows
STACK_BYTES = _ROW_STATE_ARRAYS * 128 * 1024


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
            if not grid or not all(math.isfinite(v) and v > 0 for v in grid):
                raise ParameterError(f"{name} must be a non-empty list of finite positive values")
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
        sub_signals = SignalSet(per_frame={m: signals.per_frame[m] for m in sorted(keep)})
        folds.append(Fold(replace(schedule, frames=frames), sub_signals))
    return folds[0], folds[1]


def _directional_rmse(
    stack: np.ndarray,
    train: Fold,
    test: Fold,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    config: SolverConfig,
) -> np.ndarray:
    """RMSE of predicting ``test``'s readouts from a fit to ``train``, one per row of a (C, 3) stack.

    The stack is solved in blocks whose state fits :data:`STACK_BYTES`,
    all sharing the fold's one set-up, and each block is scored before
    the next is solved.
    """
    prepared = prepare(train.signals, train.schedule, base, geometry, config)
    block = max(1, STACK_BYTES // (_ROW_STATE_ARRAYS * prepared[0].nbytes))  # Re(A^H y) is (M, N*J)
    rmse = np.empty(len(stack))
    for start in range(0, len(stack), block):
        stop = min(start + block, len(stack))
        estimates, _ = solve(
            train.signals, train.schedule, base, geometry, config,
            weights=stack[start:stop], prepared=prepared,
        )
        rmse[start:stop] = _prediction_rmse(estimates, test, base, geometry)
        logger.info("solved %d/%d combinations on one fold", stop, len(stack))
    return rmse


def _prediction_rmse(
    estimates: np.ndarray, test: Fold, base: BaseSpectraSet, geometry: AcquisitionGeometry
) -> np.ndarray:
    """RMSE of the (C, M, N, J) estimates' predictions of ``test``'s readouts, per row."""
    x = estimates.reshape(*estimates.shape[:2], -1)  # (C, M, N*J)
    squared = np.zeros(len(x))
    count = 0
    for m in test.schedule.acquired_index_set:
        residual = apply_forward(x[:, m], test.schedule.frames[m], base, geometry)
        residual -= test.signals.per_frame[m]
        squared += (residual.real**2 + residual.imag**2).sum(axis=-1)
        count += 2 * residual.shape[-1]  # real and imaginary parts each counted
    return np.sqrt(squared / count)


def cv_rmse(
    stack: np.ndarray,
    fold_a: Fold,
    fold_b: Fold,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    config: SolverConfig,
) -> np.ndarray:
    """Prediction RMSE averaged over both orientations, one per row of a (C, 3) weight stack.

    Each row is a (lambda_x, lambda_w1, lambda_w2) triple; the rows are
    stacked per solve.
    """
    ab = _directional_rmse(stack, fold_a, fold_b, base, geometry, config)
    ba = _directional_rmse(stack, fold_b, fold_a, base, geometry, config)
    return 0.5 * (ab + ba)


def grid_search(
    plan: CvPlan,
    schedule: SamplingSchedule,
    signals: SignalSet,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
) -> tuple[tuple[float, float, float], list[GridRow]]:
    """Exhaustive sweep; returns the winning triple and the full score table.

    The whole grid is scored by one :func:`cv_rmse` call.  Ties are
    broken toward the lexicographically smallest triple, so the result
    is independent of enumeration order.
    """
    fold_a, fold_b = split_readouts(schedule, signals)
    combos = plan.combinations()
    logger.info("cross-validation sweep over %d combinations", len(combos))
    scores = cv_rmse(np.array(combos), fold_a, fold_b, base, geometry, plan.base_config)
    table = [GridRow(*lams, float(rmse)) for lams, rmse in zip(combos, scores)]
    best = min(table, key=lambda row: (row.rmse, (row.lambda_x, row.lambda_w1, row.lambda_w2)))
    logger.info(
        "selected lambda_x=%g lambda_w1=%g lambda_w2=%g (rmse=%g)",
        best.lambda_x,
        best.lambda_w1,
        best.lambda_w2,
        best.rmse,
    )
    return (best.lambda_x, best.lambda_w1, best.lambda_w2), table
