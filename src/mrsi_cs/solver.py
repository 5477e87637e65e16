"""Nested-ADMM solver for the temporally regularized reconstruction.

The objective being minimized over per-frame coefficient vectors x_m is

    sum_{m in D} [ 1/2 ||y_m - A_m x_m||^2 + lambda_x ||x_m||_1 ]
  + sum_{m<M}   [ lambda_w1 ||x_{m+1} - x_m||_1
                + lambda_w2/2 ||x_{m+1} - x_m||^2 ],

where D is the set of frames with data.  Splitting duplicates (x, h)
into (z, s) tied by the first-difference constraint s = Wz; each outer
iteration then runs four steps: a per-frame inner ADMM for x, a
closed-form elastic-net shrinkage for h, a banded-Cholesky projection
onto the constraint set, and the dual ascent.

The x step runs on all frames at once, in two batches.  Frames with data
solve their normal equations through one stacked low-rank (Woodbury)
factor, built once per solve, and then shrink toward sparsity; data-free
frames take a weighted average and skip the shrinkage.

The three weights only set thresholds and the h-step scale, so
:func:`solve` can run a stack of C weight triples in lockstep: the
iterates are laid out (frame, row, N*J), the weights broadcast as one
(C, 1) column per row, and the adjoints, factors and banded Cholesky
factor are built once per call.  Rows never mix, so each row's result
does not depend on the stack it ran in.  The state holds eight
(M, N*J) arrays per row, so the caller bounds C to bound the memory
(the CV sweep solves its grid in blocks that share one factor cache);
a solve without a stack is the C = 1 case.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceError, MrsiCsError, ParameterError, ShapeError
from .model import (
    AcquisitionGeometry,
    BaseSpectraSet,
    FactorizationCache,
    NormalFactor,
    SamplingSchedule,
    SignalSet,
    SubstanceDistribution,
    apply_adjoint,
    apply_forward,
    base_check,
    stack_factors,
)

__all__ = [
    "SolverConfig",
    "BandCholesky",
    "ResidualLog",
    "soft_threshold",
    "band_cholesky",
    "project_constraint",
    "update_x_frame",
    "update_h",
    "solve",
    "objective_value",
]


@dataclass(frozen=True)
class SolverConfig:
    """Regularization weights, penalty parameters and iteration budgets.

    Penalty defaults follow the reference setting (rho1 = mu = 1e-3,
    rho2 = 1e-1); ``gamma`` is the derived ratio rho2/rho1 used by the
    projection step.  ``stop_tol`` enables an optional relative-residual
    early exit (``||x - z|| / ||x|| < stop_tol``); it is off by default
    so runs execute the full budget.
    """

    lambda_x: float = 0.0
    lambda_w1: float = 0.0
    lambda_w2: float = 0.0
    rho1: float = 1e-3
    rho2: float = 1e-1
    mu: float = 1e-3
    outer_iters: int = 1000
    inner_iters: int = 2
    stop_tol: float | None = None

    def __post_init__(self):
        settings = (self.lambda_x, self.lambda_w1, self.lambda_w2, self.rho1, self.rho2, self.mu)
        if not all(math.isfinite(v) for v in settings):
            raise ParameterError("regularization weights and penalty parameters must be finite")
        if self.stop_tol is not None and not math.isfinite(self.stop_tol):
            raise ParameterError("stop_tol must be finite")
        if min(self.lambda_x, self.lambda_w1, self.lambda_w2) < 0:
            raise ParameterError("regularization weights must be >= 0")
        if min(self.rho1, self.rho2, self.mu) <= 0:
            raise ParameterError("penalty parameters must be > 0")
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ParameterError("iteration counts must be >= 1")

    @property
    def gamma(self) -> float:
        return self.rho2 / self.rho1


@dataclass
class ResidualLog:
    """Per-iteration root-mean-square gaps ||x-z|| and ||z-z_prev||, as Python floats."""

    rms_x_minus_z: list[float] = field(default_factory=list)
    rms_z_delta: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rms_x_minus_z)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "rms_x_minus_z", "rms_z_delta"])
            for i, (a, b) in enumerate(zip(self.rms_x_minus_z, self.rms_z_delta), start=1):
                writer.writerow([i, repr(float(a)), repr(float(b))])


def soft_threshold(xi: np.ndarray | float, iota: np.ndarray | float) -> np.ndarray | float:
    """Elementwise shrinkage toward zero: sign(xi) * max(|xi| - iota, 0).

    ``iota`` may be an array that broadcasts against ``xi``, e.g. one
    threshold per row of a weight stack.
    """
    if np.any(np.less(iota, 0)):
        raise ParameterError(f"threshold must be >= 0, got {iota}")
    return np.sign(xi) * np.maximum(np.abs(xi) - iota, 0.0)


@dataclass(frozen=True)
class BandCholesky:
    """Lower-bidiagonal Cholesky factor of the tridiagonal I + gamma*W^T W."""

    diag: np.ndarray
    subdiag: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[0]


def band_cholesky(m: int, gamma: float) -> BandCholesky:
    """Factor I + gamma*W^T W for ``m`` frames, W the first-difference map.

    The matrix is tridiagonal with diagonal (1+g, 1+2g, ..., 1+2g, 1+g)
    and off-diagonal -g; its factor is lower-bidiagonal, so only the two
    bands are stored.
    """
    if m < 2:
        raise ParameterError(f"need at least 2 frames, got {m}")
    if not gamma > 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    d = np.full(m, 1.0 + 2.0 * gamma)
    d[0] = d[-1] = 1.0 + gamma
    diag = np.empty(m)
    subdiag = np.empty(m - 1)
    diag[0] = np.sqrt(d[0])
    for i in range(1, m):
        subdiag[i - 1] = -gamma / diag[i - 1]
        diag[i] = np.sqrt(d[i] - subdiag[i - 1] ** 2)
    return BandCholesky(diag=diag, subdiag=subdiag)


def project_constraint(
    omega: np.ndarray, q: np.ndarray, chol: BandCholesky, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Project (omega, q) onto the set {(z, s) : s = Wz}.

    Solves (I + gamma*W^T W) z = omega + gamma*W^T q by forward/back
    substitution with the banded factor, columnwise over the trailing
    axes, then rebuilds s from z so the constraint holds exactly.
    """
    omega = np.asarray(omega, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = chol.n
    if omega.shape[0] != m or q.shape[0] != m - 1 or omega.shape[1:] != q.shape[1:]:
        raise ShapeError(
            f"projection shapes {omega.shape} / {q.shape} do not fit {m} frames"
        )
    b = omega.copy()
    b[0] -= gamma * q[0]
    b[-1] += gamma * q[-1]
    if m > 2:
        b[1:-1] += gamma * (q[:-1] - q[1:])
    g = np.empty_like(b)
    g[0] = b[0] / chol.diag[0]
    for i in range(1, m):
        g[i] = (b[i] - chol.subdiag[i - 1] * g[i - 1]) / chol.diag[i]
    z = np.empty_like(b)
    z[-1] = g[-1] / chol.diag[-1]
    for i in range(m - 2, -1, -1):
        z[i] = (g[i] - chol.subdiag[i] * z[i + 1]) / chol.diag[i]
    s = z[1:] - z[:-1]
    return z, s


def update_x_frame(
    aty_m: np.ndarray | None,
    factor: NormalFactor | None,
    z_m: np.ndarray,
    u_m: np.ndarray,
    alpha_m: np.ndarray,
    beta_m: np.ndarray,
    config: SolverConfig,
    lambda_x: np.ndarray | float | None = None,
) -> np.ndarray:
    """Inner ADMM rounds of the per-frame x subproblem.

    ``aty_m`` is the precomputed Re(A^H y) for the frame, or None for a
    data-free frame, in which case the solve reduces to a weighted
    average and the l1 shrinkage is skipped (shrinking frames without
    data would drive them to zero).  ``alpha_m`` and ``beta_m`` are
    updated in place; the new x_m is returned.

    Every array may carry a leading frame axis, with ``factor`` stacked
    to match (:func:`~mrsi_cs.model.stack_factors`); all frames of one
    call must then be acquired, or all data-free.  ``lambda_x`` replaces
    ``config.lambda_x``; as an array it broadcasts against the iterates,
    e.g. shape (C, 1) for one weight per row of (frame, C, N*J) iterates.
    """
    rho1, mu = config.rho1, config.mu
    if lambda_x is None:
        lambda_x = config.lambda_x
    acquired = aty_m is not None
    if acquired and factor is None:
        raise MrsiCsError("acquired frame is missing its normal-matrix factorization")
    x_m = None
    for _ in range(config.inner_iters):
        rhs = rho1 * (z_m - u_m) + mu * (alpha_m - beta_m)
        if acquired:
            x_m = factor.solve(aty_m + rhs)
            np.copyto(alpha_m, soft_threshold(x_m + beta_m, lambda_x / mu))
        else:
            x_m = rhs / (rho1 + mu)
            np.copyto(alpha_m, x_m + beta_m)
        beta_m += x_m - alpha_m
    return x_m


def update_h(
    s: np.ndarray,
    nu: np.ndarray,
    config: SolverConfig,
    lambda_w1: np.ndarray | float | None = None,
    lambda_w2: np.ndarray | float | None = None,
) -> np.ndarray:
    """Closed-form elastic-net proximal step for the difference variables.

    ``lambda_w1`` and ``lambda_w2`` replace the config's weights and may
    broadcast per row, as in :func:`update_x_frame`.
    """
    if lambda_w1 is None:
        lambda_w1 = config.lambda_w1
    if lambda_w2 is None:
        lambda_w2 = config.lambda_w2
    scale = 1.0 + lambda_w2 / config.rho2
    threshold = lambda_w1 / (config.rho2 * scale)
    return soft_threshold((s - nu) / scale, threshold)


def _prepared_inputs(signals, schedule, base, geometry):
    base_check(base, geometry)
    schedule.validate_geometry(geometry)
    signals.validate_schedule(schedule, base.n_readout)


def _weight_rows(weights, config: SolverConfig) -> np.ndarray:
    """The (C, 3) stack of weight triples a solve runs; the config's triple when ``weights`` is None."""
    if weights is None:
        return np.array([[config.lambda_x, config.lambda_w1, config.lambda_w2]])
    rows = np.asarray(weights, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] != 3:
        raise ShapeError(f"weights must be a (C, 3) stack of weight triples; got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ParameterError("regularization weights must be finite")
    if np.any(rows < 0):
        raise ParameterError("regularization weights must be >= 0")
    return rows


def solve(
    signals: SignalSet,
    schedule: SamplingSchedule,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    config: SolverConfig,
    weights: np.ndarray | None = None,
    cache: FactorizationCache | None = None,
) -> tuple[SubstanceDistribution, ResidualLog] | tuple[np.ndarray, list[ResidualLog]]:
    """Run the full outer iteration and return the estimate with its residual log.

    Frames with data initialize from the adjoint of their measurements;
    data-free frames start at zero and acquire neighbor information
    through the projection step.  Raises :class:`DivergenceError` as
    soon as any iterate turns non-finite.

    ``weights`` is an optional (C, 3) stack of (lambda_x, lambda_w1,
    lambda_w2) rows that replace the config's three weights.  The rows
    share one set-up and iterate in lockstep; the call then returns a
    (C, M, N, J) array of estimates and one residual log per row.  With
    ``stop_tol`` set, each row stops on its own, at the iteration its
    solo solve would.

    ``cache`` lets several solves of frames from one point set share
    their normal-matrix factors, e.g. the blocks of a CV sweep; it must
    have been built for ``base``, ``geometry`` and the shift
    rho1 + mu.  A new cache is built when it is None.
    """
    _prepared_inputs(signals, schedule, base, geometry)
    rows = _weight_rows(weights, config)
    m_total = schedule.n_frames
    n_unknown = geometry.n_voxels * base.n_substances
    acquired = schedule.acquired_index_set

    shift = config.rho1 + config.mu
    if cache is None:
        cache = FactorizationCache(base, geometry, shift=shift)
    elif cache.base is not base or cache.geometry is not geometry or cache.shift != shift:
        raise ParameterError("factorization cache was built for another base, geometry or shift")
    aty = np.zeros((len(acquired), n_unknown))
    factors = []
    for i, m in enumerate(acquired):
        aty[i] = apply_adjoint(signals.per_frame[m], schedule.frames[m], base, geometry)
        factors.append(cache.get(schedule.frames[m]))
    free = [m for m in range(m_total) if schedule.frames[m] is None]
    batches = []  # (frame indices, Re(A^H y), factor): acquired frames, then data-free ones
    if acquired:
        stacked = stack_factors(factors)
        # a unit row axis lets the per-frame arrays broadcast over (frame, row, N*J) iterates
        factor = NormalFactor(stacked.v[:, None], stacked.shift, stacked.k_inv[:, None])
        batches.append((np.array(acquired), aty[:, None], factor))
    if free:
        batches.append((np.array(free), None, None))
    x0 = np.zeros((m_total, n_unknown))
    x0[list(acquired)] = aty
    chol = band_cholesky(m_total, config.gamma) if m_total >= 2 else None

    x, logs = _iterate(rows, x0, batches, chol, config)
    values = x.reshape(len(rows), m_total, geometry.n_voxels, base.n_substances)
    if weights is None:
        return SubstanceDistribution(values=values[0], geometry=geometry), logs[0]
    return values, logs


def _row_norms(a: np.ndarray) -> list[float]:
    """Euclidean norm of each row of (frame, row, N*J) iterates, as ``np.linalg.norm(a[:, i])``."""
    rows = np.ascontiguousarray(a.swapaxes(0, 1)).reshape(a.shape[1], 1, -1)
    return np.sqrt(rows @ rows.swapaxes(1, 2)).ravel().tolist()


def _iterate(
    weights: np.ndarray,
    x0: np.ndarray,
    batches: list,
    chol: BandCholesky | None,
    config: SolverConfig,
) -> tuple[np.ndarray, list[ResidualLog]]:
    """Outer iterations of a (C, 3) stack of weight rows, from the start point ``x0``.

    Returns the rows' (C, M, N*J) estimates and residual logs.  A row
    that meets ``stop_tol`` is written out and dropped from the stack.
    """
    n_rows = len(weights)
    m_total, n_unknown = x0.shape
    out = np.empty((n_rows, m_total, n_unknown))
    lambda_x, lambda_w1, lambda_w2 = (weights[:, k, None] for k in range(3))  # (C, 1) columns
    # primal x, its copy z and dual u per frame; differences h, their copy s and dual nu;
    # the inner splitting's copy alpha and dual beta; each laid out (frame, row, N*J)
    x = np.repeat(x0[:, None], n_rows, axis=1)
    z = x.copy()
    u, alpha, beta = (np.zeros_like(x) for _ in range(3))
    h, s, nu = (np.zeros((max(m_total - 1, 0), n_rows, n_unknown)) for _ in range(3))
    logs = [ResidualLog() for _ in range(n_rows)]
    live = np.arange(n_rows)  # the row of ``out`` each stacked row belongs to
    denom = math.sqrt(m_total * n_unknown)

    for k in range(1, config.outer_iters + 1):
        for frames, aty, factor in batches:
            alpha_f, beta_f = alpha[frames], beta[frames]
            x[frames] = update_x_frame(
                aty, factor, z[frames], u[frames], alpha_f, beta_f, config, lambda_x
            )
            alpha[frames], beta[frames] = alpha_f, beta_f
        if m_total >= 2:
            h = update_h(s, nu, config, lambda_w1, lambda_w2)
            z_new, s_new = project_constraint(x + u, h + nu, chol, config.gamma)
        else:
            z_new, s_new = x + u, s
        r = x - z_new
        gap = _row_norms(r)
        u += r
        del r  # freed before z_new - z is formed, and not held into the next iteration
        step = _row_norms(z_new - z)
        nu += h - s_new
        z, s = z_new, s_new
        if not all(math.isfinite(v) for v in gap + step):
            raise DivergenceError(f"non-finite iterates at outer iteration {k}", iteration=k)
        for i, row in enumerate(live):
            logs[row].rms_x_minus_z.append(gap[i] / denom)
            logs[row].rms_z_delta.append(step[i] / denom)
        if config.stop_tol is not None:
            stopped = np.array(
                [xn > 0 and g / xn < config.stop_tol for g, xn in zip(gap, _row_norms(x))]
            )
            if stopped.any():
                out[live[stopped]] = x[:, stopped].swapaxes(0, 1)
                keep = ~stopped
                if not keep.any():
                    return out, logs
                x, z, u, alpha, beta, h, s, nu = (a[:, keep] for a in (x, z, u, alpha, beta, h, s, nu))
                lambda_x, lambda_w1, lambda_w2 = lambda_x[keep], lambda_w1[keep], lambda_w2[keep]
                live = live[keep]
    out[live] = x.swapaxes(0, 1)
    return out, logs


def objective_value(
    x: np.ndarray | SubstanceDistribution,
    signals: SignalSet,
    schedule: SamplingSchedule,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    config: SolverConfig,
) -> float:
    """Evaluate the regularized least-squares objective at ``x``.

    The sparsity term runs over frames with data only; the difference
    terms run over all consecutive frame pairs.
    """
    if isinstance(x, SubstanceDistribution):
        x = x.frame_matrix()
    x = np.asarray(x, dtype=np.float64)
    _prepared_inputs(signals, schedule, base, geometry)
    if x.shape != (schedule.n_frames, geometry.n_voxels * base.n_substances):
        raise ShapeError(
            f"x has shape {x.shape}, expected "
            f"{(schedule.n_frames, geometry.n_voxels * base.n_substances)}"
        )
    total = 0.0
    for m in schedule.acquired_index_set:
        r = signals.per_frame[m] - apply_forward(x[m], schedule.frames[m], base, geometry)
        total += 0.5 * float(np.vdot(r, r).real)
        total += config.lambda_x * float(np.abs(x[m]).sum())
    if schedule.n_frames > 1:
        diff = x[1:] - x[:-1]
        total += config.lambda_w1 * float(np.abs(diff).sum())
        total += 0.5 * config.lambda_w2 * float((diff**2).sum())
    return total
