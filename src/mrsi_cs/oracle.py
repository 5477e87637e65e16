"""Independent reference solver for small instances.

Certifies the production solver by minimizing the same objective with a
different algorithm family: a Condat-Vu primal-dual iteration that takes
gradient steps on the smooth terms (data fit and squared differences),
a proximal step on the coefficient l1 term, and a dual projection for
the difference l1 term, with no equality-constraint splitting anywhere.

Measurement operators are probed into dense per-frame matrices with unit
vectors, so apart from the forward map itself nothing is shared with the
production code path.  A bounded least-squares computation of the
minimal-norm subgradient provides an optimality certificate that does
not rely on either solver having converged.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import lsq_linear

from .errors import ParameterError, ShapeError
from .model import (
    AcquisitionGeometry,
    BaseSpectraSet,
    SamplingSchedule,
    SignalSet,
    SubstanceDistribution,
    apply_forward,
    base_check,
)

__all__ = ["OracleConfig", "oracle_solve", "kkt_residual", "SIZE_CAP"]

SIZE_CAP = 4096


@dataclass(frozen=True)
class OracleConfig:
    """Iteration cap, optional manual step sizes and the stopping rule.

    The solver stops once the objective has decreased by less than
    ``tol`` (relative) over the trailing ``window`` iterations.
    """

    max_iters: int = 60000
    tau: float | None = None
    sigma: float | None = None
    tol: float = 1e-11
    window: int = 50

    def __post_init__(self):
        for name in ("max_iters", "window"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {count!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ParameterError(f"tol must be finite and > 0, got {self.tol}")
        for name in ("tau", "sigma"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be finite and > 0 when given, got {v}")


class _DenseFrames:
    """Densely probed per-frame measurement matrices and data."""

    def __init__(self, signals, schedule, base, geometry):
        base_check(base, geometry)
        schedule.validate_geometry(geometry)
        signals.validate_schedule(schedule, base.n_readout)
        self.n_unknown = geometry.n_voxels * base.n_substances
        self.n_frames = schedule.n_frames
        self.acquired = schedule.acquired_index_set
        self.matrices: dict[int, np.ndarray] = {}
        self.data: dict[int, np.ndarray] = {}
        eye = np.eye(self.n_unknown)
        for m in self.acquired:
            points = schedule.frames[m]
            cols = [apply_forward(eye[i], points, base, geometry) for i in range(self.n_unknown)]
            self.matrices[m] = np.stack(cols, axis=1)
            self.data[m] = signals.per_frame[m]

    def grad_data(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for m in self.acquired:
            a = self.matrices[m]
            out[m] = (a.conj().T @ (a @ x[m] - self.data[m])).real
        return out

    def obj_data(self, x: np.ndarray) -> float:
        total = 0.0
        for m in self.acquired:
            r = self.matrices[m] @ x[m] - self.data[m]
            total += 0.5 * float(np.vdot(r, r).real)
        return total

    def lipschitz_data(self) -> float:
        if not self.acquired:
            return 0.0
        return max(np.linalg.norm(self.matrices[m], 2) ** 2 for m in self.acquired)


def _check_cap(n_total: int) -> None:
    if n_total > SIZE_CAP:
        raise ParameterError(
            f"instance has {n_total} unknowns, reference solver caps at {SIZE_CAP}"
        )


def _w(x: np.ndarray) -> np.ndarray:
    return x[1:] - x[:-1]


def _wt(v: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros((m, v.shape[1]) if v.ndim == 2 else (m,))
    if m > 1:
        out[:-1] -= v
        out[1:] += v
    return out


def oracle_solve(
    signals: SignalSet,
    schedule: SamplingSchedule,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    lambdas: tuple[float, float, float],
    config: OracleConfig | None = None,
) -> SubstanceDistribution:
    """Minimize the reconstruction objective by Condat-Vu primal-dual iteration."""
    config = config or OracleConfig()
    lam_x, lam_w1, lam_w2 = (float(v) for v in lambdas)
    if min(lam_x, lam_w1, lam_w2) < 0:
        raise ParameterError("regularization weights must be >= 0")
    ops = _DenseFrames(signals, schedule, base, geometry)
    m_total, n = ops.n_frames, ops.n_unknown
    _check_cap(m_total * n)

    norm_w_sq = 4.0  # first-difference operator norm bound
    lip = ops.lipschitz_data() + lam_w2 * norm_w_sq
    lip = max(lip, 1e-8)
    sigma = config.sigma if config.sigma is not None else lip / 8.0
    tau = config.tau if config.tau is not None else 0.99 / (lip / 2.0 + sigma * norm_w_sq)

    acquired_mask = np.zeros(m_total, dtype=bool)
    acquired_mask[list(ops.acquired)] = True

    x = np.zeros((m_total, n))
    xi = np.zeros((max(m_total - 1, 0), n))
    history: list[float] = []

    def objective(xv: np.ndarray) -> float:
        total = ops.obj_data(xv)
        total += lam_x * float(np.abs(xv[acquired_mask]).sum())
        if m_total > 1:
            d = _w(xv)
            total += lam_w1 * float(np.abs(d).sum()) + 0.5 * lam_w2 * float((d**2).sum())
        return total

    for _ in range(config.max_iters):
        grad = ops.grad_data(x)
        if m_total > 1:
            grad += lam_w2 * _wt(_w(x), m_total)
            grad += _wt(xi, m_total)
        x_new = x - tau * grad
        if lam_x > 0:
            shrunk = np.sign(x_new) * np.maximum(np.abs(x_new) - tau * lam_x, 0.0)
            x_new[acquired_mask] = shrunk[acquired_mask]
        if m_total > 1 and lam_w1 > 0:
            xi = np.clip(xi + sigma * _w(2.0 * x_new - x), -lam_w1, lam_w1)
        x = x_new
        history.append(objective(x))
        if len(history) > config.window:
            past, now = history[-config.window - 1], history[-1]
            if past - now < config.tol * max(abs(now), 1.0):
                break

    values = x.reshape(m_total, geometry.n_voxels, base.n_substances)
    return SubstanceDistribution(values=values, geometry=geometry)


def kkt_residual(
    x: np.ndarray | SubstanceDistribution,
    signals: SignalSet,
    schedule: SamplingSchedule,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    lambdas: tuple[float, float, float],
    zero_tol: float = 1e-8,
) -> float:
    """Euclidean norm of the minimal-norm subgradient of the objective at ``x``.

    Coordinates (and differences) whose magnitude is at most
    ``zero_tol * max(1, ||x||_inf)`` are treated as zero, so their
    subgradient components range over the full interval instead of being
    pinned to a sign; the minimum over all admissible subgradients is
    then a bounded least-squares problem.  A value near zero certifies
    optimality for this convex objective.
    """
    if isinstance(x, SubstanceDistribution):
        x = x.frame_matrix()
    x = np.asarray(x, dtype=np.float64)
    lam_x, lam_w1, lam_w2 = (float(v) for v in lambdas)
    ops = _DenseFrames(signals, schedule, base, geometry)
    m_total, n = ops.n_frames, ops.n_unknown
    _check_cap(m_total * n)
    if x.shape != (m_total, n):
        raise ShapeError(f"x has shape {x.shape}, expected {(m_total, n)}")

    tol = zero_tol * max(1.0, float(np.abs(x).max(initial=0.0)))
    grad = ops.grad_data(x)
    diff = _w(x) if m_total > 1 else np.zeros((0, n))
    if m_total > 1:
        grad += lam_w2 * _wt(diff, m_total)

    acquired_mask = np.zeros(m_total, dtype=bool)
    acquired_mask[list(ops.acquired)] = True

    c = grad.copy()
    free_cols: list[sp.csc_matrix] = []
    bounds: list[float] = []

    if lam_x > 0:
        pinned = acquired_mask[:, None] & (np.abs(x) > tol)
        c += np.where(pinned, lam_x * np.sign(x), 0.0)
        free = acquired_mask[:, None] & ~pinned
        idx = np.flatnonzero(free.ravel())
        if idx.size:
            rows, cols = idx, np.arange(idx.size)
            mat = sp.csc_matrix(
                (np.ones(idx.size), (rows, cols)), shape=(m_total * n, idx.size)
            )
            free_cols.append(mat)
            bounds.extend([lam_x] * idx.size)

    if lam_w1 > 0 and m_total > 1:
        pinned = np.abs(diff) > tol
        c += _wt(np.where(pinned, lam_w1 * np.sign(diff), 0.0), m_total)
        idx = np.flatnonzero(~pinned.ravel())
        if idx.size:
            # column for free difference (m, i): +1 at (m+1, i), -1 at (m, i)
            m_idx, i_idx = np.unravel_index(idx, diff.shape)
            rows = np.concatenate([(m_idx + 1) * n + i_idx, m_idx * n + i_idx])
            cols = np.concatenate([np.arange(idx.size)] * 2)
            vals = np.concatenate([np.ones(idx.size), -np.ones(idx.size)])
            mat = sp.csc_matrix((vals, (rows, cols)), shape=(m_total * n, idx.size))
            free_cols.append(mat)
            bounds.extend([lam_w1] * idx.size)

    c_flat = c.ravel()
    if not free_cols:
        return float(np.linalg.norm(c_flat))
    a_mat = sp.hstack(free_cols, format="csc")
    ub = np.asarray(bounds)
    result = lsq_linear(a_mat, -c_flat, bounds=(-ub, ub), tol=1e-12)
    return float(np.linalg.norm(a_mat @ result.x + c_flat))
