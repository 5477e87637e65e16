"""Independent reference solver for small instances.

Certifies the production solver by minimizing the same objective with a
different algorithm family: a Condat-Vu primal-dual iteration that takes
gradient steps on the smooth terms (data fit and squared differences),
a proximal step on the coefficient l1 term, and a dual projection for
the difference l1 term, with no equality-constraint splitting anywhere.

Measurement operators are probed with unit vectors into one stack of
dense per-frame matrices, so apart from the forward map itself nothing
is shared with the production code path.  A bounded least-squares
computation of the minimal-norm subgradient provides an optimality
certificate that does not rely on either solver having converged.
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
    """Iteration cap and the stopping rule.

    The solver stops once the objective has decreased, by less than
    ``tol`` (relative), over the trailing ``window`` iterations.
    """

    max_iters: int = 60000
    tol: float = 1e-11
    window: int = 50

    def __post_init__(self):
        for name in ("max_iters", "window"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {count!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ParameterError(f"tol must be finite and > 0, got {self.tol}")


class _DenseFrames:
    """Checked inputs and the data term on one stack of densely probed frame matrices.

    Both entry points share this set-up: the weights, shapes and size cap
    are checked before any probing.  ``apply_forward`` is then probed with
    unit vectors into an (F, R, N*J) complex stack over the F acquired
    frames, R being the most readouts of any frame; shorter frames are
    padded with zero rows and zero data, which add exact zeros.
    """

    def __init__(self, signals, schedule, base, geometry, lambdas):
        self.lambdas = tuple(float(v) for v in lambdas)
        if len(self.lambdas) != 3 or not all(math.isfinite(v) and v >= 0 for v in self.lambdas):
            raise ParameterError(
                f"regularization weights must be three finite values >= 0, got {lambdas}"
            )
        base_check(base, geometry)
        schedule.validate_geometry(geometry)
        signals.validate_schedule(schedule, base.n_readout)
        self.n_unknown = geometry.n_voxels * base.n_substances
        self.n_frames = schedule.n_frames
        if self.n_frames * self.n_unknown > SIZE_CAP:
            raise ParameterError(
                f"instance has {self.n_frames * self.n_unknown} unknowns, "
                f"reference solver caps at {SIZE_CAP}"
            )
        self.acquired = np.zeros(self.n_frames, dtype=bool)
        self.acquired[list(schedule.acquired_index_set)] = True
        self.index = np.flatnonzero(self.acquired)
        eye = np.eye(self.n_unknown)
        probes = [apply_forward(eye, schedule.frames[m], base, geometry).T for m in self.index]
        rows = max((p.shape[0] for p in probes), default=0)
        self.a = np.zeros((len(probes), rows, self.n_unknown), dtype=np.complex128)
        self.y = np.zeros((len(probes), rows), dtype=np.complex128)
        for k, (m, p) in enumerate(zip(self.index, probes)):
            self.a[k, : p.shape[0]] = p
            self.y[k, : p.shape[0]] = signals.per_frame[m]
        self.a_h = self.a.conj().transpose(0, 2, 1)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """A_m x_m - y_m for every acquired frame, as an (F, R) array."""
        return (self.a @ x[self.index, :, None])[..., 0] - self.y

    def objective(self, r: np.ndarray) -> float:
        return 0.5 * float(np.vdot(r, r).real)

    def gradient(self, r: np.ndarray) -> np.ndarray:
        """Re(A_m^H r_m) in the acquired frames' rows, zero elsewhere."""
        out = np.zeros((self.n_frames, self.n_unknown))
        out[self.index] = (self.a_h @ r[..., None])[..., 0].real
        return out

    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.a, 2, axis=(1, 2)).max(initial=0.0)) ** 2


def _w(x: np.ndarray) -> np.ndarray:
    return x[1:] - x[:-1]


def _wt(v: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros((m, v.shape[1]))
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
    ops = _DenseFrames(signals, schedule, base, geometry, lambdas)
    lam_x, lam_w1, lam_w2 = ops.lambdas
    m_total, n, acquired_mask = ops.n_frames, ops.n_unknown, ops.acquired

    norm_w_sq = 4.0  # first-difference operator norm bound
    lip = ops.lipschitz() + lam_w2 * norm_w_sq
    lip = max(lip, 1e-8)
    sigma = lip / 8.0
    tau = 0.99 / (lip / 2.0 + sigma * norm_w_sq)

    x = np.zeros((m_total, n))
    xi = np.zeros((m_total - 1, n))
    r = ops.residual(x)
    d = _w(x)
    history: list[float] = []

    for _ in range(config.max_iters):
        grad = ops.gradient(r)  # r and d are the residual and the differences at this x
        grad += lam_w2 * _wt(d, m_total)
        grad += _wt(xi, m_total)
        x_new = x - tau * grad
        if lam_x > 0:  # the l1 prox on the acquired frames only
            acquired = x_new[acquired_mask]
            x_new[acquired_mask] = np.sign(acquired) * np.maximum(np.abs(acquired) - tau * lam_x, 0.0)
        if lam_w1 > 0:
            xi = np.clip(xi + sigma * _w(2.0 * x_new - x), -lam_w1, lam_w1)
        x = x_new
        r = ops.residual(x)
        total = ops.objective(r)
        total += lam_x * float(np.abs(x[acquired_mask]).sum())
        d = _w(x)
        total += lam_w1 * float(np.abs(d).sum()) + 0.5 * lam_w2 * float((d**2).sum())
        history.append(total)
        if len(history) > config.window:
            past, now = history[-config.window - 1], history[-1]
            if 0.0 <= past - now < config.tol * max(abs(now), 1.0):
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
    ops = _DenseFrames(signals, schedule, base, geometry, lambdas)
    lam_x, lam_w1, lam_w2 = ops.lambdas
    m_total, n, acquired_mask = ops.n_frames, ops.n_unknown, ops.acquired
    if x.shape != (m_total, n):
        raise ShapeError(f"x has shape {x.shape}, expected {(m_total, n)}")

    tol = zero_tol * max(1.0, float(np.abs(x).max(initial=0.0)))
    grad = ops.gradient(ops.residual(x))
    diff = _w(x)
    grad += lam_w2 * _wt(diff, m_total)

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

    if lam_w1 > 0:
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
