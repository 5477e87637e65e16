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

The x step runs on all frames at once, in one batch.  Frames with data
solve their normal equations through one stacked low-rank (Woodbury)
factor, built once per set-up, and then shrink toward sparsity.  The
factor is separable: it holds each frame's sampled DFT rows and a small
core, never the N*J-row column block, so a solve is three small matrix
products per frame.  A data-free frame joins the batch with a zero
Re(A^H y), a factor without columns and a zero l1 threshold, which
gives the weighted average it would take on its own, bit for bit up to
the sign of zeros.

The outer loop runs in place: each step writes into arrays allocated
once per solve, shrinkage is a - clip(a, -t, t), and the projection's
banded substitution is blocked (:func:`project_constraint`), so an
iteration takes O(sqrt(M)) Python steps.

The three weights only set thresholds and the h-step scale, so
:func:`solve` can run a stack of C weight triples in lockstep: the
iterates are laid out (frame, row, N*J), the weights broadcast as one
column per row, and the checks, adjoints, factors and banded Cholesky
factor form one set-up (:func:`prepare`) that solves may share.  Rows
never mix, and every product keeps the row axis as a batch axis, so
each row's result does not depend on the stack it ran in.  The loop
holds nine (M, N*J) arrays per row (seven of state, two work buffers;
``_ROW_STATE_ARRAYS`` counts them with the smaller temporaries), so the
caller bounds C to bound the memory (the CV sweep prepares each fold
once and solves its grid in blocks that reuse it); a solve without a
stack is the C = 1 case.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceError, ParameterError, ShapeError
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
    "prepare",
    "solve",
    "objective_value",
]


@dataclass(frozen=True)
class SolverConfig:
    """Regularization weights, penalty parameters and iteration budgets.

    Penalty defaults follow the reference setting (rho1 = mu = 1e-3,
    rho2 = 1e-1); ``gamma`` is the derived ratio rho2/rho1 used by the
    projection step.  The iteration budgets are integers >= 1.
    ``stop_tol`` (> 0) enables an optional relative-residual early exit
    (``||x - z|| / ||x|| < stop_tol``); it is off by default so runs
    execute the full budget.
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
        if self.stop_tol is not None and not (math.isfinite(self.stop_tol) and self.stop_tol > 0):
            raise ParameterError(f"stop_tol must be finite and > 0 when given, got {self.stop_tol}")
        if min(self.lambda_x, self.lambda_w1, self.lambda_w2) < 0:
            raise ParameterError("regularization weights must be >= 0")
        if min(self.rho1, self.rho2, self.mu) <= 0:
            raise ParameterError("penalty parameters must be > 0")
        for name in ("outer_iters", "inner_iters"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {count!r}")

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


def _shrink(a: np.ndarray, threshold, work: np.ndarray) -> np.ndarray:
    """Soft-threshold ``a`` in place as a - clip(a, -t, t); ``work`` is scratch shaped like ``a``."""
    clipped = np.minimum(a, threshold, out=work)
    np.maximum(clipped, np.negative(threshold), out=clipped)
    a -= clipped
    return a


def soft_threshold(xi: np.ndarray | float, iota: np.ndarray | float) -> np.ndarray | float:
    """Elementwise shrinkage toward zero: sign(xi) * max(|xi| - iota, 0).

    ``iota`` may be an array that broadcasts against ``xi``, e.g. one
    threshold per row of a weight stack.
    """
    if not np.all(np.greater_equal(iota, 0)):  # also rejects NaN
        raise ParameterError(f"threshold must be >= 0, got {iota}")
    shape = np.broadcast_shapes(np.shape(xi), np.shape(iota))
    out = np.array(np.broadcast_to(xi, shape), dtype=np.float64)
    return _shrink(out, iota, np.empty_like(out))[()]


@dataclass(frozen=True)
class BandCholesky:
    """Lower-bidiagonal Cholesky factor L of the tridiagonal I + gamma*W^T W.

    ``diag`` and ``subdiag`` are L's two bands.  For the blocked
    substitution of :func:`project_constraint`, the frames split into
    ``len(block_inv)`` = ceil(M / B) blocks of B = isqrt(M) frames, the
    last one short when B does not divide M; ``block_inv[k]`` is the
    dense lower-triangular inverse of L's diagonal block k, and for a
    short last block its leading corner is.
    """

    diag: np.ndarray
    subdiag: np.ndarray
    block_inv: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[0]


def band_cholesky(m: int, gamma: float) -> BandCholesky:
    """Factor I + gamma*W^T W for ``m`` frames, W the first-difference map.

    The matrix is tridiagonal with diagonal 1 + g*degree, the degrees
    being (1, 2, ..., 2, 1) or (0,) for one frame, and off-diagonal -g;
    its factor is lower-bidiagonal, so only the two bands are stored,
    plus the inverses of its diagonal blocks.  A short last block is
    inverted padded with identity rows.
    """
    if m < 1:
        raise ParameterError(f"need at least 1 frame, got {m}")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ParameterError(f"gamma must be finite and > 0, got {gamma}")
    degree = np.full(m, 2.0)
    degree[0] -= 1.0
    degree[-1] -= 1.0
    d = 1.0 + gamma * degree
    diag = np.empty(m)
    subdiag = np.empty(m - 1)
    diag[0] = np.sqrt(d[0])
    for i in range(1, m):
        subdiag[i - 1] = -gamma / diag[i - 1]
        diag[i] = np.sqrt(d[i] - subdiag[i - 1] ** 2)
    # invert every diagonal block at once by forward substitution on the identity; identity rows
    # pad the bands to whole blocks, so the last block's leading corner inverts L's short last block
    b = math.isqrt(m)
    n_blocks = -(-m // b)
    pad = n_blocks * b - m
    block_diag = np.append(diag, np.ones(pad)).reshape(n_blocks, b)
    block_sub = np.append(subdiag, np.zeros(pad + 1)).reshape(n_blocks, b)  # [k, i]: L[kb+i+1, kb+i]
    eye = np.eye(b)
    inv = np.empty((n_blocks, b, b))
    inv[:, 0] = eye[0] / block_diag[:, :1]
    for i in range(1, b):
        inv[:, i] = (eye[i] - block_sub[:, i - 1, None] * inv[:, i - 1]) / block_diag[:, i, None]
    return BandCholesky(diag=diag, subdiag=subdiag, block_inv=inv)


def project_constraint(
    omega: np.ndarray,
    q: np.ndarray,
    chol: BandCholesky,
    gamma: float,
    *,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Project (omega, q) onto the set {(z, s) : s = Wz}.

    Solves (I + gamma*W^T W) z = omega + gamma*W^T q with the banded
    factor, columnwise over the trailing axes, then rebuilds s from z so
    the constraint holds exactly.

    The substitutions are blocked: two batched matmuls apply the
    diagonal blocks' inverses (``chol.block_inv``), one over the full
    blocks and one over the possibly short last block, and a pass over
    the blocks adds the rank-one coupling between neighbours, once
    forward with L and once backward with L^T.  That is O(sqrt(M))
    Python steps.  Axes between the frame axis and the last one are
    batch axes of the matmuls, so, as in
    :meth:`~mrsi_cs.model.NormalFactor.solve`, each row of a weight stack
    is computed alike whatever the stack.

    ``out`` is an optional (z, s) pair of C-contiguous arrays shaped like
    ``omega`` and ``q`` to write the result into; it may be (omega, q)
    itself.  ``work`` is optional C-contiguous scratch shaped like ``omega``.
    """
    omega = np.asarray(omega, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = chol.n
    if omega.shape[0] != m or q.shape[0] != m - 1 or omega.shape[1:] != q.shape[1:]:
        raise ShapeError(
            f"projection shapes {omega.shape} / {q.shape} do not fit {m} frames"
        )
    if out is None:
        z, s = omega.copy(), np.empty_like(q)
    else:
        z, s = out
        if z is not omega:
            np.copyto(z, omega)
    g = np.empty_like(z) if work is None else work
    if not (z.flags.c_contiguous and g.flags.c_contiguous):
        raise ShapeError("projection output and work arrays must be C-contiguous")
    # z holds the right-hand side b = omega + gamma * W^T q
    if m > 1:
        z[0] -= gamma * q[0]
        z[-1] += gamma * q[-1]
    np.subtract(q[:-1], q[1:], out=g[1:-1])
    g[1:-1] *= gamma
    z[1:-1] += g[1:-1]
    cols = z.shape[-1] if z.ndim > 1 else 1
    _blocked_solve(chol, z.reshape(m, -1, cols), g.reshape(m, -1, cols))
    np.subtract(z[1:], z[:-1], out=s)
    return z, s


def _blocked_solve(chol: BandCholesky, z: np.ndarray, g: np.ndarray) -> None:
    """Overwrite the (M, rows, cols) right-hand side ``z`` with (L L^T)^-1 z; ``g`` is scratch."""
    e, inv = chol.subdiag, chol.block_inv
    m = chol.n
    n_blocks, b = inv.shape[:2]
    head = (n_blocks - 1) * b  # the first frame of the last block, which may be short
    full, last = inv[:-1, None], inv[-1:, None, : m - head, : m - head]

    def blocks(a):  # views of the full blocks, (n_blocks - 1, rows, b, cols), and of the last block
        full_blocks = a[:head].reshape(n_blocks - 1, b, *a.shape[1:])
        return full_blocks.swapaxes(1, 2), a[None, head:].swapaxes(1, 2)

    (z_full, z_last), (g_full, g_last) = blocks(z), blocks(g)
    # forward, L g = z: each block's inverse, then the coupling to the previous block's last row
    np.matmul(full, z_full, out=g_full)
    np.matmul(last, z_last, out=g_last)
    for k in range(1, n_blocks):
        end = min((k + 1) * b, m)
        g[k * b : end] -= (e[k * b - 1] * inv[k, : end - k * b, :1])[..., None] * g[k * b - 1]
    # backward, L^T z = g: the transposed inverses, then the coupling to the next block's first row
    np.matmul(full.swapaxes(2, 3), g_full, out=z_full)
    np.matmul(last.swapaxes(2, 3), g_last, out=z_last)
    for k in range(n_blocks - 2, -1, -1):
        nxt = (k + 1) * b
        z[k * b : nxt] -= (e[nxt - 1] * inv[k, -1, :, None])[..., None] * z[nxt]


def update_x_frame(
    aty_m: np.ndarray,
    factor: NormalFactor,
    z_m: np.ndarray,
    u_m: np.ndarray,
    alpha_m: np.ndarray,
    beta_m: np.ndarray,
    config: SolverConfig,
    lambda_x: np.ndarray | float,
    *,
    out: np.ndarray,
    work: np.ndarray,
    fixed: np.ndarray,
) -> np.ndarray:
    """Inner ADMM rounds of the per-frame x subproblem.

    ``aty_m`` is the precomputed Re(A^H y) for the frame and ``factor``
    its normal-matrix factor.  A data-free frame is given as a zero
    ``aty_m`` with a factor without columns and a zero ``lambda_x``: its
    solve reduces to a weighted average, and it is not shrunk (shrinking
    frames without data would drive them to zero).  ``alpha_m`` and
    ``beta_m`` are updated in place; the new x_m is returned.

    Every array may carry a leading frame axis, with ``factor`` stacked
    to match (:meth:`~mrsi_cs.model.FactorizationCache.stack`).  ``lambda_x``
    must be >= 0 (:func:`solve` checks its weights once); as an array it
    broadcasts against the iterates, e.g. shape (M, C, 1) for one weight
    per frame and row of (frame, C, N*J) iterates.  ``out`` receives x_m;
    ``work`` and ``fixed`` are scratch, the latter for the part
    rho1*(z - u) + Re(A^H y) of the right-hand side that the inner
    rounds share.  All three are shaped like ``alpha_m``.
    """
    rho1, mu = config.rho1, config.mu
    x_m, rhs = out, work
    threshold = np.divide(lambda_x, mu)
    np.subtract(z_m, u_m, out=fixed)
    fixed *= rho1
    fixed += aty_m
    for _ in range(config.inner_iters):
        # rhs = mu * (alpha - beta) + rho1 * (z - u) + Re(A^H y)
        np.subtract(alpha_m, beta_m, out=rhs)
        rhs *= mu
        rhs += fixed
        factor.solve(rhs, out=x_m)
        np.add(x_m, beta_m, out=alpha_m)
        _shrink(alpha_m, threshold, rhs)
        np.subtract(x_m, alpha_m, out=rhs)
        beta_m += rhs
    return x_m


def update_h(
    s: np.ndarray,
    nu: np.ndarray,
    config: SolverConfig,
    lambda_w1: np.ndarray | float | None = None,
    lambda_w2: np.ndarray | float | None = None,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form elastic-net proximal step for the difference variables.

    ``lambda_w1`` and ``lambda_w2`` replace the config's weights, must
    be >= 0 and may broadcast per row, as in :func:`update_x_frame`;
    ``out`` and ``work`` are optional arrays shaped like ``s`` for the
    result and for scratch.
    """
    if lambda_w1 is None:
        lambda_w1 = config.lambda_w1
    if lambda_w2 is None:
        lambda_w2 = config.lambda_w2
    scale = 1.0 + lambda_w2 / config.rho2
    threshold = lambda_w1 / (config.rho2 * scale)
    h = np.empty(np.broadcast_shapes(np.shape(s), np.shape(nu))) if out is None else out
    np.subtract(s, nu, out=h)
    h /= scale
    return _shrink(h, threshold, np.empty_like(h) if work is None else work)


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


def prepare(
    signals: SignalSet,
    schedule: SamplingSchedule,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    config: SolverConfig,
) -> tuple[np.ndarray, NormalFactor, np.ndarray, BandCholesky]:
    """Check a data set and build the set-up its solves share: (Re(A^H y), factor, has_data, chol).

    Of ``config`` only rho1 + mu and gamma enter.  The stacked factor
    builds each distinct point set's pieces once and keeps only its
    stack, so no per-point-set pieces live through the loop.
    """
    _prepared_inputs(signals, schedule, base, geometry)
    m_total = schedule.n_frames
    aty = np.zeros((m_total, geometry.n_voxels * base.n_substances))
    for m in schedule.acquired_index_set:
        aty[m] = apply_adjoint(signals.per_frame[m], schedule.frames[m], base, geometry)
    factor = FactorizationCache(base, geometry).stack(schedule.frames, config.rho1 + config.mu)
    has_data = np.array([f is not None for f in schedule.frames])
    return aty, factor, has_data, band_cholesky(m_total, config.gamma)


def solve(
    signals: SignalSet,
    schedule: SamplingSchedule,
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
    config: SolverConfig,
    weights: np.ndarray | None = None,
    prepared: tuple | None = None,
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

    ``prepared`` is the set-up :func:`prepare` built from the same data
    set and penalties, shared by several solves, e.g. the blocks of a CV
    fold; when it is None, this call prepares its own.
    """
    if prepared is None:
        prepared = prepare(signals, schedule, base, geometry, config)
    rows = _weight_rows(weights, config)
    x, logs = _iterate(rows, *prepared, config)
    values = x.reshape(len(rows), schedule.n_frames, geometry.n_voxels, base.n_substances)
    if weights is None:
        return SubstanceDistribution(values=values[0], geometry=geometry), logs[0]
    return values, logs


def _row_norms(a: np.ndarray) -> list[float]:
    """Euclidean norm of each row of (frame, row, N*J) iterates.

    One dot product per frame and row, summed over frames, so a row's
    norm does not depend on the other rows.
    """
    per_frame = (a[..., None, :] @ a[..., :, None])[..., 0, 0]  # (frame, row)
    return np.sqrt(np.ascontiguousarray(per_frame.T).sum(axis=-1)).tolist()


# (M, N*J) arrays per row that _iterate allocates: the state x, z, u, alpha, beta, s and nu,
# the work buffers omega and work, and one for the smaller per-row temporaries and residual logs
_ROW_STATE_ARRAYS = 10


def _iterate(
    weights: np.ndarray,
    aty: np.ndarray,
    factor: NormalFactor,
    has_data: np.ndarray,
    chol: BandCholesky,
    config: SolverConfig,
) -> tuple[np.ndarray, list[ResidualLog]]:
    """Outer iterations of a (C, 3) stack of weight rows, from the start point x = Re(A^H y).

    Returns the rows' (C, M, N*J) estimates and residual logs.  Every
    step writes into nine (M, N*J) arrays per row allocated here.  A
    row that meets ``stop_tol`` is copied out and dropped from the stack.
    The arrays are re-sliced one at a time, and the estimates are only
    gathered after the loop, so dropping rows costs about one (M, N*J)
    array per row on top of the loop's own peak.
    """
    n_rows = len(weights)
    m_total, n_unknown = aty.shape
    stopped_x = {}  # the estimates of rows dropped from the stack, by row
    # l1 thresholds per frame and row, zero on data-free frames; (C, 1) columns for the h step
    lambda_x = np.where(has_data[:, None, None], weights[None, :, :1], 0.0)
    lambda_w1, lambda_w2 = weights[:, 1:2], weights[:, 2:3]
    aty_rows = aty[:, None]
    # primal x, its copy z and dual u per frame; the differences' copy s and dual nu; the inner
    # splitting's copy alpha and dual beta; each laid out (frame, row, N*J).  omega is the
    # x-update's fixed right-hand side, then the differences h, then the projection's input and
    # output; work is scratch for every step.
    x = np.repeat(aty_rows, n_rows, axis=1)
    z = x.copy()
    u, alpha, beta = (np.zeros_like(x) for _ in range(3))
    omega, work = np.empty_like(x), np.empty_like(x)
    s, nu = (np.zeros((m_total - 1, n_rows, n_unknown)) for _ in range(2))
    logs = [ResidualLog() for _ in range(n_rows)]
    live = np.arange(n_rows)  # the weight row each stacked row belongs to
    denom = math.sqrt(m_total * n_unknown)

    for k in range(1, config.outer_iters + 1):
        update_x_frame(aty_rows, factor, z, u, alpha, beta, config, lambda_x, out=x, work=work, fixed=omega)
        # nu holds q = h + nu until the dual step: nu_new = q - s_new
        nu += update_h(s, nu, config, lambda_w1, lambda_w2, out=omega[:-1], work=work[:-1])
        np.add(x, u, out=omega)
        project_constraint(omega, nu, chol, config.gamma, out=(omega, s), work=work)
        # omega and s now hold the new z and s
        np.subtract(x, omega, out=work)
        gap = _row_norms(work)
        u += work
        np.subtract(omega, z, out=work)
        step = _row_norms(work)
        nu -= s
        z, omega = omega, z
        if not all(math.isfinite(v) for v in gap + step):
            raise DivergenceError(f"non-finite iterates at outer iteration {k}", iteration=k)
        for i, row in enumerate(live):
            logs[row].rms_x_minus_z.append(gap[i] / denom)
            logs[row].rms_z_delta.append(step[i] / denom)
        if config.stop_tol is not None:
            stopped = np.array(
                [xn > 0 and g / xn < config.stop_tol for g, xn in zip(gap, _row_norms(x))]
            )
            if stopped.all():
                break
            if stopped.any():
                stopped_x.update((live[i], x[:, i].copy()) for i in np.flatnonzero(stopped))
                keep = ~stopped
                state = [x, z, u, alpha, beta, omega, work, s, nu, lambda_x]
                del x, z, u, alpha, beta, omega, work, s, nu, lambda_x
                for i in range(len(state)):  # one at a time: each old array is freed before the next copy
                    state[i] = state[i].compress(keep, axis=1)
                x, z, u, alpha, beta, omega, work, s, nu, lambda_x = state
                del state
                lambda_w1, lambda_w2 = lambda_w1[keep], lambda_w2[keep]
                live = live[keep]
    del z, u, alpha, beta, omega, work, s, nu  # freed before the estimates are gathered
    out = np.empty((n_rows, m_total, n_unknown))
    out[live] = x.swapaxes(0, 1)
    for row, estimate in stopped_x.items():
        out[row] = estimate
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
    diff = x[1:] - x[:-1]
    total += config.lambda_w1 * float(np.abs(diff).sum())
    total += 0.5 * config.lambda_w2 * float((diff**2).sum())
    return total
