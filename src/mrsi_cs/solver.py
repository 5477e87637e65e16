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
products per frame with data; the inner rounds run over those frames alone.
A data-free frame is not shrunk: its inner copy and dual stay x and 0, and
it takes a weighted average per round.  1/shift is folded into the
right-hand side's coefficients, and the inner dual is a clip.

The outer loop runs in place: each step writes into arrays allocated
once per solve, and the projection's banded substitution is blocked
(:func:`project_constraint`), so an iteration takes about M / B Python
steps, B >= isqrt(M) frames per block.  Narrow iterates take larger
blocks (:func:`band_cholesky`): a short CV fold solves in one dense block.

The three weights only set thresholds and the h-step scale, so
:func:`solve` can run a stack of C weight triples in lockstep: the
iterates are laid out (frame, row, N*J), the weights broadcast per
row, and the checks, adjoints, factors and banded Cholesky factor form
one set-up (:func:`prepare`) that solves may share.  Rows never mix,
and every product keeps the row axis as a batch axis, so each row's
result does not depend on the stack it ran in.  The loop holds seven
(M, N*J) arrays per row (five of state, two work buffers) and two over
the frames with data (``_ROW_STATE_ARRAYS`` counts them with the
smaller temporaries), so the caller bounds C to bound the memory (the
CV sweep prepares each fold once and solves its grid in blocks that
reuse it); a solve without a stack is the C = 1 case.
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
    ``len(block_inv)`` = ceil(M / B) blocks of B frames, B as
    :func:`band_cholesky` picks it, the last one short when B does not
    divide M; ``block_inv[k]`` is the dense lower-triangular inverse of
    L's diagonal block k, and for a short last block its leading corner
    is.  ``forward[k - 1]`` couples block k to the previous block's last
    row (L[kB, kB-1] times the first column of ``block_inv[k]``) and
    ``backward[k]`` couples block k to the next block's first row
    (L[(k+1)B, (k+1)B-1] times the last row of ``block_inv[k]``); both
    are (ceil(M / B) - 1, B, 1, 1), to broadcast over the iterates'
    trailing axes.
    """

    diag: np.ndarray
    subdiag: np.ndarray
    block_inv: np.ndarray
    forward: np.ndarray
    backward: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.shape[0]


# B * B * (N*J) multiply-adds, one row's dense block product, cost about one Python-level coupling step
_BLOCK_ELEMENTS = 2**16


def band_cholesky(m: int, gamma: float, width: int | None = None) -> BandCholesky:
    """Factor I + gamma*W^T W for ``m`` frames, W the first-difference map.

    The matrix is tridiagonal with diagonal 1 + g*degree, the degrees
    being (1, 2, ..., 2, 1) or (0,) for one frame, and off-diagonal -g;
    its factor is lower-bidiagonal, so only the two bands are stored,
    plus the inverses of its diagonal blocks.  A short last block is
    inverted padded with identity rows.

    The blocks hold B = isqrt(m) frames.  ``width``, the iterates' row
    width N*J (an integer >= 1), raises B to min(m, isqrt(2**16 // width))
    where that is larger: a block grows while its dense product costs
    about as much as a coupling step.  B never depends on the number of
    weight rows, so rows do not mix.
    """
    if m < 1:
        raise ParameterError(f"need at least 1 frame, got {m}")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ParameterError(f"gamma must be finite and > 0, got {gamma}")
    b = math.isqrt(m)
    if width is not None:
        if isinstance(width, bool) or not isinstance(width, numbers.Integral) or width < 1:
            raise ParameterError(f"width must be an integer >= 1, got {width!r}")
        b = min(m, max(b, math.isqrt(_BLOCK_ELEMENTS // width)))
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
    n_blocks = -(-m // b)
    pad = n_blocks * b - m
    block_diag = np.append(diag, np.ones(pad)).reshape(n_blocks, b)
    block_sub = np.append(subdiag, np.zeros(pad + 1)).reshape(n_blocks, b)  # [k, i]: L[kb+i+1, kb+i]
    eye = np.eye(b)
    inv = np.empty((n_blocks, b, b))
    inv[:, 0] = eye[0] / block_diag[:, :1]
    for i in range(1, b):
        inv[:, i] = (eye[i] - block_sub[:, i - 1, None] * inv[:, i - 1]) / block_diag[:, i, None]
    # the coupling coefficients of the substitution's passes between neighbouring blocks
    nxt = np.arange(1, n_blocks) * b  # the first frame of blocks 1, 2, ...
    forward = subdiag[nxt - 1, None, None] * inv[1:, :, :1]
    backward = subdiag[nxt - 1, None, None] * inv[:-1, -1, :, None]
    return BandCholesky(
        diag=diag, subdiag=subdiag, block_inv=inv, forward=forward[..., None], backward=backward[..., None]
    )


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
    forward with L and once backward with L^T.  That is 2 (ceil(M / B) - 1)
    Python steps, none when one block holds every frame.  Axes between
    the frame axis and the last one are batch axes of the matmuls, so, as in
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
    inv = chol.block_inv
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
        g[k * b : end] -= chol.forward[k - 1, : end - k * b] * g[k * b - 1]
    # backward, L^T z = g: the transposed inverses, then the coupling to the next block's first row
    np.matmul(full.swapaxes(2, 3), g_full, out=z_full)
    np.matmul(last.swapaxes(2, 3), g_last, out=z_last)
    for k in range(n_blocks - 2, -1, -1):
        z[k * b : (k + 1) * b] -= chol.backward[k] * z[(k + 1) * b]


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

    ``aty_m`` is the precomputed Re(A^H y) / shift for the frame, shift
    being ``factor.shift`` = rho1 + mu, and ``factor`` its normal-matrix
    factor.  ``alpha_m`` and ``beta_m`` are updated in place; ``out``
    receives the new x_m, which is returned.  Each round solves with the
    right-hand side already divided by shift, then takes the dual as
    beta = clip(x + beta, -t, t) and alpha = (x + beta) - beta, the
    soft-threshold of x + beta at t = lambda_x / mu (Boyd et al. 2011, 6.4).

    Every array may carry a leading frame axis, with ``factor`` stacked
    to match (:meth:`~mrsi_cs.model.FactorizationCache.stack`).  When its
    ``index`` names the frames with data, ``alpha_m`` and ``beta_m`` hold
    those frames only, and the rounds run over them alone, solving into
    ``work``: the call gathers their part of ``fixed`` once and scatters
    their x into ``out`` once.  A data-free frame is not shrunk (that would
    drive it to zero), so alpha = x and beta = 0 there, and each round
    takes x = (mu/shift) x + (rho1/shift) (z - u) from the x ``out`` holds
    on entry.  ``lambda_x`` must be >= 0 (:func:`solve` checks its weights
    once); as an array it broadcasts against the iterates, e.g. as (C,
    N*J) rows or (C, 1) columns, one per row of (frame, C, N*J) iterates.
    ``work`` and ``fixed`` are scratch shaped like ``out``, the latter for
    the shared part (rho1 (z - u) + Re(A^H y)) / shift of the rounds.
    """
    x_m, data = out, factor.index
    c_mu, c_rho = config.mu / factor.shift, config.rho1 / factor.shift
    threshold = np.divide(lambda_x, config.mu)
    np.subtract(z_m, u_m, out=fixed)
    fixed *= c_rho
    fixed += aty_m
    gapped = not isinstance(data, slice)
    fixed_data, x_data = (np.take(fixed, data, axis=0), work[: len(data)]) if gapped else (fixed, x_m)
    for _ in range(config.inner_iters):
        # the right-hand side, formed in alpha: c_mu * (alpha - beta) + fixed
        alpha_m -= beta_m
        alpha_m *= c_mu
        alpha_m += fixed_data
        factor.solve(alpha_m, x_data)
        np.add(x_data, beta_m, out=alpha_m)
        _shrink(alpha_m, threshold, beta_m)
    if gapped:
        for _ in range(config.inner_iters):  # the data-free frames, where alpha = x and beta = 0
            x_m *= c_mu
            x_m += fixed
        x_m[data] = x_data
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
) -> tuple[np.ndarray, NormalFactor, BandCholesky]:
    """Check a data set and build the set-up its solves share: (Re(A^H y) / shift, factor, chol).

    Re(A^H y) / shift, shift = rho1 + mu being the factor's, is the
    x-update's data term.  Of ``config`` only rho1 + mu and gamma enter.
    The stacked factor builds each distinct point set's pieces once and
    keeps only its stack, so no per-point-set pieces live through the
    loop; its ``index`` names the frames with data.  The band factor's
    blocks are sized by the row width N*J (:func:`band_cholesky`).
    """
    _prepared_inputs(signals, schedule, base, geometry)
    m_total = schedule.n_frames
    aty = np.zeros((m_total, geometry.n_voxels * base.n_substances))
    for m in schedule.acquired_index_set:
        aty[m] = apply_adjoint(signals.per_frame[m], schedule.frames[m], base, geometry)
    factor = FactorizationCache(base, geometry).stack(schedule.frames, config.rho1 + config.mu)
    aty /= factor.shift
    return aty, factor, band_cholesky(m_total, config.gamma, aty.shape[1])


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


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of (frame, row, N*J) iterates.

    One dot product per frame and row, summed over frames, so a row's
    norm does not depend on the other rows.
    """
    per_frame = (a[..., None, :] @ a[..., :, None])[..., 0, 0]  # (frame, row)
    return np.sqrt(np.ascontiguousarray(per_frame.T).sum(axis=-1))


# (M, N*J) arrays per row that _iterate allocates: x, z, u, s, nu, omega and work, alpha and beta
# (over the frames with data only), and one for the smaller per-row temporaries and residual logs
_ROW_STATE_ARRAYS = 10


def _iterate(
    weights: np.ndarray,
    aty: np.ndarray,
    factor: NormalFactor,
    chol: BandCholesky,
    config: SolverConfig,
) -> tuple[np.ndarray, list[ResidualLog]]:
    """Outer iterations of a (C, 3) stack of weight rows, from the start point x = Re(A^H y).

    ``aty`` is :func:`prepare`'s Re(A^H y) / shift, and shift times it is
    the start point (up to rounding).  Returns the rows' (C, M, N*J)
    estimates and residual logs.  Every step writes into seven (M, N*J)
    arrays per row allocated here and two over the frames with data.  A
    row that meets ``stop_tol`` is copied out and dropped from the stack.
    The arrays are re-sliced one at a time, and the estimates are only
    gathered after the loop, so dropping rows costs about one (M, N*J)
    array per row on top of the loop's own peak.
    """
    n_rows = len(weights)
    m_total, n_unknown = aty.shape
    stopped_x = {}  # the estimates of rows dropped from the stack, by row
    # the weights as (1, 1) columns for one row, else (C, N*J) rows: ufuncs buffer them, yet beat (C, 1) columns
    lambda_x, lambda_w1, lambda_w2 = (
        weights[:, k : k + 1] if n_rows == 1 else np.repeat(weights[:, k : k + 1], n_unknown, axis=1) for k in range(3)
    )
    # primal x, its copy z and dual u per frame; the differences' copy s and dual nu; the inner
    # splitting's copy alpha and dual beta over the frames with data; each laid out (frame, row, N*J).
    # omega is the x-update's fixed right-hand side, then the differences h, then the projection's
    # input and output; work is scratch for every step.
    x = np.repeat(aty[:, None], n_rows, axis=1)
    x *= factor.shift
    z = x.copy()
    u = np.zeros_like(x)
    alpha, beta = (np.zeros((len(factor.phi), n_rows, n_unknown)) for _ in range(2))
    omega, work = np.empty_like(x), np.empty_like(x)
    s, nu = (np.zeros((m_total - 1, n_rows, n_unknown)) for _ in range(2))
    logs = [ResidualLog() for _ in range(n_rows)]
    live = np.arange(n_rows)  # the weight row each stacked row belongs to
    denom = math.sqrt(m_total * n_unknown)

    for k in range(1, config.outer_iters + 1):
        update_x_frame(aty[:, None], factor, z, u, alpha, beta, config, lambda_x, out=x, work=work, fixed=omega)
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
        if not np.isfinite(gap.sum() + step.sum()):  # a finite norm is below 1.4e154: the sum cannot overflow
            raise DivergenceError(f"non-finite iterates at outer iteration {k}", iteration=k)
        for row, rms_gap, rms_step in zip(live, (gap / denom).tolist(), (step / denom).tolist()):
            logs[row].rms_x_minus_z.append(rms_gap)
            logs[row].rms_z_delta.append(rms_step)
        if config.stop_tol is not None:
            stopped = np.array(
                [xn > 0 and g / xn < config.stop_tol for g, xn in zip(gap, _row_norms(x))]
            )
            if stopped.all():
                break
            if stopped.any():
                stopped_x.update((live[i], x[:, i].copy()) for i in np.flatnonzero(stopped))
                keep = ~stopped
                state = [x, z, u, alpha, beta, omega, work, s, nu, lambda_x, lambda_w1, lambda_w2]
                del x, z, u, alpha, beta, omega, work, s, nu, lambda_x, lambda_w1, lambda_w2
                for i in range(len(state)):  # one at a time: each old array is freed before the next copy
                    state[i] = state[i].compress(keep, axis=-2)  # the row axis
                x, z, u, alpha, beta, omega, work, s, nu, lambda_x, lambda_w1, lambda_w2 = state
                del state
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
