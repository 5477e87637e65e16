"""Core data model and the separable forward operator.

The measurement model links a per-frame substance distribution ``x``
(real, one amount per voxel and substance) to complex readout vectors:
every voxel's two-dimensional spectrum is a linear combination of
substance base spectra weighted by ``x``, and the acquired signal is the
multi-dimensional discrete Fourier transform of that spectrum, sampled
at one or more (evolution, k-space) points.  Because the spectrum
separates into (base spectrum) x (spatial map), each sample is the
product of the point's spatial DFT row and the base spectra's transform
at the point's evolution index.  That row (:func:`_point_rows`, built
from one small table per spatial axis) is the one piece the forward
operator, its adjoint and the normal-matrix factor share; no grid-sized
transform runs and no full-grid tensor is materialised.

All DFTs are unitary (numpy's ``norm="ortho"``), so the adjoint of the
sampling operator is its conjugate transpose with no extra scaling.

The solver's normal matrices Re(A^H A) + shift*I are kept in low-rank,
separable form: Re(A^H A) = V V^T with V = (Phi^T kron I_J) T, where
Phi holds the real and imaginary parts of each sampled point's spatial
DFT row and T is a small core built from the base spectra
(:func:`normal_matrix`).  V itself is never formed.  Only a stack of
many frames' pieces meets the shift, in one :class:`NormalFactor`
solved by small inverses (Woodbury).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DivergenceError, ParameterError, ScheduleError, ShapeError

__all__ = [
    "AcquisitionGeometry",
    "BaseSpectraSet",
    "SubstanceDistribution",
    "SamplePoint",
    "SamplingSchedule",
    "SignalSet",
    "apply_forward",
    "apply_adjoint",
    "normal_matrix",
    "NormalFactor",
    "FactorizationCache",
]


@dataclass(frozen=True)
class AcquisitionGeometry:
    """Static description of the acquisition grid.

    ``spatial_dims`` are voxel counts per spatial axis (their product is
    the voxel count N), ``spectral_evolution_points`` is the length of
    the indirect spectral axis sampled point by point, and
    ``readout_points`` the length of the direct spectral axis that is
    always acquired in full.
    """

    spatial_dims: tuple[int, ...]
    spectral_evolution_points: int
    readout_points: int

    def __post_init__(self):
        object.__setattr__(self, "spatial_dims", tuple(int(d) for d in self.spatial_dims))
        if not self.spatial_dims or any(d < 1 for d in self.spatial_dims):
            raise ParameterError("spatial_dims must be positive integers")
        if self.spectral_evolution_points < 1 or self.readout_points < 1:
            raise ParameterError("spectral axis lengths must be >= 1")

    @property
    def n_voxels(self) -> int:
        return math.prod(self.spatial_dims)


@dataclass(frozen=True)
class BaseSpectraSet:
    """Per-substance base spectra and their cached time-domain transforms.

    ``spectra`` has shape (J, N_C, N_RO) in the spectral domain; ``fid``
    is its unitary DFT along both spectral axes and is what the forward
    operator consumes.  ``readout_r`` holds, per evolution index d, the
    triangular (min(N_RO, J), J) QR factor R of the readout matrix
    ``fid[:, d, :].T``, from one batched QR; the normal-matrix pieces
    (:func:`normal_matrix`) are built from it.
    """

    spectra: np.ndarray
    fid: np.ndarray
    readout_r: np.ndarray

    @classmethod
    def from_spectra(cls, spectra: np.ndarray) -> "BaseSpectraSet":
        spectra = np.ascontiguousarray(np.asarray(spectra, dtype=np.complex128))
        if spectra.ndim != 3:
            raise ShapeError(f"spectra must be (J, N_C, N_RO); got shape {spectra.shape}")
        if not np.all(np.isfinite(spectra)):
            raise ShapeError("base spectra contain non-finite entries")
        if spectra.shape[0] < 1:
            raise ShapeError("need at least one substance")
        fid = np.fft.fft2(spectra, norm="ortho")
        return cls(spectra=spectra, fid=fid, readout_r=np.linalg.qr(fid.transpose(1, 2, 0), mode="r"))

    @property
    def n_substances(self) -> int:
        return self.spectra.shape[0]

    @property
    def n_evolution(self) -> int:
        return self.spectra.shape[1]

    @property
    def n_readout(self) -> int:
        return self.spectra.shape[2]


@dataclass(frozen=True)
class SubstanceDistribution:
    """Spatio-temporal amounts: real array (M, N, J) over frame, voxel, substance."""

    values: np.ndarray
    geometry: AcquisitionGeometry

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ShapeError("values must be real; got a complex array")
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ShapeError(f"values must be (M, N, J); got shape {v.shape}")
        if v.shape[1] != self.geometry.n_voxels:
            raise ShapeError(
                f"{v.shape[1]} voxels in values but geometry has {self.geometry.n_voxels}"
            )
        if not np.all(np.isfinite(v)):
            raise ShapeError("values contain non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_substances(self) -> int:
        return self.values.shape[2]

    def frame_matrix(self) -> np.ndarray:
        """View of the values as (M, N*J) with voxel index varying slowest."""
        m = self.values.shape[0]
        return self.values.reshape(m, -1)

    def spatial(self) -> np.ndarray:
        """The values reshaped to (M, *spatial_dims, J), without a copy when they are contiguous."""
        m, _, j = self.values.shape
        return self.values.reshape((m, *self.geometry.spatial_dims, j))


class SamplePoint(NamedTuple):
    """One sampled grid point: 1-based evolution index and 1-based k-space coordinates."""

    spectral_index: int
    k_index: tuple[int, ...]


def _check_point(point: SamplePoint, geometry: AcquisitionGeometry) -> None:
    d = point.spectral_index
    if not 1 <= d <= geometry.spectral_evolution_points:
        raise ScheduleError(
            f"spectral index {d} outside [1, {geometry.spectral_evolution_points}]"
        )
    if len(point.k_index) != len(geometry.spatial_dims):
        raise ScheduleError(
            f"k index {point.k_index} has {len(point.k_index)} axes, grid has "
            f"{len(geometry.spatial_dims)}"
        )
    for k, dim in zip(point.k_index, geometry.spatial_dims):
        if not 1 <= k <= dim:
            raise ScheduleError(f"k index {k} outside [1, {dim}]")


@dataclass(frozen=True)
class SamplingSchedule:
    """Ordered acquisition plan over M >= 1 frames.

    ``frames[m]`` is either ``None`` (gap: no data for that frame) or a
    tuple of :class:`SamplePoint`.  Repeated points are legal and each
    occurrence contributes its own measurement.
    """

    frames: tuple[tuple[SamplePoint, ...] | None, ...]
    frame_interval_s: float = 4.0

    def __post_init__(self):
        frames = tuple(
            None if f is None else tuple(SamplePoint(int(p[0]), tuple(int(c) for c in p[1])) for p in f)
            for f in self.frames
        )
        if not frames:
            raise ScheduleError("a schedule needs at least one frame")
        for m, f in enumerate(frames):
            if f is not None and len(f) == 0:
                raise ScheduleError(f"acquired frame {m} has no sample points")
        object.__setattr__(self, "frames", frames)
        if not (math.isfinite(self.frame_interval_s) and self.frame_interval_s > 0):
            raise ParameterError(
                f"frame_interval_s must be finite and > 0, got {self.frame_interval_s}"
            )

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def acquired_index_set(self) -> tuple[int, ...]:
        return tuple(m for m, f in enumerate(self.frames) if f is not None)

    @property
    def n_acquired(self) -> int:
        return len(self.acquired_index_set)

    def validate_geometry(self, geometry: AcquisitionGeometry) -> None:
        for f in self.frames:
            if f is None:
                continue
            for p in f:
                _check_point(p, geometry)


@dataclass(frozen=True)
class SignalSet:
    """Complex measured readouts keyed by acquired frame index."""

    per_frame: Mapping[int, np.ndarray]

    def __post_init__(self):
        data = {}
        for m, v in self.per_frame.items():
            v = np.asarray(v, dtype=np.complex128)
            if v.ndim != 1:
                raise ShapeError(f"signal for frame {m} must be a vector; got shape {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ShapeError(f"signal for frame {m} contains non-finite entries")
            data[int(m)] = v
        object.__setattr__(self, "per_frame", data)

    def validate_schedule(self, schedule: SamplingSchedule, n_readout: int) -> None:
        acquired = set(schedule.acquired_index_set)
        if set(self.per_frame) != acquired:
            raise ShapeError(
                f"signal frames {sorted(self.per_frame)} do not match acquired frames "
                f"{sorted(acquired)}"
            )
        for m in acquired:
            expect = len(schedule.frames[m]) * n_readout
            if self.per_frame[m].shape[0] != expect:
                raise ShapeError(
                    f"frame {m}: signal length {self.per_frame[m].shape[0]}, schedule "
                    f"implies {expect}"
                )

    def concatenated(self, schedule: SamplingSchedule) -> np.ndarray:
        """All samples as one vector, in schedule order."""
        return np.concatenate(
            [self.per_frame[m] for m in schedule.acquired_index_set]
            or [np.zeros(0, dtype=np.complex128)]
        )

    @classmethod
    def from_concatenated(
        cls, schedule: SamplingSchedule, vector: np.ndarray, n_readout: int
    ) -> "SignalSet":
        vector = np.asarray(vector, dtype=np.complex128).ravel()
        per_frame = {}
        offset = 0
        for m in schedule.acquired_index_set:
            n = len(schedule.frames[m]) * n_readout
            per_frame[m] = vector[offset : offset + n]
            offset += n
        if offset != vector.shape[0]:
            raise ShapeError(
                f"signal vector has {vector.shape[0]} samples, schedule implies {offset}"
            )
        return cls(per_frame=per_frame)


@functools.lru_cache(maxsize=None)
def _inverse_dft_table(n: int) -> np.ndarray:
    """Read-only; row k is the unitary inverse DFT of an impulse at k, the conjugate of the forward row k."""
    table = np.fft.ifft(np.eye(n, dtype=np.complex128), norm="ortho")
    table.flags.writeable = False
    return table


def _point_rows(frame_points: Sequence[SamplePoint], geometry: AcquisitionGeometry) -> np.ndarray:
    """(P, N) complex: row p is the inverse spatial DFT of a unit impulse at point p's k index.

    Each row is the outer product of one table row per spatial axis,
    the first axis varying slowest, as voxels are laid out.
    """
    for point in frame_points:
        _check_point(point, geometry)
    n_points = len(frame_points)
    rows = None
    for axis, n in enumerate(geometry.spatial_dims):
        axis_rows = _inverse_dft_table(n)[[point.k_index[axis] - 1 for point in frame_points]]
        rows = axis_rows if rows is None else (rows[:, :, None] * axis_rows[:, None, :]).reshape(n_points, -1)
    return rows


def _evolution_fid(frame_points: Sequence[SamplePoint], base: BaseSpectraSet) -> np.ndarray:
    """(P, J, N_RO): the base spectra's readouts at each point's evolution index."""
    return base.fid[:, [point.spectral_index - 1 for point in frame_points], :].transpose(1, 0, 2)


def apply_forward(
    x_m: np.ndarray,
    frame_points: Sequence[SamplePoint],
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
) -> np.ndarray:
    """Predicted complex readouts for one frame.

    For each sampled point (d, k) the output block over the readout axis
    is  sum_j  Xhat_j(k) * fid_j(d, :),  where Xhat_j(k) is the unitary
    spatial DFT of the j-th substance map at k: the point's row
    (:func:`_point_rows`), conjugated, times the map.  Output blocks
    follow the order of ``frame_points``.  ``x_m`` may carry leading
    axes, e.g. one row per weight triple of a stacked solve; the output
    keeps them.
    """
    base_check(base, geometry)
    n, j = geometry.n_voxels, base.n_substances
    x_m = np.asarray(x_m, dtype=np.float64)
    if x_m.shape[-1:] != (n * j,):
        raise ShapeError(f"x_m must have length N*J = {n * j} on its last axis; got {x_m.shape}")
    lead = x_m.shape[:-1]
    weights = np.conj(_point_rows(frame_points, geometry)) @ x_m.reshape(*lead, n, j)  # (..., P, J)
    out = weights[..., None, :] @ _evolution_fid(frame_points, base)  # (..., P, 1, N_RO)
    return out.reshape(*lead, -1)


def apply_adjoint(
    residual: np.ndarray,
    frame_points: Sequence[SamplePoint],
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
) -> np.ndarray:
    """Real part of the conjugate-transpose action on a residual vector.

    Each point's readout block is correlated with the base spectra at
    its evolution index, giving J weights, and spread over the voxels by
    the point's row (:func:`_point_rows`); repeated points accumulate.
    Returns a real vector of length N*J matching the ``x_m`` layout of
    :func:`apply_forward`.
    """
    base_check(base, geometry)
    residual = np.asarray(residual, dtype=np.complex128).ravel()
    n_points, n_ro = len(frame_points), base.n_readout
    if residual.shape[0] != n_points * n_ro:
        raise ShapeError(f"residual has {residual.shape[0]} samples, expected {n_points * n_ro}")
    blocks = residual.reshape(n_points, n_ro, 1)
    coeff = np.conj(_evolution_fid(frame_points, base)) @ blocks  # (P, J, 1)
    return (_point_rows(frame_points, geometry).T @ coeff[..., 0]).real.reshape(-1)


def base_check(base: BaseSpectraSet, geometry: AcquisitionGeometry) -> None:
    if base.n_evolution != geometry.spectral_evolution_points or (
        base.n_readout != geometry.readout_points
    ):
        raise ShapeError(
            f"base spectra grid ({base.n_evolution}, {base.n_readout}) does not match "
            f"geometry ({geometry.spectral_evolution_points}, {geometry.readout_points})"
        )


class NormalFactor:
    """shift*I + V V^T, with V V^T = Re(A^H A) of a frame, solved by the Woodbury identity.

    V = (Phi^T kron I_J) T is given by its separable pieces (see
    :func:`normal_matrix`): ``phi``, the 2P x N real DFT rows of the
    frame's P points, and ``core``, the 2P*J x w matrix T.  With the
    small w x w matrix K = shift*I + T^T (Phi Phi^T kron I_J) T and
    S = T K^-1 T^T (2P*J x 2P*J), kept as ``s``,

        (shift*I + V V^T)^-1 (shift * r) = r - (Phi^T kron I_J) S (Phi kron I_J) r,

    so ``solve`` takes a right-hand side r already divided by shift.
    The pieces may carry leading axes (see :meth:`FactorizationCache.stack`):
    every K of the stack is inverted in one batched call, and ``solve``
    takes right-hand sides that broadcast against them and writes to a
    caller's buffer; it allocates no result.  ``index`` places the
    pieces' leading frame axis on the iterates' frames: the default
    ``slice(None)`` takes every frame, and an integer array names the
    frames with data, the others having V = 0.  A singular K raises
    :class:`DivergenceError`.
    """

    def __init__(
        self, phi: np.ndarray, core: np.ndarray, shift: float, index: slice | np.ndarray = slice(None)
    ):
        if not (shift > 0 and math.isfinite(shift)):
            raise ParameterError(f"shift must be finite and > 0, got {shift}")
        self.phi = phi
        self.core = core
        self.shift = shift
        self.index = index
        *lead, height, width = core.shape
        n_rows = phi.shape[-2]
        j = height // n_rows if n_rows else 0  # a factor without point rows has an empty core
        # (Phi Phi^T kron I_J) T: the 2P x 2P point Gram mixes T's J-row blocks
        mixed = (phi @ phi.swapaxes(-1, -2)) @ core.reshape(*lead, n_rows, j * width)
        k = core.swapaxes(-1, -2) @ mixed.reshape(core.shape)
        k[..., np.arange(width), np.arange(width)] += shift
        try:
            k_inv = np.linalg.inv(k)
        except np.linalg.LinAlgError as err:
            # finite but huge base spectra with a repeated point round K to a singular matrix
            raise DivergenceError("normal matrix factor is singular in floating point", iteration=0) from err
        self.s = core @ k_inv @ core.swapaxes(-1, -2)

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(shift*I + V V^T)^-1 (shift * rhs) over the trailing N*J axis, written to and returned as ``out``.

        ``rhs`` is read as (..., N, J), voxel rows and substance
        columns, so every product is a matrix product per leading index:
        an axis of ``rhs`` that the pieces broadcast over (e.g. the
        weight rows of a stacked solve, against their unit axis) stays a
        batch axis.  A stacked factor's right-hand sides are its own
        frames, those ``index`` names.  ``out`` is a contiguous float
        array, distinct from ``rhs``, of the shape ``rhs`` broadcasts to
        against the pieces' leading axes.  Every row goes through the same
        BLAS kernel, and its result does not depend on how many rows are
        stacked.  Only (..., 2P, J) temporaries are allocated besides ``out``.
        """
        r = rhs.reshape(*rhs.shape[:-1], self.phi.shape[-1], -1)
        g = self.phi @ r  # (Phi kron I_J) rhs as (..., 2P, J)
        h = self.s @ g.reshape(*g.shape[:-2], -1, 1)
        prod = out.reshape(*out.shape[:-1], *r.shape[-2:])  # a view of a contiguous ``out``
        np.matmul(self.phi.swapaxes(-1, -2), h.reshape(g.shape), out=prod)
        np.subtract(rhs, out, out=out)
        return out


def normal_matrix(
    frame_points: Sequence[SamplePoint],
    base: BaseSpectraSet,
    geometry: AcquisitionGeometry,
) -> tuple[np.ndarray, np.ndarray]:
    """The separable pieces (Phi, T) of one frame's V, V V^T = Re(A^H A), V = (Phi^T kron I_J) T.

    Per point the complex Gram is kron(conj(f) f^T, R^H R), with f the
    point's spatial DFT row (:func:`_point_rows`, the row the forward
    operator and its adjoint apply) and R the triangular QR factor of
    the base spectra's readout matrix at the point's evolution index
    (``base.readout_r``).  Its real part is C_r C_r^T + C_i C_i^T for
    C = kron(f, conj(R^T)).  Writing f = a + ib and R^T = X + iY,
    [C_r, C_i] = (Phi_p^T kron I_J) T_p with Phi_p = [a; b] (2 x N) and
    the real 2J x 2r core T_p = [[X, -Y], [Y, X]] (r = min(N_RO, J)).
    Points stack their rows of Phi (2P x N) and their cores block by
    block on the diagonal of T (2P*J x 2P*r).  The pieces depend only on
    the points (not on frame index, data or the solver's shift), so the
    frames of one stack that sample the same points share them
    (:meth:`FactorizationCache.stack`).
    """
    base_check(base, geometry)
    rows = _point_rows(frame_points, geometry)
    phi = np.stack([rows.real, rows.imag], axis=1).reshape(2 * len(rows), -1)
    r_t = base.readout_r[[point.spectral_index - 1 for point in frame_points]].swapaxes(-1, -2)  # X + iY
    # [[X, -Y], [Y, X]] per point, (P, 2J, 2r); np.block builds the same array at three times the cost
    x, y = r_t.real, r_t.imag
    blocks = np.concatenate([np.concatenate([x, -y], -1), np.concatenate([y, x], -1)], -2)
    n_points, height, width = blocks.shape
    core = np.zeros((n_points, height, n_points, width))
    core[np.arange(n_points), :, np.arange(n_points)] = blocks
    return phi, core.reshape(n_points * height, n_points * width)


class FactorizationCache:
    """Builds one stacked factor (:meth:`stack`) over a schedule's frames; it keeps no pieces.

    :meth:`get` builds one point set's pieces (:func:`normal_matrix`).
    The readout QR factors they are built from live with the base
    spectra, and the spatial DFT rows come from per-axis tables shared
    by the whole process.
    """

    def __init__(self, base: BaseSpectraSet, geometry: AcquisitionGeometry):
        self.base = base
        self.geometry = geometry

    def get(self, frame_points: Iterable[SamplePoint]) -> tuple[np.ndarray, np.ndarray]:
        return normal_matrix(tuple(frame_points), self.base, self.geometry)

    def stack(self, frames: Sequence[tuple[SamplePoint, ...] | None], shift: float) -> NormalFactor:
        """One factor of ``shift`` over a schedule's frames with data, their pieces stacked on a leading axis.

        Phi is laid out (frame, 1, 2P, N) and T (frame, 1, 2P*J, width)
        over the D frames with data, P the most points of any frame.  The
        unit axis broadcasts over the rows of (frame, row, N*J) iterates,
        and the factor's ``index`` places the stack on their frame axis:
        ``slice(None)`` when every frame has data, else the D frame
        numbers.  A data-free (``None``) frame has no pieces.  Each
        distinct point set is built once, by :meth:`get` in first-seen
        order, and copied to every frame that samples it; frames with
        fewer points get zero rows of Phi and zero rows and columns of T,
        which leave their solves unchanged.
        """
        data = [m for m, points in enumerate(frames) if points is not None]
        pieces = {points: self.get(points) for points in dict.fromkeys(frames[m] for m in data)}
        n_rows = max((len(phi) for phi, _ in pieces.values()), default=0)
        width = max((core.shape[1] for _, core in pieces.values()), default=0)
        phi_stack = np.zeros((len(data), 1, n_rows, self.geometry.n_voxels))
        core_stack = np.zeros((len(data), 1, n_rows * self.base.n_substances, width))
        for k, m in enumerate(data):
            phi, core = pieces[frames[m]]
            phi_stack[k, 0, : len(phi)] = phi
            core_stack[k, 0, : len(core), : core.shape[1]] = core
        index = slice(None) if len(data) == len(frames) else np.array(data, dtype=np.intp)
        return NormalFactor(phi_stack, core_stack, shift, index)
