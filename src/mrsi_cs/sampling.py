"""Undersampling schedule design.

Sample points are drawn from an unscrambled Sobol sequence over the
undersampled axes (spectral evolution plus the spatial k-axes).  The
spectral coordinate is pushed through an exponential index transform so
early evolution indices (higher signal) are sampled more often, with
P(d) proportional to psi**d; the spatial coordinates are quantized
uniformly.

The Sobol generator is numpy only.  Its direction numbers are the
Joe & Kuo (2008, SIAM J. Sci. Comput. 30(5)) primitive polynomials and
initial values for up to ``SOBOL_MAX_DIM`` = 8 dimensions, embedded
below, at 30-bit resolution: coordinates are multiples of 2**-30 and at
most 2**30 points exist (``skip + n``).  Points follow the gray-code
order, so a sequence is reproducible given (n, d, skip) and equals
scipy's ``qmc.Sobol(d, scramble=False)`` bit for bit.

The module does no file I/O: :mod:`mrsi_cs.configio` reads and writes a
schedule's JSON form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError
from .model import AcquisitionGeometry, SamplePoint, SamplingSchedule

SOBOL_BITS = 30
SOBOL_MAX_POINTS = 2**SOBOL_BITS
# Joe & Kuo (2008) direction numbers for dimensions 2..8: the primitive
# polynomial over GF(2) as an integer (bit i is the coefficient of x**i),
# and the initial m_1..m_s for its degree s.  Dimension 1 is the van der
# Corput sequence (every m_j = 1).
_JOE_KUO = (
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
)
SOBOL_MAX_DIM = len(_JOE_KUO) + 1

__all__ = [
    "SamplerConfig",
    "default_psi",
    "sobol_sequence",
    "spectral_index_transform",
    "build_schedule",
]


def default_psi(n_evolution: int) -> float:
    """Decay parameter exp(-4 / N_C) used unless overridden."""
    return math.exp(-4.0 / n_evolution)


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of the schedule generator.

    ``dims`` lists the undersampled axis sizes, spectral evolution axis
    first, then the spatial axes.  ``gap_spec`` inserts acquisition-free
    frame runs as (start_frame, length) pairs in final frame numbering.
    ``frame_interval_s`` passes to the schedule, which checks it.
    """

    n_points: int
    dims: tuple[int, ...]
    psi: float | None = None
    skip: int = 0
    gap_spec: tuple[tuple[int, int], ...] = ()
    frame_interval_s: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(
            self, "gap_spec", tuple((int(a), int(b)) for a, b in self.gap_spec)
        )
        if self.n_points < 1:
            raise ParameterError("n_points must be >= 1")
        if len(self.dims) < 2:
            raise ParameterError("dims needs the spectral axis and at least one spatial axis")
        if any(d < 1 for d in self.dims):
            raise ParameterError("all dims must be >= 1")
        psi = self.psi if self.psi is not None else default_psi(self.dims[0])
        if not 0.0 < psi < 1.0:
            raise ParameterError(f"psi must lie in (0, 1), got {psi}")
        object.__setattr__(self, "psi", float(psi))
        if self.skip < 0:
            raise ParameterError("skip must be >= 0")
        if len(self.dims) > SOBOL_MAX_DIM:
            raise ParameterError(
                f"dims has {len(self.dims)} axes; the Sobol table covers at most {SOBOL_MAX_DIM}"
            )
        if self.skip + self.n_points > SOBOL_MAX_POINTS:
            raise ParameterError(
                f"skip + n_points must be <= 2**{SOBOL_BITS}, got {self.skip + self.n_points}"
            )

    @property
    def total_gap(self) -> int:
        return sum(length for _, length in self.gap_spec)

    @property
    def n_frames(self) -> int:
        return self.n_points + self.total_gap


def _direction_numbers(d: int) -> np.ndarray:
    """(bits, d) direction numbers v_j = m_j * 2**(bits - j), j = 1..bits."""
    m = np.ones((SOBOL_BITS, d), dtype=np.uint64)
    for axis, (poly, m_init) in enumerate(_JOE_KUO[: d - 1], start=1):
        s = len(m_init)
        col = list(m_init)
        for j in range(s, SOBOL_BITS):
            # m_j = 2 a_1 m_{j-1} ^ 4 a_2 m_{j-2} ^ ... ^ 2**s m_{j-s} ^ m_{j-s}
            new = col[j - s] ^ (col[j - s] << s)
            for k in range(1, s):
                if (poly >> (s - k)) & 1:
                    new ^= col[j - k] << k
            col.append(new)
        m[:, axis] = col
    return m << np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint64)[:, None]


def sobol_sequence(n: int, d: int, skip: int = 0) -> np.ndarray:
    """First ``n`` points of the d-dimensional Sobol sequence after ``skip``.

    Deterministic (no scrambling).  Coordinates lie in [0, 1).  Point i
    XORs the direction numbers picked by the bits of gray(i) = i ^ (i >> 1).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not 1 <= d <= SOBOL_MAX_DIM:
        raise ParameterError(f"unsupported Sobol dimension {d}: must lie in [1, {SOBOL_MAX_DIM}]")
    if skip < 0:
        raise ParameterError("skip must be >= 0")
    if skip + n > SOBOL_MAX_POINTS:
        raise ParameterError(f"skip + n must be <= 2**{SOBOL_BITS}, got {skip + n}")
    index = np.arange(skip, skip + n, dtype=np.uint64)
    gray = index ^ (index >> np.uint64(1))
    directions = _direction_numbers(d)
    ints = np.zeros((n, d), dtype=np.uint64)
    for bit in range(int(skip + n - 1).bit_length()):
        ints ^= ((gray >> np.uint64(bit)) & np.uint64(1))[:, None] * directions[bit]
    return ints / float(SOBOL_MAX_POINTS)


def spectral_index_transform(eta: float, n_c: int, psi: float) -> int:
    """Map a uniform coordinate to a 1-based evolution index.

    d = floor( log(1 - (1 - psi**n_c) * eta) / log(psi) ) + 1, which for
    uniform eta gives P(d) proportional to psi**d on {1, ..., n_c}.
    """
    if not 0.0 <= eta < 1.0:
        raise ParameterError(f"eta must lie in [0, 1), got {eta}")
    if not 0.0 < psi < 1.0:
        raise ParameterError(f"psi must lie in (0, 1), got {psi}")
    if n_c < 1:
        raise ParameterError("n_c must be >= 1")
    d = math.floor(math.log1p(-(1.0 - psi**n_c) * eta) / math.log(psi)) + 1
    return min(max(d, 1), n_c)


def _gap_frames(config: SamplerConfig) -> set[int]:
    n_frames = config.n_frames
    gaps: set[int] = set()
    for start, length in config.gap_spec:
        if length < 1:
            raise ConfigError(f"gap at {start} has non-positive length {length}")
        if start < 0 or start + length > n_frames:
            raise ConfigError(
                f"gap ({start}, {length}) exceeds the {n_frames}-frame schedule"
            )
        span = set(range(start, start + length))
        if gaps & span:
            raise ConfigError(f"gap ({start}, {length}) overlaps another gap")
        gaps |= span
    return gaps


def build_schedule(config: SamplerConfig, geometry: AcquisitionGeometry) -> SamplingSchedule:
    """Deterministic schedule: one Sobol-derived point per acquired frame.

    Gap frames carry no data; every other frame receives the next point
    of the sequence in order.
    """
    expected = (geometry.spectral_evolution_points, *geometry.spatial_dims)
    if config.dims != expected:
        raise ConfigError(
            f"sampler dims {config.dims} do not match geometry axes {expected}"
        )
    gaps = _gap_frames(config)
    points = sobol_sequence(config.n_points, len(config.dims), config.skip)
    spectral = [
        spectral_index_transform(eta, config.dims[0], config.psi)
        for eta in points[:, 0]
    ]
    spatial = [
        tuple(int(math.floor(eta * dim)) + 1 for eta, dim in zip(row, config.dims[1:]))
        for row in points[:, 1:]
    ]
    frames: list[tuple[SamplePoint, ...] | None] = []
    cursor = 0
    for m in range(config.n_frames):
        if m in gaps:
            frames.append(None)
        else:
            frames.append((SamplePoint(spectral[cursor], spatial[cursor]),))
            cursor += 1
    return SamplingSchedule(frames=tuple(frames), frame_interval_s=config.frame_interval_s)
