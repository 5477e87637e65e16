"""Undersampling schedule design.

Sample points are drawn from an unscrambled Sobol sequence over the
undersampled axes (spectral evolution plus the spatial k-axes).  The
spectral coordinate is pushed through an exponential index transform so
early evolution indices (higher signal) are sampled more often, with
P(d) proportional to psi**d; the spatial coordinates are quantized
uniformly.  Direction numbers come from scipy's Sobol implementation
(the Joe & Kuo 2008 tables), so sequences are reproducible given
(n, d, skip).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParameterError
from .model import AcquisitionGeometry, SamplePoint, SamplingSchedule

__all__ = [
    "SamplerConfig",
    "default_psi",
    "sobol_sequence",
    "spectral_index_transform",
    "build_schedule",
    "schedule_to_json",
    "schedule_from_json",
    "write_schedule",
    "read_schedule",
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
    """

    n_points: int
    dims: tuple[int, ...]
    psi: float | None = None
    skip: int = 0
    gap_spec: tuple[tuple[int, int], ...] = ()

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

    @property
    def total_gap(self) -> int:
        return sum(length for _, length in self.gap_spec)

    @property
    def n_frames(self) -> int:
        return self.n_points + self.total_gap


def sobol_sequence(n: int, d: int, skip: int = 0) -> np.ndarray:
    """First ``n`` points of the d-dimensional Sobol sequence after ``skip``.

    Deterministic (no scrambling).  Coordinates lie in [0, 1).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if d < 1:
        raise ParameterError("d must be >= 1")
    from scipy.stats import qmc  # only the design stage needs scipy; keep it off start-up

    try:
        engine = qmc.Sobol(d=d, scramble=False)
    except ValueError as exc:  # dimension beyond the direction-number tables
        raise ParameterError(f"unsupported Sobol dimension {d}: {exc}") from exc
    if skip:
        engine.fast_forward(skip)
    with warnings.catch_warnings():
        # sequence length is the caller's choice; the power-of-2 balance
        # hint does not affect the distributional guarantees tested here
        warnings.filterwarnings("ignore", message=".*balance properties.*")
        return engine.random(n)


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
    return SamplingSchedule(frames=tuple(frames), frame_interval_s=geometry.frame_interval_s)


def schedule_to_json(schedule: SamplingSchedule) -> str:
    frames = []
    for m, f in enumerate(schedule.frames):
        if f is None:
            frames.append({"m": m, "gap": True})
        else:
            for p in f:
                frames.append(
                    {"m": m, "point": {"spectral": p.spectral_index, "k": list(p.k_index)}}
                )
    doc = {
        "M": schedule.n_frames,
        "frame_interval_s": schedule.frame_interval_s,
        "frames": frames,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def schedule_from_json(text: str) -> SamplingSchedule:
    try:
        doc = json.loads(text)
        m_total = int(doc["M"])
        interval = float(doc["frame_interval_s"])
        frames: list[list[SamplePoint] | None] = [None] * m_total
        for entry in doc["frames"]:
            m = int(entry["m"])
            if not 0 <= m < m_total:
                raise ConfigError(f"frame index {m} outside [0, {m_total})", field="frames.m")
            if entry.get("gap"):
                continue
            point = entry.get("point")
            if point is None:
                raise ConfigError(f"frame {m} has neither gap nor point", field="frames.point")
            sp = SamplePoint(int(point["spectral"]), tuple(int(c) for c in point["k"]))
            if frames[m] is None:
                frames[m] = []
            frames[m].append(sp)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed schedule document: {exc!r}") from exc
    return SamplingSchedule(
        frames=tuple(None if f is None else tuple(f) for f in frames),
        frame_interval_s=interval,
    )


def write_schedule(path: str | Path, schedule: SamplingSchedule) -> None:
    Path(path).write_text(schedule_to_json(schedule) + "\n")


def read_schedule(path: str | Path) -> SamplingSchedule:
    return schedule_from_json(Path(path).read_text())
