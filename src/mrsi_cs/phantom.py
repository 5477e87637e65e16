"""Synthetic instillation phantoms.

Ground truth is piecewise-defined per substance: a spatial support
region times a temporal profile, either a capped linear ramp (solution
instilled at a constant rate until the tube is full) or a constant
level (e.g. endogenous fat).  Base spectra are sums of 2D Lorentzian
peaks on the (evolution, readout) frequency grid; acquisition adds
independent complex Gaussian noise per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError, ShapeError
from .model import (
    AcquisitionGeometry,
    BaseSpectraSet,
    SamplingSchedule,
    SignalSet,
    SubstanceDistribution,
    apply_forward,
)

__all__ = [
    "Peak",
    "RampProfile",
    "ConstantProfile",
    "SubstanceSpec",
    "PhantomConfig",
    "make_phantom",
    "make_base_spectra",
    "acquire",
]


@dataclass(frozen=True)
class Peak:
    """One 2D Lorentzian line: 0-based (evolution, readout) center, half-width, height."""

    center: tuple[float, float]
    width: float
    amplitude: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (*self.center, self.width, self.amplitude)):
            raise ParameterError(
                f"peak center, width and amplitude must be finite, got "
                f"{self.center}, {self.width}, {self.amplitude}"
            )
        if not self.width > 0:
            raise ParameterError(f"peak width must be > 0, got {self.width}")


@dataclass(frozen=True)
class RampProfile:
    """Linear increase of ``rate`` per frame from ``start_frame``, clipped at ``cap``."""

    rate: float
    cap: float
    start_frame: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and math.isfinite(self.cap)):
            raise ParameterError(f"ramp rate and cap must be finite, got {self.rate}, {self.cap}")
        if self.cap < 0:
            raise ParameterError("ramp cap must be >= 0")

    def __call__(self, frames: np.ndarray) -> np.ndarray:
        ramp = self.rate * np.maximum(0, frames - self.start_frame)
        return np.minimum(ramp, self.cap)


@dataclass(frozen=True)
class ConstantProfile:
    level: float

    def __post_init__(self):
        if not math.isfinite(self.level):
            raise ParameterError(f"constant level must be finite, got {self.level}")

    def __call__(self, frames: np.ndarray) -> np.ndarray:
        return np.full(frames.shape, float(self.level))


@dataclass(frozen=True)
class SubstanceSpec:
    """Support region (0-based voxel coordinates), temporal profile and spectral peaks."""

    label: str
    region: tuple[tuple[int, ...], ...]
    profile: RampProfile | ConstantProfile
    peaks: tuple[Peak, ...]

    def __post_init__(self):
        if not self.peaks:
            raise ConfigError(f"substance {self.label!r} has no spectral peaks")
        if not self.region:
            raise ConfigError(f"substance {self.label!r} has an empty region")


@dataclass(frozen=True)
class PhantomConfig:
    geometry: AcquisitionGeometry
    substances: tuple[SubstanceSpec, ...]
    n_frames: int
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if not self.substances:
            raise ConfigError("substances must be a non-empty list")
        if self.n_frames < 1:
            raise ParameterError("n_frames must be >= 1")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ParameterError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.rng_seed < 0:  # numpy's generators take no negative seed
            raise ParameterError(f"rng_seed must be >= 0, got {self.rng_seed}")
        # evaluate names its files after the labels, so a label must be one file-name part, used once
        for i, label in enumerate(self.labels):
            if label in ("", ".", "..") or any(c in label for c in "/\\\0"):
                raise ConfigError(
                    f"substances[{i}].label must be a non-empty file name other than '.' or '..', "
                    f"without '/', '\\' or NUL; got {label!r}"
                )
            if label in self.labels[:i]:
                raise ConfigError(f"substances[{i}].label {label!r} is used by an earlier substance")
        for sub in self.substances:
            for voxel in sub.region:
                if len(voxel) != len(self.geometry.spatial_dims):
                    raise ConfigError(
                        f"voxel {voxel} has wrong dimensionality for grid {self.geometry.spatial_dims}"
                    )
                for c, dim in zip(voxel, self.geometry.spatial_dims):
                    if not 0 <= c < dim:
                        raise ConfigError(f"voxel {voxel} outside grid {self.geometry.spatial_dims}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.substances)


def _flat_voxel(voxel: tuple[int, ...], dims: tuple[int, ...]) -> int:
    return int(np.ravel_multi_index(voxel, dims))


def make_phantom(config: PhantomConfig) -> SubstanceDistribution:
    """Ground-truth distribution: profile value on the region, zero elsewhere."""
    geo = config.geometry
    frames = np.arange(config.n_frames, dtype=np.float64)
    values = np.zeros((config.n_frames, geo.n_voxels, len(config.substances)))
    for j, sub in enumerate(config.substances):
        profile = sub.profile(frames)
        for voxel in sub.region:
            values[:, _flat_voxel(voxel, geo.spatial_dims), j] = profile
    return SubstanceDistribution(values=values, geometry=geo)


def make_base_spectra(config: PhantomConfig) -> BaseSpectraSet:
    """Sum-of-Lorentzians spectrum per substance, with the time-domain cache filled."""
    geo = config.geometry
    n_c, n_ro = geo.spectral_evolution_points, geo.readout_points
    i1 = np.arange(n_c, dtype=np.float64)[:, None]
    i2 = np.arange(n_ro, dtype=np.float64)[None, :]
    spectra = np.zeros((len(config.substances), n_c, n_ro), dtype=np.complex128)
    for j, sub in enumerate(config.substances):
        for peak in sub.peaks:
            c1, c2 = peak.center
            spectra[j] += peak.amplitude / (
                1.0 + ((i1 - c1) / peak.width) ** 2 + ((i2 - c2) / peak.width) ** 2
            )
    return BaseSpectraSet.from_spectra(spectra)


def acquire(
    truth: SubstanceDistribution,
    base: BaseSpectraSet,
    schedule: SamplingSchedule,
    noise_sigma: float,
    rng_seed: int,
) -> SignalSet:
    """Simulate the undersampled acquisition of ``truth``.

    Per acquired frame (ascending order), the clean forward prediction
    plus complex Gaussian noise whose real and imaginary parts each have
    variance ``noise_sigma**2``.  Deterministic given ``rng_seed``.
    """
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ParameterError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    geo = truth.geometry
    schedule.validate_geometry(geo)
    if schedule.n_frames != truth.n_frames:
        raise ShapeError(
            f"schedule has {schedule.n_frames} frames, truth has {truth.n_frames}"
        )
    x = truth.frame_matrix()
    rng = np.random.default_rng(rng_seed)
    per_frame: dict[int, np.ndarray] = {}
    for m in schedule.acquired_index_set:
        points = schedule.frames[m]
        clean = apply_forward(x[m], points, base, geo)
        if noise_sigma > 0:
            noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
            per_frame[m] = clean + noise_sigma * noise
        else:
            per_frame[m] = clean
    return SignalSet(per_frame=per_frame)
