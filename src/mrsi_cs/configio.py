"""JSON configuration parsing for the command-line front end.

Every parse failure raises :class:`ConfigError` whose message names
the dotted path of the offending field, which the CLI reports verbatim.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

from .errors import ConfigError, MrsiCsError
from .model import AcquisitionGeometry
from .phantom import ConstantProfile, Peak, PhantomConfig, RampProfile, SubstanceSpec
from .sampling import SamplerConfig
from .solver import SolverConfig

__all__ = [
    "load_json",
    "parse_geometry",
    "parse_phantom_config",
    "parse_design_config",
    "parse_solver_config",
]


def load_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return doc


def _get(doc: dict, key: str, path: str, default: Any = ...) -> Any:
    if key not in doc:
        if default is ...:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(f"missing required field {dotted}")
        return default
    return doc[key]


def parse_geometry(doc: dict, path: str = "geometry") -> AcquisitionGeometry:
    try:
        # the transforms are the forward unitary DFT; a document asking for another sign is refused
        convention = _get(doc, "dft_sign_convention", path, "forward")
        if convention != "forward":
            raise ConfigError(f"{path}.dft_sign_convention must be 'forward', got {convention!r}")
        return AcquisitionGeometry(
            spatial_dims=tuple(_get(doc, "spatial_dims", path)),
            spectral_evolution_points=int(_get(doc, "spectral_evolution_points", path)),
            readout_points=int(_get(doc, "readout_points", path)),
            frame_interval_s=float(_get(doc, "frame_interval_s", path, 4.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value under {path}: {exc}") from exc


def _parse_profile(doc: dict, path: str) -> RampProfile | ConstantProfile:
    if "ramp" in doc:
        ramp = doc["ramp"]
        return RampProfile(
            rate=float(_get(ramp, "rate", f"{path}.ramp")),
            cap=float(_get(ramp, "cap", f"{path}.ramp")),
            start_frame=int(_get(ramp, "start_frame", f"{path}.ramp", 0)),
        )
    if "constant" in doc:
        return ConstantProfile(level=float(_get(doc["constant"], "level", f"{path}.constant")))
    raise ConfigError(f"{path} must contain 'ramp' or 'constant'")


def _parse_peak(doc: dict, path: str) -> Peak:
    center = _get(doc, "center", path)
    if not isinstance(center, (list, tuple)) or len(center) != 2:
        raise ConfigError(f"{path}.center must be a [evolution, readout] pair")
    return Peak(
        center=(float(center[0]), float(center[1])),
        width=float(_get(doc, "width", path)),
        amplitude=float(_get(doc, "amplitude", path)),
    )


def parse_phantom_config(doc: dict) -> PhantomConfig:
    geometry = parse_geometry(_get(doc, "geometry", ""), "geometry")
    raw_substances = _get(doc, "substances", "")
    if not isinstance(raw_substances, list) or not raw_substances:
        raise ConfigError("substances must be a non-empty list")
    substances = []
    for i, sub in enumerate(raw_substances):
        path = f"substances[{i}]"
        region = _get(sub, "region", path)
        if not isinstance(region, list) or not region:
            raise ConfigError(f"{path}.region must be a non-empty list")
        peaks = _get(sub, "peaks", path)
        if not isinstance(peaks, list) or not peaks:
            raise ConfigError(f"{path}.peaks must be a non-empty list")
        try:
            substances.append(
                SubstanceSpec(
                    label=str(_get(sub, "label", path)),
                    region=tuple(tuple(int(c) for c in voxel) for voxel in region),
                    profile=_parse_profile(_get(sub, "profile", path), f"{path}.profile"),
                    peaks=tuple(_parse_peak(p, f"{path}.peaks[{k}]") for k, p in enumerate(peaks)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value under {path}: {exc}") from exc
    try:
        return PhantomConfig(
            geometry=geometry,
            substances=tuple(substances),
            n_frames=int(_get(doc, "n_frames", "")),
            noise_sigma=float(_get(doc, "noise_sigma", "", 0.0)),
            rng_seed=int(_get(doc, "rng_seed", "", 0)),
        )
    except MrsiCsError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid phantom configuration: {exc}") from exc


def parse_design_config(doc: dict) -> tuple[SamplerConfig, AcquisitionGeometry]:
    dims = _get(doc, "dims", "")
    if not isinstance(dims, list) or len(dims) < 2:
        raise ConfigError("dims must list the evolution axis and the spatial axes")
    try:
        gaps = tuple(
            (int(start), int(length)) for start, length in _get(doc, "gaps", "", [])
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"gaps must be [start, length] pairs: {exc}") from exc
    try:
        config = SamplerConfig(
            n_points=int(_get(doc, "n_points", "")),
            dims=tuple(int(d) for d in dims),
            psi=(None if doc.get("psi") is None else float(doc["psi"])),
            skip=int(_get(doc, "skip", "", 0)),
            gap_spec=gaps,
        )
        geometry = AcquisitionGeometry(
            spatial_dims=tuple(int(d) for d in dims[1:]),
            spectral_evolution_points=int(dims[0]),
            readout_points=int(_get(doc, "readout_points", "", 1)),
            frame_interval_s=float(_get(doc, "frame_interval_s", "", 4.0)),
        )
    except MrsiCsError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid design configuration: {exc}") from exc
    return config, geometry


def parse_solver_config(doc: dict, **overrides) -> SolverConfig:
    merged = dict(doc)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    known = {field.name for field in dataclasses.fields(SolverConfig)}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown solver fields: {sorted(unknown)}")
    try:
        return SolverConfig(**merged)
    except MrsiCsError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int beyond float range
        raise ConfigError(f"invalid solver configuration: {exc}") from exc
