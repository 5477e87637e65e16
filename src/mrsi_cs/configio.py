"""JSON configuration and schedule parsing for the command-line front end.

Every field is read through one typed check: an integer must be a JSON
integer, a number a finite JSON number (neither may be a boolean or a
string), and a list or an object must be one.  Every parse failure
raises :class:`ConfigError` whose message names the dotted path of the
offending field, which the CLI reports verbatim.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any

from .errors import ConfigError
from .model import AcquisitionGeometry, SamplePoint, SamplingSchedule
from .phantom import ConstantProfile, Peak, PhantomConfig, RampProfile, SubstanceSpec
from .sampling import SamplerConfig
from .solver import SolverConfig

__all__ = [
    "load_json",
    "parse_geometry",
    "parse_phantom_config",
    "parse_design_config",
    "parse_solver_config",
    "schedule_from_json",
    "read_schedule",
]

# the JSON kinds a field may be read as, by the Python type that holds them
_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
          list: "a list", dict: "an object"}


def load_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return doc


def _typed(value: Any, kind: type | list, field: str) -> Any:
    """``value`` checked as a JSON value of ``kind``; a number comes back as a float.

    ``kind`` is one of the types in ``_KINDS``, or a one-item list
    ``[kind]`` for a list whose items all have that kind.
    """
    if isinstance(kind, list):
        return [_typed(v, kind[0], f"{field}[{i}]") for i, v in enumerate(_typed(value, list, field))]
    accepted = (int, float) if kind is float else kind
    ok = isinstance(value, bool) == (kind is bool) and isinstance(value, accepted)
    if ok and kind is float:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf  # an int may lie beyond
        ok = math.isfinite(value)
    if not ok:
        raise ConfigError(f"{field} must be {_KINDS[kind]}, got {value!r}")
    return value


def _get(doc: dict, key: str, path: str, kind: type | list, default: Any = ...) -> Any:
    """``doc[key]`` checked as ``kind``; ``default`` when the key is absent and a default is given."""
    field = f"{path}.{key}" if path else key
    if key not in doc:
        if default is ...:
            raise ConfigError(f"missing required field {field}")
        return default
    return _typed(doc[key], kind, field)


def parse_geometry(doc: dict) -> AcquisitionGeometry:
    """The geometry of a configuration document, from its required ``geometry`` section.

    The section's ``frame_interval_s``, if any, is not read: frame
    timing belongs to the schedule.
    """
    section = _get(doc, "geometry", "", dict)
    # the transforms are the forward unitary DFT; a document asking for another sign is refused
    convention = _get(section, "dft_sign_convention", "geometry", str, "forward")
    if convention != "forward":
        raise ConfigError(f"geometry.dft_sign_convention must be 'forward', got {convention!r}")
    return AcquisitionGeometry(
        spatial_dims=tuple(_get(section, "spatial_dims", "geometry", [int])),
        spectral_evolution_points=_get(section, "spectral_evolution_points", "geometry", int),
        readout_points=_get(section, "readout_points", "geometry", int),
    )


def _parse_profile(doc: dict, path: str) -> RampProfile | ConstantProfile:
    if "ramp" in doc:
        ramp = _get(doc, "ramp", path, dict)
        path = f"{path}.ramp"
        return RampProfile(
            rate=_get(ramp, "rate", path, float),
            cap=_get(ramp, "cap", path, float),
            start_frame=_get(ramp, "start_frame", path, int, 0),
        )
    if "constant" in doc:
        constant = _get(doc, "constant", path, dict)
        return ConstantProfile(level=_get(constant, "level", f"{path}.constant", float))
    raise ConfigError(f"{path} must contain 'ramp' or 'constant'")


def _parse_peak(doc: dict, path: str) -> Peak:
    center = _get(doc, "center", path, [float])
    if len(center) != 2:
        raise ConfigError(f"{path}.center must be a [evolution, readout] pair")
    return Peak(
        center=tuple(center),
        width=_get(doc, "width", path, float),
        amplitude=_get(doc, "amplitude", path, float),
    )


def parse_phantom_config(doc: dict) -> PhantomConfig:
    geometry = parse_geometry(doc)
    raw_substances = _get(doc, "substances", "", [dict])
    if not raw_substances:
        raise ConfigError("substances must be a non-empty list")
    substances = []
    for i, sub in enumerate(raw_substances):
        path = f"substances[{i}]"
        peaks = _get(sub, "peaks", path, [dict])
        substances.append(  # SubstanceSpec refuses an empty region or peak list
            SubstanceSpec(
                label=_get(sub, "label", path, str),
                region=tuple(tuple(voxel) for voxel in _get(sub, "region", path, [[int]])),
                profile=_parse_profile(_get(sub, "profile", path, dict), f"{path}.profile"),
                peaks=tuple(_parse_peak(p, f"{path}.peaks[{k}]") for k, p in enumerate(peaks)),
            )
        )
    return PhantomConfig(
        geometry=geometry,
        substances=tuple(substances),
        n_frames=_get(doc, "n_frames", "", int),
        noise_sigma=_get(doc, "noise_sigma", "", float, 0.0),
        rng_seed=_get(doc, "rng_seed", "", int, 0),
    )


def parse_design_config(doc: dict) -> tuple[SamplerConfig, AcquisitionGeometry]:
    dims = _get(doc, "dims", "", [int])
    if len(dims) < 2:
        raise ConfigError("dims must list the evolution axis and the spatial axes")
    gaps = _get(doc, "gaps", "", [[int]], [])
    if any(len(gap) != 2 for gap in gaps):
        raise ConfigError("gaps must be [start, length] pairs")
    config = SamplerConfig(
        n_points=_get(doc, "n_points", "", int),
        dims=tuple(dims),
        psi=None if doc.get("psi") is None else _get(doc, "psi", "", float),
        skip=_get(doc, "skip", "", int, 0),
        gap_spec=tuple(tuple(gap) for gap in gaps),
        frame_interval_s=_get(doc, "frame_interval_s", "", float, 4.0),
    )
    geometry = AcquisitionGeometry(
        spatial_dims=tuple(dims[1:]),
        spectral_evolution_points=dims[0],
        readout_points=_get(doc, "readout_points", "", int, 1),
    )
    return config, geometry


def parse_solver_config(doc: dict, **overrides) -> SolverConfig:
    """The ``solver`` section ``doc`` with the non-None ``overrides`` applied over it.

    Counts must be JSON integers and the other fields finite numbers;
    ``stop_tol`` may also be null.
    """
    fields = {field.name: field.default for field in dataclasses.fields(SolverConfig)}
    merged = dict(_typed(doc, dict, "solver"))
    unknown = set(merged) - set(fields)
    if unknown:
        raise ConfigError(f"unknown solver fields: {sorted(unknown)}")
    for name, value in merged.items():
        if not (value is None and fields[name] is None):
            kind = int if isinstance(fields[name], int) else float
            merged[name] = _typed(value, kind, f"solver.{name}")
    merged.update((key, value) for key, value in overrides.items() if value is not None)
    return SolverConfig(**merged)


def schedule_from_json(text: str) -> SamplingSchedule:
    """Parse a schedule document, in which every frame index in [0, M) is listed, as ``design`` writes it.

    A gap entry lists a data-free frame; a frame with one or more point
    entries is acquired at those points.
    """
    try:
        doc = _typed(json.loads(text), dict, "schedule")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"schedule: invalid JSON ({exc})") from exc
    m_total = _get(doc, "M", "schedule", int)
    interval = _get(doc, "frame_interval_s", "schedule", float)
    entries = _get(doc, "frames", "schedule", [dict])
    # every frame needs an entry, so a count beyond the entries is refused before any per-frame storage
    if not 1 <= m_total <= len(entries):
        raise ConfigError(f"schedule.M must lie in [1, {len(entries)}], the number of entries, got {m_total}")
    points: list[list[SamplePoint]] = [[] for _ in range(m_total)]
    unlisted = set(range(m_total))
    for i, entry in enumerate(entries):
        path = f"schedule.frames[{i}]"
        m = _get(entry, "m", path, int)
        if not 0 <= m < m_total:
            raise ConfigError(f"{path}.m: frame index {m} outside [0, {m_total})")
        unlisted.discard(m)
        if _get(entry, "gap", path, bool, False):
            continue
        point = _get(entry, "point", path, dict)  # an entry that is not a gap holds a point
        spectral = _get(point, "spectral", f"{path}.point", int)
        points[m].append(SamplePoint(spectral, tuple(_get(point, "k", f"{path}.point", [int]))))
    if unlisted:
        raise ConfigError(f"schedule lists no entry for frames {sorted(unlisted)[:5]}")
    # a frame without points is a gap
    return SamplingSchedule(frames=tuple(tuple(p) or None for p in points), frame_interval_s=interval)


def read_schedule(path: str | Path) -> SamplingSchedule:
    return schedule_from_json(Path(path).read_text())
