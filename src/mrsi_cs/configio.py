"""JSON in and out for the command-line front end: configuration and schedule parsing, and writing.

A config dataclass is read from a JSON object by its field annotations
alone: ``int`` takes a JSON integer and ``float`` a finite number
(neither a boolean nor a string), ``str`` a string, ``tuple[X, ...]`` a
list of X and ``tuple[X, Y]`` a list of exactly two, ``X | None`` also
null, and a nested dataclass an object read the same way.  An absent
field takes the dataclass default.  The parsers below add only what no
annotation says.  Every parse failure raises :class:`ConfigError` whose
message names the dotted path of the offending field, which the CLI
reports verbatim.

Every JSON document the package writes (schedules, manifests,
``selected.json`` and ``metrics.json``) goes through :func:`write_json`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
import typing
from pathlib import Path
from typing import Any

from .errors import ConfigError
from .model import AcquisitionGeometry, SamplePoint, SamplingSchedule
from .phantom import ConstantProfile, PhantomConfig, RampProfile
from .sampling import SamplerConfig
from .solver import SolverConfig

__all__ = [
    "load_json",
    "write_json",
    "parse_geometry",
    "parse_phantom_config",
    "parse_design_config",
    "parse_solver_config",
    "schedule_from_json",
    "read_schedule",
    "write_schedule",
]

# the JSON kinds a field may be read as, by the Python type that holds them
_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
          list: "a list", dict: "an object"}


# configs and schedules nest seven levels at most; a deeper document is refused before any code recurses into it
_MAX_DEPTH = 32


def _decode(text: str | bytes, source: str | Path) -> Any:
    """The value of the UTF-8 JSON ``text``, nested at most ``_MAX_DEPTH`` levels; errors name ``source``."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep to decode, or an over-long integer
        raise ConfigError(f"{source}: cannot be read as UTF-8 JSON ({exc})") from exc
    level = [doc]
    for _ in range(_MAX_DEPTH):  # level by level, without recursion
        level = [v for x in level if type(x) in (dict, list) for v in (x.values() if type(x) is dict else x)]
        if not level:
            return doc
    raise ConfigError(f"{source}: nested deeper than {_MAX_DEPTH} levels")


def load_json(path: str | Path) -> dict:
    """The top-level object of the UTF-8 JSON file at ``path``."""
    doc = _decode(Path(path).read_bytes(), path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return doc


def write_json(path: str | Path, doc: Any) -> None:
    """Write ``doc`` to ``path`` as JSON: a one-space indent, sorted keys and a final newline."""
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _typed(value: Any, kind: type, field: str) -> Any:
    """``value`` checked as a JSON value of ``kind``, one of ``_KINDS``; a number comes back as a float."""
    accepted = (int, float) if kind is float else kind
    ok = isinstance(value, bool) == (kind is bool) and isinstance(value, accepted)
    if ok and kind is float:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf  # an int may lie beyond
        ok = math.isfinite(value)
    if not ok:
        raise ConfigError(f"{field} must be {_KINDS[kind]}, got {value!r}")
    return value


def _read(value: Any, hint: Any, field: str) -> Any:
    """``value`` read as a field annotated ``hint``; errors name ``field``."""
    if hint in _READERS:
        return _READERS[hint](value, field)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _read(value, args[0], field)
    if origin is tuple:
        items = _typed(value, list, field)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(items)
        elif len(items) != len(args):
            raise ConfigError(f"{field} must be a list of {len(args)} items, got {value!r}")
        return tuple(_read(item, arg, f"{field}[{i}]") for i, (item, arg) in enumerate(zip(items, args)))
    if dataclasses.is_dataclass(hint):
        return hint(**_fields(hint, value, field))
    return _typed(value, hint, field)


def _get(doc: dict, key: str, path: str, hint: Any) -> Any:
    """The required ``doc[key]``, read as ``hint``."""
    field = f"{path}.{key}" if path else key
    if key not in doc:
        raise ConfigError(f"missing required field {field}")
    return _read(doc[key], hint, field)


def _fields(cls: type, doc: Any, path: str, keys: dict[str, str] = {}) -> dict[str, Any]:
    """The fields of dataclass ``cls`` that the JSON object ``doc`` holds, each read by its annotation.

    ``keys`` maps a field to the document key that holds it, where the
    two differ.  An absent field is left out, so it takes its default;
    a field without one is required.
    """
    doc = _typed(doc, dict, path)
    hints = typing.get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        key = keys.get(f.name, f.name)
        if key in doc or f.default is dataclasses.MISSING:
            values[f.name] = _get(doc, key, path, hints[f.name])
    return values


def _parse_geometry_section(section: Any, path: str) -> AcquisitionGeometry:
    values = _fields(AcquisitionGeometry, section, path)
    # the transforms are the forward unitary DFT; a document asking for another sign is refused
    convention = section.get("dft_sign_convention", "forward")
    if convention != "forward":
        raise ConfigError(f"{path}.dft_sign_convention must be 'forward', got {convention!r}")
    return AcquisitionGeometry(**values)


def _parse_profile(doc: Any, path: str) -> RampProfile | ConstantProfile:
    doc = _typed(doc, dict, path)
    for tag, cls in (("ramp", RampProfile), ("constant", ConstantProfile)):
        if tag in doc:
            return _read(doc[tag], cls, f"{path}.{tag}")
    raise ConfigError(f"{path} must contain 'ramp' or 'constant'")


# the readers of the annotations whose JSON form the annotation does not say
_READERS = {AcquisitionGeometry: _parse_geometry_section, RampProfile | ConstantProfile: _parse_profile}


def parse_geometry(doc: dict) -> AcquisitionGeometry:
    """The geometry of a configuration document, from its required ``geometry`` section.

    The section's ``frame_interval_s``, if any, is not read: frame
    timing belongs to the schedule.
    """
    return _get(doc, "geometry", "", AcquisitionGeometry)


def parse_phantom_config(doc: dict) -> PhantomConfig:
    return _read(doc, PhantomConfig, "")


def parse_design_config(doc: dict) -> tuple[SamplerConfig, AcquisitionGeometry]:
    """The sampler of a design document, whose ``gaps`` hold its ``gap_spec``, and the geometry of its ``dims``."""
    config = SamplerConfig(**_fields(SamplerConfig, doc, "", keys={"gap_spec": "gaps"}))
    geometry = AcquisitionGeometry(
        spatial_dims=config.dims[1:], spectral_evolution_points=config.dims[0], readout_points=1
    )
    return config, geometry


def parse_solver_config(doc: dict, **overrides) -> SolverConfig:
    """The ``solver`` section ``doc`` with the non-None ``overrides`` applied over it.

    Every field is type-checked before the overrides apply, and the
    ranges are checked once, on the merged values.
    """
    unknown = set(_typed(doc, dict, "solver")) - {f.name for f in dataclasses.fields(SolverConfig)}
    if unknown:
        raise ConfigError(f"unknown solver fields: {sorted(unknown)}")
    values = _fields(SolverConfig, doc, "solver")
    values.update((key, value) for key, value in overrides.items() if value is not None)
    return SolverConfig(**values)


def _parse_schedule(doc: Any) -> SamplingSchedule:
    """A schedule document, in which every frame index in [0, M) is listed, as ``design`` writes it.

    A gap entry lists a data-free frame; a frame with one or more point
    entries is acquired at those points.  A frame is one or the other:
    an entry that is a gap and holds a point, or a frame listed both as
    a gap and with a point, is refused.
    """
    doc = _typed(doc, dict, "schedule")
    m_total = _get(doc, "M", "schedule", int)
    interval = _get(doc, "frame_interval_s", "schedule", float)
    entries = _get(doc, "frames", "schedule", tuple[dict, ...])
    # every frame needs an entry, so a count beyond the entries is refused before any per-frame storage
    if not 1 <= m_total <= len(entries):
        raise ConfigError(f"schedule.M must lie in [1, {len(entries)}], the number of entries, got {m_total}")
    points: list[list[SamplePoint]] = [[] for _ in range(m_total)]
    unlisted = set(range(m_total))
    gaps = set()
    for i, entry in enumerate(entries):
        path = f"schedule.frames[{i}]"
        m = _get(entry, "m", path, int)
        if not 0 <= m < m_total:
            raise ConfigError(f"{path}.m: frame index {m} outside [0, {m_total})")
        unlisted.discard(m)
        if _typed(entry.get("gap", False), bool, f"{path}.gap"):
            if "point" in entry:
                raise ConfigError(f"{path}: a gap entry may not hold a point")
            gaps.add(m)
        else:
            point = _get(entry, "point", path, dict)  # an entry that is not a gap holds a point
            spectral = _get(point, "spectral", f"{path}.point", int)
            points[m].append(SamplePoint(spectral, _get(point, "k", f"{path}.point", tuple[int, ...])))
        if m in gaps and points[m]:
            raise ConfigError(f"{path}: frame {m} is listed both as a gap and with points")
    if unlisted:
        raise ConfigError(f"schedule lists no entry for frames {sorted(unlisted)[:5]}")
    # a frame without points is a gap
    return SamplingSchedule(frames=tuple(tuple(p) or None for p in points), frame_interval_s=interval)


def schedule_from_json(text: str) -> SamplingSchedule:
    """The schedule of a JSON text, read as :func:`read_schedule` reads a file."""
    return _parse_schedule(_decode(text, "schedule"))


def read_schedule(path: str | Path) -> SamplingSchedule:
    return _parse_schedule(load_json(path))


def write_schedule(path: str | Path, schedule: SamplingSchedule) -> None:
    """Write ``schedule`` as the document :func:`read_schedule` reads: one entry per gap and per point."""
    frames = []
    for m, points in enumerate(schedule.frames):
        if points is None:
            frames.append({"m": m, "gap": True})
        else:
            frames += [{"m": m, "point": {"spectral": p.spectral_index, "k": list(p.k_index)}} for p in points]
    write_json(path, {"M": schedule.n_frames, "frame_interval_s": schedule.frame_interval_s, "frames": frames})
