import dataclasses
import functools
import json
import math
import operator
import tempfile
import types
import typing
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import mrsi_cs
from mrsi_cs import MrsiCsError, PhantomConfig, SamplerConfig, SamplingSchedule, build_schedule
from mrsi_cs.configio import (
    parse_design_config,
    parse_phantom_config,
    parse_solver_config,
    read_schedule,
    schedule_from_json,
    write_schedule,
)
from mrsi_cs.model import AcquisitionGeometry
from mrsi_cs.solver import SolverConfig
from test_cli import TINY_DESIGN, replaced

FIELDS = [field.name for field in dataclasses.fields(SolverConfig)]
COUNTS = ("outer_iters", "inner_iters")

SCALARS = (
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
# any value a JSON document can hold, NaN and the infinities included
JSON_VALUES = st.one_of(
    *SCALARS,
    st.lists(st.one_of(*SCALARS), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(*SCALARS), max_size=3),
)


@settings(max_examples=500)
@given(st.sampled_from(FIELDS), JSON_VALUES)
def test_solver_field_parses_to_a_valid_config_or_a_package_error(field, value):
    try:
        config = parse_solver_config({field: value})
    except MrsiCsError:
        return
    for name in COUNTS:
        count = getattr(config, name)
        assert isinstance(count, int) and not isinstance(count, bool) and count >= 1
    for name in set(FIELDS) - set(COUNTS):
        value = getattr(config, name)
        assert (name == "stop_tol" and value is None) or math.isfinite(value)
        assert value is None or (isinstance(value, float) and not isinstance(value, bool))
    assert config.stop_tol is None or config.stop_tol > 0


def conforms(value, hint) -> bool:
    """Whether ``value`` has its annotated type, read strictly.

    ``int`` means an int that is not a bool and ``float`` a finite
    float; a dataclass or named tuple conforms when each of its
    annotated fields does.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in (int, str):
        return type(value) is hint
    if hint is float:
        return type(value) is float and math.isfinite(value)
    if hint is type(None):
        return value is None
    if origin in (typing.Union, types.UnionType):
        return any(conforms(value, arg) for arg in args)
    if origin is tuple:
        if type(value) is not tuple:
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        return len(value) == len(args) and all(conforms(v, arg) for v, arg in zip(value, args))
    return isinstance(value, hint) and all(
        conforms(getattr(value, name), field) for name, field in typing.get_type_hints(hint).items()
    )


def field_paths(doc, prefix=()):
    """The path (keys and list indices) of every field of a JSON document, at any depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def written_schedule(schedule):
    """The document :func:`write_schedule` writes for ``schedule``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schedule.json"
        write_schedule(path, schedule)
        return json.loads(path.read_text())


EXP1 = json.loads((Path(mrsi_cs.__file__).parent / "configs" / "exp1.json").read_text())
SCHEDULE = written_schedule(build_schedule(*parse_design_config(TINY_DESIGN)))


def parse_phantom(doc):
    return [(parse_phantom_config(doc), PhantomConfig)]


def parse_design(doc):
    config, geometry = parse_design_config(doc)
    return [(config, SamplerConfig), (geometry, AcquisitionGeometry)]


def parse_schedule(doc):
    return [(schedule_from_json(json.dumps(doc)), SamplingSchedule)]


@pytest.mark.parametrize(
    "parse, document",
    [(parse_phantom, EXP1), (parse_design, TINY_DESIGN), (parse_schedule, SCHEDULE)],
    ids=["phantom", "design", "schedule"],
)
def test_document_field_parses_to_typed_values_or_a_package_error(parse, document):
    @settings(max_examples=400)
    @given(st.sampled_from(list(field_paths(document))), JSON_VALUES)
    def check(path, value):
        try:
            results = parse(replaced(document, path, value))
        except MrsiCsError:
            return
        for result, hint in results:
            assert conforms(result, hint), (path, value, result)
        # every field of the document is read, so an accepted value has the JSON type of the one
        # it replaced, or is an integer in place of a number: it was not coerced into another
        original = functools.reduce(operator.getitem, path, document)
        assert type(value) is type(original) or (type(original), type(value)) == (float, int), (path, value)

    assert all(conforms(result, hint) for result, hint in parse(document))
    check()


class TestWriteSchedule:
    GEOMETRY = AcquisitionGeometry(spatial_dims=(8, 8), spectral_evolution_points=16, readout_points=4)

    def test_deterministic_serialization(self, tmp_path):
        config = SamplerConfig(n_points=64, dims=(16, 8, 8), gap_spec=((10, 5),))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_schedule(a, build_schedule(config, self.GEOMETRY))
        write_schedule(b, build_schedule(config, self.GEOMETRY))
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        schedule = build_schedule(
            SamplerConfig(n_points=32, dims=(16, 8, 8), gap_spec=((0, 3),)), self.GEOMETRY
        )
        write_schedule(tmp_path / "schedule.json", schedule)
        assert read_schedule(tmp_path / "schedule.json") == schedule
