import dataclasses
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsi_cs import MrsiCsError
from mrsi_cs.configio import parse_solver_config
from mrsi_cs.solver import SolverConfig

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


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
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
    assert config.stop_tol is None or config.stop_tol > 0
