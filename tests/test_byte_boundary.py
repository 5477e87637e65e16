"""Property tests of the byte boundary: MRST tensors and JSON files, read from arbitrary bytes.

Whatever the bytes, reading them either succeeds or raises a package
error (a :class:`~mrsi_cs.MrsiCsError` subclass), which the CLI turns
into its documented exit code; nothing else may escape.
"""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsi_cs import MrsiCsError, ShapeError
from mrsi_cs.configio import load_json
from mrsi_cs.mrst import MAGIC, read_tensor, write_tensor

FUZZ = settings(max_examples=400)


def valid_mrst(tmp_path) -> bytes:
    """The bytes of a small complex (2, 3) tensor file."""
    path = tmp_path / "valid.mrst"
    write_tensor(path, np.arange(6).reshape(2, 3) * (1 - 0.5j))
    return path.read_bytes()


def header(code, dims, version=1):
    return MAGIC + struct.pack("<III", version, code, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)


@st.composite
def claimed_headers(draw):
    """A header with any dtype code and axis count, and a payload that may match the claimed size."""
    dims = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1)), max_size=70))
    code = draw(st.integers(0, 3))
    size = math.prod(dims) * (16 if code == 2 else 8)
    if size > 256:
        return header(code, dims) + draw(st.binary(max_size=64))
    return header(code, dims) + draw(st.sampled_from([b"\x00" * size, b"\x00" * (size + 8)]))


def mutated(data: bytes):
    """``data`` truncated, or with a few bytes overwritten."""
    truncated = st.integers(0, len(data)).map(lambda k: data[:k])
    edits = st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)), min_size=1, max_size=4)
    overwritten = edits.map(lambda pairs: bytes(_overwrite(bytearray(data), pairs)))
    return st.one_of(truncated, overwritten)


def _overwrite(buffer: bytearray, pairs) -> bytearray:
    for index, byte in pairs:
        buffer[index] = byte
    return buffer


def test_read_tensor_refuses_with_a_package_error_or_reads_back_the_bytes(tmp_path):
    valid = valid_mrst(tmp_path)
    path = tmp_path / "fuzz.mrst"

    @FUZZ
    @given(st.one_of(st.binary(max_size=96), st.binary(max_size=96).map(MAGIC.__add__), mutated(valid),
                     claimed_headers()))
    def check(data):
        path.write_bytes(data)
        try:
            tensor = read_tensor(path)
        except MrsiCsError:
            return
        # what was read is what write_tensor writes back, byte for byte
        write_tensor(path, tensor)
        assert path.read_bytes() == data

    check()


@pytest.mark.parametrize("code, dims", [(1, (2**40, 2**40)), (2, (2**32, 2**32, 2**32)), (1, (2**64 - 1,))])
def test_header_claiming_a_huge_count_is_refused_before_allocating(tmp_path, code, dims):
    path = tmp_path / "huge.mrst"
    path.write_bytes(header(code, dims) + b"\x00" * 16)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="payload is 16 bytes, expected"):
            read_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the file's bytes and the exception, nothing sized by the claimed count


@pytest.mark.parametrize(
    "dims", [(1,) * 65, (0, 2**64 - 1), (0, 2**62)], ids=["65-axes", "axis-past-intp", "too-big"]
)
def test_shape_numpy_cannot_hold_is_a_shape_error(tmp_path, dims):
    path = tmp_path / "shape.mrst"
    path.write_bytes(header(1, dims) + b"\x00" * (8 if 0 not in dims else 0))
    with pytest.raises(ShapeError, match="not supported"):
        read_tensor(path)


DOCUMENT = json.dumps({"geometry": {"spatial_dims": [2, 2]}, "n_frames": 12, "substances": [{"label": "g"}]})


def test_load_json_refuses_with_a_package_error_or_returns_a_recordable_object(tmp_path):
    path = tmp_path / "fuzz.json"
    nested = st.integers(1, 3000).map(lambda n: ('{"a": ' + "[" * n + "]" * n + "}").encode())

    @FUZZ
    @given(st.one_of(st.binary(max_size=96), mutated(DOCUMENT.encode()), nested))
    def check(data):
        path.write_bytes(data)
        try:
            doc = load_json(path)
        except MrsiCsError:
            return
        assert isinstance(doc, dict)
        json.dumps(doc, indent=1)  # the manifest can record it

    check()
