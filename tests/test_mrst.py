import numpy as np
import pytest

from mrsi_cs import ShapeError
from mrsi_cs.mrst import read_tensor, write_tensor


def test_real_round_trip(tmp_path, rng):
    a = rng.standard_normal((3, 4, 5))
    path = tmp_path / "a.mrst"
    write_tensor(path, a)
    back = read_tensor(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, a)


def test_complex_round_trip(tmp_path, rng):
    a = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    path = tmp_path / "a.mrst"
    write_tensor(path, a)
    back = read_tensor(path)
    assert back.dtype == np.complex128
    np.testing.assert_array_equal(back, a)


def test_header_layout(tmp_path):
    path = tmp_path / "a.mrst"
    write_tensor(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:4] == b"MRST"
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 1  # real64
    assert int.from_bytes(raw[12:16], "little") == 2  # ndim
    assert int.from_bytes(raw[16:24], "little") == 2
    assert int.from_bytes(raw[24:32], "little") == 3
    assert len(raw) == 32 + 6 * 8


def test_deterministic_bytes(tmp_path, rng):
    a = rng.standard_normal((4, 4))
    p1, p2 = tmp_path / "x1.mrst", tmp_path / "x2.mrst"
    write_tensor(p1, a)
    write_tensor(p2, a.copy())
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mrst"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ShapeError):
        read_tensor(path)


@pytest.mark.parametrize("keep", [4, 10, 16, 20, 31])
def test_rejects_truncated_header(tmp_path, keep):
    path = tmp_path / "short.mrst"
    write_tensor(path, np.zeros((2, 3)))  # 32-byte header for two axes
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ShapeError, match="header"):
        read_tensor(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.mrst"
    write_tensor(path, np.zeros(8))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ShapeError):
        read_tensor(path)
