import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shiftlab import tensor as tc


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32),
)
def test_container_round_trip_bit_exact(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    arr = rng.uniform(-1e3, 1e3, size=shape).astype(dtype)
    t = tc.from_array(arr)
    path = os.path.join(tempfile.gettempdir(), f"shiftlab_rt_{seed}.swt")
    tc.write_container(t, path)
    back = tc.read_container(path)
    assert tc.tensors_equal_bits(t, back)
    os.unlink(path)


def test_f64_round_trip_preserves_tricky_bits(tmp_path):
    vals = np.array([[np.pi, -0.0, np.nextafter(1.0, 2.0), 1e-308]])
    t = tc.from_array(vals)
    p = tmp_path / "bits.swt"
    tc.write_container(t, p)
    assert tc.tensors_equal_bits(t, tc.read_container(p))


def test_container_bad_magic(tmp_path):
    p = tmp_path / "bad.swt"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(tc.FormatError):
        tc.read_container(p)


def test_container_truncated(tmp_path):
    t = tc.from_array(np.ones((2, 3), np.float32))
    p = tmp_path / "trunc.swt"
    tc.write_container(t, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-3])
    with pytest.raises(tc.FormatError):
        tc.read_container(p)


def test_container_excess_rank(tmp_path):
    p = tmp_path / "rank.swt"
    p.write_bytes(b"SWT1" + bytes([0, 9]) + bytes(6) + b"\x01" * 8 * 9)
    with pytest.raises(tc.FormatError):
        tc.read_container(p)


def _header(code=0, rank=1, reserved=bytes(6)):
    return tc.MAGIC + bytes([code, rank]) + reserved


@pytest.mark.parametrize("blob, message", (
    (tc.MAGIC + bytes(7), "truncated header"),
    (_header(code=7) + (1).to_bytes(8, "little") + bytes(4), "unknown dtype code 7"),
    (_header(reserved=bytes([0, 0, 1, 0, 0, 0])) + (1).to_bytes(8, "little") + bytes(4),
     "nonzero reserved bytes"),
    (_header(rank=2) + (1).to_bytes(8, "little") + bytes(3), "truncated extents"),
    (_header() + (0).to_bytes(8, "little"), r"non-positive extent in \(0,\)"),
), ids=("short-header", "dtype-code", "reserved", "extents", "zero-extent"))
def test_container_rejects_malformed_header(tmp_path, blob, message):
    p = tmp_path / "case.swt"
    p.write_bytes(blob)
    with pytest.raises(tc.FormatError, match=rf"case\.swt: {message}"):
        tc.read_container(p)


def test_container_trailing_garbage(tmp_path):
    t = tc.from_array(np.ones((2, 2)))
    p = tmp_path / "trail.swt"
    tc.write_container(t, p)
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(tc.FormatError):
        tc.read_container(p)


def test_tensors_are_read_only():
    t = tc.from_array(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        t.data[0, 0] = 1.0


def test_max_abs_diff_shape_check():
    with pytest.raises(tc.ShapeError):
        tc.max_abs_diff(np.ones((2, 2)), np.ones((2, 3)))
