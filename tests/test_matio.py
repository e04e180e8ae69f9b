import struct

import numpy as np
import pytest

from mfgl.exceptions import InvalidConfig, MatrixIOError
from mfgl.matio import (
    FORMATS,
    MAGIC,
    VERSION,
    read_binary,
    read_csv,
    read_matrix,
    write_binary,
    write_csv,
    write_matrix,
)


def test_csv_round_trip_is_exact(tmp_path, rng):
    a = rng.normal(size=(4, 3)) * np.logspace(-8, 8, 3)
    path = tmp_path / "a.csv"
    write_csv(path, a)
    back = read_csv(path)
    # %.17g carries every bit of a float64
    assert np.array_equal(back, a)


def test_csv_header_round_trip(tmp_path):
    a = np.array([[1.5, -2.0], [0.25, 3.0]])
    path = tmp_path / "a.csv"
    write_csv(path, a, header=["x", "y"])
    first = path.read_text().splitlines()[0]
    assert first == "x,y"
    assert np.array_equal(read_csv(path, header=True), a)
    with pytest.raises(MatrixIOError):
        read_csv(path)  # header cells are not numbers


def test_csv_header_width_checked(tmp_path):
    with pytest.raises(MatrixIOError):
        write_csv(tmp_path / "a.csv", np.ones((2, 3)), header=["only", "two"])


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(MatrixIOError, match="line 2"):
        read_csv(path)


def test_csv_non_numeric_cell_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(MatrixIOError, match="line 2"):
        read_csv(path)


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MatrixIOError, match="no data"):
        read_csv(path)


def test_csv_missing_file_is_io_error(tmp_path):
    with pytest.raises(MatrixIOError, match="cannot read"):
        read_csv(tmp_path / "nope.csv")


def test_csv_one_dimensional_input_becomes_row(tmp_path):
    path = tmp_path / "v.csv"
    write_csv(path, np.array([1.0, 2.0, 3.0]))
    assert read_csv(path).shape == (1, 3)


def test_binary_round_trip_is_exact(tmp_path, rng):
    a = rng.normal(size=(7, 2))
    path = tmp_path / "a.bin"
    write_binary(path, a)
    assert np.array_equal(read_binary(path), a)


def test_binary_layout_matches_contract(tmp_path):
    # Pin the on-disk bytes: magic, version, u64 dims, f64 payload, all LE.
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "a.bin"
    write_binary(path, a)
    blob = path.read_bytes()
    assert blob[:4] == b"MFGL"
    assert blob[4] == 0x01
    rows, cols = struct.unpack_from("<QQ", blob, 5)
    assert (rows, cols) == (2, 2)
    values = struct.unpack_from("<4d", blob, 21)
    assert values == (1.0, 2.0, 3.0, 4.0)
    assert len(blob) == 21 + 32


def test_binary_bad_magic_rejected(tmp_path):
    path = tmp_path / "a.bin"
    write_binary(path, np.ones((2, 2)))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(MatrixIOError, match="magic"):
        read_binary(path)


def test_binary_bad_version_rejected(tmp_path):
    path = tmp_path / "a.bin"
    write_binary(path, np.ones((2, 2)))
    blob = bytearray(path.read_bytes())
    blob[4] = 0x7F
    path.write_bytes(bytes(blob))
    with pytest.raises(MatrixIOError, match="version"):
        read_binary(path)


def test_binary_truncated_payload_rejected(tmp_path):
    path = tmp_path / "a.bin"
    write_binary(path, np.ones((3, 3)))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(MatrixIOError, match="payload"):
        read_binary(path)


def test_binary_truncated_header_rejected(tmp_path):
    path = tmp_path / "a.bin"
    path.write_bytes(b"MFG")
    with pytest.raises(MatrixIOError, match="truncated"):
        read_binary(path)


def test_explicit_format_round_trip(tmp_path, rng):
    # the format is named by the caller, never taken from the suffix
    a = rng.normal(size=(3, 4))
    for fmt in FORMATS:
        path = tmp_path / f"m_{fmt}.dat"
        write_matrix(path, a, fmt)
        assert (path.read_bytes()[:4] == MAGIC) == (fmt == "bin")
        assert np.array_equal(read_matrix(path, fmt), a)
    with pytest.raises(MatrixIOError, match="magic"):
        read_matrix(tmp_path / "m_csv.dat", "bin")


def test_unknown_format_rejected(tmp_path, rng):
    # an unknown format name is an error, not a fallback to CSV
    a = rng.normal(size=(2, 2))
    path = tmp_path / "m.dat"
    write_matrix(path, a, "csv")
    with pytest.raises(InvalidConfig):
        write_matrix(tmp_path / "m.csv", a, "txt")
    with pytest.raises(InvalidConfig):
        read_matrix(path, "txt")
    assert not (tmp_path / "m.csv").exists()


def test_version_constant_is_one():
    assert VERSION == 0x01
