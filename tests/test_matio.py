import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def _per_element_csv(a, header=None):
    """The per-element %.17g writer `write_csv` replaced: its bytes are the
    golden reference for the row-template writer."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(f"{x:.17g}" for x in row) for row in a]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("header", [None, ["a", "b", "c", "d", "e"]])
def test_csv_bytes_match_per_element_format(tmp_path, rng, header):
    sign = rng.choice([-1.0, 1.0], size=(40, 5))
    a = sign * 10.0 ** rng.uniform(-300, 300, size=(40, 5))
    a[0] = [0.0, -0.0, np.nan, np.inf, -np.inf]
    a[1] = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    path = tmp_path / "a.csv"
    write_csv(path, a, header=header)
    assert path.read_bytes() == _per_element_csv(a, header)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
@example(np.array([[1.0, -2.5, 3e-300]]))
@example(np.array([[1.0], [np.nan], [-np.inf]]))
def test_csv_round_trip_property(tmp_path_factory, a):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    write_csv(path, a)
    back = read_csv(path)
    assert back.shape == a.shape
    nan = np.isnan(a)
    assert np.array_equal(np.isnan(back), nan)
    assert back[~nan].tobytes() == a[~nan].tobytes()


def test_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,2\n\n   \n3,4\n\t\n5,6\n\n  \n")
    assert np.array_equal(read_csv(path), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_csv_crlf_lines_read(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"x,y\r\n1.5,-2\r\n\r\n3,4e-3\r\n")
    assert np.array_equal(read_csv(path, header=True), [[1.5, -2.0], [3.0, 4e-3]])


@pytest.mark.parametrize(
    "text, line",
    [
        ("1,2\n\n\n3,oops\n", "line 4"),
        ("1,2\n\n\n3,4,5\n", "line 4"),
        ("x,y\n1,2\n \n3,\n", "line 4"),
        ("1,2\n3,4\n5,6,\n", "line 3"),
    ],
)
def test_csv_errors_name_the_file_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixIOError, match=line):
        read_csv(path, header=text.startswith("x"))


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n", "x,y\n", "x,y\n\n"])
def test_csv_without_data_rows_rejected(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(MatrixIOError, match="no data rows"):
        read_csv(path, header=text.startswith("x"))


def test_csv_header_skips_exactly_one_line(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1,2\n3,4\n")
    assert np.array_equal(read_csv(path, header=True), [[3.0, 4.0]])
    # the header is the first line even when it is blank
    path.write_text("\nx,y\n1,2\n")
    with pytest.raises(MatrixIOError, match="line 2"):
        read_csv(path, header=True)


@pytest.mark.parametrize("cell", ["1_0", "# 1", '"1"', "0x10", "1 2"])
def test_csv_cells_outside_the_format_rejected(tmp_path, cell):
    # `1_0` is a float() literal but not a CSV number: rejected too
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2\n3,{cell}\n")
    with pytest.raises(MatrixIOError):
        read_csv(path)


def test_csv_that_is_not_text_is_io_error(tmp_path):
    path = tmp_path / "a.csv"
    write_binary(path, np.full((2, 2), -np.inf))  # 0xff bytes: not UTF-8
    with pytest.raises(MatrixIOError):
        read_csv(path)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt, bound", [("csv", 1.5), ("bin", 1.2)])
def test_reader_peak_stays_near_the_matrix(tmp_path, rng, fmt, bound):
    # the CSV reader streams the file, the binary reader keeps the bytes
    # it read; neither holds a second copy of the matrix
    a = rng.normal(size=(1000, 256))
    path = tmp_path / f"a.{fmt}"
    write_matrix(path, a, fmt)
    back, peak = _traced_peak(lambda: read_matrix(path, fmt))
    assert peak < bound * a.nbytes
    assert np.array_equal(back, a)
    assert not back.flags.writeable


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
