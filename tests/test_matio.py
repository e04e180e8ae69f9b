import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mfgl.matio
from conftest import traced_peak, write_headed_csv
from mfgl.exceptions import InvalidConfig, MatrixIOError
from mfgl.matio import (
    FORMATS,
    MAGIC,
    VERSION,
    copy_rows,
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
    write_headed_csv(path, a, ["x", "y"])
    first = path.read_text().splitlines()[0]
    assert first == "x,y"
    assert np.array_equal(read_csv(path, header=True), a)
    with pytest.raises(MatrixIOError):
        read_csv(path)  # header cells are not numbers


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


def _per_element_csv(a):
    """The per-element %.17g writer `write_csv` replaced: its bytes are the
    golden reference for the row-template writer."""
    lines = [",".join(f"{x:.17g}" for x in row) for row in a]
    return ("\n".join(lines) + "\n").encode()


def test_csv_bytes_match_per_element_format(tmp_path, rng):
    sign = rng.choice([-1.0, 1.0], size=(40, 5))
    a = sign * 10.0 ** rng.uniform(-300, 300, size=(40, 5))
    a[0] = [0.0, -0.0, np.nan, np.inf, -np.inf]
    a[1] = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    path = tmp_path / "a.csv"
    write_csv(path, a)
    assert path.read_bytes() == _per_element_csv(a)


@settings(max_examples=200)
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


_CELL_TEXTS = st.tuples(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["{!r}", "{:.17g}", " {:.3e}", "{:g} "]),
).map(lambda cell: cell[1].format(cell[0]))
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _csv_texts(draw):
    """A CSV file's text with a header, with blank lines and mixed line
    ends, and the number of data rows it holds."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_CELL_TEXTS, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    lines = [",".join(["h"] * width)]
    for row in rows:
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        lines.append(",".join(row))
    ends = draw(st.lists(_LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last row
    return "".join(line + end for line, end in zip(lines, ends)), len(rows)


@settings(max_examples=200)
@given(_csv_texts(), st.data())
def test_csv_row_copy_property(tmp_path_factory, csv, data):
    # the copier finds the rows the reader reads, and keeps each one's value
    text, n = csv
    order = data.draw(st.permutations(range(n)))
    src = tmp_path_factory.getbasetemp() / "rows.csv"
    dst = tmp_path_factory.getbasetemp() / "rows_copy.csv"
    src.write_bytes(text.encode())
    copy_rows(src, dst, order, "csv", header=True)
    assert read_csv(dst).tobytes() == read_csv(src, header=True)[order].tobytes()


@pytest.mark.parametrize("fmt", FORMATS)
def test_row_copy_onto_its_source_and_its_errors(tmp_path, fmt):
    src = tmp_path / "a"
    write_matrix(src, [[1.0, 2.0], [3.0, 4.0]], fmt)
    copy_rows(src, src, [1, 0], fmt)
    assert np.array_equal(read_matrix(src, fmt), [[3.0, 4.0], [1.0, 2.0]])
    with pytest.raises(MatrixIOError, match="cannot copy"):
        copy_rows(src, tmp_path / "b", [2, 0, 1], fmt)  # a row the file lacks
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]
    with pytest.raises(MatrixIOError, match="cannot (copy|read)"):
        copy_rows(tmp_path / "missing", tmp_path / "b", [1, 0], fmt)
    with pytest.raises(InvalidConfig):
        copy_rows(src, tmp_path / "b", [1, 0], "xlsx")


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
    with pytest.raises(MatrixIOError, match="cannot copy"):
        copy_rows(path, tmp_path / "b.csv", [0], "csv")


@pytest.mark.parametrize("fmt, bound", [("csv", 1.5), ("bin", 1.2)])
def test_reader_peak_stays_near_the_matrix(tmp_path, rng, fmt, bound):
    # the CSV reader streams the file, the binary reader keeps the bytes
    # it read; neither holds a second copy of the matrix
    a = rng.normal(size=(1000, 256))
    path = tmp_path / f"a.{fmt}"
    write_matrix(path, a, fmt)
    back, peak = traced_peak(lambda: read_matrix(path, fmt))
    assert peak < bound * a.nbytes
    assert np.array_equal(back, a)
    assert not back.flags.writeable


@pytest.mark.parametrize("block_values", [None, 7])
@pytest.mark.parametrize("fmt", FORMATS)
def test_row_blocks_write_the_bytes_of_their_array(tmp_path, rng, monkeypatch, fmt, block_values):
    # blocks of any row counts, an empty one among them, each split again
    # into the writer's blocks (two rows of three at 7 values), write the
    # file the whole array writes
    if block_values is not None:
        monkeypatch.setattr(mfgl.matio, "_BLOCK_VALUES", block_values)
    a = rng.normal(size=(11, 3))
    write_matrix(tmp_path / "whole", a, fmt)
    write_matrix(tmp_path / "blocks", iter([a[:1], a[1:6], a[6:6], a[6:]]), fmt)
    assert (tmp_path / "blocks").read_bytes() == (tmp_path / "whole").read_bytes()
    with pytest.raises(MatrixIOError, match="columns"):
        write_matrix(tmp_path / "ragged", iter([a, a[:, :2]]), fmt)


def test_binary_writer_copies_no_rows(tmp_path, rng):
    # each block is written from the array's own buffer: 0.003x the
    # matrix when measured (1.0x while the payload went through tobytes())
    a = rng.normal(size=(1000, 256))
    _, peak = traced_peak(lambda: write_binary(tmp_path / "a.bin", a))
    assert peak < 0.05 * a.nbytes
    assert read_binary(tmp_path / "a.bin").tobytes() == a.tobytes()


def test_binary_row_copy_holds_the_rows_once(tmp_path, rng):
    # the rows read, and one block of them in the new order: 1.10x the
    # rows when measured (2.0x while the whole reordered copy was formed)
    a = rng.normal(size=(1000, 256))
    src, dst = tmp_path / "a.bin", tmp_path / "b.bin"
    write_binary(src, a)
    order = rng.permutation(len(a))
    _, peak = traced_peak(lambda: copy_rows(src, dst, order, "bin"))
    assert peak < 1.2 * a.nbytes
    assert read_binary(dst).tobytes() == a[order].tobytes()


def test_binary_round_trip_is_exact(tmp_path, rng):
    a = rng.normal(size=(7, 2))
    path = tmp_path / "a.bin"
    write_binary(path, a)
    assert np.array_equal(read_binary(path), a)


def test_binary_reader_returns_an_aligned_array(tmp_path, rng):
    # the 21-byte header leaves the payload off 8-byte alignment in the
    # file; numpy multiplies unaligned arrays without BLAS, rounding
    # differently, so a view over the file's bytes gave another B^T B
    # (the truncated factor's product of the first M eigenvector rows)
    a = rng.normal(size=(100, 20))
    path = tmp_path / "a.bin"
    write_binary(path, a)
    b = read_binary(path)
    assert b.flags.aligned and b.flags.owndata and not b.flags.writeable
    for rows in (slice(None), slice(0, 5), slice(1, 6)):
        x, y = a[rows], b[rows]
        assert (y.T @ y).tobytes() == (x.T @ x).tobytes()


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


def test_binary_header_checked_against_the_file_size(tmp_path):
    # a header that claims more than the file holds is refused before any
    # array of the claimed size is allocated
    path = tmp_path / "a.bin"
    path.write_bytes(struct.pack("<4sBQQ", MAGIC, VERSION, 1 << 40, 1 << 10))
    with pytest.raises(MatrixIOError, match="payload is 0 bytes"):
        read_binary(path)


@pytest.mark.parametrize("rows, cols", [(1 << 63, 0), (0, 1 << 63), (0, (1 << 64) - 1)])
def test_binary_empty_header_too_large_for_an_array_rejected(tmp_path, rows, cols):
    # no payload is due, but numpy holds no dimension of 2^63 or more
    path = tmp_path / "a.bin"
    path.write_bytes(struct.pack("<4sBQQ", MAGIC, VERSION, rows, cols))
    with pytest.raises(MatrixIOError, match=f"{path}: cannot hold a {rows}x{cols} matrix"):
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


def test_csv_writer_refuses_a_3d_array(tmp_path):
    with pytest.raises(MatrixIOError, match="matrices must be 2-D, got ndim=3"):
        write_csv(tmp_path / "a.csv", np.ones((2, 2, 2)))
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("writer", [write_csv, write_binary])
def test_writers_refuse_a_directory_that_does_not_exist(tmp_path, writer):
    with pytest.raises(MatrixIOError, match="cannot write"):
        writer(tmp_path / "missing" / "a", np.ones((2, 2)))
