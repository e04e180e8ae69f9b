"""Matrix file I/O: CSV and a small binary container.

CSV: one data point per row, '.' decimal separator, comma-delimited.  The
writer writes no header; the readers skip a header line on request.
Values are written with %.17g so float64 round-trips exactly.  The reader
skips blank and whitespace-only lines and accepts CRLF line ends; it
allows no ``#`` comments, no quoting and no ``_`` digit separators.  It
streams the open file through one ``numpy.loadtxt`` call, checking each
row's field count on the way, and reads the file a second time only to
name the line of a cell that fails to parse.  :func:`copy_rows` reorders
a file's rows without parsing them.

Both readers return read-only arrays, which the frozen containers of
:mod:`mfgl.data` take without a copy.  Both writers take a matrix as an
array or as an iterator of row blocks of one width, so a caller can
write a matrix it forms a block at a time and never holds whole.  They
write ``block_rows(cols)`` rows at a time: a CSV block is formatted
alone, and a binary block is written from the array's own buffer.

Binary: magic b"MFGL", one version byte 0x01, then two little-endian u64
values (rows, cols), then rows*cols IEEE-754 f64 values, little-endian,
row-major.
"""

from __future__ import annotations

import itertools
import os
import struct
from collections.abc import Iterator
from pathlib import Path
from typing import Union

import numpy as np

from .config import FORMATS
from .exceptions import InvalidConfig, MatrixIOError

MAGIC = b"MFGL"
VERSION = 0x01
_HEADER = struct.Struct("<4sBQQ")

PathLike = Union[str, Path]

# Values in one row block of a write, and of the estimates the estimate
# step forms.  A CSV block's Python floats and strings take about 75 bytes
# a value (0.6 MB here); a 2000 x 256 matrix wrote no slower in these
# blocks than in blocks eight times larger, whose strings outweighed it.
_BLOCK_VALUES = 1 << 13


def block_rows(cols: int) -> int:
    """Rows in one block of a matrix with ``cols`` columns: about
    ``_BLOCK_VALUES`` values, and at least one row."""
    return max(1, _BLOCK_VALUES // max(1, cols))


def _as_matrix(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out[None, :]
    if out.ndim != 2:
        raise MatrixIOError(f"matrices must be 2-D, got ndim={out.ndim}")
    return out


def _row_blocks(a) -> tuple[int, Iterator[np.ndarray]]:
    """The width of a matrix given as an array or as an iterator of 2-D
    row blocks, and its rows in blocks of at most :func:`block_rows`.

    The first block is taken and checked before this returns, so a bad
    array is refused before a writer opens its file; an iterator without
    blocks is a 0 x 0 matrix.
    """
    blocks = a if isinstance(a, Iterator) else iter([a])
    first = _as_matrix(next(blocks, np.empty((0, 0))))
    cols = first.shape[1]

    def split():
        step = block_rows(cols)
        for block in itertools.chain([first], map(_as_matrix, blocks)):
            if block.shape[1] != cols:
                raise MatrixIOError(f"a row block has {block.shape[1]} columns, not {cols}")
            for start in range(0, block.shape[0], step):
                yield block[start : start + step]

    return cols, split()


def write_csv(path: PathLike, a) -> None:
    """Write a matrix, an array or an iterator of row blocks, as
    comma-separated %.17g rows.

    Each block of :func:`block_rows` rows is formatted and written alone,
    so no write holds the whole matrix as text.
    """
    cols, blocks = _row_blocks(a)
    # one row template per row keeps the per-value formatting in C
    row = ",".join(["%.17g"] * cols) + "\n"
    try:
        with open(path, "w") as fh:
            for block in blocks:
                fh.write("".join(row % tuple(values) for values in block.tolist()))
    except OSError as exc:
        raise MatrixIOError(f"cannot write {path}: {exc}") from exc


def read_csv(path: PathLike, header: bool = False) -> np.ndarray:
    """Read a comma-separated matrix; set ``header=True`` to skip row one.

    The open file streams through one ``np.loadtxt`` call, so neither the
    file's text nor its list of lines is ever held; only a parse failure
    reads the file again, to name the line.  Errors name the 1-based line
    of the file, counting skipped lines.  The array is returned read-only.
    """
    try:
        with open(path) as fh:
            rows = _data_rows(fh, header, path)
            first = next(rows, None)
            if first is None:
                raise MatrixIOError(f"{path}: no data rows")
            lines = itertools.chain([first[1]], (line for _, line in rows))
            try:
                out = np.loadtxt(
                    lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2
                )
            except ValueError as exc:
                fh.seek(0)
                raise MatrixIOError(
                    _parse_error(path, _data_rows(fh, header, path), exc)
                ) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixIOError(f"cannot read {path}: {exc}") from exc
    out.setflags(write=False)
    return out


def _data_rows(lines, header: bool, path: PathLike):
    """(1-based line number, line) of each data row of the lines of a CSV
    file: the header line (with ``header``) and blank or whitespace-only
    lines are skipped, and a row whose field count differs from the first
    row's raises."""
    width = None
    for ln, line in enumerate(lines, 1):
        if (ln == 1 and header) or not line.strip():
            continue
        fields = line.count(",") + 1
        if width is None:
            width = fields
        elif fields != width:
            raise MatrixIOError(
                f"{path}: line {ln} has {fields} fields, expected {width}"
            )
        yield ln, line


def _parse_error(path: PathLike, rows, exc: ValueError) -> str:
    """Name the file line of the first cell ``float()`` rejects; a cell only
    the stricter parser rejects (e.g. ``1_0``) keeps its message."""
    for ln, line in rows:
        for cell in line.rstrip("\n").split(","):
            try:
                float(cell)
            except ValueError as cell_exc:
                return f"{path}: line {ln}: {cell_exc}"
    return f"{path}: {exc}"


def write_binary(path: PathLike, a) -> None:
    """Write a matrix, an array or an iterator of row blocks, in the MFGL
    binary container.

    Each block of :func:`block_rows` rows is written from its own buffer
    (copied only if it is not C-contiguous little-endian float64), and
    the row count is written into the header once the blocks are done.
    """
    cols, blocks = _row_blocks(a)
    try:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, 0, cols))
            rows = 0
            for block in blocks:
                fh.write(np.ascontiguousarray(block, dtype="<f8"))
                rows += block.shape[0]
            fh.seek(0)
            fh.write(_HEADER.pack(MAGIC, VERSION, rows, cols))
    except OSError as exc:
        raise MatrixIOError(f"cannot write {path}: {exc}") from exc


def read_binary(path: PathLike) -> np.ndarray:
    """Read a matrix from the MFGL binary container into a new, aligned,
    read-only array (one copy).  A view over the file's bytes would be off
    8-byte alignment (the header is 21 bytes), and numpy multiplies such
    arrays without BLAS, rounding differently."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise MatrixIOError(f"{path}: truncated header")
            magic, version, rows, cols = _HEADER.unpack(head)
            if magic != MAGIC:
                raise MatrixIOError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
            if version != VERSION:
                raise MatrixIOError(f"{path}: unsupported version {version}")
            expected = 8 * rows * cols
            payload = os.fstat(fh.fileno()).st_size - _HEADER.size
            if payload == expected:
                try:
                    out = np.empty((rows, cols), dtype="<f8")
                except ValueError as exc:  # an empty shape numpy cannot index, 2^63 x 0
                    raise MatrixIOError(f"{path}: cannot hold a {rows}x{cols} matrix: {exc}") from exc
                payload = fh.readinto(out)  # fewer bytes if the file shrank meanwhile
            if payload != expected:
                raise MatrixIOError(f"{path}: payload is {payload} bytes, "
                                    f"expected {expected} for {rows}x{cols}")
    except OSError as exc:
        raise MatrixIOError(f"cannot read {path}: {exc}") from exc
    out.setflags(write=False)  # read-only and owned, so frozen() shares it
    return out


def copy_rows(src: PathLike, dst: PathLike, order, fmt: str, header: bool = False) -> None:
    """Write the data rows of matrix file ``src`` to ``dst`` in ``order``,
    each unchanged: a binary row keeps its bytes, and a CSV row, found by
    the reader's rules, its text, with a line end added where missing.

    Both write a new file that replaces ``dst`` once complete, so ``src``
    may be ``dst``.  A binary copy holds the rows read and one block of
    them in ``order``, never a reordered copy of them all.
    """
    part = f"{dst}.part"
    try:
        if fmt != "csv":  # bin, or read_matrix refuses the name
            rows = read_matrix(src, fmt)
            step = block_rows(rows.shape[1])
            write_binary(part, (rows[order[s : s + step]] for s in range(0, len(order), step)))
        else:
            with open(src) as fin, open(part, "w") as fout:
                starts = []  # each line's offset, for seek

                def lines():
                    while True:
                        starts.append(fin.tell())
                        line = fin.readline()
                        if not line:
                            return
                        yield line

                found = [ln for ln, _ in _data_rows(lines(), header, src)]
                for i in order:
                    fin.seek(starts[found[i] - 1])
                    line = fin.readline()
                    fout.write(line if line.endswith("\n") else line + "\n")
        os.replace(part, dst)
    except (OSError, UnicodeDecodeError, IndexError, MatrixIOError) as exc:
        Path(part).unlink(missing_ok=True)
        raise MatrixIOError(f"cannot copy {src} to {dst}: {exc}") from exc


def read_matrix(path: PathLike, fmt: str, header: bool = False) -> np.ndarray:
    """Read a matrix stored in format ``fmt`` (one of :data:`FORMATS`);
    ``header`` applies to CSV only."""
    if fmt == "bin":
        return read_binary(path)
    if fmt == "csv":
        return read_csv(path, header=header)
    raise InvalidConfig(f"matrix format must be one of {FORMATS}, got {fmt!r}")


def write_matrix(path: PathLike, a, fmt: str) -> None:
    """Write a matrix, an array or an iterator of row blocks, in format
    ``fmt`` (one of :data:`FORMATS`)."""
    if fmt == "bin":
        write_binary(path, a)
    elif fmt == "csv":
        write_csv(path, a)
    else:
        raise InvalidConfig(f"matrix format must be one of {FORMATS}, got {fmt!r}")
