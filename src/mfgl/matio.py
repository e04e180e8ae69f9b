"""Matrix file I/O: CSV and a small binary container.

CSV: one data point per row, '.' decimal separator, comma-delimited, no
header by default (an optional header row is supported via flag).  Values
are written with %.17g so float64 round-trips exactly.  The reader skips
blank and whitespace-only lines and accepts CRLF line ends; it allows no
``#`` comments, no quoting and no ``_`` digit separators.  It streams the
open file through one ``numpy.loadtxt`` call, checking each row's field
count on the way, and reads the file a second time only to name the line
of a cell that fails to parse.

Both readers return read-only arrays, which the frozen containers of
:mod:`mfgl.data` take without a copy.

Binary: magic b"MFGL", one version byte 0x01, then two little-endian u64
values (rows, cols), then rows*cols IEEE-754 f64 values, little-endian,
row-major.
"""

from __future__ import annotations

import itertools
import struct
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .config import FORMATS
from .data import frozen
from .exceptions import InvalidConfig, MatrixIOError

MAGIC = b"MFGL"
VERSION = 0x01
_HEADER = struct.Struct("<4sBQQ")

PathLike = Union[str, Path]

# Values write_csv formats per write call.
_CSV_CHUNK_VALUES = 1 << 16


def _as_matrix(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out[None, :]
    if out.ndim != 2:
        raise MatrixIOError(f"matrices must be 2-D, got ndim={out.ndim}")
    return out


def write_csv(path: PathLike, a, header: Optional[Sequence[str]] = None) -> None:
    """Write a matrix as comma-separated %.17g rows.

    Rows are formatted and written ``_CSV_CHUNK_VALUES`` values at a time,
    so no write holds the whole matrix as text.
    """
    a = _as_matrix(a)
    if header is not None and len(header) != a.shape[1]:
        raise MatrixIOError(f"header has {len(header)} names for {a.shape[1]} columns")
    # one row template per row keeps the per-value formatting in C
    row = ",".join(["%.17g"] * a.shape[1]) + "\n"
    step = max(1, _CSV_CHUNK_VALUES // max(1, a.shape[1]))
    try:
        with open(path, "w") as fh:
            if header is not None:
                fh.write(",".join(str(h) for h in header) + "\n")
            elif a.shape[0] == 0:
                fh.write("\n")  # a matrix without rows or header is one empty line
            for start in range(0, a.shape[0], step):
                chunk = a[start : start + step].tolist()
                fh.write("".join(row % tuple(values) for values in chunk))
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


def _data_rows(fh, header: bool, path: PathLike):
    """(1-based line number, line) of each data row of an open CSV file:
    the header line (with ``header``) and blank or whitespace-only lines
    are skipped, and a row whose field count differs from the first
    row's raises."""
    width = None
    for ln, line in enumerate(fh, start=1):
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
    """Write a matrix in the MFGL binary container."""
    a = _as_matrix(a)
    rows, cols = a.shape
    payload = np.ascontiguousarray(a, dtype="<f8").tobytes()
    try:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, rows, cols))
            fh.write(payload)
    except OSError as exc:
        raise MatrixIOError(f"cannot write {path}: {exc}") from exc


def read_binary(path: PathLike) -> np.ndarray:
    """Read a matrix from the MFGL binary container, as a read-only array
    over the bytes read (no second copy)."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise MatrixIOError(f"cannot read {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise MatrixIOError(f"{path}: truncated header")
    magic, version, rows, cols = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise MatrixIOError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise MatrixIOError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 8 * rows * cols
    if len(blob) != expected:
        raise MatrixIOError(
            f"{path}: payload is {len(blob) - _HEADER.size} bytes, "
            f"expected {8 * rows * cols} for {rows}x{cols}"
        )
    # read-only over the immutable bytes, so frozen() shares it
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    return frozen(data.reshape(rows, cols))


def read_matrix(path: PathLike, fmt: str, header: bool = False) -> np.ndarray:
    """Read a matrix stored in format ``fmt`` (one of :data:`FORMATS`);
    ``header`` applies to CSV only."""
    if fmt == "bin":
        return read_binary(path)
    if fmt == "csv":
        return read_csv(path, header=header)
    raise InvalidConfig(f"matrix format must be one of {FORMATS}, got {fmt!r}")


def write_matrix(path: PathLike, a, fmt: str) -> None:
    """Write a matrix in format ``fmt`` (one of :data:`FORMATS`)."""
    if fmt == "bin":
        write_binary(path, a)
    elif fmt == "csv":
        write_csv(path, a)
    else:
        raise InvalidConfig(f"matrix format must be one of {FORMATS}, got {fmt!r}")
