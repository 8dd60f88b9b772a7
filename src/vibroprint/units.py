"""Boundary unit conversions and the artifact file formats.

Everything inside the library is SI (m, kg, s, Pa, Hz).  Config files and
the CLI speak the bench units used on the printer and datasheets
(mm, g/cm3, MPa, kHz); these helpers are the single place where the
conversion happens, and so where each unit's text is decided.  The one
writer of the numeric tables (feasible grid, sweep, layouts, mean
spectra) is `write_csv`: mm text where a header says so, else the text of
`repr`, made for a whole chunk of floats at once by the numpy kernel in
`floatrepr` (one block for the equal float columns of a chunk), and CRLF
row ends.  The one writer of the JSON artifacts
(run_params, freq, bands, ratios and recording sidecars) is `write_json`,
which decides their layout.  The PCM full scale of a WAV sample is decided
in `dataset`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MM_PER_M = 1e3
MPA_PER_PA = 1e-6
G_CM3_PER_KG_M3 = 1e-3

# Rows write_csv formats and writes at once.
_CSV_CHUNK_ROWS = 2**12


def mm_to_m(value_mm: float) -> float:
    return value_mm / MM_PER_M


def m_to_mm(value_m: float) -> float:
    return value_m * MM_PER_M


def mpa_to_pa(value_mpa: float) -> float:
    return value_mpa / MPA_PER_PA


def g_cm3_to_kg_m3(value_g_cm3: float) -> float:
    return value_g_cm3 / G_CM3_PER_KG_M3


def khz_to_hz(value_khz: float) -> float:
    return value_khz * 1e3


def hz_to_khz(value_hz: float) -> float:
    return value_hz / 1e3


def write_json(path: str | Path, data) -> None:
    """Write `data` as JSON indented by 2 with sorted keys, and a final newline."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _mm_labels(values: np.ndarray) -> np.ndarray:
    """`.6g` mm text of each value, as bytes formatted once per distinct bit
    pattern (so -0.0 keeps its sign beside 0.0)."""
    axis, index = np.unique(np.ascontiguousarray(values, np.float64).view(np.int64), return_inverse=True)
    return np.array([f"{m_to_mm(v):.6g}".encode() for v in axis.view(np.float64).tolist()], dtype="S")[index]


# What a text cell may not hold, since no cell is quoted.
_FORBIDDEN = ',"\r\n\0'
_COMMA, _CRLF = np.array([[44]], np.uint8), np.array([[13, 10]], np.uint8)


def _text(name: str, column):
    """A str as bytes, or a numpy str array as NUL-padded UTF-8 bytes.  Text
    that holds a comma, double quote, CR, LF or NUL is a ValueError naming
    the column."""
    # tolist drops a numpy str's NUL padding but keeps a NUL inside its text.
    for text in [column] if isinstance(column, str) else column.tolist():
        if any(ch in text for ch in _FORBIDDEN):
            raise ValueError(f"CSV column {name!r}: {text!r} holds a comma, double quote, CR, LF or NUL")
    return column.encode() if isinstance(column, str) else np.strings.encode(column, "utf-8")


def _column(name: str, column):
    """A column as `_chunk_bytes` takes it: text as bytes, a float array as
    is.  Anything else is a TypeError naming the column."""
    if isinstance(column, str):
        return _text(name, column)
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind in "Uf":
        return _text(name, column) if column.dtype.kind == "U" else column
    kind = getattr(column, "dtype", type(column).__name__)
    raise TypeError(f"CSV column {name!r} holds {kind}, not a str, a numpy str array or a float array")


def _uint8_rows(text: np.ndarray) -> np.ndarray:
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _chunk_bytes(names: list[str], columns, rows: slice, n: int) -> bytes:
    """The CSV text of the n given rows.

    Each column's cells are one NUL-padded block of bytes.  A float column
    shares the block of an earlier float column whose chunk has the same
    bits, so a point-density material formats each frequency once."""
    blocks = []
    seen: list[tuple[np.ndarray, np.ndarray]] = []  # (bits, their block)
    for name, column in zip(names, columns):
        if isinstance(column, bytes):
            block = np.frombuffer(column, np.uint8)[None]
        elif column.dtype.kind == "S":
            block = _uint8_rows(column[rows])
        elif name.endswith("_mm"):
            block = _uint8_rows(_mm_labels(column[rows]))
        else:
            bits = np.ascontiguousarray(column[rows], dtype=np.float64).view(np.int64)
            block = next((b for s, b in seen if np.array_equal(s, bits)), None)
            if block is None:
                from . import floatrepr  # here, so that importing the package compiles none of it

                seen.append((bits, block := floatrepr.repr_block(bits.view(np.float64))))
        blocks += [block, _COMMA]
    blocks[-1] = _CRLF
    text = np.concatenate([np.broadcast_to(b, (n, b.shape[1])) for b in blocks], axis=1)
    return text.tobytes().translate(None, b"\0")


def write_csv(path: str | Path, header: str, columns, tail=()) -> None:
    """Write the comma-separated `header`, the rows of `columns`, then the
    `tail` rows, each row ended by CRLF.

    There is one column per header name, each one of:
    - a str: the same text on every row;
    - a numpy str array: its text as is;
    - a float array: `.6g` mm text of its values in m when its header name
      ends in ``_mm``, formatted once per distinct bit pattern, else the
      bytes of `repr(float(v))`, made by `floatrepr.repr_block` with no
      `repr` call for a normal double.  Float columns whose chunks have the
      same bits share one formatted block.
    Every array has the same length.  A tail row has one cell per header
    name, each a str or a float (numpy floats too), and is written as a
    one-row chunk of such columns.  Any other column or cell is a
    TypeError, and arrays of unequal length a ValueError, each naming the
    column.

    Rows are formatted _CSV_CHUNK_ROWS at a time, and each chunk is written
    with one `write`.  Text is written as UTF-8 and never quoted, so a str
    cell that holds a comma, double quote, CR, LF or NUL is a ValueError
    naming its column.  Every error is raised before the file is opened;
    free text such as labels and material names goes through `csv` instead.
    """
    names = header.split(",")
    columns = [_column(name, c) for name, c in zip(names, columns, strict=True)]
    tail = [
        [_column(name, c if isinstance(c, str) else np.array([c])) for name, c in zip(names, row, strict=True)]
        for row in tail
    ]
    n = max((len(c) for c in columns if not isinstance(c, bytes)), default=0)
    for name, c in zip(names, columns):
        if not isinstance(c, bytes) and len(c) != n:
            raise ValueError(f"CSV column {name!r} has {len(c)} rows, not {n}")
    with Path(path).open("wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for start in range(0, n, _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            fh.write(_chunk_bytes(names, columns, rows, min(n - start, _CSV_CHUNK_ROWS)))
        for row in tail:
            fh.write(_chunk_bytes(names, row, slice(0, 1), 1))
