"""Boundary unit conversions and the artifact file formats.

Everything inside the library is SI (m, kg, s, Pa, Hz).  Config files and
the CLI speak the bench units used on the printer and datasheets
(mm, g/cm3, MPa, kHz); these helpers are the single place where the
conversion happens, and so where each unit's text is decided.  The one
writer of the numeric tables (feasible grid, sweep, layouts, mean
spectra) is `write_csv`: mm text where a header says so, else `repr`
(one text list for the equal float columns of a chunk), and CRLF row
ends.  The one writer of the JSON artifacts (run_params, freq, bands,
ratios and recording sidecars) is `write_json`, which decides their
layout.  The PCM full scale of a WAV sample is decided in `dataset`.
"""

from __future__ import annotations

import itertools
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
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _mm_labels(values: np.ndarray) -> list[str]:
    """`.6g` mm text of each value, formatted once per distinct value."""
    axis, index = np.unique(values, return_inverse=True)
    labels = [f"{m_to_mm(v):.6g}" for v in axis.tolist()]
    return [labels[i] for i in index.tolist()]


def _chunk_text(names: list[str], columns, rows: slice) -> list:
    """One iterable of cell text per column, over the given rows.

    A float column's `repr` text is one list, which a later float column
    whose chunk has the same bits shares, so a point-density material
    formats each frequency once."""
    texts: list = []
    seen: list[tuple[np.ndarray, list[str]]] = []  # (bits, their text)
    for name, column in zip(names, columns):
        if isinstance(column, str):
            texts.append(itertools.repeat(column))
        elif column.dtype.kind != "f":
            texts.append(column[rows].tolist())
        elif name.endswith("_mm"):
            texts.append(_mm_labels(column[rows]))
        else:
            bits = column[rows].astype(np.float64, copy=False).view(np.int64)
            text = next((t for b, t in seen if np.array_equal(b, bits)), None)
            if text is None:
                seen.append((bits, text := list(map(repr, bits.view(np.float64).tolist()))))
            texts.append(text)
    return texts


def write_csv(path: str | Path, header: str, columns, tail=()) -> None:
    """Write the comma-separated `header`, the rows of `columns`, then the
    `tail` rows.

    Each column is one of:
    - a str: the same text on every row;
    - a numpy str array: its text as is;
    - a float array: `.6g` mm text of its values in m when its header name
      ends in ``_mm``, formatted once per distinct value, else `repr`.
      Float columns whose chunks have the same bits share one list of
      `repr` text, formatted once.

    Rows are formatted _CSV_CHUNK_ROWS at a time, and each chunk is
    written with one `write`; its text lists live until then.
    A tail row is a sequence of str and floats (written with `repr`).  No
    text is quoted, so it must hold no comma, quote or line break; free text
    such as labels and material names goes through `csv` instead.
    """
    n = max((len(c) for c in columns if not isinstance(c, str)), default=0)
    names = header.split(",")
    with Path(path).open("w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, n, _CSV_CHUNK_ROWS):
            cells = _chunk_text(names, columns, slice(start, start + _CSV_CHUNK_ROWS))
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
        fh.writelines(
            ",".join(c if isinstance(c, str) else repr(c) for c in row) + "\r\n" for row in tail
        )
