"""`units.write_csv`: its float text against `repr`, its refusal of text that
would need quoting or a column of another kind, and the formatter module
that only a write imports.

The oracle test runs the writer's own chunk path over seeded random bit
patterns and over the values where shortest-digit printing goes wrong most
often: powers of 2 and 10 and their neighbours, the edges between
positional and exponent text, integers around 2**53, zeros, subnormals,
infinities and NaN.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vibroprint as vp
from vibroprint import units


def written(values: np.ndarray) -> list[bytes]:
    """Each value's text as `write_csv` writes a float column, 2**16 at a time."""
    out = []
    for start in range(0, len(values), 2**16):
        chunk = values[start : start + 2**16]
        out += units._chunk_bytes(["x"], [chunk], slice(None), len(chunk)).split(b"\r\n")[:-1]
    return out


def neighbours(values) -> np.ndarray:
    values = np.asarray(values, np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def test_float_text_is_repr():
    rng = np.random.default_rng(20_231_001)
    edges = [1e-5, 1e-4, 1e16, 1e17, 2.0**53, np.finfo(np.float64).smallest_normal]
    values = np.concatenate([
        rng.integers(0, 2**64, 2**20, dtype=np.uint64).view(np.float64),
        neighbours([2.0**e for e in range(-1022, 1024)] + [10.0**e for e in range(-307, 309)]),
        neighbours(edges + [-v for v in edges]),
        np.arange(2**53 - 300, 2**53 + 300, dtype=np.float64),
        [np.finfo(np.float64).max, 0.0, -0.0, 5e-324, -5e-324, 2.0**-1074 * 12345, np.nextafter(2.0**-1022, 0)],
        [np.inf, -np.inf, np.nan],
    ])
    want = [repr(v).encode() for v in values.tolist()]
    got = written(values)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:10]


@pytest.mark.parametrize("char", list(',"\r\n\0'), ids=["comma", "quote", "cr", "lf", "nul"])
@pytest.mark.parametrize("where", ["str", "array", "tail"])
def test_text_that_would_need_quoting_is_refused(tmp_path, char, where):
    text = f"a{char}b"
    columns = {
        "str": [text, np.array([1.0])],
        "array": [np.array(["ok", text]), np.array([1.0, 2.0])],
        "tail": [np.array(["ok"]), np.array([1.0])],
    }[where]
    tail = [(text, 2.0)] if where == "tail" else ()
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=re.escape(f"CSV column 'label': {text!r} holds")):
        units.write_csv(path, "label,value", columns, tail)
    assert not path.exists()


def test_text_is_written_as_utf8(tmp_path):
    path = tmp_path / "t.csv"
    units.write_csv(path, "label,value", [np.array(["µ", "naïve"]), np.array([1.0, 2.5])], [("Ω", 3.0)])
    assert path.read_bytes() == "label,value\r\nµ,1.0\r\nnaïve,2.5\r\nΩ,3.0\r\n".encode()


@pytest.mark.parametrize(
    "columns, tail",
    [
        ([np.array(["a"]), np.array([1])], ()),
        ([np.array(["a"]), np.array([1.0], dtype=object)], ()),
        ([np.array(["a"]), np.array([[1.0]])], ()),
        ([np.array(["a"]), [1.0]], ()),
        ([np.array(["a"]), np.array([1.0])], [("b", 2)]),
        ([np.array(["a"]), np.array([1.0])], [("b", None)]),
    ],
    ids=["int-column", "object-column", "2d-column", "list-column", "int-cell", "none-cell"],
)
def test_a_column_or_cell_of_another_kind_is_refused(tmp_path, columns, tail):
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError, match="CSV column 'value' holds"):
        units.write_csv(path, "label,value", columns, tail)
    assert not path.exists()


@pytest.mark.parametrize("lengths", [(1, 3), (3, 1), (2, 3)])
def test_columns_of_unequal_length_are_refused(tmp_path, lengths):
    path = tmp_path / "t.csv"
    columns = [np.array(["a"] * lengths[0]), np.arange(lengths[1], dtype=np.float64)]
    with pytest.raises(ValueError, match="CSV column '(label|value)' has . rows, not 3"):
        units.write_csv(path, "label,value", columns)
    assert not path.exists()


def test_a_column_per_header_name(tmp_path):
    with pytest.raises(ValueError):
        units.write_csv(tmp_path / "t.csv", "label,value", [np.array([1.0])])
    assert not (tmp_path / "t.csv").exists()


def test_import_compiles_no_formatter():
    src = Path(vp.__file__).resolve().parent.parent
    code = "import sys, vibroprint, vibroprint.cli; print('vibroprint.floatrepr' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"
