"""`units.write_csv`: its float text against `repr`, its refusal of text that
would need quoting or a column of another kind, and the formatter module
that only a write imports.

The oracle test runs the writer's own chunk path over seeded random bit
patterns and over the values where shortest-digit printing goes wrong most
often: powers of 2 and 10 and their neighbours, the edges between
positional and exponent text, integers around 2**53, zeros, subnormals,
infinities and NaN.  On the same values, the rounding bounds the kernel
derives from each value's one product are checked against Java's `rop` on
each bound, and the exact fallback near an integer is counted.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vibroprint as vp
from vibroprint import floatrepr, units


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


def oracle_values() -> np.ndarray:
    rng = np.random.default_rng(20_231_001)
    edges = [1e-5, 1e-4, 1e16, 1e17, 2.0**53, np.finfo(np.float64).smallest_normal]
    return np.concatenate([
        rng.integers(0, 2**64, 2**20, dtype=np.uint64).view(np.float64),
        neighbours([2.0**e for e in range(-1022, 1024)] + [10.0**e for e in range(-307, 309)]),
        neighbours(edges + [-v for v in edges]),
        np.arange(2**53 - 300, 2**53 + 300, dtype=np.float64),
        [np.finfo(np.float64).max, 0.0, -0.0, 5e-324, -5e-324, 2.0**-1074 * 12345, np.nextafter(2.0**-1022, 0)],
        [np.inf, -np.inf, np.nan],
    ])


def test_float_text_is_repr():
    values = oracle_values()
    want = [repr(v).encode() for v in values.tolist()]
    got = written(values)
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:10]


def test_float_text_is_unchanged_with_every_bound_from_rop(monkeypatch):
    values = oracle_values()
    derived = written(values)
    monkeypatch.setattr(floatrepr, "_MARGIN", np.uint64(2**63))  # every value is near
    assert written(values) == derived
    patterns = values[: 2**16]
    through_bounds = sum(len(c) for (_, c, _, _), _ in spied("_bounds", patterns))
    assert fallback_rows(patterns) == through_bounds > 2**16 * 0.9


def spied(name: str, values: np.ndarray) -> list:
    """Each call that `repr_block` makes to `floatrepr.<name>`, 2**16 values
    at a time: its arguments and its result."""
    calls, real = [], getattr(floatrepr, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(floatrepr, name, spy)
        for start in range(0, len(values), 2**16):
            floatrepr.repr_block(values[start : start + 2**16])
    return calls


def fallback_rows(values: np.ndarray) -> int:
    """How many values' bounds `rop` computed, near an integer."""
    return sum(len(cp) for (_, cp), _ in spied("_rop", values)) // 2  # vbl and vbr


def test_derived_bounds_are_rops():
    calls = spied("_bounds", oracle_values())
    assert sum(len(c) for (_, c, _, _), _ in calls) > 2**20 * 0.9
    for (g, c, h, irregular), (vb, vbl, vbr) in calls:
        cb = c << 2
        for cp, got in [(cb, vb), (cb - 2 + irregular, vbl), (cb + 2, vbr)]:
            want = floatrepr._rop(g, cp << h)
            wrong = np.flatnonzero(got != want)
            assert not wrong.size, (c[wrong[:5]], h[wrong[:5]], got[wrong[:5]], want[wrong[:5]])


def test_step_is_the_floor_of_g_times_2_to_the_s():
    # Exact for every table row and every shift a normal double needs: the
    # fraction's two terms share no bit, so they never carry.
    limbs = floatrepr._tables()[0]
    g = [(hi << 63) | lo for lo, hi in zip(limbs[2].tolist(), limbs[5].tolist())]
    for s in range(2, 7):
        di, df = floatrepr._step(limbs, np.uint64(s))
        assert [(i << 63) + f for i, f in zip(di.tolist(), df.tolist())] == [x << s >> 64 for x in g]
        assert (df >> 63 == 0).all()


def test_fallback_takes_the_values_near_an_integer():
    # 21 edge values fall back, from 1e15 to 1e23; of the seeded random bit
    # patterns, 2,846 of the 33,733 between 1e10 and 1e30, where a bound is
    # often an exact integer, and none below.  Magnitudes and dB values like
    # a mean spectrum's never do.
    edges = neighbours([2.0**e for e in range(-1022, 1024)] + [10.0**e for e in range(-307, 309)])
    assert fallback_rows(edges) == 21
    patterns = oracle_values()[: 2**20]
    span = patterns[(np.abs(patterns) > 1e10) & (np.abs(patterns) < 1e30)]
    assert 0.05 * len(span) < fallback_rows(span) < 0.15 * len(span)
    assert fallback_rows(patterns[np.abs(patterns) < 1e10]) == 0
    magnitudes = np.random.default_rng(7).random(2**16) * 1e-3
    assert fallback_rows(np.concatenate([magnitudes, 20 * np.log10(magnitudes)])) == 0


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
