"""Property test: `write_csv` writes the bytes of a plain `repr` writer.

Tables are random: float columns of any doubles or singles (NaN,
infinities, zeros of either sign and subnormals included), some holding
another column's values, or those values with one cell changed; an mm
column; a str or numpy str label column; and tail rows of str and float
cells.  They are written in chunks of 1 to 9 rows.  The reference writes
each cell with `repr(float(v))`, `.6g` mm text or the str itself, row by
row.  Runs are derandomized and keep no example database, so the suite
stays deterministic and writes nothing into the working tree.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from vibroprint import units  # noqa: E402

# Keep hypothesis's cache of local sources out of the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "vibroprint-hypothesis")

PROPERTY_SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None)

texts = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n\0'), max_size=4)


@st.composite
def tables(draw):
    """(header, columns, tail) for one call of `write_csv`."""
    n = draw(st.integers(1, 12))
    fresh = st.one_of(arrays(np.float64, n, elements=st.floats()), arrays(np.float32, n, elements=st.floats(width=32)))
    floats = [draw(fresh)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["fresh", "same", "changed"]))
        column = draw(fresh) if kind == "fresh" else draw(st.sampled_from(floats)).copy()
        if kind == "changed":
            column[draw(st.integers(0, n - 1))] = draw(st.floats(width=8 * column.itemsize))
        floats.append(column)
    label = draw(st.one_of(texts, st.lists(texts, min_size=n, max_size=n).map(np.array)))
    columns = [label, draw(fresh), *floats]
    header = ",".join(["label", "side_mm", *(f"x{i}" for i in range(len(floats)))])
    cell = st.one_of(texts, st.floats())
    tail = draw(st.lists(st.tuples(*[cell] * len(columns)), max_size=3))
    return header, columns, tail


def reference_csv(header: str, columns, tail) -> bytes:
    names = header.split(",")

    def text(name, value):
        if isinstance(value, str):
            return value
        return f"{units.m_to_mm(float(value)):.6g}" if name.endswith("_mm") else repr(float(value))

    n = max(len(c) for c in columns if not isinstance(c, str))
    rows = [[c if isinstance(c, str) else c[i] for c in columns] for i in range(n)] + [list(r) for r in tail]
    lines = [header, *(",".join(text(name, v) for name, v in zip(names, row)) for row in rows)]
    return "".join(line + "\r\n" for line in lines).encode()


@PROPERTY_SETTINGS
@given(table=tables(), chunk=st.integers(1, 9))
def test_write_csv_writes_the_repr_text(table, chunk):
    header, columns, tail = table
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(units, "_CSV_CHUNK_ROWS", chunk):
        path = Path(tmp) / "table.csv"
        units.write_csv(path, header, columns, tail)
        assert path.read_bytes() == reference_csv(header, columns, tail)
