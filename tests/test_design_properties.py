"""Property tests: `design.feasible_region` keeps exactly the in-band cells of its grid.

Side ranges start at 0.4 mm (the printable width) to 3 mm and span up
to 1 mm, length ranges start at 0.5 to 10 mm and span up to 3 mm, either
range may be a single point, and the grid step is 0.05 to 0.25 mm, for
each builtin material.  Band edges are drawn from the grid's own frequencies (so an
edge can sit exactly on a cell) or between its lowest and highest ones.
The oracle walks the grid cell by cell in Python floats: the region must
hold exactly the cells whose whole frequency interval lies inside the
band, in side-major order, and an empty region must name the first cell
of smallest miss.  Runs are derandomized and keep no example database,
so the suite stays deterministic and writes nothing into the working tree.
"""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

import vibroprint as vp  # noqa: E402
from vibroprint.design import _axis_grid  # noqa: E402
from vibroprint.errors import EmptyRegionError  # noqa: E402

# Keep hypothesis's cache of local sources out of the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "vibroprint-hypothesis")

PROPERTY_SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None)


def scanned_cells(material, side_range, length_range, step):
    """(side, length, freq_low, freq_high) of every grid cell, side-major, as Python floats."""
    sides = _axis_grid(*side_range, step).tolist()
    lengths = _axis_grid(*length_range, step).tolist()
    f_lo, f_hi, _ = vp.modal_frequencies(material, [vp.CrossSection.square(s) for s in sides], lengths)
    return [
        (side, length, lo, hi)
        for side, lows, highs in zip(sides, f_lo.tolist(), f_hi.tolist())
        for length, lo, hi in zip(lengths, lows, highs)
    ]


@st.composite
def design_cases(draw):
    material = draw(st.sampled_from(vp.builtin_materials()))
    step = draw(st.floats(5e-5, 2.5e-4))
    s_lo = draw(st.floats(4e-4, 3e-3))
    l_lo = draw(st.floats(5e-4, 1e-2))
    side_range = (s_lo, s_lo + draw(st.just(0.0) | st.floats(1.5 * step, 1e-3)))
    length_range = (l_lo, l_lo + draw(st.just(0.0) | st.floats(1.5 * step, 3e-3)))
    cells = scanned_cells(material, side_range, length_range, step)
    freqs = [f for cell in cells for f in cell[2:]]
    edges = st.sampled_from(freqs) | st.floats(min(freqs), max(freqs))
    band = tuple(sorted((draw(edges), draw(edges))))
    constraints = vp.DesignConstraints(
        material=material,
        printer=vp.default_printer_constraints(),
        target_band=band,
        side_range=side_range,
        length_range=length_range,
    )
    return constraints, step, cells


@PROPERTY_SETTINGS
@given(case=design_cases())
def test_region_keeps_exactly_the_cells_inside_the_band(case):
    constraints, step, cells = case
    band_lo, band_hi = constraints.target_band
    inside = [cell for cell in cells if band_lo <= cell[2] and cell[3] <= band_hi]
    try:
        region = vp.feasible_region(constraints, step)
    except EmptyRegionError as err:
        assert inside == []
        nearest = None
        for side, length, lo, hi in cells:
            miss = max(band_lo - lo, hi - band_hi, 0.0)
            if nearest is None or miss < nearest[0]:
                nearest = (miss, side, length, (lo, hi))
        assert (err.distance, err.nearest_side, err.nearest_length, err.nearest_frequency) == nearest
        return
    kept = region.grid.tolist()
    assert all(band_lo <= lo and hi <= band_hi for _, _, lo, hi in kept)
    assert kept == inside
