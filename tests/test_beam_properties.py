"""Property tests: `beams.modal_frequencies` keeps the laws of the modal relation.

Sections are random solid squares, hexagons and circles of 0.1 to 5 mm,
beams are 0.5 to 20 mm long, and materials are random, with or without a
density range.  The laws are the first mode's scaling as side / length^2,
the order low <= nominal <= high of the density bounds, the collapse of
those bounds for a point density, and the rise of each mode above the
one before it.  Under them lies `mode_constant(n)`, the n-th root of
cos x cosh x + 1 = 0, which must lie in ((n - 1) pi, n pi) and leave a
residual of a few ulps of x against cosh x.  Runs are derandomized and
keep no example database, so the suite stays deterministic and writes
nothing into the working tree.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

import vibroprint as vp  # noqa: E402

# Keep hypothesis's cache of local sources out of the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "vibroprint-hypothesis")

PROPERTY_SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None)

shapes = st.sampled_from(list(vp.Shape))
sides = st.floats(1e-4, 5e-3)  # m
lengths = st.floats(5e-4, 2e-2)  # m
factors = st.floats(0.25, 4.0)


@st.composite
def materials(draw, ranged=st.booleans()):
    """A material of 500 to 8000 kg/m3 and 1 MPa to 200 GPa, its density a
    point or inside a drawn range."""
    density = draw(st.floats(500.0, 8000.0))
    modulus = draw(st.floats(1e6, 2e11))
    if not draw(ranged):
        return vp.Material("point", density, modulus)
    below, above = draw(st.tuples(st.floats(0.0, 0.2), st.floats(0.0, 0.2)))
    return vp.Material("ranged", density, modulus, (density * (1 - below), density * (1 + above)))


def grid(material, shape, sides, lengths, n=1):
    return vp.modal_frequencies(material, [vp.CrossSection(shape, s) for s in sides], lengths, n)


@PROPERTY_SETTINGS
@given(material=materials(), shape=shapes, side=sides, length=lengths, a=factors, b=factors)
def test_first_mode_scales_as_side_over_length_squared(material, shape, side, length, a, b):
    base = grid(material, shape, [side], [length])
    scaled = grid(material, shape, [a * side], [b * length])
    for f, g in zip(base, scaled):
        assert g.item() == pytest.approx(f.item() * a / b**2, rel=1e-12, abs=0.0)


@PROPERTY_SETTINGS
@given(
    material=materials(),
    shape=shapes,
    sides=st.lists(sides, min_size=1, max_size=4),
    lengths=st.lists(lengths, min_size=1, max_size=4),
    n=st.integers(1, 5),
)
def test_density_bounds_bracket_the_nominal_frequency(material, shape, sides, lengths, n):
    low, high, nominal = grid(material, shape, sides, lengths, n)
    assert np.all(low <= nominal) and np.all(nominal <= high)


@PROPERTY_SETTINGS
@given(
    material=materials(ranged=st.just(False)),
    shape=shapes,
    sides=st.lists(sides, min_size=1, max_size=4),
    lengths=st.lists(lengths, min_size=1, max_size=4),
    n=st.integers(1, 5),
)
def test_point_density_collapses_the_bounds(material, shape, sides, lengths, n):
    low, high, nominal = grid(material, shape, sides, lengths, n)
    assert np.array_equal(low, high) and np.array_equal(low, nominal)


@PROPERTY_SETTINGS
@given(
    material=materials(),
    shape=shapes,
    sides=st.lists(sides, min_size=1, max_size=4),
    lengths=st.lists(lengths, min_size=1, max_size=4),
    n=st.integers(1, 12),
)
def test_each_mode_lies_above_the_one_before(material, shape, sides, lengths, n):
    lower = grid(material, shape, sides, lengths, n)
    upper = grid(material, shape, sides, lengths, n + 1)
    for f, g in zip(lower, upper):
        assert np.all(g > f)


# cosh overflows a float past x = 710, that is past mode 226.
@PROPERTY_SETTINGS
@given(n=st.integers(1, 200))
def test_mode_constant_is_the_root_in_its_interval(n):
    x = vp.mode_constant(n)
    assert (n - 1) * math.pi < x < n * math.pi
    assert abs(math.cos(x) * math.cosh(x) + 1.0) <= 4.0 * math.ulp(x) * math.cosh(x)
