"""Property tests: `mic.sensitive_bands` returns ordered, disjoint bands above the threshold.

Curves are 2 to 40 random points, 1 Hz to 1 kHz apart, between -80 and
0 dB; the threshold is random or one of the curve's own values, so bands
that start, end or touch exactly at a sample are tried too.  The bands
must come in ascending order without touching, and the interpolated
curve must stay at or above the threshold across each band, within
rounding at the interpolated edges.  Runs are derandomized and keep no
example database, so the suite stays deterministic and writes nothing
into the working tree.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

import vibroprint as vp  # noqa: E402

# Keep hypothesis's cache of local sources out of the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "vibroprint-hypothesis")

PROPERTY_SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None)

levels = st.floats(-80.0, 0.0)


@st.composite
def curves_and_thresholds(draw):
    n = draw(st.integers(2, 40))
    start = draw(st.floats(0.0, 1e4))
    steps = draw(st.lists(st.floats(1.0, 1e3), min_size=n - 1, max_size=n - 1))
    amplitudes = draw(st.lists(levels, min_size=n, max_size=n))
    threshold = draw(st.sampled_from(amplitudes) | levels)
    return vp.ResponseCurve(np.cumsum([start, *steps]), amplitudes), threshold


@PROPERTY_SETTINGS
@given(case=curves_and_thresholds())
# Two crossings that round onto one point (10001.0): one falling, one rising.
# The touching intervals must merge into one band.
@example(
    case=(vp.ResponseCurve(np.cumsum([1e4, 1.0, 1.0]), [0.0, math.nextafter(-40.0, -math.inf), 0.0]), -40.0)
)
def test_bands_are_ordered_disjoint_and_above_the_threshold(case):
    curve, threshold = case
    bands = vp.sensitive_bands(curve, threshold)
    for before, after in zip(bands, bands[1:]):
        assert before.high < after.low
    xs, ys = curve.x, curve.amplitude_db
    for band in bands:
        inside = xs[(xs > band.low) & (xs < band.high)]
        # Piecewise linear: above the threshold at the edges and every inner
        # sample means above it across the band.
        levels_inside = np.interp([band.low, *inside, band.high], xs, ys)
        assert np.all(levels_inside >= threshold - 1e-6)
