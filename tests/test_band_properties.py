"""Property tests: every frequency band obeys one rule, checked against a plain oracle.

`SensitivityBand` needs 0 <= low < high < inf; a design target pair
(`DesignConstraints.target_band`) needs 0 <= low <= high < inf, so a
point band stays legal there.  Edges are any floats, NaN, the infinities
and -0.0 included, or one edge drawn twice.  Runs are derandomized and
keep no example database, so the suite stays deterministic and writes
nothing into the working tree.
"""

import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

import vibroprint as vp  # noqa: E402
from vibroprint.units import mm_to_m  # noqa: E402

# Keep hypothesis's cache of local sources out of the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "vibroprint-hypothesis")

PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)

edges = (
    st.floats()
    | st.floats(0.0, 1e6)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 3200.0, 26000.0])
)


@st.composite
def bands(draw):
    low = draw(edges)
    high = draw(st.just(low) | edges)
    return low, high


def legal(low, high, point_allowed):
    """The rule, one comparison at a time."""
    for edge in (low, high):
        if math.isnan(edge) or math.isinf(edge) or edge < 0.0:
            return False
    if low == high:
        return point_allowed
    return low < high


@PROPERTY_SETTINGS
@given(band=bands())
def test_sensitivity_band_follows_the_rule(band):
    low, high = band
    if legal(low, high, point_allowed=False):
        built = vp.SensitivityBand(low, high, low, 0.0)
        assert (built.low, built.high) == band
    else:
        with pytest.raises(ValueError, match=r"band needs 0 <= low < high < inf"):
            vp.SensitivityBand(low, high, low, 0.0)


@PROPERTY_SETTINGS
@given(band=bands())
def test_design_target_pair_follows_the_rule(band):
    def build():
        return vp.DesignConstraints(
            material=vp.get_material("PLA"),
            printer=vp.default_printer_constraints(),
            target_band=band,
            side_range=(mm_to_m(0.4), mm_to_m(1.0)),
            length_range=(mm_to_m(3.4), mm_to_m(4.0)),
        )

    if legal(*band, point_allowed=True):
        assert build().target_band == band
    else:
        with pytest.raises(ValueError, match=r"target band needs 0 <= low <= high < inf"):
            build()
