"""Property tests: `SlideScenario` refuses exactly the mode counts a rate cannot hold.

Beams are solid squares of 0.1 to 5 mm, 0.5 to 20 mm long, in each
builtin material, with 1 to 64 modes.  The sample rate is either twice
a mode's own frequency (where `<=` refuses that mode), one ulp above it
(where the mode fits), or 0.5 to 32,768 times twice the first mode's
frequency.  The oracle is a linear scan: every mode's frequency, then
the first that does not fit.  A refused scenario must raise that
NyquistError text; an accepted one must synthesize.  Runs are
derandomized and keep no example database, so the suite stays
deterministic and writes nothing into the working tree.
"""

import math
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

import vibroprint as vp  # noqa: E402
from vibroprint.errors import NyquistError  # noqa: E402

# Keep hypothesis's cache of local sources out of the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "vibroprint-hypothesis")

PROPERTY_SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)

# Samples per synthesized slide, and samples per strike.
SAMPLES = 64
STRIKE_SAMPLES = 8


def linear_scan(beam, modes, sample_rate):
    """The NyquistError text for this count and rate, or None when every mode fits."""
    freqs = [vp.nominal_frequency(beam, n) for n in range(1, modes + 1)]
    highest = max(freqs)
    if sample_rate > 2.0 * highest:
        return None
    fits = next(n for n, f in enumerate(freqs) if sample_rate <= 2.0 * f)
    most = f"at most {fits} mode{'s' * (fits > 1)}" if fits else "not even mode 1"
    return (
        f"sample rate {sample_rate} Hz cannot represent mode at {highest:.4g} Hz; "
        f"need > {2.0 * highest:.4g} Hz; this rate fits {most}"
    )


@st.composite
def slides(draw):
    material = draw(st.sampled_from(vp.builtin_materials()))
    side = draw(st.floats(1e-4, 5e-3))
    beam = vp.BeamSpec(material, vp.CrossSection.square(side), draw(st.floats(5e-4, 2e-2)))
    modes = draw(st.integers(1, 64))
    where = draw(st.sampled_from(["on_a_mode", "above_a_mode", "scaled"]))
    if where == "scaled":
        rate = 2.0 * vp.nominal_frequency(beam, 1) * 2.0 ** draw(st.floats(-1.0, 15.0))
    else:
        rate = 2.0 * vp.nominal_frequency(beam, draw(st.integers(1, modes)))
        if where == "above_a_mode":
            rate = math.nextafter(rate, math.inf)
    return beam, modes, rate


@PROPERTY_SETTINGS
@given(slides())
def test_refused_mode_count_matches_a_linear_scan(slide):
    beam, modes, rate = slide
    pitch = 2.0 * beam.section.outer

    def build():
        return vp.SlideScenario(
            beam=beam,
            pitch=pitch,
            velocity=pitch * rate / STRIKE_SAMPLES,
            duration=SAMPLES / rate,
            modes=modes,
            noise_floor_db=None,
            sample_rate=rate,
        )

    expected = linear_scan(beam, modes, rate)
    if expected is not None:
        with pytest.raises(NyquistError) as refused:
            build()
        assert str(refused.value) == expected
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = vp.slide_signal(build())
    assert rec.samples.size == SAMPLES
