"""Property tests: `spectrum` and `band_auc` keep their defining identities.

Recordings are random samples of odd or even length under either window,
and bands are random sub-bands of [0, Nyquist].  The identities are the
AUC's linearity in a scale factor and additivity over adjacent bands,
Parseval's theorem for the rectangular window (DC and Nyquist counted
once), and the exact amplitude of a sine centred on a bin.  Runs are
derandomized and keep no example database, so the suite stays
deterministic and writes nothing into the working tree.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import vibroprint as vp  # noqa: E402
from vibroprint.signals import WINDOWS  # noqa: E402

# Keep hypothesis's cache of local sources out of the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "vibroprint-hypothesis")

PROPERTY_SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None)

windows = st.sampled_from(WINDOWS)
rates = st.sampled_from([500e3, 44100.0, 1000.0])
samples = st.integers(2, 600).flatmap(
    lambda n: arrays(np.float64, n, elements=st.floats(-1.0, 1.0, allow_subnormal=False))
)
# Band edges as fractions of Nyquist.
fractions = st.floats(0.0, 1.0)


@PROPERTY_SETTINGS
@given(
    x=samples,
    rate=rates,
    window=windows,
    scale=st.floats(1e-3, 1e3),
    edges=st.tuples(fractions, fractions),
)
def test_auc_is_linear_in_a_scale_factor(x, rate, window, scale, edges):
    rec = vp.Recording(x, rate)
    spec = vp.spectrum(rec, window)
    band = tuple(sorted(e * spec.nyquist for e in edges))
    assume(band[0] < band[1])
    auc = vp.band_auc(spec, band)
    scaled = vp.band_auc(vp.spectrum(rec.scaled(scale), window), band)
    assert scaled == pytest.approx(scale * auc, rel=1e-9, abs=0.0)


@PROPERTY_SETTINGS
@given(x=samples, rate=rates, window=windows, edges=st.tuples(fractions, fractions, fractions))
def test_auc_is_additive_over_adjacent_bands(x, rate, window, edges):
    spec = vp.spectrum(vp.Recording(x, rate), window)
    a, b, c = (e * spec.nyquist for e in sorted(edges))
    assume(a < b < c)
    whole = vp.band_auc(spec, (a, c))
    parts = vp.band_auc(spec, (a, b)) + vp.band_auc(spec, (b, c))
    assert parts == pytest.approx(whole, rel=1e-12, abs=0.0)


@PROPERTY_SETTINGS
@given(x=samples, rate=rates)
def test_rectangular_spectrum_satisfies_parseval(x, rate):
    # With a_k = 2|X_k|/N, and a_k = |X_k|/N at DC and (even N) Nyquist:
    # sum x^2 = N/2 * sum of interior a_k^2 + N * (edge a_k^2).
    n = x.size
    a = vp.spectrum(vp.Recording(x, rate), "rectangular").magnitudes
    edges = [0, a.size - 1] if n % 2 == 0 else [0]
    interior = np.delete(a, edges)
    spectral = n / 2.0 * np.sum(interior**2) + n * np.sum(a[edges] ** 2)
    assert spectral == pytest.approx(np.sum(x**2), rel=1e-9, abs=0.0)


@PROPERTY_SETTINGS
@given(
    n=st.integers(8, 4096),
    bin_fraction=st.floats(0.0, 1.0),
    amplitude=st.floats(1e-3, 10.0),
    phase=st.floats(0.0, 2.0 * np.pi),
    rate=rates,
    window=windows,
)
def test_bin_centred_sine_gives_its_amplitude(n, bin_fraction, amplitude, phase, rate, window):
    # Bins 1 .. n//2 - 1: the sine's mirror image lies at least two bins
    # away, past the periodic Hann window's one-bin main lobe.
    k = 1 + round(bin_fraction * (n // 2 - 2))
    t = np.arange(n)
    x = amplitude * np.cos(2.0 * np.pi * k * t / n + phase)
    spec = vp.spectrum(vp.Recording(x, rate), window)
    assert spec.magnitudes[k] == pytest.approx(amplitude, rel=1e-9)
    assert spec.frequencies[k] == pytest.approx(k * rate / n, rel=1e-12)
