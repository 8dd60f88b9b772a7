"""Property tests: `spectrum`, `spectra` and `band_auc` keep their defining identities.

Recordings are random samples of odd or even length under either window,
and bands are random sub-bands of [0, Nyquist].  The identities are the
AUC's linearity in a scale factor and additivity over adjacent bands,
Parseval's theorem for the rectangular window (DC and Nyquist counted
once), the exact amplitude of a sine centred on a bin, `spectra` of a
stack giving each row's own `spectrum` bit for bit, `band_auc` of a stack
giving a plain loop of `np.interp` and `np.trapezoid` per row bit for bit,
and `mean_spectrum`'s running sum giving numpy's mean of the stacked
magnitudes bit for bit.  Runs are
derandomized and keep no example database, so the suite stays
deterministic and writes nothing into the working tree.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
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
# A band that holds only rounding noise: a constant under the Hann window
# has no content above its first bin.
@example(x=np.ones(8), rate=500e3, window="hann", scale=0.75, edges=(1.0, 0.5))
def test_auc_is_linear_in_a_scale_factor(x, rate, window, scale, edges):
    rec = vp.Recording(x, rate)
    spec = vp.spectrum(rec, window)
    band = tuple(sorted(e * spec.nyquist for e in edges))
    assume(band[0] < band[1])
    auc = vp.band_auc(spec, band)
    scaled = vp.band_auc(vp.spectrum(replace(rec, samples=rec.samples * scale), window), band)
    # The FFT's rounding error scales with the whole signal, not with the
    # band, so a noise-only band is linear only to that noise.
    noise = 1e-12 * scale * vp.band_auc(spec, (0.0, spec.nyquist))
    assert scaled == pytest.approx(scale * auc, rel=1e-9, abs=noise)


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


@PROPERTY_SETTINGS
@given(
    stack=st.tuples(st.integers(1, 6), st.integers(2, 600)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(-1.0, 1.0, allow_subnormal=False))
    ),
    rate=rates,
    window=windows,
)
def test_each_row_of_a_stack_is_its_own_spectrum_bit_for_bit(stack, rate, window):
    recs = [vp.Recording(row, rate) for row in stack]
    spec = vp.spectra(recs, window)
    for rec, row in zip(recs, spec.magnitudes, strict=True):
        alone = vp.spectrum(rec, window)
        assert np.array_equal(row.view(np.int64), alone.magnitudes.view(np.int64))
        assert spec.frequencies is alone.frequencies
        assert (spec.resolution, spec.window) == (alone.resolution, alone.window)


def loop_band_auc(f, m, band):
    """One spectrum's band AUC as `band_auc` first computed it: boolean masks,
    `np.interp` at the edges and `np.trapezoid`."""
    lo, hi = band
    inner = (f > lo) & (f < hi)
    xs = np.concatenate(([lo], f[inner], [hi]))
    ys = np.concatenate(([np.interp(lo, f, m)], m[inner], [np.interp(hi, f, m)]))
    return np.trapezoid(ys, xs)


@PROPERTY_SETTINGS
@given(
    rows=st.integers(1, 8),
    n=st.integers(2, 200_000),
    rate=rates,
    offset=st.sampled_from([0.0, 0.37]),
    seed=st.integers(0, 2**32 - 1),
    edges=st.tuples(fractions, st.booleans(), fractions, st.booleans()),
)
def test_stacked_band_auc_is_a_loop_of_single_integrals_bit_for_bit(
    rows, n, rate, offset, seed, edges
):
    # rfft grids of 2 to 100,001 bins; an offset grid starts above 0 Hz, so a
    # band edge can fall below its first bin.  Each edge is a fraction of the
    # top bin, moved onto the nearest bin when its flag says so.
    f = np.fft.rfftfreq(n, 1.0 / rate) + offset * rate / n
    rng = np.random.default_rng(seed)
    mags = rng.random((rows, f.size)) * 10.0 ** rng.integers(-6, 7, (rows, f.size))
    band = []
    for fraction, on_bin in (edges[:2], edges[2:]):
        x = fraction * f[-1]
        band.append(float(f[np.argmin(np.abs(f - x))]) if on_bin else x)
    band = tuple(sorted(band))
    assume(band[0] < band[1])
    expected = np.array([loop_band_auc(f, row, band) for row in mags])
    stacked = vp.band_auc(vp.Spectrum(f, mags, rate / n, "hann"), band)
    assert np.array_equal(stacked.view(np.int64), expected.view(np.int64))
    assert vp.band_auc(vp.Spectrum(f, mags[0], rate / n, "hann"), band).hex() == float(expected[0]).hex()


@PROPERTY_SETTINGS
@given(
    count=st.integers(1, 64),
    bins=st.integers(2, 5000),
    seed=st.integers(0, 2**32 - 1),
    decades=st.integers(0, 12),
)
def test_mean_spectrum_is_numpys_mean_of_the_stack_bit_for_bit(count, bins, seed, decades):
    # Magnitudes spread over `decades` decades, so the sums round often.
    rng = np.random.default_rng(seed)
    mags = rng.random((count, bins)) * 10.0 ** rng.integers(-decades, decades + 1, (count, bins))
    frequencies = np.arange(bins) * 100.0
    specs = [vp.Spectrum(frequencies, row, 100.0, "hann") for row in mags]
    expected = np.mean([s.magnitudes for s in specs], axis=0)
    for source in (specs, (s for s in specs)):
        mean = vp.mean_spectrum(source)
        assert np.array_equal(mean.magnitudes.view(np.int64), expected.view(np.int64))
        assert mean.frequencies is frequencies and mean.window == "hann"
