"""Spectra, AUC statistics, and baseline normalization."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import vibroprint as vp
from vibroprint.errors import BaselineError, SpectrumGridError
from vibroprint.signals import (
    WINDOWS,
    StackRows,
    _frequencies,
    _window,
    band_auc,
    stack_fft,
    stack_spectrum,
    window_stack,
    report_to_json_dict,
    write_auc_csv,
    write_spectrum_csv,
)

FS = 500e3


def sine(freq, amp=1.0, n=5000, rate=FS):
    t = np.arange(n) / rate
    return vp.Recording(amp * np.sin(2 * np.pi * freq * t), rate)


def flat_spectrum(level, resolution=100.0, n_bins=101):
    freqs = np.arange(n_bins) * resolution
    return vp.Spectrum(
        frequencies=freqs,
        magnitudes=np.full(n_bins, level),
        resolution=resolution,
        window="rectangular",
    )


# ---------------------------------------------------------------------------
# spectrum


def test_bin_exact_sine_recovers_amplitude():
    rec = sine(9000.0)  # 9 kHz is bin 90 of a 5000-sample, 500 kHz record
    spec = vp.spectrum(rec, "rectangular")
    k = int(round(9000.0 / spec.resolution))
    assert abs(spec.magnitudes[k] - 1.0) < 1e-9
    assert spec.frequencies[k] == pytest.approx(9000.0)


def test_zero_signal_gives_zero_spectrum():
    rec = vp.Recording(np.zeros(4096), FS)
    spec = vp.spectrum(rec, "hann")
    assert np.all(spec.magnitudes == 0.0)
    assert np.all(np.isneginf(spec.amplitudes_db))


def test_constant_signal_lands_in_dc_bin():
    rec = vp.Recording(np.full(1000, 0.25), FS)
    spec = vp.spectrum(rec, "rectangular")
    assert spec.magnitudes[0] == pytest.approx(0.25, abs=1e-12)


def test_two_tone_magnitude_ratio_is_linear():
    n = 50000
    t = np.arange(n) / FS
    rec = vp.Recording(np.sin(2 * np.pi * 9000 * t) + 0.5 * np.sin(2 * np.pi * 17000 * t), FS)
    spec = vp.spectrum(rec, "hann")
    _, db9 = vp.dominant_frequency(spec, (8000, 10000))
    _, db17 = vp.dominant_frequency(spec, (16000, 18000))
    ratio = 10 ** ((db9 - db17) / 20.0)
    assert ratio == pytest.approx(2.0, rel=0.01)


def test_hann_window_recovers_amplitude_with_leakage_tolerance():
    spec = vp.spectrum(sine(9000.0, amp=0.7, n=50000), "hann")
    _, db = vp.dominant_frequency(spec, (8000, 10000))
    assert 10 ** (db / 20.0) == pytest.approx(0.7, rel=0.01)


def test_spectrum_grid_reaches_nyquist():
    spec = vp.spectrum(vp.Recording(np.zeros(1000), FS), "rectangular")
    assert spec.nyquist == pytest.approx(FS / 2.0)
    assert spec.frequencies[0] == 0.0
    assert spec.resolution == pytest.approx(FS / 1000)


def test_unknown_window_rejected():
    with pytest.raises(ValueError, match="window"):
        vp.spectrum(sine(9000.0), "hamming")


def test_recording_validation():
    with pytest.raises(ValueError):
        vp.Recording(np.array([0.0]), FS)
    with pytest.raises(ValueError):
        vp.Recording(np.array([0.0, np.inf]), FS)
    with pytest.raises(ValueError):
        vp.Recording(np.zeros(10), 0.0)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sample_rate must be positive and finite"):
            vp.Recording(np.zeros(10), rate)


# ---------------------------------------------------------------------------
# window


@pytest.mark.parametrize(
    "sizes", [range(2, 3000), (10_000, 100_000, 250_000, 250_001)], ids=["2-2999", "large"]
)
def test_hann_matches_scipy_bit_for_bit(sizes):
    from scipy.signal import get_window

    for n in sizes:
        w = _window("hann", n)[0]
        assert np.array_equal(w.view(np.int64), get_window("hann", n, fftbins=True).view(np.int64)), n


@pytest.mark.parametrize("window", WINDOWS)
def test_cached_window_is_shared_and_read_only(window):
    w, total = _window(window, 4096)
    assert _window(window, 4096)[0] is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 2.0
    before = w.copy()
    vp.spectrum(vp.Recording(np.ones(4096), FS), window)
    assert np.array_equal(w, before)
    assert total == w.sum()


def test_unknown_window_error_is_not_cached():
    before = _window.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown window 'hamming'"):
            _window("hamming", 128)
    assert _window.cache_info().currsize == before


def test_cli_import_leaves_scipy_unloaded():
    src = Path(vp.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import vibroprint.cli, sys; "
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_parseval_rectangular():
    # With amplitude normalization a_k = 2|X_k|/N the documented identity is
    # sum x^2 = N/2 * sum' a_k^2 + N * (a_0^2 + a_nyq^2).
    rng = np.random.default_rng(5)
    x = rng.normal(0, 0.3, 4096)
    rec = vp.Recording(x, FS)
    spec = vp.spectrum(rec, "rectangular")
    n = x.size
    a = spec.magnitudes
    spectral = n / 2.0 * np.sum(a[1:-1] ** 2) + n * (a[0] ** 2 + a[-1] ** 2)
    assert spectral == pytest.approx(np.sum(x**2), rel=0.01)


def test_parseval_hann_factor():
    # Hann windowing scales the energy of white noise by E[w^2]/CG^2 where
    # CG = mean(w) = 1/2 and E[w^2] = 3/8, i.e. a factor 3/2 relative to the
    # rectangular identity.
    rng = np.random.default_rng(6)
    x = rng.normal(0, 0.3, 1 << 17)
    rec = vp.Recording(x, FS)
    spec = vp.spectrum(rec, "hann")
    n = x.size
    a = spec.magnitudes
    spectral = n / 2.0 * np.sum(a[1:-1] ** 2) + n * (a[0] ** 2 + a[-1] ** 2)
    assert spectral / np.sum(x**2) == pytest.approx(1.5, rel=0.01)


def reference_spectrum(x, window):
    """The spectrum computed with fresh temporaries, one numpy expression per step."""
    w, total = _window(window, x.size)
    mags = np.abs(np.fft.rfft(x * w)) * (2.0 / total)
    mags[0] *= 0.5
    if x.size % 2 == 0:
        mags[-1] *= 0.5
    return mags


def test_spectrum_allocates_only_its_magnitudes():
    n = 250_000
    rec = vp.Recording(np.random.default_rng(3).normal(0, 0.1, n), FS)
    first = vp.spectrum(rec, "hann")  # warm-up: window, grid and this thread's scratch
    tracemalloc.start()
    try:
        second = vp.spectrum(rec, "hann")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (n // 2 + 1) * 8 + 64 * 1024, peak
    assert not np.shares_memory(first.magnitudes, second.magnitudes)
    assert np.array_equal(first.magnitudes, second.magnitudes)


@pytest.mark.parametrize("rows, n", [(7, 10_000), (3, 10_001)])
def test_spectra_allocate_only_their_magnitudes(rows, n):
    rng = np.random.default_rng(3)
    recs = [vp.Recording(rng.normal(0, 0.1, n), FS) for _ in range(rows)]
    # Warm-up: window, grid and this thread's scratch, grown past this stack
    # so that the measured call reuses it through views.
    vp.spectra(recs * 2, "hann")
    first = vp.spectra(recs, "hann")
    tracemalloc.start()
    try:
        second = vp.spectra(recs, "hann")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= rows * (n // 2 + 1) * 8 + 64 * 1024, peak
    assert second.magnitudes.shape == (rows, n // 2 + 1)
    assert not np.shares_memory(first.magnitudes, second.magnitudes)
    assert np.array_equal(first.magnitudes, second.magnitudes)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n", [1000, 1001], ids=["even", "odd"])
def test_a_spectrum_up_to_a_top_is_the_full_spectrums_first_bins(n, window):
    rng = np.random.default_rng(5)
    recs = [vp.Recording(rng.normal(0, 0.1, n), FS) for _ in range(3)]
    full = vp.spectra(recs, window)
    f, r = full.frequencies, full.resolution
    transform = stack_fft(window_stack(recs, window))
    # On a bin, between bins, on the top bin, and past it.
    for top, bins in ((f[10], 11), (f[10] + 0.3 * r, 12), (f[-1], f.size), (f[-1] + r, f.size)):
        part = stack_spectrum(transform, n, FS, window, top)
        assert part.magnitudes.tobytes() == full.magnitudes[:, :bins].tobytes()
        assert part.resolution == full.resolution and part.window == window
        if bins == f.size:
            assert part.frequencies is f
        else:
            assert np.shares_memory(part.frequencies, f) and part.frequencies.size == bins
        band = (f[3] + 0.5 * r, min(top, f[-1]))
        assert band_auc(part, band).tobytes() == band_auc(full, band).tobytes()


def test_stack_rows_keep_what_was_taken_as_they_grow():
    rows = StackRows()
    pieces = [np.arange(k, 2 * k + 3, dtype=float) for k in range(6)]
    for piece in pieces:
        rows.take(piece.size)[...] = piece
    assert rows.written().tobytes() == np.concatenate(pieces).tobytes()
    held = rows.written().base
    rows.clear().take(4)[...] = 1.0
    assert rows.written().base is held and rows.written().tolist() == [1.0] * 4


def test_spectra_reject_mixed_grids_and_empty_stacks():
    with pytest.raises(SpectrumGridError, match=r"\(256, 500000.0\) and \(255, 500000.0\)"):
        vp.spectra([vp.Recording(np.ones(256), FS), vp.Recording(np.ones(255), FS)])
    with pytest.raises(SpectrumGridError, match=r"and \(256, 44100.0\)"):
        vp.spectra([vp.Recording(np.ones(256), FS), vp.Recording(np.ones(256), 44100.0)])
    with pytest.raises(ValueError, match="at least one"):
        vp.spectra([])


def test_concurrent_spectra_match_the_serial_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    # Stacks of 1 to 3 rows; their shapes vary, so each thread's scratch
    # grows and is handed out as views of every size.
    jobs = [
        ([vp.Recording(rng.normal(0, 0.2, n), rate) for _ in range(rows)], window)
        for n in (4096, 4097, 1000, 1001, 250, 251)
        for rate in (FS, 44100.0)
        for window in WINDOWS
        for rows in (1, 3)
    ] * 2
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            stacks = list(pool.map(lambda job: vp.spectra(*job), jobs, timeout=60))
    finally:
        sys.setswitchinterval(old_interval)
    for (recs, window), stack in zip(jobs, stacks):
        n, rate = recs[0].samples.size, recs[0].sample_rate
        assert stack.magnitudes.shape == (len(recs), n // 2 + 1)
        for rec, row in zip(recs, stack.magnitudes):
            expected = reference_spectrum(rec.samples, window)
            assert np.array_equal(row.view(np.int64), expected.view(np.int64))
        assert not stack.frequencies.flags.writeable
        assert stack.frequencies is _frequencies(n, rate)
        assert np.array_equal(stack.frequencies, np.fft.rfftfreq(n, 1.0 / rate))


# ---------------------------------------------------------------------------
# mean_spectrum


def test_mean_of_one_is_identity():
    spec = vp.spectrum(sine(9000.0), "hann")
    mean = vp.mean_spectrum([spec])
    assert np.array_equal(mean.magnitudes, spec.magnitudes)


def test_mean_of_identical_spectra_is_idempotent():
    spec = vp.spectrum(sine(9000.0), "hann")
    mean = vp.mean_spectrum([spec, spec])
    assert np.allclose(mean.magnitudes, spec.magnitudes, rtol=0, atol=0)


def test_mean_is_binwise_arithmetic():
    s1 = flat_spectrum(1.0)
    s3 = flat_spectrum(3.0)
    mean = vp.mean_spectrum([s1, s3])
    assert np.all(mean.magnitudes == 2.0)


def test_mean_rejects_mismatched_grids():
    with pytest.raises(SpectrumGridError):
        vp.mean_spectrum([vp.spectrum(sine(9000.0, n=5000)), vp.spectrum(sine(9000.0, n=4096))])


def test_mean_commutes_with_uniform_scaling():
    specs = [vp.spectrum(sine(9000.0 + k * 100, n=4096), "hann") for k in range(3)]
    mean = vp.mean_spectrum(specs)
    scaled = [
        vp.Spectrum(s.frequencies, 5.0 * s.magnitudes, s.resolution, s.window) for s in specs
    ]
    mean_scaled = vp.mean_spectrum(scaled)
    assert np.allclose(mean_scaled.magnitudes, 5.0 * mean.magnitudes, rtol=1e-12)


def test_mean_window_is_the_one_window_or_mixed():
    hann = vp.spectrum(sine(9000.0, n=4096), "hann")
    rect = vp.spectrum(sine(9000.0, n=4096), "rectangular")
    assert vp.mean_spectrum([hann, hann]).window == "hann"
    assert vp.mean_spectrum([hann, rect, hann]).window == "mixed"
    assert vp.mean_spectrum([rect, hann, hann]).window == "mixed"


@pytest.mark.parametrize(
    "mean",
    [lambda: vp.mean_spectrum([]), lambda: vp.mean_spectrum(iter([])), lambda: vp.SpectrumMean().spectrum()],
    ids=["list", "iterator", "no_add"],
)
def test_mean_of_nothing_is_refused(mean):
    with pytest.raises(ValueError, match="at least one spectrum"):
        mean()


def test_mean_rejects_magnitudes_off_the_grid():
    # One magnitude on a 101-bin grid would broadcast into the sum unseen.
    stray = replace(flat_spectrum(1.0), magnitudes=np.ones(1))
    with pytest.raises(SpectrumGridError):
        vp.mean_spectrum([flat_spectrum(1.0), stray])


def test_mean_compares_a_grid_only_when_it_is_another_array(monkeypatch):
    spec = flat_spectrum(1.0)
    compared = []
    allclose = np.allclose
    monkeypatch.setattr(np, "allclose", lambda *a, **k: compared.append(a) or allclose(*a, **k))
    mean = vp.SpectrumMean()
    mean.add(spec)
    mean.add(spec)
    assert not compared  # the same grid array: nothing to compare
    mean.add(replace(spec, frequencies=spec.frequencies.copy()))
    assert len(compared) == 1
    with pytest.raises(SpectrumGridError):
        mean.add(replace(spec, frequencies=spec.frequencies + 1.0))
    assert np.array_equal(mean.spectrum().magnitudes, spec.magnitudes)


def test_spectrum_mean_keeps_neither_its_spectra_nor_their_stack():
    recs = [sine(9000.0 + 100 * k, n=4096) for k in range(3)]
    stack = vp.spectra(recs, "hann")
    mags = weakref.ref(stack.magnitudes)
    before = stack.magnitudes.copy()
    mean = vp.SpectrumMean()
    for row in stack.magnitudes:
        mean.add(replace(stack, magnitudes=row))
    assert np.array_equal(stack.magnitudes, before)
    del stack, row
    assert mags() is None
    expected = np.mean(vp.spectra(recs, "hann").magnitudes, axis=0)
    assert np.array_equal(mean.spectrum().magnitudes, expected)


# ---------------------------------------------------------------------------
# band_auc


def test_auc_of_zero_spectrum_is_zero():
    assert vp.band_auc(flat_spectrum(0.0), (100.0, 5000.0)) == 0.0


def test_auc_of_constant_magnitude_is_rectangle():
    c, band = 0.37, (150.0, 8650.0)
    auc = vp.band_auc(flat_spectrum(c), band)
    assert auc == pytest.approx(c * (band[1] - band[0]), rel=1e-12)


def test_auc_scales_linearly_with_recording_amplitude():
    rec = sine(9000.0, amp=0.2, n=4096)
    k = 7.3
    auc1 = vp.band_auc(vp.spectrum(rec, "hann"), (1000.0, 20000.0))
    louder = replace(rec, samples=rec.samples * k)
    auc2 = vp.band_auc(vp.spectrum(louder, "hann"), (1000.0, 20000.0))
    assert auc2 == pytest.approx(k * auc1, rel=1e-9)


def test_auc_additivity():
    rng = np.random.default_rng(9)
    rec = vp.Recording(rng.normal(0, 0.1, 4096), FS)
    spec = vp.spectrum(rec, "hann")
    a, b, c = 1234.5, 8000.0, 23456.7
    left = vp.band_auc(spec, (a, b))
    right = vp.band_auc(spec, (b, c))
    whole = vp.band_auc(spec, (a, c))
    assert left + right == pytest.approx(whole, rel=1e-12)


def mask_band_auc(spec, band):
    """`band_auc` in its first form: boolean masks over the whole grid."""
    lo, hi = band
    f, m = spec.frequencies, spec.magnitudes
    inner = (f > lo) & (f < hi)
    xs = np.concatenate(([lo], f[inner], [hi]))
    ys = np.concatenate(([np.interp(lo, f, m)], m[inner], [np.interp(hi, f, m)]))
    return float(np.trapezoid(ys, xs))


@pytest.mark.parametrize("n", [10_000, 10_001, 100_000, 250_000])
def test_band_auc_matches_the_mask_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    spec = vp.spectrum(vp.Recording(rng.normal(0, 0.1, n), FS), "hann")
    f, r = spec.frequencies, spec.resolution
    k, j = f.size // 7, f.size // 3
    bands = [
        (0.0, spec.nyquist),  # both edges at the grid's ends
        (f[k], f[j]),  # on bins
        (f[k] + 0.3 * r, f[j] + 0.6 * r),  # between bins
        (0.0, f[j] + 0.5 * r),
        (f[k] + 0.25 * r, spec.nyquist),
        (f[k] + 0.25 * r, f[k] + 0.75 * r),  # no bin inside
    ]
    for band in bands:
        assert vp.band_auc(spec, band).hex() == mask_band_auc(spec, band).hex(), band


def test_auc_band_validation():
    spec = flat_spectrum(1.0)
    with pytest.raises(ValueError):
        vp.band_auc(spec, (5000.0, 1000.0))
    with pytest.raises(ValueError):
        vp.band_auc(spec, (-10.0, 1000.0))
    with pytest.raises(ValueError):
        vp.band_auc(spec, (0.0, spec.nyquist * 2.0))


# ---------------------------------------------------------------------------
# dominant_frequency


def test_dominant_frequency_bin_exact_sine():
    spec = vp.spectrum(sine(9000.0), "rectangular")
    freq, db = vp.dominant_frequency(spec, (1000.0, 20000.0))
    assert freq == pytest.approx(9000.0, abs=spec.resolution / 100.0)
    assert db == pytest.approx(0.0, abs=0.2)


def test_dominant_frequency_off_bin_with_hann():
    spec = vp.spectrum(sine(9050.0, n=5000), "hann")  # 100 Hz bins
    freq, _ = vp.dominant_frequency(spec, (5000.0, 15000.0))
    assert freq == pytest.approx(9050.0, abs=10.0)


def test_dominant_frequency_tie_breaks_low():
    mags = np.zeros(101)
    mags[10] = 1.0
    mags[50] = 1.0
    spec = vp.Spectrum(np.arange(101) * 100.0, mags, 100.0, "rectangular")
    freq, _ = vp.dominant_frequency(spec, (0.0, 10000.0))
    assert freq == pytest.approx(1000.0)


def test_dominant_frequency_empty_band():
    spec = flat_spectrum(1.0, resolution=100.0)
    with pytest.raises(ValueError, match="no spectrum bins"):
        vp.dominant_frequency(spec, (10020.0, 10080.0))


# ---------------------------------------------------------------------------
# normalization


def entries(groups, mic="Left"):
    """groups: {material: [aucs]} -> (labels, auc) rows of the per-recording table."""
    out = []
    for material, aucs in groups.items():
        for i, auc in enumerate(aucs):
            meta = vp.RecordingMeta(
                microphone=mic, fingerprint_material=material, object="obj", repetition=i + 1
            )
            out.append((meta, auc))
    return out


def normalize(rows):
    """`normalize_against_baseline` of (labels, auc) rows, split into its two columns."""
    labels, aucs = zip(*rows)
    return vp.normalize_against_baseline(list(labels), list(aucs))


def test_baseline_group_normalizes_to_exactly_one():
    report = normalize(entries({"Default": [0.3, 0.5, 0.7]}))
    assert report.groups[("Left", "Default")].normalized_mean == 1.0  # exact


def test_identical_groups_normalize_to_one():
    report = normalize(
        entries({"Default": [0.4, 0.6], "ST45B": [0.4, 0.6]})
    )
    assert report.groups[("Left", "ST45B")].normalized_mean == pytest.approx(1.0, rel=1e-12)


def test_elevenfold_group():
    base = [0.11, 0.13, 0.12]
    report = normalize(
        entries({"Default": base, "ST45B": [11.0 * a for a in base]})
    )
    assert report.groups[("Left", "ST45B")].normalized_mean == pytest.approx(11.0, rel=1e-9)


def test_missing_baseline_raises():
    with pytest.raises(BaselineError, match="Right"):
        normalize(
            entries({"Default": [0.5], "ST45B": [1.0]}) + entries({"ST45B": [1.0]}, mic="Right")
        )


def test_microphones_normalize_independently():
    left = entries({"Default": [1.0], "ST45B": [3.0]}, mic="Left")
    right = entries({"Default": [2.0], "ST45B": [2.0]}, mic="Right")
    report = normalize(left + right)
    assert report.groups[("Left", "ST45B")].normalized_mean == pytest.approx(3.0)
    assert report.groups[("Right", "ST45B")].normalized_mean == pytest.approx(1.0)
    # swapping the microphone labels swaps the ratios
    swapped = normalize(
        entries({"Default": [1.0], "ST45B": [3.0]}, mic="Right")
        + entries({"Default": [2.0], "ST45B": [2.0]}, mic="Left")
    )
    assert swapped.groups[("Right", "ST45B")].normalized_mean == pytest.approx(3.0)
    assert swapped.groups[("Left", "ST45B")].normalized_mean == pytest.approx(1.0)


def test_normalization_invariant_under_per_microphone_rescale():
    base = entries({"Default": [0.2, 0.4], "ST45B": [1.1, 1.3]})
    report1 = normalize(base)
    scaled = [(meta, auc * 37.5) for meta, auc in base]
    report2 = normalize(scaled)
    for key in report1.groups:
        assert report2.groups[key].normalized_mean == pytest.approx(
            report1.groups[key].normalized_mean, rel=1e-9
        )
        assert report2.groups[key].normalized_std == pytest.approx(
            report1.groups[key].normalized_std, rel=1e-9, abs=1e-15
        )


def test_by_object_breakdown():
    labels = [
        vp.RecordingMeta(microphone="Left", fingerprint_material=material, object=obj)
        for material, obj in (("Default", "wood"), ("ST45B", "wood"), ("ST45B", "sponge"))
    ]
    report = vp.normalize_against_baseline(labels, [1.0, 4.0, 2.0])
    assert report.by_object[("Left", "ST45B", "wood")].normalized_mean == pytest.approx(4.0)
    assert report.by_object[("Left", "ST45B", "sponge")].normalized_mean == pytest.approx(2.0)


def loop_normalize(labels, aucs, baseline="Default"):
    """(group stats, object stats) as normalization first computed them:
    dicts of lists in input order, one `np.mean` over each list."""
    groups, objects = {}, {}
    for meta, auc in zip(labels, aucs):
        key = (meta.microphone, meta.fingerprint_material)
        groups.setdefault(key, []).append(auc)
        if meta.object is not None:
            objects.setdefault((*key, meta.object), []).append(auc)
    base = {key[0]: float(np.mean(groups[key[0], baseline])) for key in groups}

    def stats(key, values):
        mean = float(np.mean(np.array(values)))
        normalized = np.array(values) / base[key[0]]
        return (len(values), mean, mean / base[key[0]], float(np.std(normalized)))

    return [{key: stats(key, v) for key, v in sorted(d.items())} for d in (groups, objects)]


@pytest.mark.parametrize("seed", range(6))
def test_grouping_by_a_stable_sort_matches_the_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    mics, materials = ["Left", "Right", "Palm"], ["Default", "ST45B", "PLA", "TPU"]
    n = int(rng.integers(1, 2000))
    # Each microphone's baseline first, then any labels; about one in five has no object.
    rows = [(mic, "Default") for mic in mics] + [
        (mics[rng.integers(3)], materials[rng.integers(4)]) for _ in range(n)
    ]
    labels = [
        vp.RecordingMeta(
            microphone=mic,
            fingerprint_material=material,
            object=None if rng.random() < 0.2 else f"obj{rng.integers(52)}",
        )
        for mic, material in rows
    ]
    # AUCs over many decades, so a sum in another order would round differently.
    aucs = rng.random(len(rows)) * 10.0 ** rng.integers(-6, 7, len(rows))
    report = vp.normalize_against_baseline(labels, aucs)
    groups, objects = loop_normalize(labels, aucs.tolist())
    for got, want in ((report.groups, groups), (report.by_object, objects)):
        assert list(got) == list(want)
        assert [astuple(stats) for stats in got.values()] == list(want.values())


def test_auc_entry_rejects_negative():
    with pytest.raises(ValueError, match="auc must be >= 0"):
        normalize(entries({"Default": [0.5, -0.1]}))


@pytest.mark.parametrize("label", ["microphone", "fingerprint_material"])
def test_a_row_without_a_group_label_is_refused(label):
    labels = [meta for meta, _ in entries({"Default": [0.5, 0.6], "ST45B": [1.0]})]
    labels[1] = replace(labels[1], **{label: None})
    message = f"label 1 has no {label}; each needs microphone and fingerprint_material"
    with pytest.raises(ValueError, match=f"^{message}$"):
        vp.normalize_against_baseline(labels, [0.5, 0.6, 1.0])


def test_all_aucs_nonnegative_from_spectra():
    rng = np.random.default_rng(13)
    for _ in range(5):
        rec = vp.Recording(rng.normal(0, 0.2, 2048), FS)
        assert vp.band_auc(vp.spectrum(rec, "hann"), (0.0, 26000.0)) >= 0.0


# ---------------------------------------------------------------------------
# exports


def reference_spectrum_csv(spec, path):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency_hz", "magnitude", "amplitude_db"])
        for row in zip(spec.frequencies, spec.magnitudes, spec.amplitudes_db):
            writer.writerow([repr(float(x)) for x in row])


@pytest.mark.parametrize(
    "rec, window",
    [(sine(9000.0, amp=0.3, n=5001), "hann"), (vp.Recording(np.zeros(1000), FS), "rectangular")],
    ids=["hann_sine", "rectangular_zeros"],
)
def test_spectrum_csv_bytes_match_csv_writer(tmp_path, rec, window):
    spec = vp.spectrum(rec, window)
    write_spectrum_csv(spec, tmp_path / "spec.csv")
    reference_spectrum_csv(spec, tmp_path / "reference.csv")
    written = (tmp_path / "spec.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    if window == "rectangular":
        assert written.count(b",-inf\r\n") == spec.frequencies.size


def test_spectrum_csv_schema(tmp_path):
    path = tmp_path / "spec.csv"
    write_spectrum_csv(vp.spectrum(sine(9000.0, n=1000), "hann"), path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["frequency_hz", "magnitude", "amplitude_db"]
    assert len(rows) == 1 + 501


def test_auc_csv_and_json_roundtrip(tmp_path):
    report = normalize(
        entries({"Default": [0.2, 0.3], "ST45B": [2.0, 3.0]})
    )
    path = tmp_path / "auc.csv"
    write_auc_csv(report, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "microphone",
        "fingerprint_material",
        "object",
        "repetition",
        "auc",
        "normalized",
    ]
    assert len(rows) == 5

    payload = report_to_json_dict(report, (1000.0, 5000.0))
    assert payload["band_hz"] == [1000.0, 5000.0]
    assert payload["baseline_material"] == "Default"
    left = payload["microphones"]["Left"]
    assert left["groups"]["ST45B"]["normalized_mean"] == pytest.approx(10.0)
    assert left["groups"]["ST45B"]["by_object"]["obj"]["count"] == 2


def test_meta_validation():
    with pytest.raises(ValueError):
        vp.RecordingMeta(microphone="Center")
    with pytest.raises(ValueError):
        vp.RecordingMeta(exploration_procedure="Rubbing")
    with pytest.raises(ValueError):
        vp.RecordingMeta(force_code=5000)
    with pytest.raises(ValueError):
        vp.RecordingMeta(repetition=0)
    # A lone surrogate is a str that no file or CSV cell can hold as UTF-8.
    with pytest.raises(ValueError, match=r"^object must be text that UTF-8 can encode, got '\\ud800x'$"):
        vp.RecordingMeta(object="\ud800x")
    meta = vp.RecordingMeta(microphone=vp.Microphone.LEFT, force_code=400)
    assert meta.microphone == "Left"
    assert vp.RecordingMeta.from_dict(meta.to_dict()) == meta
