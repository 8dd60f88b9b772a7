"""Damped ring-down synthesis and slide-signal generation."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import vibroprint as vp
from vibroprint import simulate
from vibroprint.errors import NyquistError
from vibroprint.simulate import noise_sigma
from vibroprint.units import mm_to_m

FS = 500e3


def one_mode_scenario(tpu_beam, **overrides):
    params = dict(
        beam=tpu_beam,
        pitch=mm_to_m(5.2),
        velocity=mm_to_m(953.3),
        duration=0.2,
        modes=1,
        damping_ratio=0.02,
        mode_amplitudes=0.1,
        noise_floor_db=None,
        sample_rate=FS,
        seed=0,
    )
    params.update(overrides)
    return vp.SlideScenario(**params)


def ring_down(tpu_beam, **overrides):
    """A noise-free slide too short for a second strike: one ring-down from t = 0."""
    scenario = one_mode_scenario(tpu_beam, velocity=mm_to_m(1.0), **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # shorter than one excitation period
        return vp.slide_signal(scenario)


# ---------------------------------------------------------------------------
# single strike


def test_impulse_rings_at_damped_frequency(tpu_beam):
    zeta = 0.01
    rec = ring_down(tpu_beam, damping_ratio=zeta, mode_amplitudes=1.0, duration=0.1)
    f_damped = vp.nominal_frequency(tpu_beam, 1) * math.sqrt(1.0 - zeta**2)
    freq, _ = vp.dominant_frequency(vp.spectrum(rec, "hann"), (5000.0, 15000.0))
    assert freq == pytest.approx(f_damped, rel=1e-3)


def test_doubling_damping_halves_decay_time(tpu_beam):
    # Sample the envelope at quarter-period points and fit the log slope.
    f1 = vp.nominal_frequency(tpu_beam, 1)

    def fitted_decay_rate(zeta):
        rec = ring_down(tpu_beam, damping_ratio=zeta, mode_amplitudes=1.0, duration=0.01)
        f_damped = f1 * math.sqrt(1.0 - zeta**2)
        peaks_t, peaks_v = [], []
        for k in range(40):
            t = (k + 0.25) / f_damped
            idx = int(round(t * FS))
            if idx >= rec.samples.size:
                break
            peaks_t.append(idx / FS)
            peaks_v.append(abs(rec.samples[idx]))
        slope, _ = np.polyfit(peaks_t, np.log(peaks_v), 1)
        return -slope

    r1 = fitted_decay_rate(0.01)
    r2 = fitted_decay_rate(0.02)
    assert r1 == pytest.approx(2.0 * math.pi * f1 * 0.01, rel=0.01)
    assert r2 == pytest.approx(2.0 * r1, rel=0.01)  # time constant halves


def test_zero_amplitudes_give_zero_signal(tpu_beam):
    rec = ring_down(tpu_beam, modes=2, mode_amplitudes=(0.0, 0.0), duration=0.01)
    assert np.all(rec.samples == 0.0)


def test_impulse_nyquist_violation(tpu_beam):
    # The first mode sits near 9 kHz, above the 5 kHz Nyquist frequency.
    with pytest.raises(NyquistError, match="this rate fits not even mode 1$"):
        ring_down(tpu_beam, sample_rate=10e3)


def test_a_refused_mode_count_costs_a_logarithmic_number_of_kernel_calls(tpu_beam, monkeypatch):
    # One call per mode would take the million modes past the counter's limit.
    calls = []

    def counted(beam, n=1):
        calls.append(n)
        if len(calls) > 100:
            raise AssertionError("nominal_frequency was called once per mode")
        return vp.nominal_frequency(beam, n)

    monkeypatch.setattr(simulate, "nominal_frequency", counted)
    with pytest.raises(NyquistError, match="this rate fits at most 3 modes$"):
        vp.slide_signal(one_mode_scenario(tpu_beam, modes=10**6))
    assert len(calls) <= 25


def test_a_nyquist_fault_wins_over_per_mode_and_strike_rate_faults(tpu_beam):
    # Wrong-length damping out of (0, 1), a NaN amplitude and two strikes per
    # sample, yet the rate is the fault named: it is checked before any broadcast.
    with pytest.raises(NyquistError, match="this rate fits not even mode 1$"):
        one_mode_scenario(
            tpu_beam,
            modes=2,
            sample_rate=10e3,
            damping_ratio=(1.5, 0.02, 0.1),
            mode_amplitudes=(math.nan,),
            velocity=2.0 * 10e3 * mm_to_m(5.2),
        )


def test_impulse_validation(tpu_beam):
    with pytest.raises(ValueError, match="modes must be >= 1"):
        ring_down(tpu_beam, modes=0)
    with pytest.raises(ValueError, match=rf"mode index must be in \[1, 2\*\*53\], got {2**53 + 1}$"):
        ring_down(tpu_beam, modes=2**53 + 1, mode_amplitudes=0.1)
    with pytest.raises(ValueError, match="damping must be in"):
        ring_down(tpu_beam, damping_ratio=1.5)
    with pytest.raises(ValueError, match="damping needs 2 entries, got 3"):
        ring_down(tpu_beam, modes=2, damping_ratio=(0.01, 0.02, 0.03))
    with pytest.raises(ValueError, match="amplitudes needs 2 entries, got 1"):
        ring_down(tpu_beam, modes=2, mode_amplitudes=(1.0,))


# ---------------------------------------------------------------------------
# slide_signal


def test_same_seed_is_bit_identical(tpu_beam):
    scenario = one_mode_scenario(tpu_beam, noise_floor_db=-70.0, seed=42)
    r1 = vp.slide_signal(scenario)
    r2 = vp.slide_signal(scenario)
    assert np.array_equal(r1.samples, r2.samples)


def test_different_seed_changes_noise(tpu_beam):
    a = vp.slide_signal(one_mode_scenario(tpu_beam, noise_floor_db=-70.0, seed=1))
    b = vp.slide_signal(one_mode_scenario(tpu_beam, noise_floor_db=-70.0, seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_comb_spacing_matches_excitation_rate(tpu_beam):
    scenario = one_mode_scenario(tpu_beam)
    rec = vp.slide_signal(scenario)
    spec = vp.spectrum(rec, "hann")
    f, m = spec.frequencies, spec.magnitudes
    sel = np.flatnonzero((f > 2000.0) & (f < 16000.0))
    tall = m[sel].max()
    peaks = [
        f[i]
        for i in sel[1:-1]
        if m[i] > m[i - 1] and m[i] >= m[i + 1] and m[i] > 0.15 * tall
    ]
    spacing = float(np.median(np.diff(peaks)))
    assert spacing == pytest.approx(scenario.excitation_rate, abs=spec.resolution)


def test_single_strike_peaks_at_damped_frequency(tpu_beam):
    # Duration below one excitation period leaves a single ring-down, whose
    # spectral peak is the damped first mode.
    zeta = 0.02
    scenario = one_mode_scenario(
        tpu_beam, velocity=mm_to_m(10.0), duration=0.05, damping_ratio=zeta
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = vp.slide_signal(scenario)
    spec = vp.spectrum(rec, "hann")
    freq, _ = vp.dominant_frequency(spec, (5000.0, 15000.0))
    f_damped = vp.nominal_frequency(tpu_beam, 1) * math.sqrt(1.0 - zeta**2)
    assert freq == pytest.approx(f_damped, abs=spec.resolution + 1e-3 * f_damped)


def test_periodic_train_peaks_at_comb_line_nearest_resonance(tpu_beam):
    zeta = 0.02
    scenario = one_mode_scenario(tpu_beam, damping_ratio=zeta)
    rec = vp.slide_signal(scenario)
    freq, _ = vp.dominant_frequency(vp.spectrum(rec, "hann"), (5000.0, 15000.0))
    f_damped = vp.nominal_frequency(tpu_beam, 1) * math.sqrt(1.0 - zeta**2)
    rate = scenario.excitation_rate
    nearest_line = round(f_damped / rate) * rate
    assert freq == pytest.approx(nearest_line, abs=5.0)
    assert abs(freq - f_damped) <= rate / 2.0


def test_doubling_amplitudes_doubles_auc(tpu_beam):
    base = one_mode_scenario(tpu_beam, mode_amplitudes=0.05)
    double = one_mode_scenario(tpu_beam, mode_amplitudes=0.10)
    auc = lambda sc: vp.band_auc(vp.spectrum(vp.slide_signal(sc), "hann"), (0.0, 26000.0))
    assert auc(double) == pytest.approx(2.0 * auc(base), rel=1e-6)


def test_noise_only_signal_sits_at_the_floor(tpu_beam):
    scenario = one_mode_scenario(tpu_beam, mode_amplitudes=0.0, noise_floor_db=-70.0, duration=0.05)
    rec = vp.slide_signal(scenario)
    spec = vp.spectrum(rec, "rectangular")
    level = 20.0 * np.log10(np.mean(spec.magnitudes[1:-1]))
    assert level == pytest.approx(-70.0, abs=1.5)


def test_noise_sigma_keeps_floor_independent_of_length():
    assert noise_sigma(-70.0, 40000) / noise_sigma(-70.0, 10000) == pytest.approx(2.0)


def test_short_duration_warns_but_produces(tpu_beam):
    scenario = one_mode_scenario(tpu_beam, velocity=mm_to_m(10.0), duration=0.05)
    with pytest.warns(UserWarning, match="excitation period"):
        rec = vp.slide_signal(scenario)
    assert rec.samples.size == int(round(0.05 * FS))


def test_slide_nyquist_violation(tpu_beam):
    with pytest.raises(NyquistError):
        vp.slide_signal(one_mode_scenario(tpu_beam, sample_rate=12e3))


def test_scenario_validation(tpu_beam):
    with pytest.raises(ValueError):
        one_mode_scenario(tpu_beam, pitch=0.0)
    with pytest.raises(ValueError):
        one_mode_scenario(tpu_beam, damping_ratio=0.0)
    with pytest.raises(ValueError):
        one_mode_scenario(tpu_beam, damping_ratio=1.0)
    with pytest.raises(ValueError):
        one_mode_scenario(tpu_beam, modes=0)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["pitch", "velocity", "sample_rate", "duration"])
def test_scenario_rejects_non_finite_values(tpu_beam, field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        one_mode_scenario(tpu_beam, **{field: value})


@pytest.mark.parametrize(
    "modes, amplitudes",
    [(1, math.nan), (1, math.inf), (1, -math.inf), (2, (0.5, math.nan))],
    ids=["nan", "inf", "-inf", "per_mode_nan"],
)
def test_scenario_rejects_non_finite_amplitudes(tpu_beam, modes, amplitudes):
    with pytest.raises(ValueError, match="mode_amplitudes must be finite"):
        one_mode_scenario(tpu_beam, modes=modes, damping_ratio=0.02, mode_amplitudes=amplitudes)


@pytest.mark.parametrize("noise_floor_db", [-70.0, None], ids=["noise", "no_noise"])
def test_scenario_rejects_a_negative_seed(tpu_beam, noise_floor_db):
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        one_mode_scenario(tpu_beam, seed=-1, noise_floor_db=noise_floor_db)


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_scenario_rejects_non_finite_noise_floor(tpu_beam, level):
    with pytest.raises(ValueError, match="noise_floor_db must be finite or None"):
        one_mode_scenario(tpu_beam, noise_floor_db=level)


@pytest.mark.parametrize("level", [7000.0, 6150.0], ids=["power_overflows", "sigma_overflows"])
def test_scenario_rejects_a_noise_floor_whose_sigma_is_not_finite(tpu_beam, level):
    # 10 ** 350 overflows the power itself; 10 ** 307.5 is finite, but not
    # once it is scaled by the square root of the 100,000 samples.
    scenario = one_mode_scenario(tpu_beam, noise_floor_db=-70.0)
    with pytest.raises(ValueError, match=r"noise_floor_db .* dB gives a noise sigma past the float range"):
        replace(scenario, noise_floor_db=level)
    assert math.isfinite(noise_sigma(6100.0, scenario.n_samples))  # a floor just below still builds
    assert replace(scenario, noise_floor_db=6100.0).noise_floor_db == 6100.0


@pytest.mark.parametrize("velocity", [1e300, 2.0 * FS * mm_to_m(5.2)], ids=["huge", "two_per_sample"])
def test_more_than_one_strike_per_sample_is_rejected(tpu_beam, velocity):
    with pytest.raises(ValueError, match="exceeds the sample rate"):
        one_mode_scenario(tpu_beam, velocity=velocity)


@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -5.0], ids=["inf", "nan", "zero", "negative"])
def test_impulse_rejects_bad_rate(tpu_beam, rate):
    with pytest.raises(ValueError, match="sample_rate must be positive and finite"):
        ring_down(tpu_beam, sample_rate=rate)


def test_default_mode_shapes_follow_mode_count(tpu_beam):
    scenario = vp.SlideScenario(
        beam=tpu_beam, pitch=mm_to_m(5.2), velocity=mm_to_m(900.0), duration=0.01, modes=2
    )
    assert scenario.mode_amplitudes == (0.5, 0.25)
    assert scenario.damping_ratio == (0.02, 0.02)


def test_slide_meta_from_scenario_and_override(tpu_beam):
    scenario = one_mode_scenario(tpu_beam)
    rec = vp.slide_signal(scenario)
    assert rec.meta.fingerprint_material == "TPU"
    assert rec.meta.exploration_procedure == "LateralMotion"

    rec2 = vp.slide_signal(
        scenario,
        meta=vp.RecordingMeta(
            object="wooden stick", microphone="Left", repetition=2, fingerprint_material="Default"
        ),
    )
    assert rec2.meta.object == "wooden stick"
    assert rec2.meta.microphone == "Left"
    assert rec2.meta.fingerprint_material == "Default"
    assert rec2.meta.exploration_procedure == "LateralMotion"


def test_scenario_dict_is_json_ready(tpu_beam):
    import json

    scenario = one_mode_scenario(tpu_beam)
    payload = vp.scenario_to_dict(scenario)
    json.dumps(payload)
    assert payload["excitation_rate_hz"] == pytest.approx(scenario.excitation_rate)
    assert payload["beam"]["material"]["name"] == "TPU"
