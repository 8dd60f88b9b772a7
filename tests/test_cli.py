"""Command-line surface: flags, artifacts, schemas, exit codes."""

import csv
import json

import numpy as np
import pytest
from scipy.io import wavfile

import vibroprint as vp
import vibroprint.cli
from vibroprint.cli import run
from vibroprint.units import mm_to_m


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# freq


def test_freq_design_point(tmp_path, capsys):
    code = run(
        [
            "freq",
            "--material",
            "ST45B",
            "--square-side-mm",
            "1.0",
            "--length-mm",
            "3.5",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert "17.024 kHz" in capsys.readouterr().out
    rows = read_csv(tmp_path / "freq.csv")
    assert rows[0] == [
        "material",
        "shape",
        "dimension_mm",
        "inner_mm",
        "length_mm",
        "mode",
        "frequency_hz_min",
        "frequency_hz_max",
        "frequency_hz_nominal",
    ]
    assert float(rows[1][8]) == pytest.approx(17024.27, abs=0.01)
    assert (tmp_path / "run_params.json").exists()


def test_freq_reports_density_interval_for_pla(tmp_path, capsys):
    code = run(
        [
            "freq",
            "--material",
            "PLA",
            "--square-side-mm",
            "1.0",
            "--length-mm",
            "4.0",
            "--format",
            "json",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert ".." in out  # interval notation
    payload = json.loads((tmp_path / "freq.json").read_text())
    assert payload["frequency_hz_min"] == pytest.approx(14734.4, abs=0.5)
    assert payload["frequency_hz_max"] == pytest.approx(15168.8, abs=0.5)


def test_freq_unknown_material_is_domain_error(tmp_path, capsys):
    code = run(
        [
            "freq",
            "--material",
            "FL300",
            "--square-side-mm",
            "1.0",
            "--length-mm",
            "3.5",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "unknown material" in capsys.readouterr().err


def test_freq_two_shapes_is_usage_error(tmp_path, capsys):
    code = run(
        [
            "freq",
            "--material",
            "ST45B",
            "--square-side-mm",
            "1.0",
            "--circle-radius-mm",
            "1.0",
            "--length-mm",
            "3.5",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["freq", "--material", "ST45B"]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_custom_material_config(tmp_path, capsys):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text("[MyResin]\ndensity_g_cm3 = 1.2\nyoungs_modulus_mpa = 2000\n")
    code = run(
        [
            "freq",
            "--materials",
            str(cfg),
            "--material",
            "MyResin",
            "--square-side-mm",
            "1.0",
            "--length-mm",
            "3.5",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert "17.024" in capsys.readouterr().out  # same constants as ST45B


# ---------------------------------------------------------------------------
# design


def test_design_reproduces_final_layouts(tmp_path, capsys):
    code = run(["design", "--material", "ST45B", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "layouts.csv")
    table = {r[0]: (float(r[1]), float(r[2]), float(r[3])) for r in rows[1:]}
    assert table == {
        "FingerTip": (1.0, 4.0, 2.0),
        "FingerPhalanx": (1.0, 3.5, 2.0),
        "ThumbPhalanx": (1.0, 3.2, 2.0),
        "Palm": (1.0, 3.5, 2.0),
    }
    grid_rows = read_csv(tmp_path / "feasible_grid.csv")
    assert grid_rows[0] == ["side_mm", "length_mm", "frequency_hz_min", "frequency_hz_max"]
    assert (tmp_path / "layout_report.txt").exists()


def test_design_feasibility_only(tmp_path):
    code = run(["design", "--material", "TPU", "--no-caps", "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "feasible_grid.csv").exists()
    assert not (tmp_path / "layouts.csv").exists()


def test_design_empty_region_is_domain_error(tmp_path, capsys):
    code = run(
        [
            "design",
            "--material",
            "ST45B",
            "--band-khz",
            "100",
            "100.01",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "closest miss" in capsys.readouterr().err


def test_design_axis_numpy_refuses_names_the_axis(tmp_path, capsys):
    argv = ["design", "--material", "PLA", "--side-range-mm", "0.4", "1", "--length-range-mm", "3", "1e100"]
    assert run([*argv, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "cannot build the length_range axis [0.003, 1e+97] m at step 0.0001 m" in err
    assert not list(tmp_path.iterdir())


def test_design_custom_ranges_and_caps(tmp_path):
    code = run(
        [
            "design",
            "--material",
            "TPU",
            "--side-range-mm",
            "2.0",
            "2.6",
            "--length-range-mm",
            "1.4",
            "2.0",
            "--caps-mm",
            "2.0",
            "1.8",
            "1.6",
            "1.8",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "layouts.csv")
    assert {r[0] for r in rows[1:]} == {"FingerTip", "FingerPhalanx", "ThumbPhalanx", "Palm"}


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_artifact(tmp_path):
    code = run(
        [
            "sweep",
            "--material",
            "PLA",
            "--shapes",
            "square,hexagon,circle",
            "--dims-mm",
            "0.5,1.0",
            "--length-range-mm",
            "3.0",
            "5.0",
            "--steps",
            "5",
            "--band-khz",
            "3.2",
            "26",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0][0] == "row_type"
    series = [r for r in rows[1:] if r[0] == "series"]
    assert len(series) == 3 * 2 * 5
    assert [r[0] for r in rows[-3:]] == ["band_low", "band_high", "band_peak"]


SWEEP_PLA = ["sweep", "--material", "PLA", "--dims-mm", "1", "--length-range-mm", "3", "5"]


@pytest.mark.parametrize(
    "band, peak, expected",
    [(["3.2", "26"], [], "9000.0"), (["30", "40"], [], "35000.0"), (["3.2", "26"], ["--band-peak-khz", "12"], "12000.0")],
    ids=["default_inside", "default_outside", "explicit"],
)
def test_sweep_band_peak_row(tmp_path, band, peak, expected):
    assert run([*SWEEP_PLA, "--band-khz", *band, *peak, "--output-dir", str(tmp_path)]) == 0
    assert read_csv(tmp_path / "sweep.csv")[-1] == ["band_peak", "", "", "", "", "", expected]


def test_sweep_unknown_shape_is_usage_error(tmp_path, capsys):
    code = run(
        [
            "sweep",
            "--material",
            "PLA",
            "--shapes",
            "triangle",
            "--dims-mm",
            "1.0",
            "--length-range-mm",
            "3.0",
            "5.0",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# flags that cannot take effect are refused


CUSTOM_RANGES = ["--side-range-mm", "2.0", "2.6", "--length-range-mm", "1.4", "2.0"]
CAPS = ["--caps-mm", "2.0", "1.8", "1.6", "1.8"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["design", "--material", "TPU", *CAPS], 2, "--caps-mm needs --side-range-mm and --length-range-mm"),
        (["design", "--material", "TPU", *CAPS, "--no-caps"], 2, "--caps-mm needs --side-range-mm"),
        (["design", "--material", "TPU", *CUSTOM_RANGES, *CAPS, "--no-caps"], 2, "--caps-mm or --no-caps, not both"),
        (["design", "--material", "PLA", "--band-peak-khz", "50"], 2, "unrecognized arguments: --band-peak-khz"),
        ([*SWEEP_PLA, "--band-peak-khz", "9"], 2, "--band-peak-khz needs --band-khz"),
        ([*SWEEP_PLA, "--band-khz", "3.2", "26", "--band-peak-khz", "50"], 1, "peak_frequency must lie inside the band"),
        (["simulate", "--material", "TPU", "--square-side-mm", "2.6", "--length-mm", "2.0", "--noise-floor-db", "abc"], 2, "--noise-floor-db holds a value that is not a number: 'abc'"),
        (["sweep", "--material", "PLA", "--dims-mm", "1,x", "--length-range-mm", "3", "5"], 2, "--dims-mm holds a value that is not a number: '1,x'"),
    ],
    ids=[
        "design_caps_without_ranges", "design_caps_no_caps_without_ranges", "design_caps_and_no_caps",
        "design_band_peak", "sweep_peak_without_band", "sweep_peak_outside_band",
        "simulate_noise_floor_not_a_number", "sweep_dims_not_a_number",
    ],
)
def test_flags_that_cannot_take_effect_are_refused(tmp_path, capsys, argv, code, message):
    assert run([*argv, "--output-dir", str(tmp_path)]) == code
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# bands


def test_bands_on_bundled_curve(tmp_path, capsys):
    code = run(["bands", "--threshold-db", "-42", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "bands.csv")
    assert rows[0] == ["low_hz", "high_hz", "peak_frequency_hz", "peak_amplitude_db"]
    assert len(rows) == 3
    assert float(rows[1][2]) == pytest.approx(9000.0)
    assert float(rows[2][2]) == pytest.approx(150000.0)


def test_bands_json_format(tmp_path):
    code = run(
        ["bands", "--threshold-db", "-42", "--format", "json", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "bands.json").read_text())
    assert [b["peak_frequency_hz"] for b in payload["bands"]] == [9000.0, 150000.0]


def test_bands_all_below_threshold(tmp_path, capsys):
    code = run(["bands", "--threshold-db", "-5", "--output-dir", str(tmp_path)])
    assert code == 0
    assert "no bands" in capsys.readouterr().out
    assert len(read_csv(tmp_path / "bands.csv")) == 1  # header only


def test_bands_custom_curve(tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text("frequency_hz,amplitude_db\n1000,-70\n9000,-30\n30000,-70\n")
    code = run(["bands", "--curve", str(curve), "--output-dir", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "bands.csv")
    assert float(rows[1][0]) == pytest.approx(6600.0)
    assert float(rows[1][1]) == pytest.approx(15300.0)


# ---------------------------------------------------------------------------
# simulate


def simulate_args(out_dir, seed="7", extra=()):
    return [
        "simulate",
        "--material",
        "TPU",
        "--square-side-mm",
        "2.6",
        "--length-mm",
        "2.0",
        "--duration-s",
        "0.05",
        "--seed",
        seed,
        "--output-dir",
        str(out_dir),
        *extra,
    ]


def test_simulate_writes_wav_and_sidecar(tmp_path, capsys):
    code = run(simulate_args(tmp_path, extra=("--microphone", "Left", "--object", "apple")))
    assert code == 0
    rec = vp.read_recording_bundle(tmp_path / "slide.wav")
    assert rec.sample_rate == 500000.0
    assert rec.meta.microphone == "Left"
    assert rec.meta.object == "apple"
    sidecar = json.loads((tmp_path / "slide.json").read_text())
    assert sidecar["scenario"]["seed"] == 7
    assert sidecar["scenario"]["pitch_m"] == pytest.approx(2 * mm_to_m(2.6))


def test_simulate_nyquist_violation_is_domain_error(tmp_path, capsys):
    code = run(simulate_args(tmp_path, extra=("--sample-rate-hz", "10000")))
    assert code == 1
    assert "sample rate" in capsys.readouterr().err


def test_simulate_identical_seeds_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(simulate_args(d1)) == 0
    assert run(simulate_args(d2)) == 0
    assert (d1 / "slide.wav").read_bytes() == (d2 / "slide.wav").read_bytes()


def test_simulate_seed_changes_output(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(simulate_args(d1, seed="7")) == 0
    assert run(simulate_args(d2, seed="8")) == 0
    assert (d1 / "slide.wav").read_bytes() != (d2 / "slide.wav").read_bytes()


@pytest.mark.parametrize("modes", [1, 2, 4])
def test_simulate_default_amplitudes_follow_modes(tmp_path, capsys, modes):
    # Mode 4 of this beam lies above the default rate's Nyquist frequency.
    extra = ("--modes", str(modes), "--sample-rate-hz", "1000000")
    assert run(simulate_args(tmp_path, extra=extra)) == 0
    scenario = json.loads((tmp_path / "slide.json").read_text())["scenario"]
    assert scenario["mode_amplitudes"] == [0.5 ** (k + 1) for k in range(modes)]


SIMULATE_TPU = ["simulate", "--material", "TPU", "--square-side-mm", "2.6", "--length-mm", "2.0"]
DESIGN_PLA = ["design", "--material", "PLA"]


@pytest.mark.parametrize(
    "argv",
    [
        ["freq", "--material", "PLA", "--square-side-mm", "nan", "--length-mm", "3"],
        ["freq", "--material", "PLA", "--square-side-mm", "1", "--length-mm", "inf"],
        ["sweep", "--material", "PLA", "--dims-mm", "1,nan", "--length-range-mm", "2", "4"],
        ["sweep", "--material", "PLA", "--dims-mm", "1", "--length-range-mm", "2", "inf"],
        [*SIMULATE_TPU, "--sample-rate-hz", "inf"],
        [*SIMULATE_TPU, "--velocity-mm-s", "inf"],
        [*SIMULATE_TPU, "--velocity-mm-s", "1e300"],
        ["freq", "--material", "PLA", "--square-side-mm", "1", "--length-mm", "1e100"],
        ["sweep", "--material", "PLA", "--dims-mm", "1", "--length-range-mm", "1", "1e100"],
        [*DESIGN_PLA, "--side-range-mm", "0.4", "inf", "--length-range-mm", "3", "4"],
        [*DESIGN_PLA, "--side-range-mm", "0.4", "1", "--length-range-mm", "3", "inf"],
        ["freq", "--material", "PLA", "--square-side-mm", "1", "--length-mm", "1e-120"],
        ["sweep", "--material", "PLA", "--dims-mm", "1", "--length-range-mm", "1e-120", "1e-119"],
        ["freq", "--material", "PLA", "--square-side-mm", "1e-100", "--length-mm", "3"],
        ["freq", "--material", "PLA", "--square-side-mm", "1e100", "--length-mm", "3"],
        ["sweep", "--material", "PLA", "--dims-mm", "1e100", "--length-range-mm", "2", "4"],
        ["bands", "--threshold-db", "nan"],
    ],
    ids=[
        "side_nan", "length_inf", "sweep_dim_nan", "sweep_length_inf", "rate_inf", "velocity_inf",
        "velocity_huge", "length_huge", "sweep_length_huge", "design_side_inf", "design_length_inf",
        "length_tiny", "sweep_length_tiny", "side_tiny", "side_huge", "sweep_dim_huge",
        "bands_threshold_nan",
    ],
)
def test_non_finite_sizes_are_domain_errors(tmp_path, capsys, argv):
    assert run([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
def test_simulate_non_finite_noise_floor_names_the_field(tmp_path, capsys, level):
    assert run([*SIMULATE_TPU, f"--noise-floor-db={level}", "--output-dir", str(tmp_path)]) == 1
    assert "noise_floor_db must be finite or None" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.wav"))


def test_simulate_rate_past_the_wav_header_is_a_domain_error(tmp_path, capsys):
    # 2 GHz float32 is 8e9 bytes per second, more than the header's 32-bit byte rate holds.
    argv = [*SIMULATE_TPU, "--sample-rate-hz", "2e9", "--duration-s", "2e-3", "--modes", "1"]
    with pytest.warns(UserWarning, match="single strike"):
        assert run([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "slide.wav" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.wav"))


def test_simulate_fractional_rate_is_a_domain_error(tmp_path, capsys):
    # A WAV header holds whole hertz; 44100.4 used to be stored as 44100 beside a 44100.4 sidecar.
    argv = [*SIMULATE_TPU, "--sample-rate-hz", "44100.4", "--duration-s", "0.05", "--modes", "1"]
    assert run([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "sample rate 44100.4 Hz" in capsys.readouterr().err
    assert not list(tmp_path.glob("slide.*"))


# ---------------------------------------------------------------------------
# analyze


def make_group_dataset(out_dir, scale_by_material={"Default": 1.0, "ST45B": 4.0}):
    out_dir.mkdir(parents=True, exist_ok=True)
    beam = vp.BeamSpec(
        vp.get_material("TPU"), vp.CrossSection.square(mm_to_m(2.6)), mm_to_m(2.0)
    )
    for material, scale in scale_by_material.items():
        for rep in (1, 2):
            scenario = vp.SlideScenario(
                beam=beam,
                pitch=mm_to_m(5.2),
                velocity=mm_to_m(953.3),
                duration=0.03,
                mode_amplitudes=tuple(scale * a for a in (0.02, 0.01, 0.005)),
                noise_floor_db=-160.0,
                seed=100 + rep,
            )
            rec = vp.slide_signal(
                scenario,
                meta=vp.RecordingMeta(
                    object="apple",
                    exploration_procedure="LateralMotion",
                    force_code=400,
                    fingerprint_material=material,
                    microphone="Left",
                    repetition=rep,
                ),
            )
            vp.write_recording_bundle(
                rec, out_dir / f"{material}_{rep}.wav", scenario=vp.scenario_to_dict(scenario)
            )


def group_manifest(data):
    """A manifest over make_group_dataset's Default and ST45B recordings."""
    manifest = {
        "schema_version": 1,
        "objects": [{"id": "apple", "name": "apple"}],
        "observations": [
            {
                "object_id": "apple",
                "repetition": rep,
                "fingerprint_material": material,
                "procedures": [
                    {
                        "procedure": "LateralMotion",
                        "force_codes": [400],
                        "channel_files": {"Left": f"{material}_{rep}.wav"},
                    }
                ],
            }
            for material in ("Default", "ST45B")
            for rep in (1, 2)
        ],
    }
    (data / "manifest.json").write_text(json.dumps(manifest))
    return data / "manifest.json"


def test_analyze_glob_inputs(tmp_path, capsys):
    data = tmp_path / "data"
    make_group_dataset(data)
    out = tmp_path / "out"
    code = run(["analyze", str(data / "*.wav"), "--output-dir", str(out)])
    assert code == 0
    ratios = json.loads((out / "ratios.json").read_text())
    groups = ratios["microphones"]["Left"]["groups"]
    assert groups["Default"]["normalized_mean"] == pytest.approx(1.0)
    assert groups["ST45B"]["normalized_mean"] == pytest.approx(4.0, rel=0.01)
    rows = read_csv(out / "auc.csv")
    assert rows[0] == [
        "microphone",
        "fingerprint_material",
        "object",
        "repetition",
        "auc",
        "normalized",
    ]
    assert len(rows) == 5


def test_analyze_manifest_inputs(tmp_path):
    data = tmp_path / "data"
    make_group_dataset(data)
    out = tmp_path / "out"
    code = run(["analyze", "--manifest", str(group_manifest(data)), "--output-dir", str(out)])
    assert code == 0
    ratios = json.loads((out / "ratios.json").read_text())
    assert ratios["microphones"]["Left"]["groups"]["ST45B"]["normalized_mean"] == pytest.approx(
        4.0, rel=0.01
    )


@pytest.mark.parametrize("window", ["hann", "rectangular"])
def test_glob_and_manifest_inputs_give_identical_artifacts(tmp_path, window):
    data = tmp_path / "data"
    make_group_dataset(data)
    artifacts = []
    for source, inputs in (("glob", [str(data / "*.wav")]), ("manifest", ["--manifest", str(group_manifest(data))])):
        out = tmp_path / source
        assert run(["analyze", *inputs, "--window", window, "--write-spectra", "--output-dir", str(out)]) == 0
        names = ["auc.csv", "ratios.json", *sorted(p.name for p in out.glob("mean_spectrum_*.csv"))]
        artifacts.append({name: (out / name).read_bytes() for name in names})
    assert len(artifacts[0]) == 4
    assert artifacts[0] == artifacts[1]


def test_analyze_mean_spectra_artifacts(tmp_path):
    data = tmp_path / "data"
    make_group_dataset(data)
    out = tmp_path / "out"
    code = run(["analyze", str(data / "*.wav"), "--write-spectra", "--output-dir", str(out)])
    assert code == 0
    spec_csv = out / "mean_spectrum_Left_Default.csv"
    assert spec_csv.exists()
    assert read_csv(spec_csv)[0] == ["frequency_hz", "magnitude", "amplitude_db"]


@pytest.mark.parametrize("source", ["glob", "manifest"])
def test_analyze_computes_each_spectrum_once(tmp_path, monkeypatch, source):
    data = tmp_path / "data"
    make_group_dataset(data)
    inputs = [str(data / "*.wav")] if source == "glob" else ["--manifest", str(group_manifest(data))]
    calls = []
    spectrum = vibroprint.cli.spectrum

    def counted(rec, window="hann"):
        calls.append(rec.samples.size)
        return spectrum(rec, window)

    monkeypatch.setattr(vibroprint.cli, "spectrum", counted)
    out = tmp_path / "out"
    assert run(["analyze", *inputs, "--write-spectra", "--output-dir", str(out)]) == 0
    assert len(calls) == len(read_csv(out / "auc.csv")) - 1 == 4
    assert sorted(p.name for p in out.glob("mean_spectrum_*.csv")) == [
        "mean_spectrum_Left_Default.csv",
        "mean_spectrum_Left_ST45B.csv",
    ]


def write_slide(path, microphone, material, duration, sample_rate=500e3):
    beam = vp.BeamSpec(vp.get_material("TPU"), vp.CrossSection.square(mm_to_m(2.6)), mm_to_m(2.0))
    scenario = vp.SlideScenario(
        beam=beam,
        pitch=mm_to_m(5.2),
        velocity=mm_to_m(953.3),
        duration=duration,
        mode_amplitudes=(0.02, 0.01, 0.005),
        sample_rate=sample_rate,
        seed=1,
    )
    meta = vp.RecordingMeta(microphone=microphone, fingerprint_material=material)
    vp.write_recording_bundle(vp.slide_signal(scenario, meta=meta), path)


@pytest.mark.parametrize(
    "duration, sample_rate, other",
    [(0.08, 500e3, "(500000.0, 40000)"), (0.02, 400e3, "(400000.0, 8000)")],
    ids=["record_length", "sample_rate"],
)
def test_analyze_rejects_mixed_grids_within_a_microphone(
    tmp_path, capsys, duration, sample_rate, other
):
    # The same skin twice: only the grid differs, so a ratio other than 1 is bias.
    write_slide(tmp_path / "a.wav", "Left", "Default", 0.02)
    write_slide(tmp_path / "b.wav", "Left", "ST45B", duration, sample_rate)
    code = run(["analyze", str(tmp_path / "*.wav"), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "'Left'" in err and "(500000.0, 10000)" in err and other in err
    assert not (tmp_path / "out" / "auc.csv").exists()


def test_analyze_allows_one_grid_per_microphone(tmp_path, capsys):
    for mic, duration in (("Left", 0.02), ("Right", 0.08)):
        for material in ("Default", "ST45B"):
            write_slide(tmp_path / f"{mic}_{material}.wav", mic, material, duration)
    out = tmp_path / "out"
    assert run(["analyze", str(tmp_path / "*.wav"), "--output-dir", str(out)]) == 0
    mics = json.loads((out / "ratios.json").read_text())["microphones"]
    for mic in ("Left", "Right"):
        assert mics[mic]["groups"]["ST45B"]["normalized_mean"] == pytest.approx(1.0)


def relabel_sidecar(wav, **labels):
    sidecar = wav.with_suffix(".json")
    data = json.loads(sidecar.read_text())
    data["meta"].update(labels)
    sidecar.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "procedure, force_code",
    [("Pressure", 500), ("LateralMotion", 400), (None, None)],
    ids=["other_procedure", "force_code_set", "procedure_unset"],
)
def test_analyze_rejects_mixed_procedures_within_a_microphone_glob(
    tmp_path, capsys, procedure, force_code
):
    # write_slide labels its recordings LateralMotion without a force code.
    write_slide(tmp_path / "a.wav", "Left", "Default", 0.02)
    write_slide(tmp_path / "b.wav", "Left", "ST45B", 0.02)
    relabel_sidecar(tmp_path / "b.wav", exploration_procedure=procedure, force_code=force_code)
    code = run(["analyze", str(tmp_path / "*.wav"), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "'Left'" in err and "('LateralMotion', None)" in err
    assert f"({procedure!r}, {force_code!r})" in err
    assert not (tmp_path / "out" / "auc.csv").exists()


def test_analyze_rejects_mixed_procedures_within_a_microphone_manifest(tmp_path, capsys):
    data = tmp_path / "data"
    make_group_dataset(data)
    path = group_manifest(data)
    manifest = json.loads(path.read_text())
    for observation in manifest["observations"]:
        if observation["fingerprint_material"] == "ST45B":
            observation["procedures"][0].update(procedure="Pressure", force_codes=[500])
    path.write_text(json.dumps(manifest))
    code = run(["analyze", "--manifest", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "'Left'" in err and "('LateralMotion', 400)" in err and "('Pressure', 500)" in err
    assert not (tmp_path / "out" / "auc.csv").exists()


def test_analyze_allows_one_procedure_per_microphone(tmp_path):
    for mic, procedure in (("Left", "LateralMotion"), ("Right", "Enclosure")):
        for material in ("Default", "ST45B"):
            wav = tmp_path / f"{mic}_{material}.wav"
            write_slide(wav, mic, material, 0.02)
            relabel_sidecar(wav, exploration_procedure=procedure)
    assert run(["analyze", str(tmp_path / "*.wav"), "--output-dir", str(tmp_path / "out")]) == 0


def test_analyze_missing_baseline_is_domain_error(tmp_path, capsys):
    data = tmp_path / "data"
    make_group_dataset(data, scale_by_material={"ST45B": 1.0})
    out = tmp_path / "out"
    code = run(["analyze", str(data / "*.wav"), "--output-dir", str(out)])
    assert code == 1
    assert "baseline" in capsys.readouterr().err


def test_analyze_unlabeled_wav_is_domain_error(tmp_path, capsys):
    wav = tmp_path / "plain.wav"
    vp.write_wav(vp.Recording(np.zeros(256), 500e3), wav)
    code = run(["analyze", str(wav), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "labels" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["nan_sample", "unlabeled"])
def test_analyze_error_names_the_bad_file(tmp_path, capsys, fault):
    write_slide(tmp_path / "good.wav", "Left", "Default", 0.02)
    bad = tmp_path / "bad.wav"
    if fault == "nan_sample":
        wavfile.write(bad, 500000, np.array([0.0, np.nan, 0.5], dtype=np.float32))
    else:
        vp.write_wav(vp.Recording(np.zeros(256), 500e3), bad)
    assert run(["analyze", str(tmp_path / "*.wav"), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err
    assert "good.wav" not in err


def test_analyze_without_inputs_is_usage_error(tmp_path, capsys):
    assert run(["analyze", "--output-dir", str(tmp_path)]) == 2


def test_analyze_rejects_manifest_plus_files(tmp_path, capsys):
    wav = tmp_path / "x.wav"
    vp.write_wav(vp.Recording(np.zeros(256), 500e3), wav)
    code = run(
        ["analyze", str(wav), "--manifest", str(tmp_path / "m.json"), "--output-dir", str(tmp_path)]
    )
    assert code == 2


def test_analyze_repeat_runs_identical(tmp_path):
    data = tmp_path / "data"
    make_group_dataset(data)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["analyze", str(data / "*.wav"), "--output-dir", str(out1)]) == 0
    assert run(["analyze", str(data / "*.wav"), "--output-dir", str(out2)]) == 0
    assert (out1 / "ratios.json").read_bytes() == (out2 / "ratios.json").read_bytes()
    assert (out1 / "auc.csv").read_bytes() == (out2 / "auc.csv").read_bytes()


def test_output_dir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VIBROPRINT_OUTPUT_DIR", str(tmp_path / "env_out"))
    code = run(["bands", "--threshold-db", "-42"])
    assert code == 0
    assert (tmp_path / "env_out" / "bands.csv").exists()


# ---------------------------------------------------------------------------
# run: the output directory and run_params.json, for every subcommand


def contract_argvs(tmp_path):
    """(success, handler usage error, domain error) argv per subcommand; bands has no usage error."""
    data = tmp_path / "data"
    make_group_dataset(data)
    unlabeled = tmp_path / "plain.wav"
    vp.write_wav(vp.Recording(np.zeros(256), 500e3), unlabeled)
    sweep = ["sweep", "--material", "PLA", "--length-range-mm", "3", "5", "--steps", "3"]
    return {
        "freq": (
            ["freq", "--material", "PLA", "--square-side-mm", "1", "--length-mm", "4"],
            ["freq", "--material", "PLA", "--length-mm", "4"],
            ["freq", "--material", "FL300", "--square-side-mm", "1", "--length-mm", "4"],
        ),
        "design": (
            ["design", "--material", "TPU", "--no-caps"],
            ["design", "--material", "TPU", "--side-range-mm", "2.0", "2.6"],
            ["design", "--material", "ST45B", "--band-khz", "100", "100.01"],
        ),
        "sweep": (
            [*sweep, "--dims-mm", "1"],
            [*sweep, "--dims-mm", "1", "--shapes", "triangle"],
            [*sweep, "--dims-mm", "1,nan"],
        ),
        "bands": (
            ["bands", "--threshold-db", "-42"],
            None,
            ["bands", "--curve", str(tmp_path / "missing.csv")],
        ),
        "simulate": (
            [*SIMULATE_TPU, "--duration-s", "0.02", "--seed", "5"],
            [*SIMULATE_TPU, "--damping", "x"],
            [*SIMULATE_TPU, "--sample-rate-hz", "10000"],
        ),
        "analyze": (
            ["analyze", str(data / "*.wav")],
            ["analyze"],
            ["analyze", str(unlabeled)],
        ),
    }


SUBCOMMANDS = ["freq", "design", "sweep", "bands", "simulate", "analyze"]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_success_writes_run_params(tmp_path, capsys, subcommand):
    argv = [*contract_argvs(tmp_path)[subcommand][0], "--output-dir", str(tmp_path / "out")]
    assert run(argv) == 0
    params = json.loads((tmp_path / "out" / "run_params.json").read_text())
    assert params["tool"] == "vibroprint"
    assert params["subcommand"] == subcommand
    assert params["argv"] == argv
    assert params["seed"] == (5 if subcommand == "simulate" else None)


@pytest.mark.parametrize(
    "subcommand, outcome, code",
    [(name, 1, 2) for name in SUBCOMMANDS if name != "bands"] + [(name, 2, 1) for name in SUBCOMMANDS],
)
def test_failure_leaves_no_run_params(tmp_path, capsys, subcommand, outcome, code):
    argv = [*contract_argvs(tmp_path)[subcommand][outcome], "--output-dir", str(tmp_path / "out")]
    assert run(argv) == code
    assert ("usage error: " if code == 2 else "error: ") in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_params.json").exists()
