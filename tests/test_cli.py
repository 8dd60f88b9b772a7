"""Command-line surface: flags, artifacts, schemas, exit codes."""

import csv
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import vibroprint as vp
import vibroprint.cli
import vibroprint.dataset
from vibroprint.cli import run
from vibroprint.design import DEFAULT_GRID_STEP
from vibroprint.dataset import ENCODINGS
from vibroprint.signals import DEFAULT_ANALYSIS_BAND, DEFAULT_WINDOW, WINDOWS, _frequencies
from vibroprint.simulate import (
    DEFAULT_DAMPING_RATIO,
    DEFAULT_MODES,
    DEFAULT_NOISE_FLOOR_DB,
    DEFAULT_SAMPLE_RATE,
)
from vibroprint.units import khz_to_hz, mm_to_m


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


@pytest.mark.parametrize(
    "fmt, expected",
    [
        (
            "csv",
            "material,shape,dimension_mm,inner_mm,length_mm,mode,"
            "frequency_hz_min,frequency_hz_max,frequency_hz_nominal\r\n"
            "PLA,hexagon_hollow,0.8,0.4,3.5,1,27216.515872027536,28018.858620202154,27608.947267404903\r\n",
        ),
        (
            "json",
            """{
  "dimension_mm": 0.8,
  "frequency_hz_max": 28018.858620202154,
  "frequency_hz_min": 27216.515872027536,
  "frequency_hz_nominal": 27608.947267404903,
  "inner_mm": 0.4,
  "length_mm": 3.5,
  "material": "PLA",
  "mode": 1,
  "shape": "hexagon_hollow"
}
""",
        ),
    ],
    ids=["csv", "json"],
)
def test_freq_artifact_bytes_are_pinned(tmp_path, capsys, fmt, expected):
    argv = ["freq", "--material", "PLA", "--hexagon-side-mm", "0.8", "--hollow-inner-mm", "0.4"]
    assert run([*argv, "--length-mm", "3.5", "--format", fmt, "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "f1 = 27.217..28.019 kHz (nominal 27.609)\n"
    assert (tmp_path / f"freq.{fmt}").read_bytes() == expected.encode()


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


def test_a_signed_zero_band_edge_is_written_as_zero(tmp_path):
    assert run([*SWEEP_PLA, "--band-khz", "-0", "26", "--output-dir", str(tmp_path / "sweep")]) == 0
    assert read_csv(tmp_path / "sweep" / "sweep.csv")[-3] == ["band_low", "", "", "", "", "", "0.0"]
    data = tmp_path / "data"
    make_group_dataset(data)
    for name, edge in [("minus", "-0"), ("plus", "0")]:
        argv = ["analyze", str(data / "*.wav"), "--band-khz", edge, "1", "--output-dir", str(tmp_path / name)]
        assert run(argv) == 0
    # json.loads reads -0.0 as equal to 0.0, so the text itself is compared.
    minus, plus = ((tmp_path / name / "ratios.json").read_text() for name in ("minus", "plus"))
    assert '"band_hz": [\n    0.0,\n    1000.0\n  ]' in minus and minus == plus
    assert (tmp_path / "minus" / "auc.csv").read_bytes() == (tmp_path / "plus" / "auc.csv").read_bytes()


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
        ([*SWEEP_PLA, "--shapes", ","], 2, "--shapes names no shape: ','"),
        ([*SWEEP_PLA, "--shapes", "square,square"], 2, "--shapes names 'square' more than once"),
        (["sweep", "--material", "PLA", "--dims-mm", "1,2,1.0", "--length-range-mm", "3", "5"], 2, "--dims-mm names 1.0 more than once"),
    ],
    ids=[
        "design_caps_without_ranges", "design_caps_no_caps_without_ranges", "design_caps_and_no_caps",
        "design_band_peak", "sweep_peak_without_band", "sweep_peak_outside_band",
        "simulate_noise_floor_not_a_number", "sweep_dims_not_a_number", "sweep_shapes_name_none",
        "sweep_shape_repeated", "sweep_dim_repeated",
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


@pytest.mark.parametrize(
    "extra, most",
    [((), "at most 2 modes"), (("--modes", "2"), None), (("--sample-rate-hz", "100000"), "at most 1 mode")],
    ids=["default_modes", "two_modes", "low_rate"],
)
def test_simulate_nyquist_error_names_the_modes_that_fit(tmp_path, capsys, extra, most):
    argv = ["simulate", "--material", "PLA", "--square-side-mm", "1", "--length-mm", "3.5"]
    assert run([*argv, *extra, "--output-dir", str(tmp_path)]) == (1 if most else 0)
    err = capsys.readouterr().err
    assert (f"; this rate fits {most}\n" in err) if most else not err


def file_name_rule(directory) -> str:
    return (
        "a file name has no '/' or NUL, no leading '.' and at most "
        f"{os.pathconf(directory, 'PC_NAME_MAX')} bytes, and is not 'run_params.json'"
    )


@pytest.mark.parametrize(
    "name, suffix",
    [
        ("", ".wav"),
        ("ELSEWHERE/x", ".wav"),
        ("sub/x", ".wav"),
        ("x\0y", ".wav"),
        (".", ".wav"),
        ("..", ".wav"),
        ("run_params", ".json"),
        (".x", ".wav"),
        ("LONG", ".json"),
    ],
    ids=["empty", "absolute", "nested", "nul", "dot", "dotdot", "run_params", "hidden", "long_sidecar"],
)
def test_simulate_refuses_a_name_that_is_not_a_file_stem(tmp_path, capsys, name, suffix):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    name = name.replace("ELSEWHERE", str(elsewhere))
    # <name>.wav fills the name limit, so only its sidecar's name is too long.
    name = name.replace("LONG", "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".wav")))
    # A malformed --materials file: a refusal that came after reading it would name it.
    ini = tmp_path / "materials.ini"
    ini.write_text("not an ini file")
    out = tmp_path / "out"
    argv = simulate_args(out, extra=("--name", name, "--materials", str(ini)))
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"usage error: --name {name!r} is not a file stem: {name + suffix!r} "
        f"breaks the rule that {file_name_rule(tmp_path)}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere", "materials.ini"]
    assert not list(elsewhere.iterdir())


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
    "argv, message",
    [
        (["freq", "--material", "PLA", "--square-side-mm", "nan", "--length-mm", "3"], "error:"),
        (["freq", "--material", "PLA", "--square-side-mm", "1", "--length-mm", "inf"], "error:"),
        (["sweep", "--material", "PLA", "--dims-mm", "1,nan", "--length-range-mm", "2", "4"], "error:"),
        (["sweep", "--material", "PLA", "--dims-mm", "1", "--length-range-mm", "2", "inf"], "error:"),
        ([*SIMULATE_TPU, "--sample-rate-hz", "inf"], "error:"),
        ([*SIMULATE_TPU, "--velocity-mm-s", "inf"], "error:"),
        ([*SIMULATE_TPU, "--velocity-mm-s", "1e300"], "error:"),
        (["freq", "--material", "PLA", "--square-side-mm", "1", "--length-mm", "1e100"], "error:"),
        (["sweep", "--material", "PLA", "--dims-mm", "1", "--length-range-mm", "1", "1e100"], "error:"),
        ([*DESIGN_PLA, "--side-range-mm", "0.4", "inf", "--length-range-mm", "3", "4"], "error:"),
        ([*DESIGN_PLA, "--side-range-mm", "0.4", "1", "--length-range-mm", "3", "inf"], "error:"),
        (["freq", "--material", "PLA", "--square-side-mm", "1", "--length-mm", "1e-120"], "error:"),
        (["sweep", "--material", "PLA", "--dims-mm", "1", "--length-range-mm", "1e-120", "1e-119"], "error:"),
        (["freq", "--material", "PLA", "--square-side-mm", "1e-100", "--length-mm", "3"], "error:"),
        (["freq", "--material", "PLA", "--square-side-mm", "1e100", "--length-mm", "3"], "error:"),
        (["sweep", "--material", "PLA", "--dims-mm", "1e100", "--length-range-mm", "2", "4"], "error:"),
        (["bands", "--threshold-db", "nan"], "error:"),
        ([*SIMULATE_TPU, "--duration-s", "1e308", "--sample-rate-hz", "1e9"], "error:"),
        ([*SIMULATE_TPU, "--amplitudes", "nan"], "error: mode_amplitudes must be finite"),
        ([*SIMULATE_TPU, "--amplitudes", "0.5,inf", "--modes", "2"], "error: mode_amplitudes must be finite"),
        ([*SIMULATE_TPU, "--seed", "-1"], "error: seed must be >= 0"),
        ([*SIMULATE_TPU, "--seed", "-1", "--noise-floor-db", "none"], "error: seed must be >= 0"),
        ([*DESIGN_PLA, "--grid-step-mm", "1e-310"], "error: cannot build the length_range axis"),
    ],
    ids=[
        "side_nan", "length_inf", "sweep_dim_nan", "sweep_length_inf", "rate_inf", "velocity_inf",
        "velocity_huge", "length_huge", "sweep_length_huge", "design_side_inf", "design_length_inf",
        "length_tiny", "sweep_length_tiny", "side_tiny", "side_huge", "sweep_dim_huge",
        "bands_threshold_nan", "duration_times_rate_inf", "amplitudes_nan", "amplitudes_inf",
        "seed_negative", "seed_negative_without_noise", "design_step_denormal",
    ],
)
def test_non_finite_sizes_are_domain_errors(tmp_path, capsys, argv, message):
    assert run([*argv, "--output-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# Each request is above the 128 TiB of a 47-bit user address space, so an
# allocation fails at once on any 64-bit host and touches no real memory;
# sweep and design refuse the size before they allocate anything.
@pytest.mark.parametrize(
    "argv, message",
    [
        ([*SIMULATE_TPU, "--duration-s", "1e9"], "error: Unable to allocate"),
        (
            ["sweep", "--material", "PLA", "--dims-mm", "1", "--length-range-mm", "3", "4"]
            + ["--steps", str(10**17)],
            f"error: steps {10**17} x 3 section(s) = {3 * 10**17} rows, above the 1e+07 of one sweep",
        ),
        (
            [*DESIGN_PLA, "--side-range-mm", "0.4", "1", "--length-range-mm", "3", "1e15", "--grid-step-mm", "0.5"]
            + ["--no-caps"],
            "error: cannot build the length_range axis [0.003, 1000000000000.0] m at step 0.0005 m: "
            "2 sides x 2e+15 lengths = 4e+15 cells, above the 1e+07 of one scan",
        ),
    ],
    ids=["simulate_3.55PiB", "sweep_711PiB", "design_14.2PiB"],
)
def test_impossible_allocation_is_a_domain_error(tmp_path, capsys, argv, message):
    assert run([*argv, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not (tmp_path / "run_params.json").exists()


HUGE_INDEX = "1" + "0" * 400


# Past a float's range, so the root's interval ((n - 1) pi, n pi) would
# overflow in `beams`; `mode_constant` refuses the index before `SlideScenario`
# broadcasts anything per mode, with or without the per-mode flags.
@pytest.mark.parametrize(
    "argv",
    [
        ["freq", "--material", "PLA", "--square-side-mm", "1", "--length-mm", "3", "--mode", HUGE_INDEX],
        [*SIMULATE_TPU, "--modes", HUGE_INDEX, "--amplitudes", "0.1", "--damping", "0.02"],
        [*SIMULATE_TPU, "--modes", HUGE_INDEX],
    ],
    ids=["freq_mode", "simulate_modes", "simulate_modes_default_amplitudes"],
)
def test_a_mode_index_past_a_float_is_a_domain_error(tmp_path, capsys, argv):
    assert run([*argv, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: mode index must be in [1, 2**53], got {HUGE_INDEX}\n"
    assert not list(tmp_path.iterdir())


# Past the scan bound, yet small enough that numpy would try to allocate
# them (4.47 GiB for the design's side axis, 7.45 GiB for the sweep's lengths);
# 2**53 modes, the highest mode index, would need a value per mode, where the
# slide's rate check bisects the mode indices instead.
# The address-space limit turns a missing bound into a failed assertion
# rather than a machine out of memory.
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            [*DESIGN_PLA, "--grid-step-mm", "1e-9"],
            "error: cannot build the length_range axis [0.0032, 0.004] m at step 1e-12 m: "
            "6e+08 sides x 8e+08 lengths = 4.8e+17 cells, above the 1e+07 of one scan",
        ),
        (
            ["sweep", "--material", "PLA", "--dims-mm", "1", "--length-range-mm", "1", "3"]
            + ["--steps", "1000000000"],
            "error: steps 1000000000 x 3 section(s) = 3000000000 rows, above the 1e+07 of one sweep",
        ),
        (
            [*SIMULATE_TPU, "--modes", str(2**53)],
            "error: sample rate 500000.0 Hz cannot represent mode at 2.054e+36 Hz; "
            "need > 4.108e+36 Hz; this rate fits at most 3 modes",
        ),
    ],
    ids=["design_step_1e-9mm", "sweep_1e9_steps", "simulate_max_mode_index"],
)
def test_oversized_scan_is_refused_before_allocating(tmp_path, argv, message):
    resource = pytest.importorskip("resource")
    limit = 1536 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "vibroprint", *argv, "--output-dir", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(Path(vp.__file__).resolve().parent.parent)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, message + "\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
def test_simulate_non_finite_noise_floor_names_the_field(tmp_path, capsys, level):
    assert run([*SIMULATE_TPU, f"--noise-floor-db={level}", "--output-dir", str(tmp_path)]) == 1
    assert "noise_floor_db must be finite or None" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.wav"))


def test_simulate_noise_floor_past_the_float_range_is_refused(tmp_path, capsys):
    # 10 ** (7000 / 20) overflows a float: the scenario refuses it before synthesis.
    out = tmp_path / "out"
    argv = [
        "simulate", "--material", "TPU", "--square-side-mm", "2.6", "--length-mm", "2.0",
        "--duration-s", "0.005", "--noise-floor-db", "7000", "--sample-rate-hz", "100000", "--modes", "1",
    ]
    assert run([*argv, "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: noise_floor_db 7000.0 dB gives a noise sigma past the float range over 500 samples\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize("mean_spectra", [False, True], ids=["auc", "spectra"])
def test_gather_gives_the_auc_column_that_analyze_writes(tmp_path, mean_spectra):
    data = tmp_path / "data"
    make_group_dataset(data)
    out = tmp_path / "out"
    assert run(["analyze", str(data / "*.wav"), "--output-dir", str(out)]) == 0
    inputs = [(p, None) for p in sorted(data.glob("*.wav"))]
    labels, grids, aucs, means = vibroprint.dataset.gather(
        inputs, DEFAULT_ANALYSIS_BAND, DEFAULT_WINDOW, mean_spectra
    )
    rows = read_csv(out / "auc.csv")[1:]
    assert [repr(auc) for auc in aucs] == [row[4] for row in rows]
    assert [(m.fingerprint_material, str(m.repetition)) for m in labels] == [(row[1], row[3]) for row in rows]
    assert grids == [(500e3, 15000)] * 4
    assert sorted(means) == ([("Left", m, grids[0]) for m in ("Default", "ST45B")] if mean_spectra else [])


def test_gather_of_no_inputs_is_empty_and_starts_no_thread(monkeypatch):
    starts = pool_starts(monkeypatch)
    threads = threading.active_count()
    assert vibroprint.dataset.gather([], DEFAULT_ANALYSIS_BAND, DEFAULT_WINDOW, True) == ([], [], [], {})
    assert starts == [] and threading.active_count() == threads


@pytest.mark.parametrize("source", ["glob", "manifest"])
def test_analyze_reads_and_writes_utf8_under_an_ascii_locale(tmp_path, source):
    # An object label that ASCII cannot encode, from the sidecars or from a UTF-8 manifest.
    data = tmp_path / "data"
    make_group_dataset(data)
    if source == "glob":
        for wav in data.glob("*.wav"):
            relabel_sidecar(wav, object="Zürich")
        inputs = [str(data / "*.wav")]
    else:
        path = group_manifest(data)
        manifest = json.loads(path.read_text())
        manifest["objects"][0]["name"] = "Zürich"
        path.write_bytes(json.dumps(manifest, ensure_ascii=False).encode())
        inputs = ["--manifest", str(path)]
    assert run(["analyze", *inputs, "--output-dir", str(tmp_path / "default")]) == 0
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(vp.__file__).resolve().parent.parent),
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
        "LC_ALL": "C",
    }
    proc = subprocess.run(
        [sys.executable, "-m", "vibroprint", "analyze", *inputs, "--output-dir", str(tmp_path / "ascii")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    written = (tmp_path / "ascii" / "auc.csv").read_bytes()
    assert "Zürich".encode() in written
    assert written == (tmp_path / "default" / "auc.csv").read_bytes()


def spectra_rows(monkeypatch):
    """The row count of each stack analyze transforms, in order: of each
    `windowed_spectra` call, or where a helper thread runs the FFTs, of each
    `stack_fft` call."""
    rows = []
    for name in ("windowed_spectra", "stack_fft"):

        def counted(stack, *args, transform=getattr(vibroprint.signals, name)):
            rows.append(len(stack))
            return transform(stack, *args)

        monkeypatch.setattr(vibroprint.dataset, name, counted)
    return rows


@pytest.mark.parametrize("source", ["glob", "manifest"])
def test_analyze_computes_each_spectrum_once(tmp_path, monkeypatch, source):
    data = tmp_path / "data"
    make_group_dataset(data)
    inputs = [str(data / "*.wav")] if source == "glob" else ["--manifest", str(group_manifest(data))]
    rows = spectra_rows(monkeypatch)
    out = tmp_path / "out"
    assert run(["analyze", *inputs, "--write-spectra", "--output-dir", str(out)]) == 0
    assert sum(rows) == len(read_csv(out / "auc.csv")) - 1 == 4
    assert sorted(p.name for p in out.glob("mean_spectrum_*.csv")) == [
        "mean_spectrum_Left_Default.csv",
        "mean_spectrum_Left_ST45B.csv",
    ]


def counted(monkeypatch, name, module=vibroprint.dataset):
    """The first argument of each call analyze makes to `module`'s binding of `name`."""
    firsts = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        firsts.append(args[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return firsts


@pytest.mark.parametrize("slice_bytes", [None, 1], ids=["calling_thread", "pool"])
def test_analyze_reads_integrates_and_normalizes_once_each(tmp_path, monkeypatch, slice_bytes):
    # The benchmark's tracer times these calls by name: one read per recording,
    # one band integral per stack and one normalization per run keep its spans meaningful.
    for rep in (1, 2):
        for mic, duration in (("Left", 0.02), ("Palm", 0.011)):
            for material in ("Default", "ST45B"):
                write_slide(tmp_path / f"{rep}_{mic}_{material}.wav", mic, material, duration)
    if slice_bytes is not None:
        monkeypatch.setattr(vibroprint.dataset, "_SLICE_BYTES", slice_bytes)
    reads, integrals = (counted(monkeypatch, name) for name in ("read_bundle_samples", "band_auc"))
    reports = counted(monkeypatch, "normalize_against_baseline", vibroprint.cli)
    rows = spectra_rows(monkeypatch)
    assert run(["analyze", str(tmp_path / "*.wav"), "--output-dir", str(tmp_path / "out")]) == 0
    assert sorted(reads) == sorted(tmp_path.glob("*.wav"))
    assert [len(stack.magnitudes) for stack in integrals] == rows
    assert len(rows) == (4 if slice_bytes is None else 8)
    assert [len(labels) for labels in reports] == [8]


def test_analyze_builds_one_spectrum_per_stack(tmp_path, monkeypatch):
    # Without --write-spectra no spectrum is split into one object per recording.
    for k in range(4):
        write_slide(tmp_path / f"{k}.wav", "Left", ("Default", "ST45B")[k % 2], 0.02)
    slices, _ = vibroprint.dataset._slices([(p, None) for p in sorted(tmp_path.glob("*.wav"))])
    assert [len(items) for items in slices] == [4]
    rows = spectra_rows(monkeypatch)
    inits = []
    init = vibroprint.signals.Spectrum.__init__

    def counted_init(self, *args, **kwargs):
        inits.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(vibroprint.signals.Spectrum, "__init__", counted_init)
    assert run(["analyze", str(tmp_path / "*.wav"), "--output-dir", str(tmp_path / "out")]) == 0
    assert rows == [4]
    assert len(inits) == len(rows)


@pytest.mark.parametrize("caps", [[], ["--no-caps"]], ids=["layouts", "no_caps"])
def test_design_scans_once(tmp_path, monkeypatch, caps):
    calls = []
    scan = vibroprint.design.feasible_region

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    # Both bindings: the CLI's own and the one a layout pick would reach.
    monkeypatch.setattr(vibroprint.cli, "feasible_region", counted)
    monkeypatch.setattr(vibroprint.design, "feasible_region", counted)
    out = tmp_path / "out"
    assert run(["design", "--material", "PLA", *caps, "--output-dir", str(out)]) == 0
    assert (out / "layouts.csv").is_file() == (not caps)
    assert len(calls) == 1


def pool_starts(monkeypatch, cpus=2):
    """The `max_workers` of each thread pool analyze starts, on `cpus` cores."""
    starts = []

    class Counted(vibroprint.dataset.ThreadPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(vibroprint.dataset.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(vibroprint.dataset, "ThreadPoolExecutor", Counted)
    return starts


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


@pytest.mark.parametrize("window", ["hann", "rectangular"])
def test_stacks_flush_mid_slice_and_match_per_file_results(tmp_path, monkeypatch, window):
    # Microphones of different lengths interleave, so a slice holds several stacks.
    for rep in (1, 2, 3):
        for mic, duration in (("Left", 0.02), ("Palm", 0.011), ("Right", 0.03)):
            for material in ("Default", "ST45B"):
                write_slide(tmp_path / f"{rep}_{mic}_{material}.wav", mic, material, duration)
    argv = ["analyze", str(tmp_path / "*.wav"), "--window", window, "--write-spectra"]
    inputs = vibroprint.cli._analysis_inputs(vibroprint.cli.build_parser().parse_args(argv))
    slices, any_long = vibroprint.dataset._slices(inputs)
    assert 1 < len(slices) < len(inputs) and not any_long

    # Two paths, one set of artifacts on one core or two: the default slices
    # read in the calling thread while a helper thread runs their FFTs, and
    # every file a slice of its own on the pool.  Threads switch as often as
    # the interpreter lets them.
    artifacts = []
    switch = sys.getswitchinterval()
    for slice_bytes, cpus, pools in (
        (vibroprint.dataset._SLICE_BYTES, 1, [1]),
        (vibroprint.dataset._SLICE_BYTES, 2, [1]),
        (1, 1, [1]),
        (1, 2, [2]),
    ):
        monkeypatch.setattr(vibroprint.dataset, "_SLICE_BYTES", slice_bytes)
        rows = spectra_rows(monkeypatch)
        starts = pool_starts(monkeypatch, cpus)
        out = tmp_path / f"out{slice_bytes}-{cpus}"
        sys.setswitchinterval(1e-6)
        try:
            assert run([*argv, "--output-dir", str(out)]) == 0
        finally:
            sys.setswitchinterval(switch)
        assert sum(rows) == len(inputs) and starts == pools
        names = ["auc.csv", "ratios.json", *sorted(p.name for p in out.glob("mean_spectrum_*.csv"))]
        artifacts.append((rows, {name: (out / name).read_bytes() for name in names}))
    (stacked, stacked_files), (helper, helper_files), *pools = artifacts
    assert max(stacked) > 1 and len(stacked) > len(slices)
    assert helper == stacked
    assert [per_file for per_file, _ in pools] == [[1] * len(inputs)] * 2
    assert len(stacked_files) == 2 + 6
    assert stacked_files == helper_files == pools[0][1] == pools[1][1]


def test_a_corpus_of_short_recordings_is_read_in_the_calling_thread(tmp_path, monkeypatch):
    for k in range(16):
        write_slide(tmp_path / f"{k:02d}.wav", "Left", ("Default", "ST45B")[k % 2], 0.02)
    inputs = [(p, None) for p in sorted(tmp_path.glob("*.wav"))]
    slices, any_long = vibroprint.dataset._slices(inputs)
    assert len(slices) > 1 and not any_long
    # In the main thread or not, per call of each binding.
    calls = {name: [] for name in ("read_bundle_samples", "windowed_spectra", "stack_fft")}
    for name, threads in calls.items():

        def tracked(*args, fn=getattr(vibroprint.dataset, name), threads=threads):
            threads.append(threading.current_thread() is threading.main_thread())
            return fn(*args)

        monkeypatch.setattr(vibroprint.dataset, name, tracked)
    # On one core or two, one helper thread runs the FFTs of every slice, and
    # every file is read in the calling thread.
    for cpus in (2, 1):
        for threads in calls.values():
            threads.clear()
        starts = pool_starts(monkeypatch, cpus)
        assert run(["analyze", str(tmp_path / "*.wav"), "--output-dir", str(tmp_path / f"out{cpus}")]) == 0
        assert starts == [1]
        assert calls["read_bundle_samples"] == [True] * len(inputs)
        assert calls["windowed_spectra"] == []
        assert calls["stack_fft"] == [False] * len(slices)


def test_one_long_recording_puts_the_corpus_on_the_pool(tmp_path, monkeypatch):
    for rep in (1, 2):
        for material in ("Default", "ST45B"):
            write_slide(tmp_path / f"{rep}_Left_{material}.wav", "Left", material, 0.02)
    for material in ("Default", "ST45B"):
        write_slide(tmp_path / f"3_Right_{material}.wav", "Right", material, 0.3)
    argv = ["analyze", str(tmp_path / "*.wav"), "--write-spectra"]
    inputs = vibroprint.cli._analysis_inputs(vibroprint.cli.build_parser().parse_args(argv))
    assert vibroprint.dataset._slices(inputs)[1]

    # One core gives a pool of one thread.
    artifacts = []
    for cpus, pools in ((2, [2]), (1, [1])):
        starts = pool_starts(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        assert run([*argv, "--output-dir", str(out)]) == 0
        assert starts == pools
        names = ["auc.csv", "ratios.json", *sorted(p.name for p in out.glob("mean_spectrum_*.csv"))]
        artifacts.append({name: (out / name).read_bytes() for name in names})
    assert len(artifacts[0]) == 2 + 4
    assert artifacts[0] == artifacts[1]


def guard_fault_corpus(tmp_path, guard, fillers=0):
    """a.wav and b.wav in one Left group that the per-microphone guard refuses
    (two grids, or two procedures), then `fillers` recordings that match
    a.wav (b_00.wav, ...), then c.wav, which cannot be read."""
    write_slide(tmp_path / "a.wav", "Left", "Default", 0.02)
    if guard == "grid":
        write_slide(tmp_path / "b.wav", "Left", "Default", 0.03)
    else:
        write_slide(tmp_path / "b.wav", "Left", "Default", 0.02)
        relabel_sidecar(tmp_path / "b.wav", exploration_procedure="Pressure")
    for k in range(fillers):
        write_slide(tmp_path / f"b_{k:02d}.wav", "Left", "Default", 0.02)
    (tmp_path / "c.wav").write_bytes(b"not a wav")
    return tmp_path / "c.wav"


# How each analyze path is reached: (_SLICE_BYTES, or None for the default;
# cores; the max_workers of each pool started).  "in_thread" and "pool" put
# one file in each slice, on the pool of one core's single thread and of two
# cores; "helper" keeps the default slices of several files.
PATHS = {"in_thread": (1, 1, [1]), "pool": (1, 2, [2]), "helper": (None, 2, [1])}


def take_path(monkeypatch, path):
    """Set up `path` of PATHS; returns the list of pools started."""
    slice_bytes, cpus, _ = PATHS[path]
    if slice_bytes is not None:
        monkeypatch.setattr(vibroprint.dataset, "_SLICE_BYTES", slice_bytes)
    return pool_starts(monkeypatch, cpus)


def hold_transform_until_read(monkeypatch, target):
    """Make each FFT on the helper thread (`stack_fft`) wait until `target` is
    read, so a slice read earlier is still in transform when `target` is.
    Returns the Event that marks the read (set it to release later calls)
    and the list of whether `target` was read as each call began."""
    read_target = threading.Event()
    entered = []
    read, fft = vibroprint.dataset.read_bundle_samples, vibroprint.dataset.stack_fft

    def tracked_read(path, labels):
        if path == target:
            read_target.set()
        return read(path, labels)

    def held_fft(windowed):
        entered.append(read_target.is_set())
        assert read_target.wait(30), f"a slice was transformed before {target} was read"
        return fft(windowed)

    monkeypatch.setattr(vibroprint.dataset, "read_bundle_samples", tracked_read)
    monkeypatch.setattr(vibroprint.dataset, "stack_fft", held_fft)
    return read_target, entered


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("spectra", [[], ["--write-spectra"]], ids=["auc", "spectra"])
@pytest.mark.parametrize("guard", ["grid", "procedure"])
def test_a_later_unreadable_file_wins_over_an_earlier_guard_fault(
    tmp_path, monkeypatch, capsys, guard, spectra, path
):
    data = tmp_path / "data"
    data.mkdir()
    bad = guard_fault_corpus(data, guard, fillers=8 if path == "helper" else 0)
    starts = take_path(monkeypatch, path)
    argv = ["analyze", str(data / "*.wav"), *spectra, "--output-dir", str(tmp_path / "out")]
    inputs = vibroprint.cli._analysis_inputs(vibroprint.cli.build_parser().parse_args(argv))
    slices, _ = vibroprint.dataset._slices(inputs)
    if path == "helper":
        # The guard's mismatch is in the first slice and the bad file ends
        # the second, read while the first is still in transform.
        assert [len(items) for items in slices] == [7, 4]
        assert slices[1][-1][0] == bad
        read_bad, entered = hold_transform_until_read(monkeypatch, bad)
    else:
        # One file per slice: the guard's mismatch is two slices before the bad file.
        assert len(slices) == len(inputs)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not a RIFF/WAVE file (starts with b'not ')\n"
    assert starts == PATHS[path][2]
    if path == "helper":
        # The first slice's transform began before the bad file was read.
        assert entered and not entered[0]
        read_bad.set()

    bad.unlink()
    assert run(argv) == 1
    assert "error: microphone 'Left' mixes recordings of" in capsys.readouterr().err
    assert not (tmp_path / "out" / "auc.csv").exists()


@pytest.mark.parametrize("slice_bytes, cpus", [(None, 2), (1, 2)], ids=["in_thread", "pool"])
def test_write_spectra_refuses_a_group_of_two_grids_with_the_guard(
    tmp_path, monkeypatch, capsys, slice_bytes, cpus
):
    # One (microphone, material) group, Left Default, on two grids.
    write_slide(tmp_path / "a.wav", "Left", "Default", 0.02)
    write_slide(tmp_path / "b.wav", "Left", "ST45B", 0.02)
    write_slide(tmp_path / "c.wav", "Left", "Default", 0.03)
    if slice_bytes is not None:
        monkeypatch.setattr(vibroprint.dataset, "_SLICE_BYTES", slice_bytes)
    starts = pool_starts(monkeypatch, cpus)
    out = tmp_path / "out"
    code = run(["analyze", str(tmp_path / "*.wav"), "--write-spectra", "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: microphone 'Left' mixes recordings of (sample rate Hz, samples) "
        "(500000.0, 10000) and (500000.0, 15000); their AUCs are not comparable\n"
    )
    assert starts == ([1] if slice_bytes is None else [2])
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("spectra", [[], ["--write-spectra"]], ids=["auc", "spectra"])
@pytest.mark.parametrize("first", ["procedure_on_right", "grid_on_left"])
def test_the_first_incomparable_recording_wins_across_microphones(
    tmp_path, monkeypatch, capsys, first, spectra, path
):
    data = tmp_path / "data"
    data.mkdir()
    write_slide(data / "a.wav", "Left", "Default", 0.02)
    write_slide(data / "b.wav", "Right", "Default", 0.02)
    # c.wav and d.wav each mismatch their microphone's first recording.
    procedure, grid = data / "c.wav", data / "d.wav"
    if first == "grid_on_left":
        procedure, grid = grid, procedure
    write_slide(procedure, "Right", "ST45B", 0.02)
    relabel_sidecar(procedure, exploration_procedure="Pressure")
    write_slide(grid, "Left", "ST45B", 0.03)
    if path == "helper":
        # Recordings that match their microphone's first put c.wav in the
        # first slice and d.wav at the end of the second.
        for k in range(8):
            write_slide(data / f"c_{k:02d}.wav", ("Left", "Right")[k % 2], "Default", 0.02)
    starts = take_path(monkeypatch, path)
    argv = ["analyze", str(data / "*.wav"), *spectra]
    inputs = vibroprint.cli._analysis_inputs(vibroprint.cli.build_parser().parse_args(argv))
    slices, _ = vibroprint.dataset._slices(inputs)
    if path == "helper":
        assert [len(items) for items in slices] == [7, 5] and slices[1][-1][0] == data / "d.wav"
    else:
        assert len(slices) == len(inputs)  # one file per slice
    out = tmp_path / "out"
    assert run([*argv, "--output-dir", str(out)]) == 1
    expected = {
        "procedure_on_right": "microphone 'Right' mixes recordings of (exploration_procedure, "
        "force_code) ('LateralMotion', None) and ('Pressure', None)",
        "grid_on_left": "microphone 'Left' mixes recordings of (sample rate Hz, samples) "
        "(500000.0, 10000) and (500000.0, 15000)",
    }[first]
    assert capsys.readouterr().err == f"error: {expected}; their AUCs are not comparable\n"
    assert starts == PATHS[path][2]
    assert not out.exists()


@pytest.mark.parametrize("material", ["../escaped", "nul\0", "m" * 260], ids=["path", "nul", "long"])
def test_write_spectra_refuses_a_label_that_names_no_file(tmp_path, capsys, material):
    data = tmp_path / "data"
    data.mkdir()
    write_slide(data / "a.wav", "Left", "Default", 0.02)
    write_slide(data / "b.wav", "Left", "ST45B", 0.02)
    relabel_sidecar(data / "b.wav", fingerprint_material=material)
    files = sorted(data.iterdir())
    out = tmp_path / "out"
    argv = ["analyze", str(data / "*.wav"), "--output-dir", str(out)]
    assert run([*argv, "--write-spectra"]) == 1
    name = f"mean_spectrum_Left_{material}.csv"
    assert capsys.readouterr().err == (
        f"error: microphone 'Left', material {material!r}: the mean spectrum file {name!r} "
        f"breaks the rule that {file_name_rule(tmp_path)}\n"
    )
    assert not out.exists()
    assert sorted(tmp_path.iterdir()) == [data] and sorted(data.iterdir()) == files
    # Without --write-spectra the label names no file, and the run goes on.
    assert run(argv) == 0
    assert material in json.loads((out / "ratios.json").read_text())["microphones"]["Left"]["groups"]


def test_write_spectra_holds_one_slice_of_spectra(tmp_path, monkeypatch):
    for k in range(6):
        write_slide(tmp_path / f"{k}.wav", "Left", ("Default", "ST45B")[k % 2], 0.02)
    # Two short files per slice, on the helper path of one core.
    monkeypatch.setattr(vibroprint.dataset, "_SLICE_BYTES", (tmp_path / "0.wav").stat().st_size + 1)
    starts = pool_starts(monkeypatch, cpus=1)
    stacks, alive = [], []

    def tracked(*args):
        result = vibroprint.signals.stack_spectrum(*args)
        stacks.append(weakref.ref(result.magnitudes))
        return result

    def add(mean, spec, add=vibroprint.signals.SpectrumMean.add):
        alive.append(sum(stack() is not None for stack in stacks))
        add(mean, spec)

    monkeypatch.setattr(vibroprint.dataset, "stack_spectrum", tracked)
    monkeypatch.setattr(vibroprint.signals.SpectrumMean, "add", add)
    out = tmp_path / "out"
    assert run(["analyze", str(tmp_path / "*.wav"), "--write-spectra", "--output-dir", str(out)]) == 0
    assert starts == [1] and len(stacks) == 3
    assert len(alive) == 6 and max(alive) <= 2 < len(stacks)
    assert len(list(out.glob("mean_spectrum_*.csv"))) == 2


def test_the_helper_holds_at_most_two_slices(tmp_path, monkeypatch):
    for k in range(28):
        write_slide(tmp_path / f"{k:02d}.wav", "Left", ("Default", "ST45B")[k % 2], 0.02)
    inputs = [(p, None) for p in sorted(tmp_path.glob("*.wav"))]
    slices, any_long = vibroprint.dataset._slices(inputs)
    assert len(slices) >= 4 and not any_long
    starts = pool_starts(monkeypatch, cpus=2)
    # Weak references to each buffer of rows that a slice is decoded into,
    # and to each stack of windowed samples, of FFTs and of spectra, as
    # analyze makes them.
    buffers, made, alive = [], {"windowed": [], "stack_fft": [], "stack_spectrum": []}, []

    def held():
        """Row buffers alive, then the stacks of each kind alive."""
        return [sum(ref() is not None for ref in refs) for refs in (buffers, *made.values())]

    read, decode = vibroprint.dataset.read_bundle_samples, vibroprint.dataset.decode_samples

    def tracked_read(path, labels):
        alive.append(held())
        return read(path, labels)

    def tracked_decode(raw, scale, out, window):
        if not any(ref() is out.base for ref in buffers):
            buffers.append(weakref.ref(out.base))
        return decode(raw, scale, out, window)

    monkeypatch.setattr(vibroprint.dataset, "read_bundle_samples", tracked_read)
    monkeypatch.setattr(vibroprint.dataset, "decode_samples", tracked_decode)
    for name in ("stack_fft", "stack_spectrum"):

        def tracked(*args, fn=getattr(vibroprint.dataset, name), kind=name):
            alive.append(held())
            if kind == "stack_fft":
                made["windowed"].append(weakref.ref(args[0]))
            result = fn(*args)
            made[kind].append(weakref.ref(getattr(result, "magnitudes", result)))
            return result

        monkeypatch.setattr(vibroprint.dataset, name, tracked)

    def add(mean, spec, add=vibroprint.signals.SpectrumMean.add):
        alive.append(held())
        add(mean, spec)

    monkeypatch.setattr(vibroprint.signals.SpectrumMean, "add", add)
    out = tmp_path / "out"
    assert run(["analyze", str(tmp_path / "*.wav"), "--write-spectra", "--output-dir", str(out)]) == 0
    assert starts == [1] and [len(refs) for refs in made.values()] == [len(slices)] * 3
    # Counted at every read, every step of a stack and every spectrum added
    # to its mean: the slice being read and the one in transform are all a
    # run holds, of row buffers and of each kind of stack.
    assert len(alive) == 2 * len(inputs) + 2 * len(slices)
    assert max(max(counts) for counts in alive) <= 2 < len(slices)
    assert len(list(out.glob("mean_spectrum_*.csv"))) == 2


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize(
    "n, band",
    [
        (10000, ("3.2", "26")),
        (10000, ("3.2", "26.02")),
        (10000, ("0", "250")),
        (10001, ("0", "249.97")),
        (10001, ("1", "26.02")),
    ],
    ids=["on_a_bin", "between_bins", "at_nyquist", "odd_below_the_top_bin", "odd_between_bins"],
)
def test_band_only_spectra_give_the_full_spectra_aucs(tmp_path, monkeypatch, path, window, n, band):
    # Enough recordings for two slices on the helper path.
    for rep in range(1, 6):
        for material in ("Default", "ST45B"):
            write_slide(tmp_path / f"{rep}_{material}.wav", "Left", material, n / 500e3)
    starts = take_path(monkeypatch, path)
    stacks = counted(monkeypatch, "band_auc")
    argv = ["analyze", str(tmp_path / "*.wav"), "--window", window, "--band-khz", *band]
    artifacts = []
    for spectra in ([], ["--write-spectra"]):
        out = tmp_path / f"out{len(spectra)}"
        assert run([*argv, *spectra, "--output-dir", str(out)]) == 0
        artifacts.append({name: (out / name).read_bytes() for name in ("auc.csv", "ratios.json")})
    assert artifacts[0] == artifacts[1]
    assert starts == PATHS[path][2] * 2
    # Without --write-spectra each stack ends at the first bin at or above the
    # band's top; on Nyquist it keeps the cached grid itself.
    grid = _frequencies(n, 500e3)
    bins = int(np.searchsorted(grid, khz_to_hz(float(band[1])))) + 1
    full = len(stacks) // 2
    assert {stack.magnitudes.shape[-1] for stack in stacks[:full]} == {bins}
    assert all((stack.frequencies is grid) == (bins == grid.size) for stack in stacks[:full])
    assert all(stack.frequencies is grid for stack in stacks[full:])


@pytest.mark.parametrize("path", ["in_thread", "pool"])
def test_analyze_memory_does_not_grow_with_the_long_recordings_it_reads(tmp_path, monkeypatch, path):
    # 0.2 s at 500 kHz: each WAV holds 400 kB, so each is a slice of its own.
    n = 100_000
    corpora = {}
    for count in (2, 8):
        corpora[count] = tmp_path / str(count)
        corpora[count].mkdir()
        for k in range(count):
            write_slide(corpora[count] / f"{k}.wav", "Left", ("Default", "ST45B")[k % 2], n / 500e3)
    starts = pool_starts(monkeypatch, cpus=1 if path == "in_thread" else 2)
    if path == "pool":
        # Both threads read in step, so each run grows both threads' buffers:
        # a thread that took both of the two files would leave the smaller
        # corpus's peak one thread's buffers short.
        step, read = threading.Barrier(2, timeout=30), vibroprint.dataset.read_bundle_samples

        def read_in_step(*args):
            step.wait()
            return read(*args)

        monkeypatch.setattr(vibroprint.dataset, "read_bundle_samples", read_in_step)

    def peak(corpus):
        tracemalloc.start()
        try:
            assert run(["analyze", str(corpus / "*.wav"), "--output-dir", str(corpus / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(corpora[2])  # warm-up: the window and the grid
    two, eight = peak(corpora[2]), peak(corpora[8])
    assert starts == ([1] if path == "in_thread" else [2]) * 3
    # Each pool thread reuses one file buffer, one row buffer and one transform
    # scratch: six more recordings add less than one recording's samples.
    assert eight - two < n * 8, (two, eight)


def test_analyze_refuses_a_manifest_without_recordings(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"schema_version": 1, "objects": [], "observations": []}))
    out = tmp_path / "out"
    assert run(["analyze", "--manifest", str(path), "--output-dir", str(out)]) == 1
    assert f"error: {path}: the manifest lists no recordings" in capsys.readouterr().err
    assert not out.exists()
    assert vibroprint.dataset._slices([]) == ([], False)


@pytest.mark.parametrize("nan_at, unlabeled_at", [(3, 12), (12, 3)])
def test_analyze_names_the_earlier_of_two_bad_files_in_different_slices(
    tmp_path, capsys, nan_at, unlabeled_at
):
    for k in range(16):
        write_slide(tmp_path / f"{k:02d}.wav", "Left", ("Default", "ST45B")[k % 2], 0.02)
    nan, unlabeled = (tmp_path / f"{k:02d}.wav" for k in (nan_at, unlabeled_at))
    wavfile.write(nan, 500000, np.array([0.0, np.nan, 0.5], dtype=np.float32))
    vp.write_wav(vp.Recording(np.zeros(256), 500e3), unlabeled)
    unlabeled.with_suffix(".json").unlink()
    earlier, later = sorted((nan, unlabeled))
    inputs = [(p, None) for p in sorted(tmp_path.glob("*.wav"))]
    slices, _ = vibroprint.dataset._slices(inputs)
    slice_of = {path: i for i, part in enumerate(slices) for path, _ in part}
    assert slice_of[earlier] < slice_of[later]
    assert run(["analyze", str(tmp_path / "*.wav"), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: {earlier}: " in err
    assert later.name not in err


def test_fault_of_an_earlier_file_in_a_stack_comes_first(tmp_path, capsys):
    # The band passes a.wav's Nyquist; b.wav, later in the same slice, is unreadable.
    write_slide(tmp_path / "a.wav", "Left", "Default", 0.02)
    wavfile.write(tmp_path / "b.wav", 500000, np.array([0.0, np.nan, 0.5], dtype=np.float32))
    argv = ["analyze", str(tmp_path / "*.wav"), "--band-khz", "0", "300"]
    assert run([*argv, "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "outside spectrum range" in err and "b.wav" not in err
    assert f"error: {tmp_path / 'a.wav'}: band [0.0, 300000.0]" in err


@pytest.mark.parametrize("band", [["5", "1"], ["-1", "5"]], ids=["reversed", "negative"])
def test_bad_band_is_refused_before_any_file_is_read(tmp_path, capsys, band):
    wavfile.write(tmp_path / "a.wav", 500000, np.array([0.0, np.nan, 0.5], dtype=np.float32))
    write_slide(tmp_path / "b.wav", "Left", "Default", 0.02)
    out = tmp_path / "out"
    argv = ["analyze", str(tmp_path / "*.wav"), "--band-khz", *band, "--output-dir", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: --band-khz {float(band[0])} {float(band[1])}: band needs 0 <= low < high < inf" in err
    assert "a.wav" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "band", [["-1", "5"], ["5", "1"], ["3.2", "inf"], ["nan", "5"], ["5", "5"]],
    ids=["negative", "reversed", "infinite", "nan", "point"],
)
@pytest.mark.parametrize("subcommand", ["design", "sweep", "analyze"])
def test_a_bad_band_is_one_refusal_on_every_subcommand(tmp_path, capsys, subcommand, band):
    # Every input file is malformed, so a refusal that came after a read would name it.
    ini, wav = tmp_path / "materials.ini", tmp_path / "a.wav"
    ini.write_text("not an ini file")
    wav.write_bytes(b"not a wav file")
    inputs = {
        "design": ["design", "--material", "PLA", "--materials", str(ini)],
        "sweep": [*SWEEP_PLA, "--materials", str(ini)],
        "analyze": ["analyze", str(wav)],
    }[subcommand]
    out = tmp_path / "out"
    assert run([*inputs, "--band-khz", *band, "--output-dir", str(out)]) == 1
    lo, hi = (float(v) for v in band)
    assert capsys.readouterr().err == (
        f"error: --band-khz {lo} {hi}: band needs 0 <= low < high < inf, got [{khz_to_hz(lo)}, {khz_to_hz(hi)}] Hz\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        ([*DESIGN_PLA, "--band-khz", "-1", "5"], 1),
        ([*DESIGN_PLA, "--caps-mm", "1", "1", "1", "1"], 2),
        (["analyze", "absent/*.wav"], 1),
    ],
    ids=["refused_band", "usage_error", "missing_input"],
)
def test_a_refused_run_leaves_no_directory_behind(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run([*argv, "--output-dir", str(existing / "nd" / "a" / "b")]) == code
    assert list(tmp_path.iterdir()) == [existing] and not list(existing.iterdir())
    # A directory that was there before the run is never removed.
    assert run([*argv, "--output-dir", str(existing)]) == code
    assert existing.is_dir()


def test_analyze_a_directory_is_not_a_regular_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("c").mkdir()
    assert run(["analyze", "c", "--output-dir", "o"]) == 1
    assert capsys.readouterr().err == "error: c: not a regular file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["c"]


def test_a_failed_run_keeps_the_directories_it_wrote_into(tmp_path, monkeypatch):
    # The feasible grid is written before the layout writer fails.
    def full(*args):
        raise OSError("disk full")

    monkeypatch.setattr(vibroprint.cli, "write_layout_csv", full)
    out = tmp_path / "nd" / "out"
    assert run([*DESIGN_PLA, "--output-dir", str(out)]) == 1
    assert [p.name for p in out.iterdir()] == ["feasible_grid.csv"]


def test_a_layout_error_writes_no_artifact(tmp_path, capsys):
    argv = [*DESIGN_PLA, "--side-range-mm", "0.4", "1", "--length-range-mm", "3", "5"]
    argv += ["--caps-mm", "1", "1", "1", "1"]
    out = tmp_path / "nd" / "out"
    assert run([*argv, "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "feasible region: 146 grid points, sides [0.40, 1.00] mm, lengths [3.00, 5.00] mm\n"
    # The reason names the side it describes: the region's lengths start lower.
    reason = "clearance cap 1 mm admits no feasible length (at side 1.00 mm, lengths start at 3.10 mm)"
    assert captured.err == (
        "error: no feasible beam for segment(s): "
        + "; ".join(f"{seg}: {reason}" for seg in ("FingerPhalanx", "FingerTip", "Palm", "ThumbPhalanx"))
        + "\n"
    )
    assert not (tmp_path / "nd").exists()
    # Into the directory of a good run, the refused one changes no file.
    assert run([*DESIGN_PLA, "--output-dir", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run([*argv, "--output-dir", str(out)]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_analyze_refuses_a_file_matched_by_two_globs(tmp_path, monkeypatch, capsys):
    make_group_dataset(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    # One relative and one absolute glob: the paths differ as strings but name one file.
    argv = ["analyze", "*.wav", str(tmp_path / "ST45B_*.wav"), "--output-dir", str(out)]
    assert run(argv) == 1
    assert f"error: {tmp_path / 'ST45B_1.wav'}: named more than once" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_refuses_a_file_named_by_two_manifest_observations(tmp_path, capsys):
    make_group_dataset(tmp_path)
    path = group_manifest(tmp_path)
    manifest = json.loads(path.read_text())
    manifest["observations"][1]["procedures"][0]["channel_files"]["Left"] = "Default_1.wav"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert run(["analyze", "--manifest", str(path), "--output-dir", str(out)]) == 1
    assert f"error: {tmp_path / 'Default_1.wav'}: named more than once" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_refuses_a_file_reached_through_a_link(tmp_path, capsys):
    data = tmp_path / "data"
    make_group_dataset(data)
    link = data / "Default_1_link.wav"
    link.symlink_to(data / "Default_1.wav")
    link.with_suffix(".json").symlink_to(data / "Default_1.json")
    out = tmp_path / "out"
    # Two names, one file: the glob matches the file and then its link.
    assert run(["analyze", str(data / "*.wav"), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {link}: named more than once in the analyze inputs\n"
    assert not out.exists()


def test_analyze_refuses_a_label_that_utf8_cannot_encode(tmp_path, capsys):
    data = tmp_path / "data"
    make_group_dataset(data)
    sidecar = data / "ST45B_2.json"
    raw = json.loads(sidecar.read_text())
    raw["meta"]["fingerprint_material"] = "\ud800x"
    sidecar.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run(["analyze", str(data / "*.wav"), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {sidecar}: bad sidecar (fingerprint_material must be text that UTF-8 can encode, "
        "got '\\ud800x')\n"
    )
    assert not out.exists()


def test_cli_prints_manifest_warnings_without_source_lines(tmp_path):
    data = tmp_path / "data"
    make_group_dataset(data)
    path = group_manifest(data)
    manifest = json.loads(path.read_text())
    for observation in manifest["observations"]:
        observation["procedures"][0].update(force_codes=[450], motor_telemetry_path="telemetry.csv")
    path.write_text(json.dumps(manifest))
    src = Path(vp.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "vibroprint", "analyze", "--manifest", str(path),
         "--output-dir", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert any("force code(s) [450] differ from the usual [400]" in line for line in lines)
    assert any("telemetry file 'telemetry.csv' not found" in line for line in lines)
    assert lines and all(line.startswith("warning: ") for line in lines)
    assert "cli.py" not in proc.stderr and "load_manifest(" not in proc.stderr


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


def test_flag_defaults_are_the_library_constants():
    parse = vibroprint.cli.build_parser().parse_args
    required = {
        "freq": ["--material", "PLA", "--length-mm", "3"],
        "design": ["--material", "PLA"],
        "sweep": ["--material", "PLA", "--dims-mm", "1", "--length-range-mm", "3", "4"],
        "bands": [],
        "simulate": ["--material", "TPU", "--length-mm", "2"],
        "analyze": [],
    }
    args = {name: parse([name, *argv]) for name, argv in required.items()}
    assert args["bands"].threshold_db == vp.DEFAULT_THRESHOLD_DB
    design = args["design"]
    assert [khz_to_hz(v) for v in design.band_khz] == [vp.MIC_LOW_BAND.low, vp.MIC_LOW_BAND.high]
    assert mm_to_m(design.grid_step_mm) == DEFAULT_GRID_STEP
    simulate = args["simulate"]
    assert (simulate.damping, simulate.noise_floor_db) == (DEFAULT_DAMPING_RATIO, DEFAULT_NOISE_FLOOR_DB)
    assert (simulate.modes, simulate.sample_rate_hz) == (DEFAULT_MODES, DEFAULT_SAMPLE_RATE)
    scenario = {f.name: f.default for f in dataclasses.fields(vp.SlideScenario)}
    assert (scenario["modes"], scenario["sample_rate"]) == (DEFAULT_MODES, DEFAULT_SAMPLE_RATE)
    sim_argv = ["simulate", *required["simulate"], "--encoding"]
    assert [parse([*sim_argv, e]).encoding for e in ENCODINGS] == list(ENCODINGS)
    with pytest.raises(SystemExit):
        parse([*sim_argv, "float64"])
    analyze = args["analyze"]
    assert tuple(khz_to_hz(v) for v in analyze.band_khz) == vp.DEFAULT_ANALYSIS_BAND
    assert analyze.baseline_material == vp.BASELINE_MATERIAL
    assert analyze.window == DEFAULT_WINDOW
    for transform in (vp.spectra, vp.spectrum):
        assert inspect.signature(transform).parameters["window"].default == DEFAULT_WINDOW
    assert [parse(["analyze", "--window", w]).window for w in WINDOWS] == list(WINDOWS)


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
