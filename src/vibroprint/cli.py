"""Command-line interface.

Subcommands: freq, design, sweep, bands, simulate, analyze.  Flags speak
bench units (mm, kHz, g/cm3, MPa); files and the library are SI.  `run`
writes a run_params.json sidecar next to the outputs of every successful
subcommand, so results can be reproduced from the artifact alone.  A flag
that cannot take effect is refused as a usage error, never ignored.
`analyze` reads its corpus with one `dataset.gather` call, which decides
the threads; this module checks, normalizes and writes what it returns.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import os
import sys
import warnings
from contextlib import suppress
from dataclasses import replace
from datetime import datetime, timezone
from itertools import takewhile
from pathlib import Path

from . import __version__
from .beams import BeamSpec, CrossSection, Shape, modal_frequencies
from .dataset import ENCODINGS, gather, load_manifest, write_recording_bundle
from .design import (
    DEFAULT_GRID_STEP,
    Segment,
    feasible_region,
    frequency_sweep,
    layout_report,
    reference_design_constraints,
    reference_layout_constraints,
    segment_layouts,
    write_feasible_csv,
    write_layout_csv,
    write_sweep_csv,
)
from .errors import SpectrumGridError, VibroprintError
from .materials import builtin_materials, get_material, load_material_config
from .mic import (
    DEFAULT_THRESHOLD_DB,
    MIC_LOW_BAND,
    SensitivityBand,
    bundled_mic_curve,
    load_response_curve,
    sensitive_bands,
)
from .signals import (
    BASELINE_MATERIAL,
    DEFAULT_ANALYSIS_BAND,
    DEFAULT_WINDOW,
    WINDOWS,
    RecordingMeta,
    normalize_against_baseline,
    report_to_json_dict,
    write_auc_csv,
    write_spectrum_csv,
)
from .simulate import (
    DEFAULT_DAMPING_RATIO,
    DEFAULT_MODES,
    DEFAULT_NOISE_FLOOR_DB,
    DEFAULT_SAMPLE_RATE,
    SlideScenario,
    scenario_to_dict,
    slide_signal,
)
from .units import hz_to_khz, khz_to_hz, m_to_mm, mm_to_m, write_json

# The rule `SensitivityBand` holds every --band-khz to, for the help text.
_BAND_RULE = "0 <= LOW < HIGH < inf"

# The rule a file that a run names in --output-dir is held to, with the
# directory's name limit in bytes, for refusals and help text.
_FILE_NAME_RULE = (
    "a file name has no '/' or NUL, no leading '.' and at most {} bytes, and is not 'run_params.json'"
)


class _UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _material(args):
    catalog = load_material_config(args.materials) if args.materials else builtin_materials()
    return get_material(args.material, catalog)


def _output_dir(args) -> tuple[Path, list[Path]]:
    """The output directory, and those of it and its parents not yet made, deepest first."""
    path = Path(args.output_dir or os.environ.get("VIBROPRINT_OUTPUT_DIR") or ".")
    return path, list(takewhile(lambda p: not p.exists(), (path, *path.parents)))


def _file_name_rule(out_dir: Path, name: str) -> str | None:
    """`_FILE_NAME_RULE` with `out_dir`'s limit if `name` breaks it, else None."""
    limit = os.pathconf(out_dir, "PC_NAME_MAX")
    broken = "/" in name or "\0" in name or name.startswith(".") or name == "run_params.json"
    return _FILE_NAME_RULE.format(limit) if broken or len(os.fsencode(name)) > limit else None


def _write_run_params(out_dir: Path, args, argv: list[str]) -> None:
    params = {
        "tool": "vibroprint",
        "version": __version__,
        "subcommand": args.subcommand,
        "argv": argv,
        "seed": getattr(args, "seed", None),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    write_json(out_dir / "run_params.json", params)


def _write_table(fmt: str, out_dir: Path, stem: str, fieldnames, rows, payload) -> None:
    """`payload` as <stem>.json under --format json, else `rows` as <stem>.csv."""
    if fmt == "json":
        write_json(out_dir / f"{stem}.json", payload)
        return
    with (out_dir / f"{stem}.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _numbers(raw, flag: str) -> tuple[float, ...]:
    """The numbers of a comma-list flag; a malformed list is a usage error naming the flag."""
    try:
        return tuple(float(v) for v in str(raw).split(","))
    except ValueError:
        raise _UsageError(f"{flag} holds a value that is not a number: {raw!r}") from None


def _section_from_args(args) -> CrossSection:
    chosen = [
        (shape, value)
        for shape, value in (
            (Shape.SQUARE, args.square_side_mm),
            (Shape.HEXAGON, args.hexagon_side_mm),
            (Shape.CIRCLE, args.circle_radius_mm),
        )
        if value is not None
    ]
    if len(chosen) != 1:
        raise _UsageError(
            "give exactly one of --square-side-mm / --hexagon-side-mm / --circle-radius-mm"
        )
    inner = mm_to_m(args.hollow_inner_mm) if args.hollow_inner_mm is not None else None
    [(shape, outer_mm)] = chosen
    return CrossSection(shape, mm_to_m(outer_mm), inner)


def _add_section_flags(parser) -> None:
    parser.add_argument("--square-side-mm", type=float, help="solid/hollow square side (mm)")
    parser.add_argument("--hexagon-side-mm", type=float, help="regular hexagon side (mm)")
    parser.add_argument("--circle-radius-mm", type=float, help="circle radius (mm)")
    parser.add_argument(
        "--hollow-inner-mm", type=float, help="inner dimension for a hollow section (mm)"
    )


def _band(band_khz, peak_khz: float | None = None) -> SensitivityBand:
    """The --band-khz band, the one reader of that flag; without a peak, the
    microphone's 9 kHz if inside it, else its midpoint.  A band that
    `SensitivityBand` refuses is a domain error naming the flags as given.
    A signed zero edge or peak becomes 0.0 (`+ 0.0`), so no output says -0.0."""
    lo, hi = (khz_to_hz(v) + 0.0 for v in band_khz)
    peak = MIC_LOW_BAND.peak_frequency if peak_khz is None else khz_to_hz(peak_khz) + 0.0
    if peak_khz is None and not lo <= peak <= hi:
        peak = 0.5 * (lo + hi)
    try:
        return SensitivityBand(low=lo, high=hi, peak_frequency=peak, peak_amplitude=0.0)
    except ValueError as exc:
        given_peak = "" if peak_khz is None else f" --band-peak-khz {peak_khz}"
        raise VibroprintError(f"--band-khz {band_khz[0]} {band_khz[1]}{given_peak}: {exc}") from None


# ---------------------------------------------------------------------------
# freq


def _cmd_freq(args, out_dir: Path) -> None:
    material = _material(args)
    section = _section_from_args(args)
    beam = BeamSpec(material, section, mm_to_m(args.length_mm))
    f_lo, f_hi, nominal = (
        f.item() for f in modal_frequencies(material, [section], [beam.length], args.mode)
    )

    row = {
        "material": material.name,
        "shape": section.label,
        "dimension_mm": m_to_mm(section.outer),
        "inner_mm": m_to_mm(section.inner) if section.inner else "",
        "length_mm": args.length_mm,
        "mode": args.mode,
        "frequency_hz_min": f_lo,
        "frequency_hz_max": f_hi,
        "frequency_hz_nominal": nominal,
    }
    _write_table(args.format, out_dir, "freq", list(row), [row], row)

    if f_lo == f_hi:
        print(f"f{args.mode} = {hz_to_khz(nominal):.3f} kHz")
    else:
        print(
            f"f{args.mode} = {hz_to_khz(f_lo):.3f}..{hz_to_khz(f_hi):.3f} kHz "
            f"(nominal {hz_to_khz(nominal):.3f})"
        )


# ---------------------------------------------------------------------------
# design


def _cmd_design(args, out_dir: Path) -> None:
    b = _band(args.band_khz)
    band = (b.low, b.high)
    material = _material(args)

    custom = args.side_range_mm or args.length_range_mm
    if custom and not (args.side_range_mm and args.length_range_mm):
        raise _UsageError("--side-range-mm and --length-range-mm go together")
    if args.caps_mm and not custom:
        raise _UsageError("--caps-mm needs --side-range-mm and --length-range-mm")
    if args.caps_mm and args.no_caps:
        raise _UsageError("give --caps-mm or --no-caps, not both")
    if custom:
        caps = {seg: mm_to_m(v) for seg, v in zip(Segment, args.caps_mm)} if args.caps_mm else None
        constraints = replace(
            reference_design_constraints(material, target_band=band),
            side_range=tuple(mm_to_m(v) for v in args.side_range_mm),
            length_range=tuple(mm_to_m(v) for v in args.length_range_mm),
            max_length_per_segment=caps,
        )
    elif args.no_caps:
        constraints = reference_design_constraints(material, target_band=band)
    else:
        constraints = reference_layout_constraints(material, target_band=band)

    region = feasible_region(constraints, mm_to_m(args.grid_step_mm))
    sides = [m_to_mm(v) for v in region.side_envelope]
    lengths = [m_to_mm(v) for v in region.length_envelope]
    print(
        f"feasible region: {len(region.grid)} grid points, "
        f"sides [{sides[0]:.2f}, {sides[1]:.2f}] mm, lengths [{lengths[0]:.2f}, {lengths[1]:.2f}] mm"
    )
    # The layouts are searched before any file is written: a `LayoutError` leaves none.
    layouts = None
    if constraints.max_length_per_segment:
        layouts = segment_layouts(region, constraints.max_length_per_segment)
    write_feasible_csv(region, out_dir / "feasible_grid.csv")
    if layouts is not None:
        write_layout_csv(layouts, out_dir / "layouts.csv")
        report = layout_report(layouts)
        (out_dir / "layout_report.txt").write_text(report + "\n", encoding="utf-8")
        print(report)


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args, out_dir: Path) -> None:
    if args.band_peak_khz is not None and not args.band_khz:
        raise _UsageError("--band-peak-khz needs --band-khz")
    band = _band(args.band_khz, args.band_peak_khz) if args.band_khz else None
    material = _material(args)

    shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
    if not shapes:
        raise _UsageError(f"--shapes names no shape: {args.shapes!r}")
    dims = _numbers(args.dims_mm, "--dims-mm")
    # A repeat would write its series twice; dimensions compare as numbers.
    for flag, values in (("--shapes", shapes), ("--dims-mm", dims)):
        seen = set()
        for value in values:
            if value in seen:
                raise _UsageError(f"{flag} names {value!r} more than once")
            seen.add(value)
    sections = []
    for shape in shapes:
        if shape not in {s.value for s in Shape}:
            raise _UsageError(f"unknown shape {shape!r}; expected square/hexagon/circle")
        sections += [CrossSection(Shape(shape), mm_to_m(dim)) for dim in dims]

    rows = frequency_sweep(
        material,
        sections,
        (mm_to_m(args.length_range_mm[0]), mm_to_m(args.length_range_mm[1])),
        args.steps,
    )
    write_sweep_csv(rows, out_dir / "sweep.csv", band)
    print(f"sweep: {len(rows)} rows -> {out_dir / 'sweep.csv'}")


# ---------------------------------------------------------------------------
# bands


def _cmd_bands(args, out_dir: Path) -> None:
    curve = load_response_curve(args.curve) if args.curve else bundled_mic_curve()
    bands = sensitive_bands(curve, args.threshold_db)

    rows = [
        {
            "low_hz": b.low,
            "high_hz": b.high,
            "peak_frequency_hz": b.peak_frequency,
            "peak_amplitude_db": b.peak_amplitude,
        }
        for b in bands
    ]
    fieldnames = ["low_hz", "high_hz", "peak_frequency_hz", "peak_amplitude_db"]
    payload = {"threshold_db": args.threshold_db, "bands": rows}
    _write_table(args.format, out_dir, "bands", fieldnames, rows, payload)

    if not bands:
        print(f"no bands above {args.threshold_db} dB")
    for b in bands:
        print(
            f"band [{hz_to_khz(b.low):.3g}, {hz_to_khz(b.high):.3g}] kHz, "
            f"peak {hz_to_khz(b.peak_frequency):.3g} kHz at {b.peak_amplitude:.1f} dB"
        )


# ---------------------------------------------------------------------------
# simulate


def _per_mode(raw, flag: str):
    """One number for every mode, or a tuple with one per mode."""
    values = _numbers(raw, flag)
    return values[0] if len(values) == 1 else values


def _cmd_simulate(args, out_dir: Path) -> None:
    # The stem names <name>.wav and its sidecar in --output-dir, beside run_params.json.
    name = args.name
    for file in (f"{name}.wav", f"{name}.json"):
        if rule := _file_name_rule(out_dir, file):
            raise _UsageError(f"--name {name!r} is not a file stem: {file!r} breaks the rule that {rule}")
    material = _material(args)
    section = _section_from_args(args)
    beam = BeamSpec(material, section, mm_to_m(args.length_mm))

    pitch_mm = args.pitch_mm if args.pitch_mm is not None else 2.0 * m_to_mm(section.outer)
    noise = None
    if str(args.noise_floor_db).lower() != "none":
        values = _numbers(args.noise_floor_db, "--noise-floor-db")
        if len(values) != 1:
            raise _UsageError(f"--noise-floor-db takes one number or 'none', got {args.noise_floor_db!r}")
        noise = values[0]
    scenario = SlideScenario(
        beam=beam,
        pitch=mm_to_m(pitch_mm),
        velocity=mm_to_m(args.velocity_mm_s),
        duration=args.duration_s,
        modes=args.modes,
        mode_amplitudes=None if args.amplitudes is None else _per_mode(args.amplitudes, "--amplitudes"),
        damping_ratio=_per_mode(args.damping, "--damping"),
        noise_floor_db=noise,
        sample_rate=args.sample_rate_hz,
        seed=args.seed,
    )
    meta = RecordingMeta(
        object=args.object,
        fingerprint_material=args.tag_material,
        microphone=args.microphone,
        repetition=args.repetition,
    )
    rec = slide_signal(scenario, meta=meta)

    wav_path = out_dir / f"{name}.wav"
    write_recording_bundle(rec, wav_path, encoding=args.encoding, scenario=scenario_to_dict(scenario))
    print(
        f"wrote {wav_path} ({rec.samples.size} samples @ {rec.sample_rate:.0f} Hz, "
        f"strike rate {scenario.excitation_rate:.1f} Hz)"
    )


# ---------------------------------------------------------------------------
# analyze


def _analysis_inputs(args) -> list[tuple[Path, RecordingMeta | None]]:
    """(WAV path, manifest labels) per input; glob inputs take their sidecar's labels."""
    if args.manifest and args.files:
        raise _UsageError("give either --manifest or WAV files, not both")
    if args.manifest:
        inputs = load_manifest(args.manifest)
        if not inputs:
            raise VibroprintError(f"{args.manifest}: the manifest lists no recordings")
    elif not args.files:
        raise _UsageError("analyze needs --manifest or at least one WAV file/glob")
    else:
        inputs = []
        for pattern in args.files:
            matched = sorted(globmod.glob(pattern))
            inputs.extend((Path(p), None) for p in matched or [pattern])
    return inputs


def _cmd_analyze(args, out_dir: Path) -> None:
    """Band AUC of each recording, normalized per microphone against the baseline skin.

    `dataset.gather` reads the inputs into label, grid and AUC columns (and,
    under --write-spectra, one `SpectrumMean` per (microphone, material,
    grid)).  One pass over the labels and grids then refuses the first
    recording, in input order, whose microphone mixes grids or procedures.
    Last come the writers: the table, then one mean spectrum per
    (microphone, material), which the check has left on one grid.

    Faults come in this order: a band that `_band` refuses before any file
    is read, then `gather`'s, in input order, then the check, and last,
    under --write-spectra, a label that names no file of its own (`_file_name_rule`).
    """
    b = _band(args.band_khz)
    band = (b.low, b.high)
    labels, grids, aucs, means = gather(_analysis_inputs(args), band, args.window, args.write_spectra)

    # Noise and tonal peaks scale differently with record length and rate, so
    # a microphone's AUCs (and its mean spectra) need one (rate, length) grid.
    # They also need one exploration procedure and force code: a slide and a
    # squeeze excite the skin differently.  An unset label is a value of its own.
    firsts: dict[str, tuple] = {}
    for meta, grid in zip(labels, grids):
        mic = meta.microphone
        procedure = (meta.exploration_procedure, meta.force_code)
        first_grid, first_procedure = firsts.setdefault(mic, (grid, procedure))
        if grid != first_grid:
            raise SpectrumGridError(
                f"microphone {mic!r} mixes recordings of (sample rate Hz, samples) "
                f"{first_grid} and {grid}; their AUCs are not comparable"
            )
        if procedure != first_procedure:
            raise VibroprintError(
                f"microphone {mic!r} mixes recordings of (exploration_procedure, "
                f"force_code) {first_procedure} and {procedure}; their AUCs are not comparable"
            )
    # A label names a mean spectrum's file, so it must name one file in --output-dir.
    spectrum_files = {}
    for mic, mat, grid in sorted(means):
        name = f"mean_spectrum_{mic}_{mat}.csv"
        if rule := _file_name_rule(out_dir, name):
            raise VibroprintError(
                f"microphone {mic!r}, material {mat!r}: the mean spectrum file {name!r} "
                f"breaks the rule that {rule}"
            )
        spectrum_files[name] = means[mic, mat, grid]

    report = normalize_against_baseline(labels, aucs, args.baseline_material)
    write_auc_csv(report, out_dir / "auc.csv")
    write_json(out_dir / "ratios.json", report_to_json_dict(report, band))

    for name, mean in spectrum_files.items():
        write_spectrum_csv(mean.spectrum(), out_dir / name)

    for (mic, mat), stats in sorted(report.groups.items()):
        print(
            f"{mic:>5} {mat:<12} n={stats.count:<3} "
            f"normalized AUC = {stats.normalized_mean:.3f} +/- {stats.normalized_std:.3f}"
        )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibroprint",
        description="Design and analyze vibration-optimized 3D-printed fingerprints.",
    )
    parser.add_argument("--version", action="version", version=f"vibroprint {__version__}")

    # Each shared flag goes only on the subcommands whose handler reads it;
    # every subcommand writes to --output-dir.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output-dir", help="artifact directory (default $VIBROPRINT_OUTPUT_DIR or .)")
    materials = argparse.ArgumentParser(add_help=False, parents=[output])
    materials.add_argument("--materials", help="material config file merged over builtins")
    materials.add_argument("--material", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_freq = sub.add_parser("freq", parents=[materials, fmt], help="predict beam natural frequency")
    _add_section_flags(p_freq)
    p_freq.add_argument("--length-mm", type=float, required=True)
    p_freq.add_argument("--mode", type=int, default=1)
    p_freq.set_defaults(handler=_cmd_freq)

    p_design = sub.add_parser(
        "design", parents=[materials], help="feasible (side, length) region and segment layouts"
    )
    mic_band_khz = (hz_to_khz(MIC_LOW_BAND.low), hz_to_khz(MIC_LOW_BAND.high))
    p_design.add_argument(
        "--band-khz", nargs=2, type=float, default=mic_band_khz, metavar=("LOW", "HIGH"),
        help=f"first-mode target band in kHz, {_BAND_RULE} (default: the microphone's low band)",
    )
    p_design.add_argument("--side-range-mm", nargs=2, type=float, metavar=("LOW", "HIGH"))
    p_design.add_argument("--length-range-mm", nargs=2, type=float, metavar=("LOW", "HIGH"))
    p_design.add_argument("--grid-step-mm", type=float, default=m_to_mm(DEFAULT_GRID_STEP))
    p_design.add_argument(
        "--caps-mm",
        nargs=4,
        type=float,
        metavar=("TIP", "PHALANX", "THUMB", "PALM"),
        help="clearance caps, with custom ranges only; custom ranges have no caps without them",
    )
    p_design.add_argument(
        "--no-caps",
        action="store_true",
        help="feasibility grid only, skip layouts; the scan then covers only the published lengths, "
        "which the default extends down to the smallest cap (rigid: 3.40-4.00 mm, not 3.20-4.00 mm)",
    )
    p_design.set_defaults(handler=_cmd_design)

    p_sweep = sub.add_parser("sweep", parents=[materials], help="frequency vs length sweep table")
    p_sweep.add_argument("--shapes", default="square,hexagon,circle")
    p_sweep.add_argument("--dims-mm", required=True, help="comma list of sides/radii (mm)")
    p_sweep.add_argument(
        "--length-range-mm", nargs=2, type=float, required=True, metavar=("LOW", "HIGH")
    )
    p_sweep.add_argument("--steps", type=int, default=25)
    p_sweep.add_argument(
        "--band-khz", nargs=2, type=float, metavar=("LOW", "HIGH"),
        help=f"band to annotate in the CSV, in kHz, {_BAND_RULE}",
    )
    p_sweep.add_argument(
        "--band-peak-khz", type=float, help="default 9 kHz if inside --band-khz, else its midpoint"
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_bands = sub.add_parser(
        "bands", parents=[output, fmt], help="extract sensitivity bands from a response curve"
    )
    p_bands.add_argument("--curve", help="curve CSV; defaults to the bundled sample")
    p_bands.add_argument("--threshold-db", type=float, default=DEFAULT_THRESHOLD_DB)
    p_bands.set_defaults(handler=_cmd_bands)

    p_sim = sub.add_parser("simulate", parents=[materials], help="synthesize a slide recording")
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed for synthesis")
    _add_section_flags(p_sim)
    p_sim.add_argument("--length-mm", type=float, required=True)
    p_sim.add_argument("--pitch-mm", type=float, help="beam spacing; default 2 x side")
    # The default is the RH8D hand's maximum finger velocity.
    p_sim.add_argument("--velocity-mm-s", type=float, default=953.3)
    p_sim.add_argument("--duration-s", type=float, default=0.5)
    p_sim.add_argument(
        "--modes",
        type=int,
        default=DEFAULT_MODES,
        help="beam modes to ring; every one must lie below half the sample rate",
    )
    p_sim.add_argument("--damping", default=DEFAULT_DAMPING_RATIO, help="damping ratio(s), comma list")
    p_sim.add_argument(
        "--amplitudes", help="mode amplitudes, comma list (default 0.5, 0.25, ... per mode)"
    )
    p_sim.add_argument(
        "--noise-floor-db", default=DEFAULT_NOISE_FLOOR_DB, help="noise level in dB, or 'none'"
    )
    p_sim.add_argument("--sample-rate-hz", type=float, default=DEFAULT_SAMPLE_RATE)
    p_sim.add_argument("--encoding", choices=tuple(ENCODINGS), default="float32")
    p_sim.add_argument(
        "--name",
        default="slide",
        help=f"stem of <name>.wav and <name>.json, where {_FILE_NAME_RULE.format('NAME_MAX')}",
    )
    p_sim.add_argument("--object", help="metadata: object label")
    p_sim.add_argument("--microphone", help="metadata: microphone label")
    p_sim.add_argument("--repetition", type=int)
    p_sim.add_argument("--tag-material", help="metadata material label (default: beam material)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_an = sub.add_parser(
        "analyze", parents=[output], help="spectra, band AUC, and baseline-normalized ratios"
    )
    p_an.add_argument("files", nargs="*", help="WAV files or globs (with .json sidecars)")
    p_an.add_argument("--manifest", help="dataset manifest JSON")
    analysis_band_khz = tuple(hz_to_khz(f) for f in DEFAULT_ANALYSIS_BAND)
    p_an.add_argument(
        "--band-khz", nargs=2, type=float, default=analysis_band_khz, metavar=("LOW", "HIGH"),
        help=f"AUC band in kHz, {_BAND_RULE}, with HIGH at most each recording's Nyquist",
    )
    p_an.add_argument("--window", choices=WINDOWS, default=DEFAULT_WINDOW)
    p_an.add_argument("--baseline-material", default=BASELINE_MATERIAL)
    p_an.add_argument("--write-spectra", action="store_true", help="per-group mean spectrum CSVs")
    p_an.set_defaults(handler=_cmd_analyze)

    return parser


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    created: list[Path] = []
    try:
        out_dir, created = _output_dir(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        args.handler(args, out_dir)
        _write_run_params(out_dir, args, argv)
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        code = 2
    except (VibroprintError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    for path in created:  # deepest first: one that the run wrote into stays, with its parents
        with suppress(OSError):
            path.rmdir()
    return code


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main() -> None:
    """Process entry point: `run`, with each warning printed as one
    ``warning: <message>`` line on stderr rather than with its source line."""
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        code = run()
    sys.exit(code)


if __name__ == "__main__":
    main()
