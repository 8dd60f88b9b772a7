"""Command-line interface.

Subcommands: freq, design, sweep, bands, simulate, analyze.  Flags speak
bench units (mm, kHz, g/cm3, MPa); files and the library are SI.  `run`
writes a run_params.json sidecar next to the outputs of every successful
subcommand, so results can be reproduced from the artifact alone.  A flag
that cannot take effect is refused as a usage error, never ignored.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .beams import BeamSpec, CrossSection, Shape, frequency_bounds, nominal_frequency
from .dataset import load_manifest, read_recording_bundle, write_recording_bundle
from .design import (
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
    AucEntry,
    band_auc,
    mean_spectrum,
    normalize_against_baseline,
    report_to_json_dict,
    spectrum,
    write_auc_csv,
    write_spectrum_csv,
)
from .simulate import SlideScenario, scenario_to_dict, slide_signal
from .signals import RecordingMeta
from .units import hz_to_khz, khz_to_hz, mm_to_m

_ANALYZE_WORKERS = 8


class _UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _material(args):
    catalog = load_material_config(args.materials) if args.materials else builtin_materials()
    return get_material(args.material, catalog)


def _output_dir(args) -> Path:
    raw = args.output_dir or os.environ.get("VIBROPRINT_OUTPUT_DIR") or "."
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_run_params(out_dir: Path, args, argv: list[str]) -> None:
    params = {
        "tool": "vibroprint",
        "version": __version__,
        "subcommand": args.subcommand,
        "argv": argv,
        "seed": getattr(args, "seed", None),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "run_params.json").write_text(json.dumps(params, indent=2, sort_keys=True) + "\n")


def _write_table(fmt: str, out_dir: Path, stem: str, fieldnames, rows, payload) -> None:
    """`payload` as <stem>.json under --format json, else `rows` as <stem>.csv."""
    if fmt == "json":
        (out_dir / f"{stem}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    with (out_dir / f"{stem}.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


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
    """The --band-khz band; without a peak, the microphone's 9 kHz if inside it, else its midpoint."""
    lo, hi = (khz_to_hz(v) for v in band_khz)
    peak = MIC_LOW_BAND.peak_frequency if peak_khz is None else khz_to_hz(peak_khz)
    if peak_khz is None and not lo <= peak <= hi:
        peak = 0.5 * (lo + hi)
    return SensitivityBand(low=lo, high=hi, peak_frequency=peak, peak_amplitude=0.0)


# ---------------------------------------------------------------------------
# freq


def _cmd_freq(args, out_dir: Path) -> None:
    material = _material(args)
    section = _section_from_args(args)
    beam = BeamSpec(material, section, mm_to_m(args.length_mm))
    f_lo, f_hi = frequency_bounds(beam, args.mode)
    nominal = nominal_frequency(beam, args.mode)

    row = {
        "material": material.name,
        "shape": section.shape.value + ("_hollow" if section.hollow else ""),
        "dimension_mm": section.outer * 1e3,
        "inner_mm": section.inner * 1e3 if section.inner else "",
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
    material = _material(args)
    band = _band(args.band_khz)

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

    step = mm_to_m(args.grid_step_mm)
    region = feasible_region(constraints, step)
    write_feasible_csv(region, out_dir / "feasible_grid.csv")
    print(
        f"feasible region: {len(region.grid)} grid points, "
        f"sides [{region.side_envelope[0] * 1e3:.2f}, {region.side_envelope[1] * 1e3:.2f}] mm, "
        f"lengths [{region.length_envelope[0] * 1e3:.2f}, {region.length_envelope[1] * 1e3:.2f}] mm"
    )

    if constraints.max_length_per_segment:
        layouts = segment_layouts(constraints, grid_step=step)
        write_layout_csv(layouts, out_dir / "layouts.csv")
        report = layout_report(layouts)
        (out_dir / "layout_report.txt").write_text(report + "\n")
        print(report)


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(args, out_dir: Path) -> None:
    material = _material(args)

    shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
    dims = [float(d) for d in args.dims_mm.split(",")]
    sections = []
    for shape in shapes:
        if shape not in {s.value for s in Shape}:
            raise _UsageError(f"unknown shape {shape!r}; expected square/hexagon/circle")
        sections += [CrossSection(Shape(shape), mm_to_m(dim)) for dim in dims]

    if args.band_peak_khz is not None and not args.band_khz:
        raise _UsageError("--band-peak-khz needs --band-khz")
    band = _band(args.band_khz, args.band_peak_khz) if args.band_khz else None
    table = frequency_sweep(
        material,
        sections,
        (mm_to_m(args.length_range_mm[0]), mm_to_m(args.length_range_mm[1])),
        args.steps,
        band=band,
    )
    write_sweep_csv(table, out_dir / "sweep.csv")
    print(f"sweep: {len(table.rows)} rows -> {out_dir / 'sweep.csv'}")


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


def _parse_per_mode(raw: str, name: str):
    try:
        values = tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise _UsageError(f"{name} must be a comma list of numbers, got {raw!r}") from None
    return values[0] if len(values) == 1 else values


def _cmd_simulate(args, out_dir: Path) -> None:
    material = _material(args)
    section = _section_from_args(args)
    beam = BeamSpec(material, section, mm_to_m(args.length_mm))

    pitch_mm = args.pitch_mm if args.pitch_mm is not None else 2.0 * section.outer * 1e3
    noise = None if args.noise_floor_db.lower() == "none" else float(args.noise_floor_db)
    if args.amplitudes is None:
        # half the library default so overlapping ring-downs stay inside [-1, 1]
        amplitudes = tuple(0.5 ** (k + 1) for k in range(args.modes))
    else:
        amplitudes = _parse_per_mode(args.amplitudes, "--amplitudes")
    scenario = SlideScenario(
        beam=beam,
        pitch=mm_to_m(pitch_mm),
        velocity=mm_to_m(args.velocity_mm_s),
        duration=args.duration_s,
        modes=args.modes,
        damping_ratio=_parse_per_mode(args.damping, "--damping"),
        mode_amplitudes=amplitudes,
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

    wav_path = out_dir / f"{args.name}.wav"
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
        return load_manifest(args.manifest)
    if not args.files:
        raise _UsageError("analyze needs --manifest or at least one WAV file/glob")
    paths: list[Path] = []
    for pattern in args.files:
        matched = sorted(globmod.glob(pattern))
        if matched:
            paths.extend(Path(p) for p in matched)
        else:
            paths.append(Path(pattern))
    return [(path, None) for path in paths]


def _cmd_analyze(args, out_dir: Path) -> None:
    inputs = _analysis_inputs(args)
    band = (khz_to_hz(args.band_khz[0]), khz_to_hz(args.band_khz[1]))

    def analyze_one(item):
        """(AucEntry, (sample rate, samples), Spectrum under --write-spectra) of one WAV."""
        rec = read_recording_bundle(*item)
        meta = rec.meta
        if meta.microphone is None or meta.fingerprint_material is None:
            raise VibroprintError(
                f"{item[0]}: recording lacks microphone/fingerprint_material labels; "
                "supply a manifest or sidecar metadata"
            )
        spec = spectrum(rec, args.window)
        entry = AucEntry(
            microphone=meta.microphone,
            fingerprint_material=meta.fingerprint_material,
            auc=band_auc(spec, band),
            object=meta.object,
            repetition=meta.repetition,
        )
        return entry, (rec.sample_rate, rec.samples.size), spec if args.write_spectra else None

    # Threads beyond the cores only add interpreter-lock hand-offs between
    # the file reads and the FFTs.
    workers = min(_ANALYZE_WORKERS, os.cpu_count() or 1, max(1, len(inputs)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(analyze_one, inputs))

    # Noise and tonal peaks scale differently with record length and rate, so
    # a microphone's AUCs (and its mean spectra) need one (rate, length) grid.
    grids: dict[str, tuple[float, int]] = {}
    for entry, grid, _ in results:
        first = grids.setdefault(entry.microphone, grid)
        if grid != first:
            raise SpectrumGridError(
                f"microphone {entry.microphone!r} mixes recordings of (sample rate Hz, samples) "
                f"{first} and {grid}; their AUCs are not comparable"
            )

    report = normalize_against_baseline(
        [entry for entry, _, _ in results], baseline_material=args.baseline_material, band=band
    )
    write_auc_csv(report, out_dir / "auc.csv")
    (out_dir / "ratios.json").write_text(
        json.dumps(report_to_json_dict(report), indent=2, sort_keys=True) + "\n"
    )

    if args.write_spectra:
        groups: dict[tuple[str, str], list] = {}
        for entry, _, spec in results:
            groups.setdefault((entry.microphone, entry.fingerprint_material), []).append(spec)
        for (mic, mat), specs in sorted(groups.items()):
            write_spectrum_csv(mean_spectrum(specs), out_dir / f"mean_spectrum_{mic}_{mat}.csv")

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
    p_design.add_argument(
        "--band-khz", nargs=2, type=float, default=(3.2, 26.0), metavar=("LOW", "HIGH")
    )
    p_design.add_argument("--side-range-mm", nargs=2, type=float, metavar=("LOW", "HIGH"))
    p_design.add_argument("--length-range-mm", nargs=2, type=float, metavar=("LOW", "HIGH"))
    p_design.add_argument("--grid-step-mm", type=float, default=0.1)
    p_design.add_argument(
        "--caps-mm",
        nargs=4,
        type=float,
        metavar=("TIP", "PHALANX", "THUMB", "PALM"),
        help="clearance caps, with custom ranges only; custom ranges have no caps without them",
    )
    p_design.add_argument(
        "--no-caps", action="store_true", help="feasibility grid only, skip layouts"
    )
    p_design.set_defaults(handler=_cmd_design)

    p_sweep = sub.add_parser("sweep", parents=[materials], help="frequency vs length sweep table")
    p_sweep.add_argument("--shapes", default="square,hexagon,circle")
    p_sweep.add_argument("--dims-mm", required=True, help="comma list of sides/radii (mm)")
    p_sweep.add_argument(
        "--length-range-mm", nargs=2, type=float, required=True, metavar=("LOW", "HIGH")
    )
    p_sweep.add_argument("--steps", type=int, default=25)
    p_sweep.add_argument("--band-khz", nargs=2, type=float, metavar=("LOW", "HIGH"))
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
    p_sim.add_argument("--modes", type=int, default=3)
    p_sim.add_argument("--damping", default="0.02", help="damping ratio(s), comma list")
    p_sim.add_argument(
        "--amplitudes", help="mode amplitudes, comma list (default 0.5, 0.25, ... per mode)"
    )
    p_sim.add_argument("--noise-floor-db", default="-70", help="noise level in dB, or 'none'")
    p_sim.add_argument("--sample-rate-hz", type=float, default=500e3)
    p_sim.add_argument("--encoding", choices=("int16", "int32", "float32"), default="float32")
    p_sim.add_argument("--name", default="slide", help="output file stem")
    p_sim.add_argument("--object", help="metadata: object label")
    p_sim.add_argument("--microphone", choices=("Left", "Right", "Palm"))
    p_sim.add_argument("--repetition", type=int)
    p_sim.add_argument("--tag-material", help="metadata material label (default: beam material)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_an = sub.add_parser(
        "analyze", parents=[output], help="spectra, band AUC, and baseline-normalized ratios"
    )
    p_an.add_argument("files", nargs="*", help="WAV files or globs (with .json sidecars)")
    p_an.add_argument("--manifest", help="dataset manifest JSON")
    p_an.add_argument(
        "--band-khz", nargs=2, type=float, default=(0.0, 26.0), metavar=("LOW", "HIGH")
    )
    p_an.add_argument("--window", choices=("hann", "rectangular"), default="hann")
    p_an.add_argument("--baseline-material", default="Default")
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
    try:
        out_dir = _output_dir(args)
        args.handler(args, out_dir)
        _write_run_params(out_dir, args, argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (VibroprintError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
