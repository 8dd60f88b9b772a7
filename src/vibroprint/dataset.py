"""Recording files and the dataset manifest.

WAV files are mono RIFF/WAVE at any rate (the bench recordings run at
500 kHz), read and written with numpy alone.  `write_wav` writes 16- or
32-bit integer PCM with a 16-byte ``fmt `` chunk, or 32-bit IEEE float
with an 18-byte ``fmt `` chunk and a ``fact`` chunk.  `read_wav` also
accepts 24-bit PCM and WAVE_FORMAT_EXTENSIBLE files whose subformat is
PCM or IEEE float, and skips chunks other than ``fmt `` and ``data``.
Big-endian (RIFX), RF64, multichannel, 8-bit and 64-bit files are refused.
The manifest is a JSON file describing objects and their recorded
observations; `validate_manifest` documents the schema, and
`load_manifest` turns it into one (WAV path, labels) pair per declared
channel for `read_recording_bundle`.  Durations and motor telemetry paths
are validated but not kept.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ManifestError, WavFormatError
from .signals import Microphone, Procedure, Recording, RecordingMeta

SCHEMA_VERSION = 1

# Controller force codes used when the dataset was collected; other codes
# validate with a warning, not an error.
EXPECTED_FORCE_CODES = {
    Procedure.LATERAL_MOTION: {400},
    Procedure.ENCLOSURE: {300},
    Procedure.PRESSURE: {400, 500, 600, 700},
}

MAX_REPETITIONS = 5

_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# The last 12 bytes of an extensible subformat GUID whose first four bytes
# hold a plain format tag (RFC 2361).
_SUBFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_U32_MAX = 0xFFFFFFFF

# write_wav: encoding -> (format tag, sample dtype).
_ENCODINGS = {"int16": (_PCM, "<i2"), "int32": (_PCM, "<i4"), "float32": (_IEEE_FLOAT, "<f4")}
# read_wav: (format tag, bytes per sample) -> (dtype, full scale).  24-bit
# PCM is widened to left-justified int32, as scipy.io.wavfile reads it.
_DECODINGS = {
    (_PCM, 2): (np.dtype("<i2"), 2.0**15),
    (_PCM, 3): (np.dtype("<i4"), 2.0**31),
    (_PCM, 4): (np.dtype("<i4"), 2.0**31),
    (_IEEE_FLOAT, 4): (np.dtype("<f4"), 1.0),
}


def _encoding_name(tag: int, width: int) -> str:
    """The numpy dtype scipy.io.wavfile reads samples that `_DECODINGS` lacks as."""
    if tag == _PCM:  # 8-bit WAV samples are unsigned
        return "uint8" if width == 1 else "int64" if 5 <= width <= 8 else f"{width}-byte PCM"
    if tag == _IEEE_FLOAT:
        return {2: "float16", 8: "float64"}.get(width, f"{width}-byte float")
    return f"format tag {tag:#06x}"


def _read_samples(path: Path, fh) -> tuple[int, np.ndarray]:
    """(sample rate, [-1, 1] float64 samples) of the open mono WAV `fh`.

    Walks the RIFF chunks up to ``data`` and reads that chunk in place.
    """
    head = fh.read(12)
    if head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file (starts with {head[:4]!r})")
    fmt = None
    while True:
        chunk = fh.read(8)
        if len(chunk) < 8:
            raise WavFormatError(f"{path}: no {'data' if fmt else 'fmt'} chunk")
        chunk_id, size = struct.unpack("<4sI", chunk)
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            fmt = fh.read(size)
            if len(fmt) < max(size, 16):
                raise WavFormatError(f"{path}: truncated or short fmt chunk ({len(fmt)} bytes)")
            fh.seek(size % 2, os.SEEK_CUR)
        else:
            fh.seek(size + size % 2, os.SEEK_CUR)  # chunks are padded to even sizes
    if fmt is None:
        raise WavFormatError(f"{path}: no fmt chunk before the data chunk")

    tag, channels, rate, _, width = struct.unpack_from("<HHIIH", fmt)
    if tag == _EXTENSIBLE and len(fmt) >= 40 and fmt[28:40] == _SUBFORMAT_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if channels != 1:
        raise WavFormatError(f"{path}: expected mono audio, got {channels} channels")
    decoding = _DECODINGS.get((tag, width))
    if decoding is None:
        raise WavFormatError(
            f"{path}: unsupported sample encoding {_encoding_name(tag, width)}; "
            "expected int16, 24-bit or int32 PCM, or float32"
        )
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise WavFormatError(f"{path}: truncated data chunk (header says {size} bytes)")
    count = size // width
    if count == 0:
        raise WavFormatError(f"{path}: zero-length data chunk")

    dtype, scale = decoding
    if width == 3:
        packed = np.zeros((count, 4), np.uint8)
        packed[:, 1:] = np.fromfile(fh, np.uint8, 3 * count).reshape(count, 3)
        data = packed.view(dtype).ravel()
    else:
        data = np.fromfile(fh, dtype, count)
    samples = data.astype(np.float64)
    if scale != 1.0:
        samples /= scale
    return rate, samples


def _decode_wav(path: Path, meta: RecordingMeta) -> Recording:
    """A mono PCM WAV as a Recording of [-1, 1] float64 samples with `meta`.

    Every fault of the file, a non-finite sample included, raises
    WavFormatError naming it.
    """
    if not path.is_file():
        raise WavFormatError(f"WAV file not found: {path}")
    try:
        with open(path, "rb") as fh:
            rate, samples = _read_samples(path, fh)
    except OSError as exc:
        raise WavFormatError(f"{path}: not a readable WAV file ({exc})") from exc
    try:
        return Recording(samples, float(rate), meta)
    except ValueError as exc:
        raise WavFormatError(f"{path}: {exc}") from exc


def read_wav(path: str | Path) -> Recording:
    """Read a mono PCM WAV into a [-1, 1] float Recording.

    Metadata is left empty; `read_recording_bundle` reads a WAV with its labels.
    """
    return _decode_wav(Path(path), RecordingMeta())


def write_wav(rec: Recording, path: str | Path, encoding: str = "float32") -> None:
    """Write a Recording as mono WAV.

    `encoding` is one of int16 / int32 / float32.  Samples outside
    [-1, 1] are clipped with a warning.  A sample rate that the header's
    32-bit integer field cannot hold exactly (a fraction of a hertz, or
    past 2**32 - 1 Hz), and a recording whose size or byte rate overflows
    the 32-bit fields of a RIFF header (a file past 4 GiB), raise
    WavFormatError naming the file; nothing is written.
    """
    if encoding not in _ENCODINGS:
        raise ValueError(f"encoding must be one of {tuple(_ENCODINGS)}, got {encoding!r}")
    path = Path(path)
    if not (rec.sample_rate == int(rec.sample_rate) and 1 <= rec.sample_rate <= _U32_MAX):
        raise WavFormatError(
            f"{path}: sample rate {rec.sample_rate!r} Hz is not a whole number "
            f"of hertz in [1, {_U32_MAX}], as a WAV header stores it"
        )
    tag, dtype = _ENCODINGS[encoding]
    width = np.dtype(dtype).itemsize
    samples = rec.samples
    rate = int(rec.sample_rate)
    n = samples.size
    fmt_size = 18 if tag == _IEEE_FLOAT else 16
    # "WAVE", the fmt chunk, the fact chunk of a float file, then the data chunk.
    riff_size = 4 + (8 + fmt_size) + (12 if tag == _IEEE_FLOAT else 0) + 8 + n * width
    if riff_size > _U32_MAX or rate * width > _U32_MAX:
        raise WavFormatError(
            f"{path}: {n} {encoding} samples at {rate} Hz overflow "
            "the 32-bit sizes of a RIFF header"
        )

    peak = float(np.max(np.abs(samples))) if n else 0.0
    if peak > 1.0:
        warnings.warn(
            f"{path.name}: {int(np.sum(np.abs(samples) > 1.0))} sample(s) "
            f"outside [-1, 1] (peak {peak:.4g}) were clipped",
            stacklevel=2,
        )
        samples = np.clip(samples, -1.0, 1.0)
    if tag == _IEEE_FLOAT:
        data = samples.astype(dtype)
    else:
        full = 2.0 ** (8 * width - 1)
        data = np.clip(np.round(samples * full), -full, full - 1).astype(dtype)

    header = struct.pack(
        "<4sI4s4sIHHIIHH",
        b"RIFF", riff_size, b"WAVE",
        b"fmt ", fmt_size, tag, 1, rate, rate * width, width, 8 * width,
    )
    if tag == _IEEE_FLOAT:
        # Non-PCM formats carry a cbSize field and a fact chunk with the sample count.
        header += struct.pack("<H4sII", 0, b"fact", 4, n)
    with open(path, "wb") as fh:
        fh.write(header + struct.pack("<4sI", b"data", n * width))
        data.tofile(fh)


def write_recording_bundle(
    rec: Recording,
    wav_path: str | Path,
    encoding: str = "float32",
    scenario: dict | None = None,
    timestamp: bool = True,
) -> Path:
    """Write WAV plus a same-stem .json sidecar with the metadata.

    The sidecar holds the recording labels (and, for simulations, the
    scenario parameters); timestamps live only here so the data files
    stay byte-reproducible.  Returns the sidecar path.
    """
    wav_path = Path(wav_path)
    write_wav(rec, wav_path, encoding)
    sidecar = {
        "meta": rec.meta.to_dict(),
        "sample_rate_hz": rec.sample_rate,
        "samples": int(rec.samples.size),
        "encoding": encoding,
    }
    if scenario is not None:
        sidecar["scenario"] = scenario
    if timestamp:
        sidecar["created_utc"] = datetime.now(timezone.utc).isoformat()
    sidecar_path = wav_path.with_suffix(".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return sidecar_path


def read_recording_bundle(wav_path: str | Path, meta: RecordingMeta | None = None) -> Recording:
    """Read a WAV with its labels.

    The labels are `meta` when given (one of `load_manifest`'s pairs);
    otherwise those of the same-stem .json sidecar when one exists, else
    empty.  A sidecar that is not a JSON object with an object ``meta`` of
    valid labels raises ManifestError naming the sidecar, but only once the
    WAV itself has passed every check.
    """
    wav_path = Path(wav_path)
    sidecar_path = wav_path.with_suffix(".json")
    bad_sidecar = None
    if meta is None and sidecar_path.is_file():
        try:
            data = json.loads(sidecar_path.read_text())
            raw_meta = data.get("meta", {}) if isinstance(data, dict) else None
            if not isinstance(raw_meta, dict):
                raise ValueError("expected a JSON object with an object 'meta'")
            meta = RecordingMeta.from_dict(raw_meta)
        except (ValueError, RecursionError) as exc:
            bad_sidecar = exc
    # A bad WAV is reported before a bad sidecar, whose error waits for the decode.
    rec = _decode_wav(wav_path, RecordingMeta() if meta is None else meta)
    if bad_sidecar is not None:
        raise ManifestError(
            f"{sidecar_path}: bad sidecar ({bad_sidecar})", errors=[str(bad_sidecar)]
        ) from bad_sidecar
    return rec


# ---------------------------------------------------------------------------
# Dataset manifest


@dataclass
class ManifestValidation:
    """Outcome of validate_manifest: errors block, warnings do not.

    `channels` holds one (WAV path, labels) pair per declared channel, or
    None when there are errors.
    """

    channels: list[tuple[Path, RecordingMeta]] | None
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _json_objects(container: dict, key: str, prefix: str, errors: list[str]):
    """Yield (location, entry) for each JSON object in the list container[key].

    A missing list counts as empty; anything else is recorded in `errors`.
    """
    entries = container.get(key, [])
    if not isinstance(entries, list):
        errors.append(f"{prefix}{key} must be a list")
        return
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            yield f"{prefix}{key}[{i}]", entry
        else:
            errors.append(f"{prefix}{key}[{i}]: must be a JSON object")


def _path_problem(rel) -> str | None:
    """Why `rel` cannot name a file inside the manifest directory, or None."""
    if not isinstance(rel, str) or not rel:
        return "must be a non-empty string"
    norm = os.path.normpath(rel)
    if os.path.isabs(norm) or norm == os.pardir or norm.startswith(os.pardir + os.sep):
        return "must be a relative path inside the manifest directory"
    return None


def _procedure_channels(
    raw: dict, where: str, base_dir: Path, labels: dict, errors, warnings_out
) -> list[tuple[Path, RecordingMeta]]:
    """Validate one procedure; return its (WAV path, labels) pairs.

    `labels` holds the observation's object, fingerprint_material and
    repetition.  Channels come in Left/Right/Palm order; a schema error
    yields no pairs.
    """
    name = raw.get("procedure")
    try:
        procedure = Procedure(name)
    except ValueError:
        errors.append(f"{where}: unknown procedure {name!r}")
        return []

    codes = raw.get("force_codes", [])
    if not isinstance(codes, list) or not all(type(c) is int for c in codes):
        errors.append(f"{where}: force_codes must be a list of integers")
        return []
    bad = [c for c in codes if not 0 <= c <= 4095]
    if bad:
        errors.append(f"{where}: force code(s) {bad} outside the 12-bit range [0, 4095]")
        return []
    expected = EXPECTED_FORCE_CODES.get(procedure)
    if expected is not None:
        unusual = sorted(set(codes) - expected)
        if unusual:
            warnings_out.append(
                f"{where}: force code(s) {unusual} differ from the usual "
                f"{sorted(expected)} for {procedure.value}"
            )

    channels = raw.get("channel_files", {})
    if not isinstance(channels, dict):
        errors.append(f"{where}: channel_files must be a mapping")
        return []
    for channel, rel in channels.items():
        try:
            Microphone(channel)
        except ValueError:
            errors.append(
                f"{where}: unknown microphone channel {channel!r} "
                f"(expected {[m.value for m in Microphone]})"
            )
            return []
        problem = _path_problem(rel)
        if problem:
            errors.append(f"{where}: channel {channel} path {rel!r} {problem}")
            return []

    duration = raw.get("duration_s")
    if duration is not None and (
        type(duration) not in (int, float) or not 0 < duration < math.inf
    ):
        errors.append(f"{where}: duration_s must be a positive finite number")
        return []

    telemetry = raw.get("motor_telemetry_path")
    problem = None if telemetry is None else _path_problem(telemetry)
    if problem:
        errors.append(f"{where}: motor_telemetry_path {telemetry!r} {problem}")
        return []

    for channel, rel in channels.items():
        if not (base_dir / rel).is_file():
            errors.append(f"{where}: missing audio file {rel!r} for channel {channel}")
    if telemetry is not None and not (base_dir / telemetry).is_file():
        warnings_out.append(f"{where}: telemetry file {telemetry!r} not found")

    force_code = codes[0] if len(codes) == 1 else None
    return [
        (
            base_dir / channels[mic.value],
            RecordingMeta(
                exploration_procedure=procedure.value,
                force_code=force_code,
                microphone=mic.value,
                **labels,
            ),
        )
        for mic in Microphone
        if mic.value in channels
    ]


def validate_manifest(path: str | Path) -> ManifestValidation:
    """Parse and cross-check a manifest file.

    The manifest is a JSON object (schema version 1):

    - ``schema_version``: the integer 1; mandatory.
    - ``objects``: a list of objects ``{"id", "name", "material_class",
      "image_path"}``; ``id`` and ``name`` are non-empty strings, ids are
      unique, the other two are optional labels.
    - ``observations``: a list of objects with ``object_id`` (an id from
      ``objects``), ``repetition`` (an integer >= 1),
      ``fingerprint_material`` (a non-empty string, default "Default")
      and ``procedures``, a list of objects with:

      - ``procedure``: LateralMotion, Enclosure, Pressure or
        UnsupportedHolding;
      - ``force_codes``: a list of integers in [0, 4095];
      - ``duration_s``: a positive finite number, or null;
      - ``channel_files``: a mapping of microphone (Left, Right, Palm) to
        WAV path;
      - ``motor_telemetry_path``: a CSV path, or null.

    Paths are relative to the manifest's directory and may not leave it.
    Schema violations, duplicate/dangling ids, and missing audio files are
    errors; departures from the collection conventions (more than five
    repetitions, unusual force codes, missing telemetry files) are
    warnings.

    Without errors, the result's `channels` lists one (WAV path, labels)
    pair per declared channel, ready for `read_recording_bundle`: in file
    order of observations and procedures, Left/Right/Palm within each
    procedure.  The labels are the object's name, the observation's
    fingerprint_material and repetition, the procedure, its force code
    when it declares exactly one, and the microphone.
    """
    path = Path(path)
    result = ManifestValidation(channels=None)
    if not path.is_file():
        result.errors.append(f"manifest not found: {path}")
        return result
    try:
        data = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        result.errors.append(f"{path}: invalid JSON ({exc})")
        return result
    if not isinstance(data, dict):
        result.errors.append(f"{path}: top level must be a JSON object")
        return result
    _validate_manifest_data(data, path.parent, result)
    return result


def _validate_manifest_data(data: dict, base_dir: Path, result: ManifestValidation) -> None:
    version = data.get("schema_version")
    if version is None:
        result.errors.append("schema_version field is mandatory")
    elif type(version) is not int or version != SCHEMA_VERSION:
        result.errors.append(
            f"unsupported schema_version {version!r}; this toolkit reads {SCHEMA_VERSION}"
        )

    names: dict[str, str] = {}
    for where, raw in _json_objects(data, "objects", "", result.errors):
        obj_id = raw.get("id")
        name = raw.get("name")
        if not isinstance(obj_id, str) or not obj_id:
            result.errors.append(f"{where}: 'id' must be a non-empty string")
            continue
        if not isinstance(name, str) or not name:
            result.errors.append(f"{where} ({obj_id}): 'name' must be a non-empty string")
            continue
        if obj_id in names:
            result.errors.append(f"{where}: duplicate object id {obj_id!r}")
            continue
        names[obj_id] = name

    channels: list[tuple[Path, RecordingMeta]] = []
    reps_per_object: dict[str, int] = {}
    for where, raw in _json_objects(data, "observations", "", result.errors):
        obj_id = raw.get("object_id")
        if not isinstance(obj_id, str) or obj_id not in names:
            result.errors.append(f"{where}: dangling object_id {obj_id!r}")
            continue
        repetition = raw.get("repetition")
        if type(repetition) is not int or repetition < 1:
            result.errors.append(f"{where}: repetition must be an integer >= 1")
            continue
        material = raw.get("fingerprint_material", "Default")
        if not isinstance(material, str) or not material:
            result.errors.append(f"{where}: fingerprint_material must be a non-empty string")
            continue
        if repetition > MAX_REPETITIONS:
            result.warnings.append(
                f"{where}: repetition {repetition} exceeds the "
                f"{MAX_REPETITIONS}-observations-per-object convention"
            )
        reps_per_object[obj_id] = reps_per_object.get(obj_id, 0) + 1

        labels = {"object": names[obj_id], "fingerprint_material": material, "repetition": repetition}
        for proc_where, raw_proc in _json_objects(raw, "procedures", f"{where}.", result.errors):
            channels += _procedure_channels(
                raw_proc, proc_where, base_dir, labels, result.errors, result.warnings
            )

    for obj_id, count in sorted(reps_per_object.items()):
        if count > MAX_REPETITIONS:
            result.warnings.append(
                f"object {obj_id!r} has {count} observations; the collection "
                f"convention is at most {MAX_REPETITIONS}"
            )

    if not result.errors:
        result.channels = channels


def load_manifest(path: str | Path) -> list[tuple[Path, RecordingMeta]]:
    """validate_manifest that raises on errors and warns on warnings.

    Returns the manifest's (WAV path, labels) pairs; see validate_manifest.
    """
    result = validate_manifest(path)
    for message in result.warnings:
        warnings.warn(message, stacklevel=2)
    if not result.ok:
        raise ManifestError(
            f"{path}: {len(result.errors)} manifest error(s); first: {result.errors[0]}",
            errors=result.errors,
        )
    return result.channels
