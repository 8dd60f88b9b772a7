"""Recording files, the dataset manifest and the corpus reader of `analyze`.

WAV files are mono RIFF/WAVE at any rate (the bench recordings run at
500 kHz), read and written with numpy alone.  `write_wav` writes 16- or
32-bit integer PCM with a 16-byte ``fmt `` chunk, or 32-bit IEEE float
with an 18-byte ``fmt `` chunk and a ``fact`` chunk.  `read_wav` also
accepts 24-bit PCM and WAVE_FORMAT_EXTENSIBLE files whose subformat is
PCM or IEEE float, and skips chunks other than ``fmt `` and ``data``.
Big-endian (RIFX), RF64, multichannel, 8-bit and 64-bit files are refused.
One table, `_SAMPLES`, decides each encoding's dtype and PCM full scale for
reading and writing; on the read side only the one chunk walk,
`_wav_samples`, reads it.  Each file is read with ``readinto`` into its
thread's byte buffer, which grows to the largest file the thread has read
and is kept (never shrunk) for the thread's life; the walk views the
samples in that buffer, and `decode_samples` writes them as float64 into
an array of the caller's.  `read_bundle_samples` reads a WAV with its
labels and makes `Recording`'s checks (`signals.check_samples`) without
the decode, so that `gather` can decode each file, scaled and windowed,
straight into a row of its stack; `read_recording_bundle` is it decoded
into a new `Recording`, and `read_wav` is that with empty labels.
`units.write_json` decides the sidecar's JSON layout.
The manifest is a JSON file describing objects and their recorded
observations; `load_manifest` documents the schema, validates it in one
pass and turns it into one (WAV path, labels) pair per declared channel
for `read_recording_bundle` and `gather`.  It checks its own structure, and
`RecordingMeta` checks every label value, as for a sidecar.  Durations
and motor telemetry paths are validated but not kept.  Text is read as
UTF-8.  `gather` reads such pairs into the columns that `analyze` checks
and normalizes, and decides the threads that read and transform them.
"""

from __future__ import annotations

import json
import math
import os
import struct
import threading
import warnings
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ManifestError, VibroprintError, WavFormatError
from .signals import (
    BASELINE_MATERIAL,
    Microphone,
    Procedure,
    Recording,
    RecordingMeta,
    SpectrumMean,
    StackRows,
    band_auc,
    check_samples,
    stack_fft,
    stack_spectrum,
    thread_rows,
    top_bin_hz,
    window_weights,
    windowed_spectra,
)
from .units import write_json

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

# (format tag, bytes per sample) -> (sample dtype, full scale), for reading
# and writing.  24-bit PCM is read widened to left-justified int32, as
# scipy.io.wavfile reads it.
_SAMPLES = {
    (_PCM, 2): (np.dtype("<i2"), 2.0**15),
    (_PCM, 3): (np.dtype("<i4"), 2.0**31),
    (_PCM, 4): (np.dtype("<i4"), 2.0**31),
    (_IEEE_FLOAT, 4): (np.dtype("<f4"), 1.0),
}
# write_wav: encoding -> its key of _SAMPLES.
ENCODINGS = {"int16": (_PCM, 2), "int32": (_PCM, 4), "float32": (_IEEE_FLOAT, 4)}


def _encoding_name(tag: int, width: int) -> str:
    """The numpy dtype scipy.io.wavfile reads samples that `_SAMPLES` lacks as."""
    if tag == _PCM:  # 8-bit WAV samples are unsigned
        return "uint8" if width == 1 else "int64" if 5 <= width <= 8 else f"{width}-byte PCM"
    if tag == _IEEE_FLOAT:
        return {2: "float16", 8: "float64"}.get(width, f"{width}-byte float")
    return f"format tag {tag:#06x}"


def _wav_samples(path: str | Path, buf) -> tuple[int, np.ndarray, float]:
    """(sample rate, raw samples, full scale) of the mono WAV whose bytes are `buf`.

    The one chunk walk: it walks the RIFF chunks in `buf` up to ``data`` and
    views that chunk's samples in place, as the dtype that `_SAMPLES` gives
    (24-bit PCM is widened into a new int32 array); `decode_samples` turns
    them into floats.
    """
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file (starts with {bytes(buf[:4])!r})")
    fmt = None
    pos = 12
    while True:
        if len(buf) - pos < 8:
            raise WavFormatError(f"{path}: no {'data' if fmt else 'fmt'} chunk")
        chunk_id, size = struct.unpack_from("<4sI", buf, pos)
        pos += 8
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            fmt = buf[pos : pos + size]
            if len(fmt) < max(size, 16):
                raise WavFormatError(f"{path}: truncated or short fmt chunk ({len(fmt)} bytes)")
        pos += size + size % 2  # chunks are padded to even sizes
    if fmt is None:
        raise WavFormatError(f"{path}: no fmt chunk before the data chunk")

    tag, channels, rate, _, width = struct.unpack_from("<HHIIH", fmt)
    if tag == _EXTENSIBLE and len(fmt) >= 40 and fmt[28:40] == _SUBFORMAT_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if channels != 1:
        raise WavFormatError(f"{path}: expected mono audio, got {channels} channels")
    decoding = _SAMPLES.get((tag, width))
    if decoding is None:
        raise WavFormatError(
            f"{path}: unsupported sample encoding {_encoding_name(tag, width)}; "
            "expected int16, 24-bit or int32 PCM, or float32"
        )
    if size > len(buf) - pos:
        raise WavFormatError(f"{path}: truncated data chunk (header says {size} bytes)")
    count = size // width
    if count == 0:
        raise WavFormatError(f"{path}: zero-length data chunk")

    dtype, scale = decoding
    if width == 3:
        packed = np.zeros((count, 4), np.uint8)
        packed[:, 1:] = np.frombuffer(buf, np.uint8, 3 * count, pos).reshape(count, 3)
        return rate, packed.view(dtype).ravel(), scale
    return rate, np.frombuffer(buf, dtype, count, pos), scale


def decode_samples(
    raw: np.ndarray, scale: float, out: np.ndarray, window: np.ndarray | None = None
) -> np.ndarray:
    """Write the raw samples of `_wav_samples` into the float64 array `out`:
    over their full scale, then times `window` when given.  PCM samples give
    ``(raw / scale) * window``, float ones ``raw * window``: bit for bit the
    samples of `read_wav` times the window, as `signals.window_stack` takes
    them.  Returns `out`."""
    # Widened first, then scaled and windowed in place: one ufunc that
    # casts as it multiplies ran up to 1.6 times slower on short recordings.
    out[...] = raw
    if scale != 1.0:
        out /= scale
    if window is not None:
        out *= window
    return out


# Each thread's reused byte buffer, grown to the largest file it has read and
# never shrunk: a fresh ``bytes`` per file made the heap's top be returned and
# faulted back in on every long recording.
class _FileBuffer(threading.local):
    data = np.empty(0, np.uint8)


_file_buffer = _FileBuffer()


def _read_bytes(path: str | Path) -> memoryview:
    """The bytes of the WAV file at `path`, read into this thread's buffer:
    valid until this thread's next read.  A path that is missing, is not a
    regular file or cannot be read raises WavFormatError naming it."""
    if not os.path.isfile(path):
        if os.path.exists(path):
            raise WavFormatError(f"{path}: not a regular file")
        raise WavFormatError(f"WAV file not found: {path}")
    try:
        with open(path, "rb", buffering=0) as fh:
            size = os.fstat(fh.fileno()).st_size
            if _file_buffer.data.size <= size:
                _file_buffer.data = np.empty(size + 1, np.uint8)
            # Unbuffered: a buffered reader stats the file again and sets up
            # a buffer of its own.  One byte past the size: a file that grew
            # since its size was taken shows, and is read to its end.
            view = memoryview(_file_buffer.data)[: size + 1]
            got = 0
            while step := fh.readinto(view[got:]):
                got += step
                if got > size:
                    return memoryview(bytes(view) + fh.readall())
    except OSError as exc:
        raise WavFormatError(f"{path}: not a readable WAV file ({exc})") from exc
    return view[:got]


def read_wav(path: str | Path) -> Recording:
    """A mono WAV as a Recording of [-1, 1] float64 samples with empty
    labels: `read_recording_bundle` with no sidecar.  Every fault of the
    file, a non-finite sample included, raises WavFormatError naming it."""
    return read_recording_bundle(path, RecordingMeta())


def write_wav(rec: Recording, path: str | Path, encoding: str = "float32") -> None:
    """Write a Recording as mono WAV.

    `encoding` is one of int16 / int32 / float32.  Samples outside
    [-1, 1] are clipped with a warning.  A sample rate that the header's
    32-bit integer field cannot hold exactly (a fraction of a hertz, or
    past 2**32 - 1 Hz), and a recording whose size or byte rate overflows
    the 32-bit fields of a RIFF header (a file past 4 GiB), raise
    WavFormatError naming the file; nothing is written.
    """
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be one of {tuple(ENCODINGS)}, got {encoding!r}")
    path = Path(path)
    if not (rec.sample_rate == int(rec.sample_rate) and 1 <= rec.sample_rate <= _U32_MAX):
        raise WavFormatError(
            f"{path}: sample rate {rec.sample_rate!r} Hz is not a whole number "
            f"of hertz in [1, {_U32_MAX}], as a WAV header stores it"
        )
    tag, width = ENCODINGS[encoding]
    dtype, full = _SAMPLES[tag, width]
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
    write_json(sidecar_path, sidecar)
    return sidecar_path


def _sidecar_path(wav_path: str | Path) -> str:
    """The sidecar of `wav_path`: the name ``Path(wav_path).with_suffix(".json")``
    gives, built with string operations and kept as the caller spelled the
    directories.  Unlike `os.path.splitext`, a name's last suffix is its last
    dot only if a character precedes it and one follows (``x.`` gives
    ``x..json``, ``..wav`` gives ``..json``)."""
    path = os.fspath(wav_path)
    name = max(path.rfind(os.sep), path.rfind(os.altsep or os.sep)) + 1
    dot = path.rfind(".")
    if name < dot < len(path) - 1:
        path = path[:dot]
    return path + ".json"


def read_bundle_samples(
    wav_path: str | Path, meta: RecordingMeta | None = None
) -> tuple[RecordingMeta, float, np.ndarray, float]:
    """(labels, sample rate, raw samples, full scale) of a WAV with its
    labels, each checked as `read_recording_bundle` checks them, but not
    decoded: the raw samples view this thread's file buffer until its next
    read, and `decode_samples` writes them into an array of the caller's,
    such as the next row of a stack.  `signals.check_samples` is the check
    that `Recording` makes, so every fault has `read_wav`'s message.
    """
    sidecar_path = _sidecar_path(wav_path)
    bad_sidecar = None
    if meta is None and os.path.isfile(sidecar_path):
        try:
            with open(sidecar_path, encoding="utf-8") as fh:
                data = json.load(fh)
            raw_meta = data.get("meta", {}) if isinstance(data, dict) else None
            if not isinstance(raw_meta, dict):
                raise ValueError("expected a JSON object with an object 'meta'")
            meta = RecordingMeta.from_dict(raw_meta)
        except (ValueError, RecursionError) as exc:
            bad_sidecar = exc
    rate, raw, scale = _wav_samples(wav_path, _read_bytes(wav_path))
    try:
        check_samples(raw, float(rate))
    except ValueError as exc:
        raise WavFormatError(f"{wav_path}: {exc}") from exc
    # A bad WAV is reported before a bad sidecar, whose error waits for the checks.
    if bad_sidecar is not None:
        raise ManifestError(
            f"{sidecar_path}: bad sidecar ({bad_sidecar})", errors=[str(bad_sidecar)]
        ) from bad_sidecar
    return RecordingMeta() if meta is None else meta, float(rate), raw, scale


def read_recording_bundle(wav_path: str | Path, meta: RecordingMeta | None = None) -> Recording:
    """Read a WAV with its labels.

    The labels are `meta` when given (one of `load_manifest`'s pairs);
    otherwise those of the same-stem .json sidecar when one exists, else
    empty.  A sidecar that is not a JSON object with an object ``meta`` of
    valid labels raises ManifestError naming the sidecar, but only once the
    WAV itself has passed every check.  Messages name the paths as given;
    no `Path` is built, as this runs once per recording.  It is
    `read_bundle_samples` decoded into a new array.
    """
    meta, rate, raw, scale = read_bundle_samples(wav_path, meta)
    return Recording(decode_samples(raw, scale, np.empty(raw.size)), rate, meta)


# ---------------------------------------------------------------------------
# Dataset manifest


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


def _labelled(meta: RecordingMeta, where: str, errors: list[str], **labels) -> RecordingMeta | None:
    """`meta` with `labels` replaced, or None once `errors` says why not: a
    label is missing or null, or RecordingMeta refuses its value."""
    for key, value in labels.items():
        if value is None:
            errors.append(f"{where}: missing or null {key} label")
            return None
    try:
        return replace(meta, **labels)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def _procedure_channels(
    raw: dict, where: str, base_dir: Path, meta: RecordingMeta, errors, warnings_out
) -> list[tuple[Path, RecordingMeta]]:
    """Validate one procedure; return its (WAV path, labels) pairs.

    `meta` holds the observation's labels.  Channels come in Left/Right/Palm
    order; a schema error yields no pairs.
    """
    meta = _labelled(meta, where, errors, exploration_procedure=raw.get("procedure"))
    if meta is None:
        return []

    codes = raw.get("force_codes", [])
    if not isinstance(codes, list) or not all(type(c) is int for c in codes):
        errors.append(f"{where}: force_codes must be a list of integers")
        return []
    # Every code is a label value, though only a lone one labels the channels.
    coded = [_labelled(meta, where, errors, force_code=code) for code in codes]
    if None in coded:
        return []
    meta = coded[0] if len(coded) == 1 else meta
    expected = EXPECTED_FORCE_CODES.get(meta.exploration_procedure)
    if expected is not None:
        unusual = sorted(set(codes) - expected)
        if unusual:
            warnings_out.append(
                f"{where}: force code(s) {unusual} differ from the usual "
                f"{sorted(expected)} for {meta.exploration_procedure}"
            )

    channels = raw.get("channel_files", {})
    if not isinstance(channels, dict):
        errors.append(f"{where}: channel_files must be a mapping")
        return []
    pairs = {}
    for channel, rel in channels.items():
        channel_meta = _labelled(meta, where, errors, microphone=channel)
        if channel_meta is None:
            return []
        problem = _path_problem(rel)
        if problem:
            errors.append(f"{where}: channel {channel} path {rel!r} {problem}")
            return []
        pairs[channel] = (base_dir / rel, channel_meta)

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

    return [pairs[mic.value] for mic in Microphone if mic.value in pairs]


def load_manifest(path: str | Path) -> list[tuple[Path, RecordingMeta]]:
    """Parse and cross-check a manifest file; return its channels.

    The manifest is a JSON object (schema version 1):

    - ``schema_version``: the integer 1; mandatory.
    - ``objects``: a list of objects ``{"id", "name", "material_class",
      "image_path"}``; ``id`` is a non-empty string, ids are unique, and
      ``name`` is the object label; the other two are optional.
    - ``observations``: a list of objects with ``object_id`` (an id from
      ``objects``), the ``repetition`` label, the ``fingerprint_material``
      label (default "Default") and ``procedures``, a list of objects with:

      - ``procedure``: the exploration_procedure label;
      - ``force_codes``: a list of integers, each a force_code value; a
        lone code is the channels' force_code label;
      - ``duration_s``: a positive finite number, or null;
      - ``channel_files``: a mapping of microphone label to WAV path;
      - ``motor_telemetry_path``: a CSV path, or null.

    The manifest's own rules are its structure, ids and references,
    required fields (an explicit null too), paths, durations and
    telemetry; `RecordingMeta` checks each label's value.  Paths are
    relative to the manifest's directory and may not leave it.  A broken
    rule or a missing audio file is an error; departures from the
    collection conventions (more than five repetitions, unusual force
    codes, missing telemetry files) are warnings.

    Each warning is issued as a UserWarning; errors raise one ManifestError
    carrying all of them.  The result lists one (WAV path, labels) pair per
    declared channel, ready for `read_recording_bundle`: in file order of
    observations and procedures, Left/Right/Palm within each procedure.
    """
    manifest = Path(path)
    errors: list[str] = []
    warnings_out: list[str] = []
    channels: list[tuple[Path, RecordingMeta]] = []
    if not manifest.is_file():
        errors.append(f"manifest not found: {manifest}")
    else:
        try:
            data = json.loads(manifest.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
            errors.append(f"{manifest}: invalid JSON ({exc})")
        else:
            if isinstance(data, dict):
                channels = _validate_manifest_data(data, manifest.parent, errors, warnings_out)
            else:
                errors.append(f"{manifest}: top level must be a JSON object")
    for message in warnings_out:
        warnings.warn(message, stacklevel=2)
    if errors:
        raise ManifestError(
            f"{path}: {len(errors)} manifest error(s); first: {errors[0]}", errors=errors
        )
    return channels


def _validate_manifest_data(
    data: dict, base_dir: Path, errors: list[str], warnings_out: list[str]
) -> list[tuple[Path, RecordingMeta]]:
    """Append the schema errors and convention warnings of `data`; return its channels."""
    version = data.get("schema_version")
    if version is None:
        errors.append("schema_version field is mandatory")
    elif type(version) is not int or version != SCHEMA_VERSION:
        errors.append(
            f"unsupported schema_version {version!r}; this toolkit reads {SCHEMA_VERSION}"
        )

    objects: dict[str, RecordingMeta] = {}
    for where, raw in _json_objects(data, "objects", "", errors):
        obj_id = raw.get("id")
        if not isinstance(obj_id, str) or not obj_id:
            errors.append(f"{where}: 'id' must be a non-empty string")
            continue
        meta = _labelled(RecordingMeta(), f"{where} ({obj_id})", errors, object=raw.get("name"))
        if meta is None:
            continue
        if obj_id in objects:
            errors.append(f"{where}: duplicate object id {obj_id!r}")
            continue
        objects[obj_id] = meta

    channels: list[tuple[Path, RecordingMeta]] = []
    reps_per_object: dict[str, int] = {}
    for where, raw in _json_objects(data, "observations", "", errors):
        obj_id = raw.get("object_id")
        if not isinstance(obj_id, str) or obj_id not in objects:
            errors.append(f"{where}: dangling object_id {obj_id!r}")
            continue
        material = raw.get("fingerprint_material", BASELINE_MATERIAL)
        labels = {"repetition": raw.get("repetition"), "fingerprint_material": material}
        meta = _labelled(objects[obj_id], where, errors, **labels)
        if meta is None:
            continue
        if meta.repetition > MAX_REPETITIONS:
            warnings_out.append(
                f"{where}: repetition {meta.repetition} exceeds the "
                f"{MAX_REPETITIONS}-observations-per-object convention"
            )
        reps_per_object[obj_id] = reps_per_object.get(obj_id, 0) + 1

        for proc_where, raw_proc in _json_objects(raw, "procedures", f"{where}.", errors):
            channels += _procedure_channels(raw_proc, proc_where, base_dir, meta, errors, warnings_out)

    for obj_id, count in sorted(reps_per_object.items()):
        if count > MAX_REPETITIONS:
            warnings_out.append(
                f"object {obj_id!r} has {count} observations; the collection "
                f"convention is at most {MAX_REPETITIONS}"
            )

    return channels


# ---------------------------------------------------------------------------
# Corpus


_ANALYZE_WORKERS = 8

# WAV bytes that close a slice of `gather`'s inputs and pick its path.
_SLICE_BYTES = 256 * 1024


def _slices(inputs: list) -> tuple[list[list], bool]:
    """`inputs` cut into `gather`'s slices, and whether one file alone holds
    `_SLICE_BYTES`; a file that cannot be stat-ed counts as empty, and its
    read reports the fault.

    A file named twice, by overlapping globs, by two manifest channels or
    through a link, is refused: it would count twice in its group's mean.
    Files are told apart by (device, inode), or by absolute path if they
    cannot be stat-ed.
    """
    slices: list[list] = []
    held = 0
    any_long = False
    seen = set()
    for item in inputs:
        if not slices or held >= _SLICE_BYTES:
            slices.append([])
            held = 0
        slices[-1].append(item)
        try:
            stat = os.stat(item[0])
            key, size = (stat.st_dev, stat.st_ino), stat.st_size
        except OSError:
            key, size = os.path.abspath(item[0]), 0
        if key in seen:
            raise VibroprintError(f"{item[0]}: named more than once in the analyze inputs")
        seen.add(key)
        held += size
        any_long = any_long or size >= _SLICE_BYTES
    return slices, any_long


def gather(inputs: list, band: tuple[float, float], window: str, mean_spectra: bool) -> tuple:
    """(labels, grids, AUCs, means): the label, (sample rate Hz, samples)
    grid and band AUC of each (WAV path, labels or None) pair of `inputs`,
    as three columns in input order, and with `mean_spectra` the
    `SpectrumMean` of each (microphone, material, grid), else no means.

    The inputs are cut into contiguous slices, each closed once its WAV
    files hold `_SLICE_BYTES`: short recordings share a slice, and a long
    one closes the slice it ends, which may also hold short files read
    before it.  Each file is read and checked (`read_bundle_samples`) and
    decoded, scaled and windowed into the next row of its slice's flat
    buffer (`signals.StackRows`), so that a run of recordings on one grid
    is one contiguous stack with one FFT and one `band_auc` call; no
    full-length array is made per recording.  Without `mean_spectra` only
    the bins that `band_auc` reads are rectified; with it each spectrum is
    added to its group's sum and dropped, in input order.

    A corpus with a recording of `_SLICE_BYTES` or more runs one slice per
    task on a pool of min(8, cores, slices) threads, each slice read and
    transformed in one thread through that thread's scratch
    (`signals.thread_rows`), which ends with the pool.  A long file's WAV
    decode and FFT both release the interpreter lock, so they overlap
    across threads: on 2 cores one thread took 69-88% longer on
    analyze-long, and reading every file in the calling thread while the
    pool transformed took 0.18 -> 0.21 s per pass.  Short files cost more
    Python per byte, which threads that each read only trade the lock for,
    so any other corpus is read, rectified and integrated in the calling
    thread, into two row buffers in turn, while one helper thread runs the
    FFTs of the slice read before.  An FFT is one numpy call that holds no
    lock, so the helper takes it only to start and to finish; a helper
    that ran all of `spectra` and `band_auc`, about a dozen numpy calls per
    stack, took the lock back after each, and the reads slowed by about as
    much as its transforms saved.  Both paths give the same columns.

    Faults come in input order: a file named twice before any is read, then
    each file's own (unreadable, unlabeled, or a top bin below the band's
    top) as it is read; a fault of an earlier slice's FFTs comes before a
    later slice's read fault.
    """
    top = None if mean_spectra else band[1]

    def read(items, rows):
        """Read `items` in order, each file checked as it is read, and decode
        each one's samples, scaled and windowed, into the next row of `rows`.
        Returns each run of consecutive recordings on one grid: its (sample
        rate, samples) grid and labels, and its (recordings, samples) stack,
        a view of `rows`."""
        runs = []
        for path, labels in items:
            meta, rate, raw, scale = read_bundle_samples(path, labels)
            if meta.microphone is None or meta.fingerprint_material is None:
                raise VibroprintError(
                    f"{path}: recording lacks microphone/fingerprint_material labels; "
                    "supply a manifest or sidecar metadata"
                )
            n = raw.size
            nyquist = top_bin_hz(n, rate)
            if band[1] > nyquist:
                raise VibroprintError(
                    f"{path}: band [{band[0]}, {band[1]}] outside spectrum range [0, {nyquist}]"
                )
            decode_samples(raw, scale, rows.take(n), window_weights(window, n))
            if runs and runs[-1][0] == (rate, n):
                runs[-1][1].append(meta)
            else:
                runs.append(((rate, n), [meta]))
        flat, start = rows.written(), 0
        stacks = []
        for (_, n), metas in runs:
            stacks.append(flat[start : start + len(metas) * n].reshape(len(metas), n))
            start += len(metas) * n
        return runs, stacks

    def columns(runs, spectra):
        """Columns of a slice from its runs' (grid, labels) and `Spectrum`
        stacks, in order: labels, grids, band AUCs (one `band_auc` call per
        stack), and the spectra with `mean_spectra` (else none)."""
        metas, grids, aucs, specs = [], [], [], []
        for (grid, labels), stack in zip(runs, spectra):
            metas += labels
            grids += [grid] * len(labels)
            aucs += band_auc(stack, band).tolist()
            if mean_spectra:
                specs += [replace(stack, magnitudes=row) for row in stack.magnitudes]
        return metas, grids, aucs, specs

    def analyze_slice(items):
        """Columns of one slice, read into this thread's rows and transformed
        in this thread."""
        runs, stacks = read(items, thread_rows())
        return columns(
            runs,
            [windowed_spectra(stack, rate, window, top) for ((rate, _), _), stack in zip(runs, stacks)],
        )

    def ffts(runs, stacks):
        return runs, [stack_fft(stack) for stack in stacks]

    def finished(runs, transforms):
        """Columns of a slice from its runs and their `stack_fft`s."""
        return columns(
            runs,
            [stack_spectrum(transform, n, rate, window, top)
             for ((rate, n), _), transform in zip(runs, transforms)],
        )

    slices, any_long = _slices(inputs)

    def parts():
        """Each slice's columns, in input order, on the pool or beside the helper."""
        if any_long:
            workers = min(_ANALYZE_WORKERS, os.cpu_count() or 1, len(slices))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(analyze_slice, slices)
        elif slices:
            # Two buffers in turn: the slice being read, and the one in transform.
            buffers = (StackRows(), StackRows())
            with ThreadPoolExecutor(max_workers=1) as helper:
                pending = None  # the FFTs of the slice in transform
                for k, items in enumerate(slices):
                    try:
                        runs, stacks = read(items, buffers[k % 2].clear())
                    finally:  # the slice before, whose fault comes first
                        done = None if pending is None else pending.result()
                    pending = helper.submit(ffts, runs, stacks)
                    if done is not None:
                        yield finished(*done)
                yield finished(*pending.result())

    labels: list[RecordingMeta] = []
    grids: list[tuple] = []
    aucs: list[float] = []
    means: defaultdict[tuple, SpectrumMean] = defaultdict(SpectrumMean)
    for metas, part_grids, part_aucs, specs in parts():
        labels += metas
        grids += part_grids
        aucs += part_aucs
        for meta, grid, spec in zip(metas, part_grids, specs):
            means[meta.microphone, meta.fingerprint_material, grid].add(spec)
    return labels, grids, aucs, dict(means)
