"""WAV codec and manifest validation."""

import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.io import wavfile

import vibroprint as vp
from vibroprint.cli import run
from vibroprint.errors import ManifestError, WavFormatError

FS = 500e3


@pytest.fixture()
def random_recording():
    rng = np.random.default_rng(17)
    return vp.Recording(rng.uniform(-0.99, 0.99, 5000), FS)


# ---------------------------------------------------------------------------
# WAV


@pytest.mark.parametrize(
    "encoding, step",
    [("int16", 1.0 / 2**15), ("int32", 1.0 / 2**31), ("float32", 1e-7)],
)
def test_wav_round_trip_within_quantization(tmp_path, random_recording, encoding, step):
    path = tmp_path / f"rt_{encoding}.wav"
    vp.write_wav(random_recording, path, encoding)
    back = vp.read_wav(path)
    assert back.sample_rate == FS
    assert back.samples.size == random_recording.samples.size
    assert np.max(np.abs(back.samples - random_recording.samples)) <= step


def test_wav_header_keeps_500khz_rate(tmp_path, random_recording):
    path = tmp_path / "rate.wav"
    vp.write_wav(random_recording, path, "int16")
    assert vp.read_wav(path).sample_rate == 500000.0


def test_full_scale_float32_sine(tmp_path):
    t = np.arange(5000) / FS
    rec = vp.Recording(np.sin(2 * np.pi * 9000 * t), FS)
    path = tmp_path / "fs.wav"
    vp.write_wav(rec, path, "float32")
    assert np.max(vp.read_wav(path).samples) == pytest.approx(np.max(rec.samples), abs=1e-7)


def test_zero_signal_file_length(tmp_path):
    n = 2500
    rec = vp.Recording(np.zeros(n), FS)
    path = tmp_path / "zero.wav"
    vp.write_wav(rec, path, "int16")
    # 44-byte canonical PCM header + 2 bytes per sample
    assert path.stat().st_size == 44 + 2 * n


def test_write_clips_with_warning(tmp_path):
    rec = vp.Recording(np.array([0.0, 1.5, -2.0, 0.25]), FS)
    path = tmp_path / "clip.wav"
    with pytest.warns(UserWarning, match="clipped"):
        vp.write_wav(rec, path, "float32")
    back = vp.read_wav(path)
    assert np.max(back.samples) == pytest.approx(1.0)
    assert np.min(back.samples) == pytest.approx(-1.0)


def test_stereo_rejected_naming_channels(tmp_path):
    path = tmp_path / "stereo.wav"
    wavfile.write(path, 48000, np.zeros((16, 2), dtype=np.int16))
    with pytest.raises(WavFormatError, match="2 channels"):
        vp.read_wav(path)


def test_unsupported_encoding_rejected(tmp_path):
    path = tmp_path / "u8.wav"
    wavfile.write(path, 48000, np.zeros(16, dtype=np.uint8))
    with pytest.raises(WavFormatError, match="uint8"):
        vp.read_wav(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "trunc.wav"
    wavfile.write(path, 48000, np.zeros(1000, dtype=np.int16))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(WavFormatError):
        vp.read_wav(path)


def test_zero_length_data_rejected(tmp_path):
    path = tmp_path / "empty.wav"
    wavfile.write(path, 48000, np.zeros(0, dtype=np.int16))
    with pytest.raises(WavFormatError, match="zero-length"):
        vp.read_wav(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(WavFormatError, match="not found"):
        vp.read_wav(tmp_path / "absent.wav")


def test_invalid_encoding_name(tmp_path, random_recording):
    with pytest.raises(ValueError, match="encoding"):
        vp.write_wav(random_recording, tmp_path / "x.wav", "int24")


@pytest.mark.parametrize("n", [2, 3, 1000, 1001])
@pytest.mark.parametrize("encoding", ["int16", "int32", "float32"])
def test_writer_bytes_match_scipy(tmp_path, quantize_wav, encoding, n):
    rec = vp.Recording(np.random.default_rng(n).uniform(-1.0, 1.0, n), FS)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    vp.write_wav(rec, ours, encoding)
    wavfile.write(theirs, int(FS), quantize_wav(rec.samples, encoding))
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize(
    "samples, rate",
    [(np.broadcast_to(0.0, (2**30,)), FS), (np.zeros(4), 2e9)],
    ids=["riff_size", "byte_rate"],
)
def test_writer_refuses_sizes_past_the_riff_limit(tmp_path, samples, rate):
    # Only the header sizes are computed, so the huge zero-stride array is never touched.
    rec = SimpleNamespace(samples=samples, sample_rate=rate)
    path = tmp_path / "huge.wav"
    with pytest.raises(WavFormatError, match="huge.wav.*32-bit"):
        vp.write_wav(rec, path, "float32")
    assert not path.exists()


@pytest.mark.parametrize("rate", [0.4, 44100.4, 2.0**32], ids=["below_1_hz", "fraction", "past_u32"])
def test_writer_refuses_rates_the_header_cannot_hold(tmp_path, rate):
    path = tmp_path / "odd_rate.wav"
    with pytest.raises(WavFormatError, match=rf"odd_rate.wav: sample rate {rate!r} Hz"):
        vp.write_wav(vp.Recording(np.zeros(4), rate), path, "int16")
    assert not path.exists()


def riff(*chunks, form=b"RIFF", kind=b"WAVE"):
    """A RIFF/WAVE file of (id, body) chunks, each padded to an even size."""
    body = kind + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2) for cid, data in chunks
    )
    return form + struct.pack("<I", len(body)) + body


def fmt_chunk(tag, width, bits=None, channels=1, subformat=None):
    """A fmt chunk; with `subformat`, a WAVE_FORMAT_EXTENSIBLE one (tag 0xFFFE)."""
    bits = 8 * width if bits is None else bits
    rate = int(FS)
    body = struct.pack("<HHIIHH", tag, channels, rate, rate * width * channels, width * channels, bits)
    if subformat is not None:
        guid_tail = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body += struct.pack("<HHII", 22, bits, 0x4, subformat) + guid_tail
    return b"fmt ", body


INT24 = np.array([-(2**23), -1, 0, 1, 2**23 - 1, 12345, -654321])
HAND_BUILT = {
    # Seven samples of three bytes: an odd data chunk with a pad byte.
    "pcm24": riff(
        fmt_chunk(1, 3), (b"data", INT24.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes())
    ),
    "extensible_pcm16": riff(
        fmt_chunk(0xFFFE, 2, subformat=1),
        (b"data", np.array([-32768, -1, 0, 7, 32767], "<i2").tobytes()),
    ),
    "extensible_float32": riff(
        fmt_chunk(0xFFFE, 4, subformat=3),
        (b"fact", struct.pack("<I", 3)),
        (b"data", np.array([-1.0, 0.25, 1.0], "<f4").tobytes()),
    ),
    "odd_list_before_data": riff(
        fmt_chunk(1, 2),
        (b"LIST", b"INFOISFT\x03\0\0\0ab\0"),
        (b"data", np.array([3, -3], "<i2").tobytes()),
    ),
}


@pytest.mark.parametrize("raw", HAND_BUILT.values(), ids=list(HAND_BUILT))
def test_reader_matches_scipy_on_hand_built_files(tmp_path, raw):
    path = tmp_path / "hand.wav"
    path.write_bytes(raw)
    rate, data = wavfile.read(path)
    full_scale = {np.dtype(np.int16): 2.0**15, np.dtype(np.int32): 2.0**31}.get(data.dtype, 1.0)
    rec = vp.read_wav(path)
    assert rec.sample_rate == rate == FS
    assert np.array_equal(rec.samples, data.astype(np.float64) / full_scale)


def test_24_bit_pcm_reads_as_int24_over_full_scale(tmp_path):
    path = tmp_path / "pcm24.wav"
    path.write_bytes(HAND_BUILT["pcm24"])
    assert np.array_equal(vp.read_wav(path).samples, INT24 / 2.0**23)


PCM16_DATA = (b"data", np.zeros(4, "<i2").tobytes())
BAD_FILES = {
    "rifx": (riff(fmt_chunk(1, 2), PCM16_DATA, form=b"RIFX"), "RIFX"),
    "rf64": (riff(fmt_chunk(1, 2), PCM16_DATA, form=b"RF64"), "RF64"),
    "not_wave": (riff(fmt_chunk(1, 2), PCM16_DATA, kind=b"AVI "), "RIFF/WAVE"),
    "no_fmt": (riff(PCM16_DATA), "no fmt chunk"),
    "no_data": (riff(fmt_chunk(1, 2)), "no data chunk"),
    "short_fmt": (riff((b"fmt ", fmt_chunk(1, 2)[1][:14]), PCM16_DATA), "short fmt chunk"),
    "truncated_fmt": (riff(fmt_chunk(1, 2))[:30], "truncated or short fmt chunk"),
    "truncated_data": (riff(fmt_chunk(1, 2), PCM16_DATA)[:-1], "truncated data chunk"),
    "float64": (riff(fmt_chunk(3, 8), (b"data", np.zeros(4).tobytes())), "float64"),
    "int64": (riff(fmt_chunk(1, 8), (b"data", np.zeros(4, "<i8").tobytes())), "int64"),
    "adpcm": (riff(fmt_chunk(2, 2), PCM16_DATA), "format tag 0x0002"),
    "extensible_adpcm": (riff(fmt_chunk(0xFFFE, 2, subformat=2), PCM16_DATA), "format tag 0x0002"),
    "three_channels": (riff(fmt_chunk(1, 2, channels=3), PCM16_DATA), "3 channels"),
}


@pytest.mark.parametrize("raw, message", BAD_FILES.values(), ids=list(BAD_FILES))
def test_bad_wav_is_a_format_error_naming_the_file(tmp_path, raw, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(WavFormatError, match=message) as excinfo:
        vp.read_wav(path)
    assert str(path) in str(excinfo.value)


def test_recording_bundle_round_trip(tmp_path, random_recording):
    meta = vp.RecordingMeta(
        object="wooden stick",
        exploration_procedure="LateralMotion",
        force_code=400,
        fingerprint_material="ST45B",
        microphone="Palm",
        repetition=3,
    )
    rec = vp.Recording(random_recording.samples, FS, meta)
    path = tmp_path / "bundle.wav"
    sidecar = vp.write_recording_bundle(rec, path, scenario={"seed": 1})
    assert sidecar.name == "bundle.json"
    payload = json.loads(sidecar.read_text())
    assert payload["meta"]["object"] == "wooden stick"
    assert payload["scenario"] == {"seed": 1}
    assert "created_utc" in payload

    back = vp.read_recording_bundle(path)
    assert back.meta == meta


def test_bundle_without_sidecar_has_empty_meta(tmp_path, random_recording):
    path = tmp_path / "plain.wav"
    vp.write_wav(random_recording, path)
    assert vp.read_recording_bundle(path).meta == vp.RecordingMeta()


def test_given_labels_replace_the_sidecar(tmp_path, random_recording):
    path = tmp_path / "rec.wav"
    vp.write_wav(random_recording, path)
    (tmp_path / "rec.json").write_text("{")  # never read when labels are given
    meta = vp.RecordingMeta(microphone="Right", fingerprint_material="TPU")
    assert vp.read_recording_bundle(path, meta).meta == meta


@pytest.mark.parametrize("labels", ["sidecar", "given"])
def test_bundle_read_builds_one_recording(tmp_path, random_recording, monkeypatch, labels):
    meta = vp.RecordingMeta(microphone="Right", fingerprint_material="TPU")
    path = tmp_path / "rec.wav"
    vp.write_recording_bundle(vp.Recording(random_recording.samples, FS, meta), path)
    calls = []
    post_init = vp.Recording.__post_init__

    def counted(rec):
        calls.append(rec)
        post_init(rec)

    monkeypatch.setattr(vp.Recording, "__post_init__", counted)
    assert vp.read_recording_bundle(path, meta if labels == "given" else None).meta == meta
    assert len(calls) == 1


@pytest.mark.parametrize(
    "samples, error, message",
    [
        (np.zeros(0, dtype=np.int16), WavFormatError, "zero-length"),
        (np.array([0.0, np.nan, 0.5], dtype=np.float32), WavFormatError, "samples must all be finite"),
    ],
    ids=["decoder_rejects", "recording_rejects"],
)
def test_bad_wav_is_reported_before_bad_sidecar(tmp_path, samples, error, message):
    path = tmp_path / "rec.wav"
    wavfile.write(path, 48000, samples)
    (tmp_path / "rec.json").write_text("{")
    with pytest.raises(error, match=message):
        vp.read_recording_bundle(path)


# Nested past the interpreter's recursion limit, so json.loads raises RecursionError.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "sidecar",
    [
        "[]",
        '{"meta": "x"}',
        '{"meta": {"repetition": "2"}}',
        '{"meta": {"object": ["a"]}}',
        "{",
        DEEP_JSON,
    ],
    ids=["list", "meta_string", "repetition_string", "object_list", "truncated", "too_deep"],
)
def test_malformed_sidecar_names_its_path(tmp_path, random_recording, capsys, sidecar):
    path = tmp_path / "rec.wav"
    vp.write_wav(random_recording, path)
    (tmp_path / "rec.json").write_text(sidecar)
    with pytest.raises(ManifestError, match="rec.json"):
        vp.read_recording_bundle(path)
    assert run(["analyze", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert "rec.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Dataset manifest


def minimal_manifest(tmp_path, **overrides):
    wav = tmp_path / "rec.wav"
    if not wav.exists():
        vp.write_wav(vp.Recording(np.zeros(100), FS), wav, "int16")
    data = {
        "schema_version": 1,
        "objects": [{"id": "obj1", "name": "wooden stick"}],
        "observations": [
            {
                "object_id": "obj1",
                "repetition": 1,
                "procedures": [
                    {
                        "procedure": "LateralMotion",
                        "force_codes": [400],
                        "channel_files": {"Left": "rec.wav"},
                    }
                ],
            }
        ],
    }
    data.update(overrides)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return path


def test_minimal_manifest_is_valid(tmp_path):
    result = vp.validate_manifest(minimal_manifest(tmp_path))
    assert result.ok
    assert result.warnings == []
    assert len(result.channels) == 1


def test_six_repetitions_warn(tmp_path):
    observations = [
        {
            "object_id": "obj1",
            "repetition": r,
            "procedures": [
                {
                    "procedure": "LateralMotion",
                    "force_codes": [400],
                    "channel_files": {"Left": "rec.wav"},
                }
            ],
        }
        for r in range(1, 7)
    ]
    result = vp.validate_manifest(minimal_manifest(tmp_path, observations=observations))
    assert result.ok
    assert any("6" in w and "convention" in w for w in result.warnings)


def test_unusual_pressure_force_warns_not_errors(tmp_path):
    observations = [
        {
            "object_id": "obj1",
            "repetition": 1,
            "procedures": [
                {
                    "procedure": "Pressure",
                    "force_codes": [450],
                    "channel_files": {"Left": "rec.wav"},
                }
            ],
        }
    ]
    result = vp.validate_manifest(minimal_manifest(tmp_path, observations=observations))
    assert result.ok
    assert any("450" in w for w in result.warnings)


def test_force_code_out_of_range_errors(tmp_path):
    observations = [
        {
            "object_id": "obj1",
            "repetition": 1,
            "procedures": [
                {
                    "procedure": "Pressure",
                    "force_codes": [5000],
                    "channel_files": {"Left": "rec.wav"},
                }
            ],
        }
    ]
    result = vp.validate_manifest(minimal_manifest(tmp_path, observations=observations))
    assert not result.ok
    assert any("12-bit" in e for e in result.errors)


def test_dangling_object_reference_errors(tmp_path):
    observations = [{"object_id": "ghost", "repetition": 1, "procedures": []}]
    result = vp.validate_manifest(minimal_manifest(tmp_path, observations=observations))
    assert not result.ok
    assert any("dangling" in e for e in result.errors)


def test_duplicate_object_id_errors(tmp_path):
    objects = [
        {"id": "obj1", "name": "wooden stick"},
        {"id": "obj1", "name": "steel beam"},
    ]
    result = vp.validate_manifest(minimal_manifest(tmp_path, objects=objects))
    assert any("duplicate" in e for e in result.errors)


def test_unknown_procedure_errors(tmp_path):
    observations = [
        {
            "object_id": "obj1",
            "repetition": 1,
            "procedures": [
                {"procedure": "Rubbing", "force_codes": [], "channel_files": {}}
            ],
        }
    ]
    result = vp.validate_manifest(minimal_manifest(tmp_path, observations=observations))
    assert any("unknown procedure" in e for e in result.errors)


def test_missing_schema_version_errors(tmp_path):
    path = minimal_manifest(tmp_path)
    data = json.loads(path.read_text())
    del data["schema_version"]
    path.write_text(json.dumps(data))
    result = vp.validate_manifest(path)
    assert any("schema_version" in e for e in result.errors)


def test_missing_audio_file_errors(tmp_path):
    observations = [
        {
            "object_id": "obj1",
            "repetition": 1,
            "procedures": [
                {
                    "procedure": "LateralMotion",
                    "force_codes": [400],
                    "channel_files": {"Left": "missing.wav"},
                }
            ],
        }
    ]
    result = vp.validate_manifest(minimal_manifest(tmp_path, observations=observations))
    assert any("missing.wav" in e for e in result.errors)


def test_missing_telemetry_only_warns(tmp_path):
    observations = [
        {
            "object_id": "obj1",
            "repetition": 1,
            "procedures": [
                {
                    "procedure": "LateralMotion",
                    "force_codes": [400],
                    "channel_files": {"Left": "rec.wav"},
                    "motor_telemetry_path": "telemetry.csv",
                }
            ],
        }
    ]
    result = vp.validate_manifest(minimal_manifest(tmp_path, observations=observations))
    assert result.ok
    assert any("telemetry" in w for w in result.warnings)


def test_load_manifest_raises_with_error_list(tmp_path):
    path = minimal_manifest(tmp_path, observations=[{"object_id": "ghost", "repetition": 1, "procedures": []}])
    with pytest.raises(ManifestError) as excinfo:
        vp.load_manifest(path)
    assert excinfo.value.errors


def test_load_manifest_yields_one_pair_per_declared_channel(tmp_path):
    for name in ("a.wav", "b.wav", "c.wav"):
        vp.write_wav(vp.Recording(np.zeros(64), FS), tmp_path / name, "int16")
    data = {
        "schema_version": 1,
        "objects": [{"id": "obj1", "name": "wooden stick"}],
        "observations": [
            {
                "object_id": "obj1",
                "repetition": 1,
                "fingerprint_material": "ST45B",
                "procedures": [
                    {
                        "procedure": "LateralMotion",
                        "force_codes": [400],
                        "channel_files": {"Right": "b.wav", "Left": "a.wav", "Palm": "c.wav"},
                    }
                ],
            }
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    channels = vp.load_manifest(path)
    assert [wav for wav, _ in channels] == [tmp_path / "a.wav", tmp_path / "b.wav", tmp_path / "c.wav"]
    recs = [vp.read_recording_bundle(*item) for item in channels]
    assert len(recs) == 3
    assert [r.meta.microphone for r in recs] == ["Left", "Right", "Palm"]
    assert all(r.meta.object == "wooden stick" for r in recs)
    assert all(r.meta.fingerprint_material == "ST45B" for r in recs)
    assert all(r.meta.force_code == 400 for r in recs)


def _first_observation(data):
    return data["observations"][0]


def _first_procedure(data):
    return data["observations"][0]["procedures"][0]


# Each case turns the minimal manifest into one the validator must reject.
# OUTSIDE_WAV stands for the absolute path of a WAV outside the manifest directory.
OUTSIDE_WAV = "<outside.wav>"
MALFORMED_MANIFESTS = {
    "objects_entry_not_object": lambda d: d.update(objects=["a"]),
    "objects_not_list": lambda d: d.update(objects=5),
    "observations_not_list": lambda d: d.update(observations={"a": 1}),
    "observation_not_object": lambda d: d.update(observations=["obs"]),
    "procedures_not_list": lambda d: _first_observation(d).update(procedures="LateralMotion"),
    "procedure_not_object": lambda d: _first_observation(d).update(procedures=[3]),
    "object_id_list": lambda d: _first_observation(d).update(object_id=["obj1"]),
    "channel_path_list": lambda d: _first_procedure(d).update(channel_files={"Left": ["rec.wav"]}),
    "repetition_bool": lambda d: _first_observation(d).update(repetition=True),
    "force_code_bool": lambda d: _first_procedure(d).update(force_codes=[True]),
    "duration_bool": lambda d: _first_procedure(d).update(duration_s=True),
    "duration_nan": lambda d: _first_procedure(d).update(duration_s=float("nan")),
    "material_not_string": lambda d: _first_observation(d).update(fingerprint_material=7),
    "channel_outside_dir": lambda d: _first_procedure(d).update(
        channel_files={"Left": "../outside.wav"}
    ),
    "channel_dotdot_inside": lambda d: _first_procedure(d).update(
        channel_files={"Left": "sub/../../outside.wav"}
    ),
    "channel_absolute": lambda d: _first_procedure(d).update(channel_files={"Left": OUTSIDE_WAV}),
    "telemetry_outside_dir": lambda d: _first_procedure(d).update(
        motor_telemetry_path="../outside.csv"
    ),
    "telemetry_not_string": lambda d: _first_procedure(d).update(motor_telemetry_path=5),
    "schema_version_bool": lambda d: d.update(schema_version=True),
    "schema_version_float": lambda d: d.update(schema_version=1.0),
}


@pytest.mark.parametrize("mutate", MALFORMED_MANIFESTS.values(), ids=list(MALFORMED_MANIFESTS))
def test_malformed_manifest_is_a_validation_error(tmp_path, capsys, mutate):
    # Files just outside the manifest directory exist, so only the path rule can reject them.
    vp.write_wav(vp.Recording(np.zeros(100), FS), tmp_path / "outside.wav", "int16")
    (tmp_path / "outside.csv").write_text("t,x\n")
    manifest_dir = tmp_path / "dataset"
    (manifest_dir / "sub").mkdir(parents=True)
    path = minimal_manifest(manifest_dir)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data).replace(OUTSIDE_WAV, str(tmp_path / "outside.wav")))

    result = vp.validate_manifest(path)
    assert result.errors and result.channels is None
    assert run(["analyze", "--manifest", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert "manifest error" in capsys.readouterr().err


def test_too_deeply_nested_manifest_is_a_validation_error(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(DEEP_JSON)
    result = vp.validate_manifest(path)
    assert any("invalid JSON" in e for e in result.errors)
