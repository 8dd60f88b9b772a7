"""Property tests: each file loader returns a value or raises a VibroprintError.

Inputs are mostly well-formed with arbitrary JSON or text spliced in at
any level, so the generated files reach the deep validation paths; WAV
inputs are every truncation and single-byte overwrite of a file that
`write_wav` wrote, whose round trip must return the stored samples.  A
material section loads exactly when `Material` accepts its SI values.  Runs
are derandomized and keep no example database, so the suite stays
deterministic and writes nothing into the working tree.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import vibroprint as vp  # noqa: E402
from vibroprint.errors import MaterialConfigError, VibroprintError  # noqa: E402
from vibroprint.units import g_cm3_to_kg_m3, mpa_to_pa  # noqa: E402

# Hypothesis caches what it reads from local sources under ./.hypothesis
# unless told otherwise, and does so while pytest collects; keep that cache
# out of the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "vibroprint-hypothesis")

PROPERTY_SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None)

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def field(good):
    """A well-formed value, or any JSON value in its place."""
    return good | json_value


def record(**fields):
    return st.fixed_dictionaries({}, optional={k: field(v) for k, v in fields.items()})


paths = st.sampled_from(["rec.wav", "../rec.wav", "/rec.wav", "sub/../rec.wav", ""])
procedure = record(
    procedure=st.sampled_from([p.value for p in vp.Procedure]),
    force_codes=st.lists(st.integers(-1, 5000), max_size=3),
    duration_s=st.floats(),
    channel_files=st.dictionaries(
        st.sampled_from(["Left", "Right", "Palm", "Top"]), field(paths), max_size=3
    ),
    motor_telemetry_path=paths,
)
observation = record(
    object_id=st.sampled_from(["o1", "o2"]),
    repetition=st.integers(0, 7),
    fingerprint_material=st.sampled_from(["Default", "PLA", ""]),
    procedures=st.lists(field(procedure), max_size=2),
)
manifest_data = field(
    record(
        schema_version=st.just(1),
        objects=st.lists(field(record(id=st.just("o1"), name=st.just("cup"))), max_size=2),
        observations=st.lists(field(observation), max_size=3),
    )
)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("loaders")
    vp.write_wav(vp.Recording(np.zeros(100), 500e3), path / "rec.wav", "int16")
    return path


@PROPERTY_SETTINGS
@given(data=manifest_data)
def test_manifest_loader_returns_or_raises_domain_error(scratch_dir, data):
    path = scratch_dir / "manifest.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            channels = vp.load_manifest(path)
        except VibroprintError:
            return
    assert isinstance(channels, list)
    assert all(isinstance(wav, Path) and isinstance(meta, vp.RecordingMeta) for wav, meta in channels)


@st.composite
def label_dicts(draw):
    """All six labels valid, then up to two of them replaced by a near miss
    or by any JSON value but null.  A manifest's microphone is a JSON object
    key, so it stays a string."""
    labels = {
        "object": draw(st.sampled_from(["cup", "wooden stick"])),
        "fingerprint_material": draw(st.sampled_from(["Default", "PLA"])),
        "exploration_procedure": draw(st.sampled_from([p.value for p in vp.Procedure])),
        "force_code": draw(st.integers(0, 4095)),
        "microphone": draw(st.sampled_from([m.value for m in vp.Microphone])),
        "repetition": draw(st.integers(1, 7)),
    }
    for key in draw(st.sets(st.sampled_from(sorted(labels)), max_size=2)):
        if key == "microphone":
            labels[key] = draw(st.sampled_from(["", "Top", "left"]) | st.text(max_size=6))
        else:
            near_miss = st.sampled_from(["", "Top", "Rubbing", -1, 0, 4096, True, 400.0])
            labels[key] = draw(near_miss | json_value.filter(lambda value: value is not None))
    return labels


def labels_are_valid(labels):
    """RecordingMeta's label rules, written out apart from it."""
    for key, value in labels.items():
        if type(value) is not (int if key in ("force_code", "repetition") else str) or value == "":
            return False
    return (
        labels["microphone"] in ("Left", "Right", "Palm")
        and labels["exploration_procedure"]
        in ("LateralMotion", "Enclosure", "Pressure", "UnsupportedHolding")
        and 0 <= labels["force_code"] <= 4095
        and labels["repetition"] >= 1
    )


def refused(load, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            load(*args)
        except VibroprintError:
            return True
    return False


@PROPERTY_SETTINGS
@given(labels=label_dicts())
def test_sidecar_and_manifest_refuse_the_same_labels(scratch_dir, labelled_manifest, labels):
    try:
        meta = vp.RecordingMeta.from_dict(labels)
    except ValueError:
        meta = None
    assert (meta is not None) == labels_are_valid(labels)

    wav = scratch_dir / "labelled.wav"
    vp.write_wav(vp.Recording(np.zeros(100), 500e3), wav, "int16")
    wav.with_suffix(".json").write_text(json.dumps({"meta": labels}))
    manifest = scratch_dir / "labelled_manifest.json"
    manifest.write_text(json.dumps(labelled_manifest(labels, wav.name)))
    assert refused(vp.read_recording_bundle, wav) == refused(vp.load_manifest, manifest) == (meta is None)


number_text = st.floats().map(repr) | st.integers(-100, 30000).map(str)
curve_cell = number_text | st.text(max_size=5)
curve_text = st.builds(
    lambda header, rows: "\n".join([header] + [",".join(row) for row in rows]) + "\n",
    st.sampled_from(["frequency_hz,amplitude_db", "distance_m,amplitude_db", "x,y", ""]),
    st.lists(st.lists(curve_cell, min_size=1, max_size=3), max_size=6),
)


@PROPERTY_SETTINGS
@given(text=curve_text)
def test_curve_loader_returns_or_raises_domain_error(scratch_dir, text):
    path = scratch_dir / "curve.csv"
    path.write_text(text, encoding="utf-8")
    try:
        curve = vp.load_response_curve(path)
    except VibroprintError:
        return
    assert isinstance(curve, vp.ResponseCurve)


material_value = (
    number_text
    | st.sampled_from(["nan", "inf", "-inf", "1e400", "1.1 1.3", "1,2", "5%", "%(x)s"])
    | st.text(max_size=6)
)
material_key = st.sampled_from(
    ["density_g_cm3", "density_range_g_cm3", "youngs_modulus_mpa", "bogus"]
)
material_section = st.builds(
    lambda name, entries: f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()),
    st.sampled_from(["PLA", "Resin", "DEFAULT"]),
    st.dictionaries(material_key, material_value, max_size=4),
)


@PROPERTY_SETTINGS
@given(sections=st.lists(material_section, max_size=3), junk=st.just("") | st.text(max_size=10))
def test_material_loader_returns_or_raises_domain_error(scratch_dir, sections, junk):
    path = scratch_dir / "materials.cfg"
    path.write_text("".join(sections) + junk, encoding="utf-8")
    try:
        catalog = vp.load_material_config(path)
    except VibroprintError:
        return
    assert all(isinstance(m, vp.Material) for m in catalog)


# Numbers as written: plausible ones that order and nest, the edges of the
# SI conversion (a subnormal, values that overflow or whose range midpoint
# does), signed zeros and any float at all.
material_number = (
    st.sampled_from([1.1, 1.2, 1.3, 0.0, -0.0, -1.2, 5e-324, 1e305, 1.7e305, 1e306, 1e303])
    | st.floats(1.0, 1.4)
    | st.floats()
)
material_values = st.fixed_dictionaries(
    {},
    optional={
        "density_g_cm3": material_number,
        "density_range_g_cm3": st.tuples(material_number, material_number),
        "youngs_modulus_mpa": material_number,
    },
)


def material_from_si(name, values):
    """The Material that `values` (numbers as written, by INI key) make in
    SI units, converted here with `units`; None where Material refuses them."""
    fields = {}
    if "youngs_modulus_mpa" in values:
        fields["youngs_modulus"] = mpa_to_pa(values["youngs_modulus_mpa"])
    if "density_range_g_cm3" in values:
        lo, hi = (g_cm3_to_kg_m3(v) for v in values["density_range_g_cm3"])
        fields["density_range"] = (lo, hi)
        fields["density"] = 0.5 * (lo + hi)
    if "density_g_cm3" in values:
        fields["density"] = g_cm3_to_kg_m3(values["density_g_cm3"])
    try:
        return vp.Material(name=name, **fields)
    except (TypeError, ValueError):  # TypeError: a field is missing
        return None


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(["Resin", "tpu"]),
    values=material_values,
    separator=st.sampled_from([" ", ", ", ","]),
)
def test_material_loader_accepts_what_material_accepts(scratch_dir, name, values, separator):
    lines = [
        f"{key} = {separator.join(map(repr, v)) if isinstance(v, tuple) else repr(v)}\n"
        for key, v in values.items()
    ]
    path = scratch_dir / "materials.cfg"
    path.write_text(f"[{name}]\n" + "".join(lines), encoding="utf-8")
    expected = material_from_si(name, values)
    if expected is None:
        with pytest.raises(MaterialConfigError, match=f"material '{name}': "):
            vp.load_material_config(path)
    else:
        assert vp.get_material(name, vp.load_material_config(path)) == expected


wav_encoding = st.sampled_from(["int16", "int32", "float32"])
wav_samples = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40).map(np.array)


@PROPERTY_SETTINGS
@given(encoding=wav_encoding, samples=wav_samples, mask=st.integers(1, 255))
def test_wav_reader_returns_or_raises_domain_error_on_damaged_files(scratch_dir, encoding, samples, mask):
    path = scratch_dir / "damaged.wav"
    vp.write_wav(vp.Recording(samples, 500e3), path, encoding)
    good = path.read_bytes()
    prefixes = [good[:n] for n in range(len(good))]
    overwrites = [good[:i] + bytes([good[i] ^ mask]) + good[i + 1 :] for i in range(len(good))]
    for raw in prefixes + overwrites:
        path.write_bytes(raw)
        try:
            rec = vp.read_wav(path)
        except VibroprintError:
            continue
        assert isinstance(rec, vp.Recording)


@PROPERTY_SETTINGS
# Rates up to the largest whose byte rate fits the header at 4 bytes per sample.
@given(encoding=wav_encoding, samples=wav_samples, rate=st.integers(1, (2**32 - 1) // 4))
def test_wav_round_trip_returns_the_quantized_samples(scratch_dir, quantize_wav, encoding, samples, rate):
    path = scratch_dir / "round_trip.wav"
    vp.write_wav(vp.Recording(samples, float(rate)), path, encoding)
    back = vp.read_wav(path)
    stored = quantize_wav(samples, encoding)
    full_scale = 1.0 if encoding == "float32" else -float(np.iinfo(stored.dtype).min)
    assert back.sample_rate == rate
    assert np.array_equal(back.samples, stored / full_scale)
