import numpy as np
import pytest

import vibroprint as vp
from vibroprint.units import mm_to_m


@pytest.fixture(scope="session")
def materials():
    return {m.name: m for m in vp.builtin_materials()}


@pytest.fixture()
def tpu_beam(materials):
    """The soft-material design point: square 2.6 mm, length 2.0 mm."""
    return vp.BeamSpec(materials["TPU"], vp.CrossSection.square(mm_to_m(2.6)), mm_to_m(2.0))


@pytest.fixture()
def st45b_beam(materials):
    """The rigid-material phalanx design point: square 1.0 mm, length 3.5 mm."""
    return vp.BeamSpec(materials["ST45B"], vp.CrossSection.square(mm_to_m(1.0)), mm_to_m(3.5))


def make_sine(freq_hz, amplitude=1.0, rate=500e3, n=5000):
    t = np.arange(n) / rate
    return vp.Recording(amplitude * np.sin(2.0 * np.pi * freq_hz * t), rate)


@pytest.fixture()
def make_sine_recording():
    return make_sine


@pytest.fixture(scope="session")
def quantize_wav():
    def quantize(samples, encoding):
        """The array that a WAV of `encoding` (int16, int32 or float32) stores for [-1, 1] samples."""
        if encoding == "float32":
            return samples.astype(np.float32)
        full = -float(np.iinfo(encoding).min)
        return np.clip(np.round(samples * full), -full, full - 1).astype(encoding)

    return quantize


@pytest.fixture(scope="session")
def labelled_manifest():
    def build(labels, wav="rec.wav"):
        """A manifest of one observation with one channel, `wav`, whose labels
        are `labels` (RecordingMeta field -> JSON value); a missing object,
        repetition, procedure or microphone gets a valid value, a missing
        force code or material is left out."""
        labels = {
            "object": "cup",
            "repetition": 1,
            "exploration_procedure": "LateralMotion",
            "microphone": "Left",
            **labels,
        }
        procedure = {
            "procedure": labels["exploration_procedure"],
            "channel_files": {labels["microphone"]: wav},
        }
        if "force_code" in labels:
            procedure["force_codes"] = [labels["force_code"]]
        observation = {"object_id": "o1", "repetition": labels["repetition"], "procedures": [procedure]}
        if "fingerprint_material" in labels:
            observation["fingerprint_material"] = labels["fingerprint_material"]
        return {
            "schema_version": 1,
            "objects": [{"id": "o1", "name": labels["object"]}],
            "observations": [observation],
        }

    return build
