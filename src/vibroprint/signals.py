"""Spectral analysis of vibration recordings.

Magnitude spectra are single-sided and normalized by the window's
coherent gain, so a pure sinusoid of amplitude A lands at bin magnitude
~A regardless of window.  Decibel values are 20*log10(magnitude / REFERENCE_AMPLITUDE).

Area under the curve (AUC) is integrated over *linear* magnitude: the
headline statistic is an amplitude ratio against a baseline skin, and
integrating dB would change its meaning.

The periodic Hann window (scipy's `get_window("hann", n, fftbins=True)`)
is built with numpy alone, and each window is cached with its coherent
gain per (window, n), so a batch of equal-length recordings builds it
once.  The frequency grid is cached the same way per (n, sample rate),
read-only and shared by every spectrum on that grid.  Each thread that
calls `spectrum` also keeps two scratch arrays of the last length it saw
(the windowed samples and their transform), so a batch of equal-length
recordings allocates only each result's magnitudes.
"""

from __future__ import annotations

import csv
import functools
import math
import threading
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import BaselineError, SpectrumGridError

# 0 dB corresponds to a full-scale unit-amplitude sinusoid.
REFERENCE_AMPLITUDE = 1.0

WINDOWS = ("rectangular", "hann")

# Default AUC analysis band: the microphone's low sensitive band plus the
# region below 3.2 kHz where slide spectra differ most.
DEFAULT_ANALYSIS_BAND = (0.0, 26000.0)

# Group label of the unmodified robot skin against which AUCs are normalized.
BASELINE_MATERIAL = "Default"


class Microphone(str, Enum):
    LEFT = "Left"
    RIGHT = "Right"
    PALM = "Palm"


class Procedure(str, Enum):
    LATERAL_MOTION = "LateralMotion"
    ENCLOSURE = "Enclosure"
    PRESSURE = "Pressure"
    UNSUPPORTED_HOLDING = "UnsupportedHolding"


# RecordingMeta's label fields and the type each holds when set.
_META_TYPES = {
    "object": str,
    "exploration_procedure": str,
    "force_code": int,
    "fingerprint_material": str,
    "microphone": str,
    "repetition": int,
}


@dataclass(frozen=True)
class RecordingMeta:
    """Provenance labels attached to a recording; all optional."""

    object: str | None = None
    exploration_procedure: str | None = None
    force_code: int | None = None
    fingerprint_material: str | None = None
    microphone: str | None = None
    repetition: int | None = None

    def __post_init__(self):
        for name, kind in _META_TYPES.items():
            value = getattr(self, name)
            if value is not None and (not isinstance(value, kind) or isinstance(value, bool)):
                raise ValueError(f"{name} must be {kind.__name__} or None, got {value!r}")
        if self.microphone is not None:
            object.__setattr__(self, "microphone", Microphone(self.microphone).value)
        if self.exploration_procedure is not None:
            object.__setattr__(
                self, "exploration_procedure", Procedure(self.exploration_procedure).value
            )
        if self.force_code is not None and not 0 <= self.force_code <= 4095:
            raise ValueError(f"force_code must be a 12-bit value, got {self.force_code}")
        if self.repetition is not None and self.repetition < 1:
            raise ValueError(f"repetition must be >= 1, got {self.repetition}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RecordingMeta":
        return cls(**{k: data.get(k) for k in _META_TYPES})


@dataclass(frozen=True)
class Recording:
    """Time-domain vibration signal in dimensionless ADC units."""

    samples: np.ndarray
    sample_rate: float
    meta: RecordingMeta = field(default_factory=RecordingMeta)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("samples must be a 1-D array with at least 2 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(f"sample_rate must be positive and finite, got {self.sample_rate}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def scaled(self, factor: float) -> "Recording":
        return replace(self, samples=self.samples * factor)


@dataclass(frozen=True)
class Spectrum:
    """Single-sided magnitude spectrum on a uniform grid up to Nyquist."""

    frequencies: np.ndarray
    magnitudes: np.ndarray
    resolution: float
    window: str

    @property
    def nyquist(self) -> float:
        return float(self.frequencies[-1])

    @property
    def amplitudes_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(self.magnitudes / REFERENCE_AMPLITUDE)


@functools.lru_cache(maxsize=16)
def _window(window: str, n: int) -> tuple[np.ndarray, float]:
    """(read-only window of n samples, its sum)."""
    if window == "rectangular":
        w = np.ones(n)
    elif window == "hann":
        # Periodic Hann: one period of n + 1 symmetric points, last dropped.
        w = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    else:
        raise ValueError(f"unknown window {window!r}; expected one of {WINDOWS}")
    w.setflags(write=False)
    return w, float(w.sum())


@functools.lru_cache(maxsize=16)
def _cached_frequencies(n: int, sample_rate: float) -> np.ndarray:
    f = np.fft.rfftfreq(n, 1.0 / sample_rate)
    f.setflags(write=False)
    return f


# lru_cache lets two threads that miss together each build a grid; the lock
# makes every spectrum on one grid share a single array.
_frequencies_lock = threading.Lock()


def _frequencies(n: int, sample_rate: float) -> np.ndarray:
    """Read-only bin frequencies (Hz) of an n-sample spectrum."""
    with _frequencies_lock:
        return _cached_frequencies(n, sample_rate)


# Per-thread (windowed samples float64[n], transform complex128[n//2 + 1]),
# rebuilt when n changes.
_scratch = threading.local()


def _scratch_for(n: int) -> tuple[np.ndarray, np.ndarray]:
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None or buffers[0].size != n:
        buffers = (np.empty(n), np.empty(n // 2 + 1, dtype=complex))
        _scratch.buffers = buffers
    return buffers


def spectrum(rec: Recording, window: str = "hann") -> Spectrum:
    """Single-sided amplitude spectrum of the windowed recording.

    The result's `frequencies` is the cached read-only grid for
    (n, sample rate), shared with every other spectrum on it.  The window
    product and the transform go through this thread's scratch arrays of
    the last length seen, so only `magnitudes` is a new full-length array.
    """
    n = rec.samples.size
    w, total = _window(window, n)
    windowed, transform = _scratch_for(n)
    np.multiply(rec.samples, w, out=windowed)
    # Two arrays, not one: rfft copies an input that overlaps its `out`.
    np.fft.rfft(windowed, out=transform)
    mags = np.abs(transform)
    mags *= 2.0 / total
    mags[0] *= 0.5  # DC has no mirror
    if n % 2 == 0:
        mags[-1] *= 0.5  # neither does Nyquist for even n
    return Spectrum(
        frequencies=_frequencies(n, rec.sample_rate),
        magnitudes=mags,
        resolution=rec.sample_rate / n,
        window=window,
    )


def mean_spectrum(specs: list[Spectrum]) -> Spectrum:
    """Bin-wise arithmetic mean of linear magnitudes over a shared grid."""
    if not specs:
        raise ValueError("mean_spectrum needs at least one spectrum")
    first = specs[0]
    for s in specs[1:]:
        if s.frequencies.shape != first.frequencies.shape or not np.allclose(
            s.frequencies, first.frequencies, rtol=1e-12, atol=0.0
        ):
            raise SpectrumGridError(
                "spectra use different frequency grids; record length or rate differs"
            )
    window = first.window if all(s.window == first.window for s in specs) else "mixed"
    mags = np.mean([s.magnitudes for s in specs], axis=0)
    return Spectrum(
        frequencies=first.frequencies,
        magnitudes=mags,
        resolution=first.resolution,
        window=window,
    )


def band_auc(spec: Spectrum, band: tuple[float, float]) -> float:
    """Trapezoidal integral of linear magnitude over [band[0], band[1]] Hz.

    Band edges between bins are linearly interpolated, which makes the
    integral exactly additive over adjacent bands.
    """
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must satisfy low < high, got [{lo}, {hi}]")
    if lo < 0 or hi > spec.nyquist:
        raise ValueError(
            f"band [{lo}, {hi}] outside spectrum range [0, {spec.nyquist}]"
        )
    f, m = spec.frequencies, spec.magnitudes
    inner = (f > lo) & (f < hi)
    xs = np.concatenate(([lo], f[inner], [hi]))
    ys = np.concatenate(([np.interp(lo, f, m)], m[inner], [np.interp(hi, f, m)]))
    return float(np.trapezoid(ys, xs))


def dominant_frequency(spec: Spectrum, search_band: tuple[float, float]) -> tuple[float, float]:
    """(frequency Hz, amplitude dB) of the strongest bin in the band.

    The peak is refined by a parabola through the three bins around the
    maximum (shift clamped to half a bin); exact ties resolve to the
    lower frequency.
    """
    lo, hi = search_band
    if not lo < hi:
        raise ValueError(f"band must satisfy low < high, got [{lo}, {hi}]")
    f, m = spec.frequencies, spec.magnitudes
    mask = (f >= lo) & (f <= hi)
    if not np.any(mask):
        raise ValueError(f"band [{lo}, {hi}] contains no spectrum bins")
    indices = np.flatnonzero(mask)
    k = int(indices[np.argmax(m[indices])])

    freq = float(f[k])
    amp = float(m[k])
    if 0 < k < f.size - 1:
        alpha, beta, gamma = float(m[k - 1]), float(m[k]), float(m[k + 1])
        denom = alpha - 2.0 * beta + gamma
        if denom != 0.0:
            delta = 0.5 * (alpha - gamma) / denom
            delta = max(-0.5, min(0.5, delta))
            freq = float(f[k]) + delta * spec.resolution
            amp = beta - 0.25 * (alpha - gamma) * delta

    if amp <= 0.0:
        return (freq, -math.inf)
    return (freq, 20.0 * math.log10(amp / REFERENCE_AMPLITUDE))


@dataclass(frozen=True)
class AucEntry:
    """Band AUC of one recording, with its grouping labels."""

    microphone: str
    fingerprint_material: str
    auc: float
    object: str | None = None
    repetition: int | None = None

    def __post_init__(self):
        if self.auc < 0:
            raise ValueError(f"auc must be >= 0, got {self.auc}")


@dataclass(frozen=True)
class GroupStats:
    count: int
    mean_auc: float
    normalized_mean: float
    normalized_std: float


@dataclass(frozen=True)
class AucReport:
    """Per-group AUC statistics normalized against the baseline skin.

    Normalization is per microphone: every group's AUC is divided by that
    microphone's baseline-group mean, so the baseline group's normalized
    mean is exactly 1.0.
    """

    band: tuple[float, float]
    baseline_material: str
    baseline_mean: dict[str, float]
    groups: dict[tuple[str, str], GroupStats]
    by_object: dict[tuple[str, str, str], GroupStats]
    entries: tuple[AucEntry, ...]


def _group_stats(aucs: np.ndarray, baseline: float) -> GroupStats:
    normalized = aucs / baseline
    return GroupStats(
        count=int(aucs.size),
        mean_auc=float(np.mean(aucs)),
        normalized_mean=float(np.mean(aucs)) / baseline,
        normalized_std=float(np.std(normalized)),
    )


def normalize_against_baseline(
    entries: list[AucEntry],
    baseline_material: str = BASELINE_MATERIAL,
    band: tuple[float, float] = DEFAULT_ANALYSIS_BAND,
) -> AucReport:
    """Group AUC entries by (microphone, material) and normalize per microphone.

    Every microphone present must have at least one baseline entry
    (fingerprint_material == baseline_material); otherwise BaselineError.
    """
    if not entries:
        raise ValueError("no AUC entries to normalize")

    # One pass: AUCs per group and per object, each list in entry order.
    group_aucs: dict[tuple[str, str], list[float]] = {}
    object_aucs: dict[tuple[str, str, str], list[float]] = {}
    for e in entries:
        group_aucs.setdefault((e.microphone, e.fingerprint_material), []).append(e.auc)
        if e.object is not None:
            object_aucs.setdefault(
                (e.microphone, e.fingerprint_material, e.object), []
            ).append(e.auc)

    baseline_mean: dict[str, float] = {}
    for mic in sorted({mic for mic, _ in group_aucs}):
        base = group_aucs.get((mic, baseline_material))
        if not base:
            raise BaselineError(
                f"microphone {mic!r} has no '{baseline_material}' baseline group"
            )
        mean = float(np.mean(base))
        if mean <= 0:
            raise BaselineError(
                f"microphone {mic!r}: baseline mean AUC is {mean}, cannot normalize"
            )
        baseline_mean[mic] = mean

    groups = {
        key: _group_stats(np.array(group_aucs[key]), baseline_mean[key[0]])
        for key in sorted(group_aucs)
    }
    by_object = {
        key: _group_stats(np.array(object_aucs[key]), baseline_mean[key[0]])
        for key in sorted(object_aucs)
    }

    return AucReport(
        band=band,
        baseline_material=baseline_material,
        baseline_mean=baseline_mean,
        groups=groups,
        by_object=by_object,
        entries=tuple(entries),
    )


def write_spectrum_csv(spec: Spectrum, path: str | Path) -> None:
    """Columns: frequency_hz, magnitude, amplitude_db."""
    rows = zip(spec.frequencies.tolist(), spec.magnitudes.tolist(), spec.amplitudes_db.tolist())
    with Path(path).open("w", newline="") as fh:
        fh.write("frequency_hz,magnitude,amplitude_db\r\n")
        fh.writelines(f"{f!r},{m!r},{db!r}\r\n" for f, m, db in rows)


def write_auc_csv(report: AucReport, path: str | Path) -> None:
    """Per-recording AUCs.  Columns: microphone, fingerprint_material,
    object, repetition, auc, normalized."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["microphone", "fingerprint_material", "object", "repetition", "auc", "normalized"]
        )
        for e in report.entries:
            writer.writerow(
                [
                    e.microphone,
                    e.fingerprint_material,
                    e.object or "",
                    e.repetition if e.repetition is not None else "",
                    repr(e.auc),
                    repr(e.auc / report.baseline_mean[e.microphone]),
                ]
            )


def report_to_json_dict(report: AucReport) -> dict:
    """JSON-ready summary keyed microphone -> material -> stats (+ objects)."""
    mics: dict = {
        mic: {"baseline_mean_auc": report.baseline_mean[mic], "groups": {}}
        for mic in sorted(report.baseline_mean)
    }
    # vars() copies the four stats fields; asdict's deep copy costs ~10x per group.
    for (mic, mat), stats in sorted(report.groups.items()):
        mics[mic]["groups"][mat] = {**vars(stats), "by_object": {}}
    for (mic, mat, obj), stats in sorted(report.by_object.items()):
        mics[mic]["groups"][mat]["by_object"][obj] = dict(vars(stats))
    return {
        "band_hz": list(report.band),
        "baseline_material": report.baseline_material,
        "microphones": mics,
    }
