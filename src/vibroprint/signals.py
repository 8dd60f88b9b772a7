"""Spectral analysis of vibration recordings.

Magnitude spectra are single-sided and normalized by the window's
coherent gain, so a pure sinusoid of amplitude A lands at bin magnitude
~A regardless of window.  Decibel values are 20*log10(magnitude / REFERENCE_AMPLITUDE).

Area under the curve (AUC) is integrated over *linear* magnitude: the
headline statistic is an amplitude ratio against a baseline skin, and
integrating dB would change its meaning.

`spectra` transforms a stack of recordings of one length and rate with
one window multiply, one `rfft` along the rows and one `abs`, so many
short recordings cost a handful of numpy calls (and of interpreter-lock
releases) rather than a handful each; `spectrum` is its one-row case.
The periodic Hann window (scipy's `get_window("hann", n, fftbins=True)`)
is built with numpy alone, and each window is cached with its coherent
gain per (window, n), so a batch of equal-length recordings builds it
once.  The frequency grid is cached the same way per (n, sample rate),
read-only and shared by every spectrum on that grid.  Each thread keeps
two flat scratch arrays (the windowed samples and their transform) that
grow to the largest stack it has seen and are handed out as (rows, n)
views, so a stack allocates only its results' magnitudes.

`SpectrumMean` is the one bin-wise mean: it adds each spectrum's
magnitudes into a single float64 sum in the order given and divides by
the count once, so a group's mean holds one grid's worth of memory
however many spectra it averages; `mean_spectrum` is its whole-iterable
form.  `band_auc` integrates a stack of spectra on one grid in one call.
The per-recording table is two columns, labels and band AUCs, which
`normalize_against_baseline` groups in one pass: each key's row indices,
in input order.
"""

from __future__ import annotations

import csv
import functools
import math
import threading
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import BaselineError, SpectrumGridError
from .units import write_csv

# 0 dB corresponds to a full-scale unit-amplitude sinusoid.
REFERENCE_AMPLITUDE = 1.0

WINDOWS = ("rectangular", "hann")
DEFAULT_WINDOW = "hann"

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
    """Provenance labels attached to a recording; all optional.

    The one check of label values, for sidecars, manifests and `simulate`
    alike.  A label that is set is a non-empty str, or for force_code and
    repetition an int that is not a bool; microphone is a `Microphone` and
    exploration_procedure a `Procedure` value; force_code is a 12-bit
    controller value in [0, 4095]; repetition is at least 1.  A fault
    raises ValueError naming the label and the value.
    """

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
            if value == "":
                raise ValueError(f"{name} must be a non-empty string, got ''")
        for name, kind in (("microphone", Microphone), ("exploration_procedure", Procedure)):
            value = getattr(self, name)
            try:
                if value is not None:
                    object.__setattr__(self, name, kind(value).value)
            except ValueError:
                allowed = [label.value for label in kind]
                raise ValueError(
                    f"unknown {kind.__name__.lower()} {value!r}; expected one of {allowed}"
                ) from None
        if self.force_code is not None and not 0 <= self.force_code <= 4095:
            raise ValueError(f"force_code must be a 12-bit value in [0, 4095], got {self.force_code}")
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

    @property
    def nyquist(self) -> float:
        """Top bin (Hz) of this recording's spectrum, equal to its `Spectrum.nyquist`."""
        return float(_frequencies(self.samples.size, self.sample_rate)[-1])


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


# Per-thread flat scratch (windowed samples float64, transform complex128),
# grown to the largest stack seen and never shrunk: a fresh pair for each
# stack shape raised analyze's peak memory by several MB.
class _Scratch(threading.local):
    buffers = (np.empty(0), np.empty(0, dtype=complex))


_scratch = _Scratch()


def _scratch_for(rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's scratch as (rows, n) and (rows, n//2 + 1) views."""
    sizes = (rows * n, rows * (n // 2 + 1))
    held = _scratch.buffers
    if held[0].size < sizes[0] or held[1].size < sizes[1]:
        held = _scratch.buffers = (
            np.empty(max(sizes[0], held[0].size)),
            np.empty(max(sizes[1], held[1].size), dtype=complex),
        )
    return (
        held[0][: sizes[0]].reshape(rows, n),
        held[1][: sizes[1]].reshape(rows, n // 2 + 1),
    )


def spectra(recs: list[Recording], window: str = DEFAULT_WINDOW) -> list[Spectrum]:
    """Single-sided amplitude spectra of recordings that share one length and rate.

    The stack is windowed, transformed and rectified with one numpy call
    each, through this thread's scratch.  Each result's `magnitudes` is
    one row of a new (len(recs), n//2 + 1) array and its `frequencies` is
    the cached read-only grid for (n, sample rate); every row equals
    `spectrum` of its recording alone bit for bit.
    """
    if not recs:
        raise ValueError("spectra needs at least one recording")
    n, rate = recs[0].samples.size, recs[0].sample_rate
    for rec in recs[1:]:
        if rec.samples.size != n or rec.sample_rate != rate:
            raise SpectrumGridError(
                f"spectra needs one (samples, sample rate); got ({n}, {rate}) "
                f"and ({rec.samples.size}, {rec.sample_rate})"
            )
    w, total = _window(window, n)
    windowed, transform = _scratch_for(len(recs), n)
    np.stack([rec.samples for rec in recs], out=windowed)
    windowed *= w
    # Two arrays, not one: rfft copies an input that overlaps its `out`.
    np.fft.rfft(windowed, axis=1, out=transform)
    mags = np.abs(transform)
    mags *= 2.0 / total
    mags[:, 0] *= 0.5  # DC has no mirror
    if n % 2 == 0:
        mags[:, -1] *= 0.5  # neither does Nyquist for even n
    frequencies = _frequencies(n, rate)
    return [
        Spectrum(frequencies=frequencies, magnitudes=row, resolution=rate / n, window=window)
        for row in mags
    ]


def spectrum(rec: Recording, window: str = DEFAULT_WINDOW) -> Spectrum:
    """Single-sided amplitude spectrum of the windowed recording.

    The one-row case of `spectra`: `frequencies` is the cached read-only
    grid for (n, sample rate), shared with every other spectrum on it, and
    the window product and the transform go through this thread's scratch,
    so only `magnitudes` is a new full-length array.
    """
    return spectra([rec], window)[0]


class SpectrumMean:
    """Running bin-wise mean of linear magnitudes over one frequency grid.

    `add` checks each spectrum's grid against the first one's (a spectrum
    sharing that grid's array, as every `spectra` result on it does, needs
    no comparison) and adds its
    magnitudes into one float64 sum, in the order given; `spectrum` divides
    that sum by the count once.  It holds one sum, the first grid and the
    count, never the spectra themselves.  For grids of at least 2 bins the
    result equals ``np.mean(np.stack(mags), axis=0)`` bit for bit, because
    numpy also adds the rows of a stack in order and then divides once (a
    single-bin grid would be summed pairwise; `Recording` needs 2 samples,
    so every spectrum has at least 2 bins).
    """

    def __init__(self):
        self._sum: np.ndarray | None = None
        self._count = 0
        # The first spectrum's grid and window; its magnitudes may be a row
        # of a larger stack, so the spectrum itself is not kept.
        self._frequencies = self._resolution = self._window = None

    def add(self, spec: Spectrum) -> None:
        if self._sum is None:
            self._sum = np.array(spec.magnitudes, dtype=float)
            self._frequencies, self._resolution, self._window = (
                spec.frequencies, spec.resolution, spec.window
            )
        else:
            same_grid = spec.frequencies is self._frequencies or (
                spec.frequencies.shape == self._frequencies.shape
                and np.allclose(spec.frequencies, self._frequencies, rtol=1e-12, atol=0.0)
            )
            if not same_grid or spec.magnitudes.shape != self._sum.shape:
                raise SpectrumGridError(
                    "spectra use different frequency grids; record length or rate differs"
                )
            self._sum += spec.magnitudes
            if spec.window != self._window:
                self._window = "mixed"
        self._count += 1

    def spectrum(self) -> Spectrum:
        """The mean so far; its window is the spectra's one window, or "mixed"."""
        if not self._count:
            raise ValueError("mean_spectrum needs at least one spectrum")
        return Spectrum(
            frequencies=self._frequencies,
            magnitudes=self._sum / self._count,
            resolution=self._resolution,
            window=self._window,
        )


def mean_spectrum(specs: Iterable[Spectrum]) -> Spectrum:
    """Bin-wise arithmetic mean of linear magnitudes over a shared grid.

    A `SpectrumMean` over `specs` (a list or any iterable, read once): the
    magnitudes are summed in order and divided by the count once, so a
    generator's spectra are never all held together.
    """
    mean = SpectrumMean()
    for spec in specs:
        mean.add(spec)
    return mean.spectrum()


def _edge(f: np.ndarray, m: np.ndarray, start: int, x: float) -> np.ndarray:
    """np.interp(x, f, row) for each row of `m` (bins start.. of each spectrum) by
    numpy's formula: m[j] if x is on bin j (or below the grid), else slope * (x - f[j]) + m[j]."""
    j = max(int(np.searchsorted(f, x, side="right")) - 1, 0)
    below = m[:, j - start]
    if x <= f[j]:
        return below
    slope = (m[:, j + 1 - start] - below) / (f[j + 1] - f[j])
    return slope * (x - f[j]) + below


def band_auc(spec: Spectrum | Sequence[Spectrum], band: tuple[float, float]) -> float | np.ndarray:
    """Trapezoidal integral of linear magnitude over [band[0], band[1]] Hz.

    `spec` is one spectrum, giving a float, or spectra on one grid (as
    `spectra` returns them), giving a float64 array of one AUC each; one
    spectrum is the one-row case.  The bins strictly inside the band (one
    index range of the ascending grid, found by bisection) and one beyond
    each end are gathered, and the stack is integrated along its last axis.
    Band edges between bins are interpolated by `np.interp`'s formula, which
    makes the integral exactly additive over adjacent bands; for finite
    magnitudes each row equals `np.interp` and `np.trapezoid` of that
    spectrum alone, bit for bit.
    """
    stack = [spec] if isinstance(spec, Spectrum) else spec
    if not stack:
        raise ValueError("band_auc needs at least one spectrum")
    f = stack[0].frequencies
    if any(s.frequencies is not f and not np.array_equal(s.frequencies, f) for s in stack):
        raise SpectrumGridError("band_auc needs spectra on one frequency grid")
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must satisfy low < high, got [{lo}, {hi}]")
    if lo < 0 or hi > f[-1]:
        raise ValueError(f"band [{lo}, {hi}] outside spectrum range [0, {float(f[-1])}]")
    first, last = np.searchsorted(f, lo, side="right"), np.searchsorted(f, hi, side="left")
    start = max(first - 1, 0)
    m = np.stack([s.magnitudes[start : last + 1] for s in stack])
    inner = m[:, first - start : last - start]
    ys = np.column_stack((_edge(f, m, start, lo), inner, _edge(f, m, start, hi)))
    aucs = np.trapezoid(ys, np.concatenate(([lo], f[first:last], [hi])), axis=-1)
    return float(aucs[0]) if isinstance(spec, Spectrum) else aucs


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
    mean is exactly 1.0.  `labels` and `aucs` are the per-recording table.
    """

    baseline_material: str
    baseline_mean: dict[str, float]
    groups: dict[tuple[str, str], GroupStats]
    by_object: dict[tuple[str, str, str], GroupStats]
    labels: tuple[RecordingMeta, ...]
    aucs: np.ndarray


def _group_stats(aucs: np.ndarray, baseline: float) -> GroupStats:
    normalized = aucs / baseline
    return GroupStats(
        count=int(aucs.size),
        mean_auc=float(np.mean(aucs)),
        normalized_mean=float(np.mean(aucs)) / baseline,
        normalized_std=float(np.std(normalized)),
    )


def _grouped(keys: list[tuple], values: np.ndarray) -> dict[tuple, np.ndarray]:
    """Each distinct key's values in input order, keyed in order of first
    appearance: one pass appends each row's index to its key's list."""
    rows: dict[tuple, list[int]] = {}
    for row, key in enumerate(keys):
        rows.setdefault(key, []).append(row)
    return {key: values[index] for key, index in rows.items()}


def normalize_against_baseline(
    labels: Sequence[RecordingMeta],
    aucs: Sequence[float] | np.ndarray,
    baseline_material: str = BASELINE_MATERIAL,
) -> AucReport:
    """Group the per-recording table by (microphone, material) and normalize per microphone.

    The table is two columns: each recording's labels, with microphone and
    fingerprint_material set, and its band AUC (>= 0); a fault in either
    raises ValueError naming it.  Every microphone
    present must have at least one baseline recording (fingerprint_material
    == baseline_material); otherwise BaselineError.
    """
    aucs = np.array(aucs, dtype=float)
    if not labels or aucs.shape != (len(labels),):
        raise ValueError(
            f"need 1 or more labels with one AUC each, got {len(labels)} and AUCs of shape {aucs.shape}"
        )
    if (aucs < 0).any():
        raise ValueError(f"auc must be >= 0, got {aucs.min()}")
    for index, meta in enumerate(labels):
        for name in ("microphone", "fingerprint_material"):
            if getattr(meta, name) is None:
                raise ValueError(
                    f"label {index} has no {name}; each needs microphone and fingerprint_material"
                )

    group_aucs = _grouped([(m.microphone, m.fingerprint_material) for m in labels], aucs)
    object_aucs = _grouped([(m.microphone, m.fingerprint_material, m.object) for m in labels], aucs)

    baseline_mean: dict[str, float] = {}
    for mic in sorted({mic for mic, _ in group_aucs}):
        base = group_aucs.get((mic, baseline_material))
        if base is None:
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
        key: _group_stats(group_aucs[key], baseline_mean[key[0]])
        for key in sorted(group_aucs)
    }
    by_object = {
        key: _group_stats(object_aucs[key], baseline_mean[key[0]])
        for key in sorted(k for k in object_aucs if k[2] is not None)
    }

    return AucReport(
        baseline_material=baseline_material,
        baseline_mean=baseline_mean,
        groups=groups,
        by_object=by_object,
        labels=tuple(labels),
        aucs=aucs,
    )


def write_spectrum_csv(spec: Spectrum, path: str | Path) -> None:
    """Columns: frequency_hz, magnitude, amplitude_db.  Rows are formatted
    by `units.write_csv`."""
    write_csv(
        path, "frequency_hz,magnitude,amplitude_db", [spec.frequencies, spec.magnitudes, spec.amplitudes_db]
    )


def write_auc_csv(report: AucReport, path: str | Path) -> None:
    """Per-recording AUCs.  Columns: microphone, fingerprint_material,
    object, repetition, auc, normalized."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["microphone", "fingerprint_material", "object", "repetition", "auc", "normalized"]
        )
        for meta, auc in zip(report.labels, report.aucs.tolist()):
            writer.writerow(
                [
                    meta.microphone,
                    meta.fingerprint_material,
                    meta.object or "",
                    meta.repetition if meta.repetition is not None else "",
                    repr(auc),
                    repr(auc / report.baseline_mean[meta.microphone]),
                ]
            )


def report_to_json_dict(report: AucReport, band: tuple[float, float]) -> dict:
    """JSON-ready summary keyed microphone -> material -> stats (+ objects),
    with the (low, high) Hz band that the report's AUCs integrate."""
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
        "band_hz": list(band),
        "baseline_material": report.baseline_material,
        "microphones": mics,
    }
