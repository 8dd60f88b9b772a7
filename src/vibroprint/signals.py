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
releases) rather than a handful each, and returns them as one `Spectrum`
stack; `spectrum` is its one-row case.  Its three steps are public
(`window_stack`, `stack_fft`, `stack_spectrum`), so that a caller can run
the FFT on another thread: it is the one long step, and it holds no
interpreter lock while it runs.  A caller that windows its samples itself,
as `analyze` does while it decodes each file into a row, starts at
`windowed_spectra`.  `stack_spectrum` can stop at a top frequency: only
the bins that `band_auc` reads for a band up to it are rectified.
The periodic Hann window (scipy's `get_window("hann", n, fftbins=True)`)
is built with numpy alone, and each window is cached with its coherent
gain per (window, n), so a batch of equal-length recordings builds it
once.  The frequency grid is cached the same way per (n, sample rate),
read-only and shared by every spectrum on that grid.  Each thread keeps
two flat scratch arrays, which grow to the largest stack (or `analyze`
slice) it has seen, are never shrunk and so retain that much memory for
the thread's life: its `StackRows` of windowed samples, which `spectra`
windows into and `analyze` decodes into (`thread_rows`), and the
transform that `windowed_spectra` writes.  Both are handed out as
(rows, n) views, so a stack allocates only its magnitudes.

`SpectrumMean` is the one bin-wise mean: it adds each spectrum's
magnitudes into a single float64 sum in the order given and divides by
the count once, so a group's mean holds one grid's worth of memory
however many spectra it averages; `mean_spectrum` is its whole-iterable
form.  `band_auc` integrates the last axis of what it is given, so a
stack gives one AUC per row in one call.
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
from dataclasses import asdict, dataclass, field, replace
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
    alike.  A label that is set is a non-empty str that UTF-8 can encode
    (a file or a CSV cell may hold it), or for force_code and
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
            if isinstance(value, str):
                try:
                    value.encode()
                except UnicodeEncodeError:
                    raise ValueError(f"{name} must be text that UTF-8 can encode, got {value!r}") from None
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
        check_samples(samples, self.sample_rate)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def nyquist(self) -> float:
        """Top bin (Hz) of this recording's spectrum, equal to its `Spectrum.nyquist`."""
        return top_bin_hz(self.samples.size, self.sample_rate)


def check_samples(samples: np.ndarray, sample_rate: float) -> None:
    """The one check of a recording's values, for `Recording` and for
    samples read straight into a stack row: a 1-D array of at least 2
    samples, all finite (integer samples always are), at a positive finite
    rate.  A fault raises ValueError."""
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("samples must be a 1-D array with at least 2 samples")
    if samples.dtype.kind == "f" and not np.isfinite(samples).all():
        raise ValueError("samples must all be finite")
    if not 0 < sample_rate < math.inf:
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")


@dataclass(frozen=True)
class Spectrum:
    """Single-sided magnitude spectrum on a uniform grid up to Nyquist (or,
    from `stack_spectrum` with a top, up to the first bin at or above it);
    `magnitudes` is one row of bins, or a (rows, bins) stack on that grid."""

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


def top_bin_hz(n: int, sample_rate: float) -> float:
    """Top bin (Hz) of an n-sample spectrum: the Nyquist frequency for even n."""
    return float(_frequencies(n, sample_rate)[-1])


def window_weights(window: str, n: int) -> np.ndarray:
    """The cached read-only window of n samples that `window_stack` multiplies by."""
    return _window(window, n)[0]


class StackRows:
    """Rows of samples written one after another into one flat float64
    buffer, so that consecutive rows of one length form one contiguous
    (rows, n) stack.  `take` hands out the next elements; when they do not
    fit, the buffer grows to at least twice its size, keeping what was taken
    before (so each piece is written before the next `take`).  It is never
    shrunk; `clear` starts again at its first element."""

    def __init__(self):
        self._flat = np.empty(0)
        self._used = 0

    def clear(self) -> StackRows:
        self._used = 0
        return self

    def take(self, size: int) -> np.ndarray:
        """The next `size` elements of the buffer, to be written."""
        end = self._used + size
        if end > self._flat.size:
            flat = np.empty(max(end, 2 * self._flat.size))
            flat[: self._used] = self._flat[: self._used]
            self._flat = flat
        self._used = end
        return self._flat[end - size : end]

    def written(self) -> np.ndarray:
        """Every element taken since the last `clear`, in order."""
        return self._flat[: self._used]


# Per-thread scratch: the rows of windowed samples and a flat complex128
# transform, each grown to the largest stack (or, for `analyze`, slice) seen
# and never shrunk: a fresh pair for each stack shape raised analyze's peak
# memory by several MB.
class _Scratch(threading.local):
    def __init__(self):
        self.rows = StackRows()
        self.transform = np.empty(0, dtype=complex)


_scratch = _Scratch()


def thread_rows() -> StackRows:
    """This thread's `StackRows`, cleared: the scratch that `spectra`
    windows into and that `analyze` decodes each slice into."""
    return _scratch.rows.clear()


def _grid(recs: list[Recording]) -> tuple[int, float]:
    """The (samples, sample rate) that every recording of a stack shares."""
    if not recs:
        raise ValueError("spectra needs at least one recording")
    n, rate = recs[0].samples.size, recs[0].sample_rate
    for rec in recs[1:]:
        if rec.samples.size != n or rec.sample_rate != rate:
            raise SpectrumGridError(
                f"spectra needs one (samples, sample rate); got ({n}, {rate}) "
                f"and ({rec.samples.size}, {rec.sample_rate})"
            )
    return n, rate


def window_stack(
    recs: list[Recording], window: str = DEFAULT_WINDOW, out: np.ndarray | None = None
) -> np.ndarray:
    """The (len(recs), n) stack of the recordings' samples times the window,
    written to `out` when given; the recordings share one length and rate.
    The first of the three steps of `spectra`."""
    w = window_weights(window, _grid(recs)[0])
    stack = np.stack([rec.samples for rec in recs], out=out)
    stack *= w
    return stack


def stack_fft(windowed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`rfft` of each row of `window_stack`'s result, written to `out` when
    given.  The second step of `spectra`: one numpy call, which holds no
    interpreter lock while it runs."""
    # Two arrays, not one: rfft copies an input that overlaps its `out`.
    return np.fft.rfft(windowed, axis=1, out=out)


def stack_spectrum(
    transform: np.ndarray,
    n: int,
    sample_rate: float,
    window: str = DEFAULT_WINDOW,
    top: float | None = None,
) -> Spectrum:
    """The `Spectrum` stack of the n-sample recordings whose `stack_fft` is
    `transform`: its rows rectified into a new magnitudes array and scaled
    by the window's coherent gain.  The last step of `spectra`.

    With `top` (Hz), only the bins up to the first at or above it are
    rectified, and the spectrum ends there: the bins that `band_auc` reads
    for a band up to `top`, equal to the full result's bit for bit.  A
    spectrum that reaches Nyquist has the cached grid itself."""
    _, total = _window(window, n)
    f = _frequencies(n, sample_rate)
    bins = f.size if top is None else min(int(np.searchsorted(f, top)) + 1, f.size)
    mags = np.abs(transform[:, :bins])
    mags *= 2.0 / total
    mags[:, 0] *= 0.5  # DC has no mirror
    if n % 2 == 0 and bins == f.size:
        mags[:, -1] *= 0.5  # neither does Nyquist for even n
    return Spectrum(
        frequencies=f if bins == f.size else f[:bins],
        magnitudes=mags,
        resolution=sample_rate / n,
        window=window,
    )


def windowed_spectra(
    windowed: np.ndarray, sample_rate: float, window: str = DEFAULT_WINDOW, top: float | None = None
) -> Spectrum:
    """`stack_spectrum` (up to `top`, when given) of a (rows, n) stack of
    samples already multiplied by `window`, transformed by `stack_fft` into
    this thread's scratch."""
    rows, n = windowed.shape
    size = rows * (n // 2 + 1)
    if _scratch.transform.size < size:
        _scratch.transform = np.empty(size, dtype=complex)
    transform = _scratch.transform[:size].reshape(rows, n // 2 + 1)
    return stack_spectrum(stack_fft(windowed, out=transform), n, sample_rate, window, top)


def spectra(recs: list[Recording], window: str = DEFAULT_WINDOW) -> Spectrum:
    """Single-sided amplitude spectra of recordings that share one length and rate.

    The stack is windowed, transformed and rectified with one numpy call
    each (`window_stack`, `stack_fft`, `stack_spectrum`), through this
    thread's scratch.  The result is one `Spectrum`: its `magnitudes` is a
    new (len(recs), n//2 + 1) array, one row per recording, and its
    `frequencies` is the cached read-only grid for (n, sample rate); every
    row equals `spectrum` of its recording alone bit for bit.
    """
    n, rate = _grid(recs)
    windowed = thread_rows().take(len(recs) * n).reshape(len(recs), n)
    return windowed_spectra(window_stack(recs, window, out=windowed), rate, window)


def spectrum(rec: Recording, window: str = DEFAULT_WINDOW) -> Spectrum:
    """Single-sided amplitude spectrum of the windowed recording.

    The one-row case of `spectra`: its `magnitudes` is the stack's one
    row, the only new full-length array, and its `frequencies` is the
    cached grid that every other spectrum on (n, sample rate) shares.
    """
    stack = spectra([rec], window)
    return replace(stack, magnitudes=stack.magnitudes[0])


class SpectrumMean:
    """Running bin-wise mean of linear magnitudes over one frequency grid.

    `add` takes one spectrum, checks its grid against the first one's (a
    spectrum sharing that grid's array, as every row of a `spectra` stack
    on it does, needs no comparison) and adds its magnitudes into one
    float64 sum, in the order given; `spectrum` divides that sum by the
    count once.  It holds one sum, the first grid and the count, never the
    spectra themselves.  For grids of at least 2 bins the result equals
    ``np.mean(np.stack(mags), axis=0)`` bit for bit, because numpy also
    adds the rows of a stack in order and then divides once (a single-bin
    grid would be summed pairwise; `Recording` needs 2 samples, so every
    spectrum has at least 2 bins).
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

    A `SpectrumMean` over `specs` (a list or any iterable of single
    spectra, read once): the magnitudes are summed in order and divided by
    the count once, so a generator's spectra are never all held together.
    """
    mean = SpectrumMean()
    for spec in specs:
        mean.add(spec)
    return mean.spectrum()


def _edge(f: np.ndarray, m: np.ndarray, x: float) -> np.ndarray:
    """np.interp(x, f, row) for each row of `m` (the last axis on grid f) by
    numpy's formula: m[j] if x is on bin j (or below the grid), else slope * (x - f[j]) + m[j]."""
    j = max(int(np.searchsorted(f, x, side="right")) - 1, 0)
    below = m[..., j]
    if x <= f[j]:
        return below
    slope = (m[..., j + 1] - below) / (f[j + 1] - f[j])
    return slope * (x - f[j]) + below


def band_auc(spec: Spectrum, band: tuple[float, float]) -> float | np.ndarray:
    """Trapezoidal integral of linear magnitude over [band[0], band[1]] Hz.

    The last axis of `spec.magnitudes` is integrated: one spectrum gives a
    float, a stack (as `spectra` returns it) a float64 array of one AUC per
    row.  The bins strictly inside the band are one index range of the
    ascending grid, found by bisection.  Band edges between bins are
    interpolated by `np.interp`'s formula, which makes the integral exactly
    additive over adjacent bands; for finite magnitudes each row equals
    `np.interp` and `np.trapezoid` of that row alone, bit for bit.
    """
    f, m = spec.frequencies, spec.magnitudes
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must satisfy low < high, got [{lo}, {hi}]")
    if lo < 0 or hi > f[-1]:
        raise ValueError(f"band [{lo}, {hi}] outside spectrum range [0, {float(f[-1])}]")
    first, last = np.searchsorted(f, lo, side="right"), np.searchsorted(f, hi, side="left")
    lo_y, hi_y = (_edge(f, m, x)[..., None] for x in (lo, hi))
    ys = np.concatenate((lo_y, m[..., first:last], hi_y), axis=-1)
    aucs = np.trapezoid(ys, np.concatenate(([lo], f[first:last], [hi])), axis=-1)
    return float(aucs) if m.ndim == 1 else aucs


def dominant_frequency(spec: Spectrum, search_band: tuple[float, float]) -> tuple[float, float]:
    """(frequency Hz, amplitude dB) of the strongest bin of one spectrum in the band.

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
    """One spectrum's columns: frequency_hz, magnitude, amplitude_db.  Rows
    are formatted by `units.write_csv`."""
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
