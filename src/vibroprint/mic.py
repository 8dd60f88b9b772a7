"""Contact microphone response curves and sensitivity-band extraction.

A response curve is a sampled (frequency Hz, amplitude dB) polyline;
interpolation between samples is linear in both axes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import CurveFormatError

FREQUENCY_HEADER = ("frequency_hz", "amplitude_db")

# Amplitude threshold (dB) that defines the microphone's usable bands:
# the mean of its measured amplitude range.
DEFAULT_THRESHOLD_DB = -42.0


@dataclass(frozen=True)
class ResponseCurve:
    """Sampled amplitude curve, strictly increasing in x from x >= 0 Hz."""

    x: np.ndarray
    amplitude_db: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        a = np.asarray(self.amplitude_db, dtype=float)
        if x.ndim != 1 or a.shape != x.shape:
            raise ValueError("x and amplitude_db must be 1-D arrays of equal length")
        if x.size < 2:
            raise ValueError(f"curve needs at least 2 points, got {x.size}")
        if not np.all(np.diff(x) > 0):
            raise ValueError("curve x values must be strictly increasing")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(a))):
            raise ValueError("curve values must be finite")
        if x[0] < 0:
            raise ValueError(f"curve frequencies must be >= 0, got {x[0]}")
        x.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "amplitude_db", a)


@dataclass(frozen=True)
class SensitivityBand:
    """Contiguous interval where the response stays at or above a threshold.

    Requires 0 <= low < high < inf (Hz), the one rule every frequency band
    obeys, and low <= peak_frequency <= high.
    """

    low: float
    high: float
    peak_frequency: float
    peak_amplitude: float

    def __post_init__(self):
        if not 0 <= self.low < self.high < math.inf:  # also rejects NaN
            raise ValueError(f"band needs 0 <= low < high < inf, got [{self.low}, {self.high}] Hz")
        if not self.low <= self.peak_frequency <= self.high:
            raise ValueError("peak_frequency must lie inside the band")


# The microphone's low sensitive band: [3.2, 26] kHz peaking at 9 kHz.
# Used as the default design target.
MIC_LOW_BAND = SensitivityBand(
    low=3200.0, high=26000.0, peak_frequency=9000.0, peak_amplitude=-30.0
)


def sensitive_bands(curve: ResponseCurve, threshold_db: float) -> list[SensitivityBand]:
    """Maximal intervals where the interpolated amplitude >= threshold.

    Band edges falling between samples are located by intersecting the
    segment with the threshold line.  Each band carries its interior peak
    (ties resolved to the lowest frequency).  Zero-width touches are
    dropped.  Returns [] when the whole curve is below threshold.
    """
    if not math.isfinite(threshold_db):
        raise ValueError(f"threshold_db must be finite, got {threshold_db}")
    xs, ys = curve.x, curve.amplitude_db

    # A band opens at the first sample or at a rising crossing, and closes at
    # a falling crossing or at the last sample.
    above = ys >= threshold_db
    seg = np.flatnonzero(above[:-1] != above[1:])
    x0, y0 = xs[seg], ys[seg]
    crossings = x0 + (threshold_db - y0) * (xs[seg + 1] - x0) / (ys[seg + 1] - y0)
    rising = above[seg + 1]
    lows = np.concatenate((xs[:1][above[:1]], crossings[rising]))
    highs = np.concatenate((crossings[~rising], xs[-1:][above[-1:]]))
    # Rounding can carry a falling crossing onto the next rising one; those
    # intervals touch and are one band.
    touch = np.flatnonzero(highs[:-1] >= lows[1:])
    lows, highs = np.delete(lows, touch + 1), np.delete(highs, touch)

    bands = []
    for lo, hi in zip(lows.tolist(), highs.tolist()):
        if not lo < hi:
            continue  # tangent touch, zero measure
        i, j = np.searchsorted(xs, lo, side="left"), np.searchsorted(xs, hi, side="right")
        cand_x = np.concatenate(([lo], xs[i:j], [hi]))
        cand_a = np.concatenate(([np.interp(lo, xs, ys)], ys[i:j], [np.interp(hi, xs, ys)]))
        best = int(np.argmax(cand_a))  # first (lowest-x) maximum
        bands.append(
            SensitivityBand(
                low=lo,
                high=hi,
                peak_frequency=float(cand_x[best]),
                peak_amplitude=float(cand_a[best]),
            )
        )
    return bands


def load_response_curve(path: str | Path) -> ResponseCurve:
    """Read a two-column curve CSV.

    Header must be ``frequency_hz,amplitude_db``; rows sorted ascending
    in frequency.  Lines starting with '#' are comments.
    """
    path = Path(path)
    if not path.is_file():
        raise CurveFormatError(f"curve file not found: {path}")

    try:
        with path.open(newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CurveFormatError(f"cannot decode {path}: {exc}") from None

    rows = []
    kept = [(n, line) for n, line in enumerate(lines, start=1) if not line.lstrip().startswith("#")]
    reader = csv.reader(line for _, line in kept)
    try:
        header = tuple(h.strip() for h in next(reader))
    except StopIteration:
        raise CurveFormatError(f"{path}: empty curve file") from None
    if header != FREQUENCY_HEADER:
        raise CurveFormatError(
            f"{path}: header must be {','.join(FREQUENCY_HEADER)}, got {','.join(header)}"
        )
    for row in reader:
        lineno = kept[reader.line_num - 1][0]
        if not row:
            continue
        if len(row) != 2:
            raise CurveFormatError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
        try:
            rows.append((float(row[0]), float(row[1])))
        except ValueError:
            raise CurveFormatError(f"{path}:{lineno}: non-numeric value {row!r}") from None

    if len(rows) < 2:
        raise CurveFormatError(f"{path}: curve needs at least 2 data rows")
    try:
        return ResponseCurve(*np.array(rows).T)
    except ValueError as exc:
        raise CurveFormatError(f"{path}: {exc}") from exc


def bundled_mic_curve() -> ResponseCurve:
    """The sample contact-microphone frequency response shipped with the
    package.

    This is a synthetic polyline, not measured data: it reproduces the
    documented sensitive bands ([3.2, 26] kHz peaking at 9 kHz and
    [110, 280] kHz peaking at 150 kHz, at the -42 dB threshold) over a
    -70 dB noise floor.
    """
    ref = resources.files("vibroprint").joinpath("data/contact_mic_sample.csv")
    with resources.as_file(ref) as path:
        return load_response_curve(path)
