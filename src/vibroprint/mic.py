"""Contact microphone response curves and sensitivity-band extraction.

A response curve is a sampled (frequency Hz, amplitude dB) polyline;
interpolation between samples is linear in both axes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import CurveDomainError, CurveFormatError

FREQUENCY_HEADER = ("frequency_hz", "amplitude_db")

# Amplitude threshold (dB) that defines the microphone's usable bands:
# the mean of its measured amplitude range.
DEFAULT_THRESHOLD_DB = -42.0


@dataclass(frozen=True)
class ResponseCurve:
    """Sampled amplitude curve, strictly increasing in x."""

    x: np.ndarray
    amplitude_db: np.ndarray
    x_name: str = "frequency_hz"

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
        x.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "amplitude_db", a)

    @classmethod
    def from_points(cls, points, x_name: str = "frequency_hz") -> "ResponseCurve":
        pts = list(points)
        return cls(
            x=np.array([p[0] for p in pts], dtype=float),
            amplitude_db=np.array([p[1] for p in pts], dtype=float),
            x_name=x_name,
        )

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.x[0]), float(self.x[-1]))

    def interpolate(self, at: float) -> float:
        """Linearly interpolated amplitude (dB) at `at`; no extrapolation."""
        lo, hi = self.domain
        if not lo <= at <= hi:
            raise CurveDomainError(
                f"{self.x_name}={at} outside curve domain [{lo}, {hi}]"
            )
        return float(np.interp(at, self.x, self.amplitude_db))


@dataclass(frozen=True)
class SensitivityBand:
    """Contiguous interval where the response stays at or above a threshold."""

    low: float
    high: float
    peak_frequency: float
    peak_amplitude: float

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"band needs low < high, got [{self.low}, {self.high}]")
        if not self.low <= self.peak_frequency <= self.high:
            raise ValueError("peak_frequency must lie inside the band")

    @property
    def width(self) -> float:
        return self.high - self.low


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
    xs = curve.x
    ys = curve.amplitude_db

    # Per-segment sub-intervals where the line is at or above threshold.
    intervals: list[list[float]] = []

    def add(lo: float, hi: float):
        if intervals and intervals[-1][1] >= lo:
            intervals[-1][1] = max(intervals[-1][1], hi)
        else:
            intervals.append([lo, hi])

    for i in range(len(xs) - 1):
        x0, x1 = float(xs[i]), float(xs[i + 1])
        y0, y1 = float(ys[i]), float(ys[i + 1])
        above0 = y0 >= threshold_db
        above1 = y1 >= threshold_db
        if above0 and above1:
            add(x0, x1)
        elif above0 or above1:
            xc = x0 + (threshold_db - y0) * (x1 - x0) / (y1 - y0)
            if above0:
                add(x0, xc)
            else:
                add(xc, x1)

    bands = []
    for lo, hi in intervals:
        if not lo < hi:
            continue  # tangent touch, zero measure
        inside = (xs >= lo) & (xs <= hi)
        cand_x = np.concatenate(([lo], xs[inside], [hi]))
        cand_a = np.concatenate(
            (
                [np.interp(lo, xs, ys)],
                ys[inside],
                [np.interp(hi, xs, ys)],
            )
        )
        order = np.argsort(cand_x, kind="stable")
        cand_x, cand_a = cand_x[order], cand_a[order]
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
        with path.open(newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CurveFormatError(f"cannot decode {path}: {exc}") from None

    rows = []
    reader = csv.reader(line for line in lines if not line.lstrip().startswith("#"))
    try:
        header = tuple(h.strip() for h in next(reader))
    except StopIteration:
        raise CurveFormatError(f"{path}: empty curve file") from None
    if header != FREQUENCY_HEADER:
        raise CurveFormatError(
            f"{path}: header must be {','.join(FREQUENCY_HEADER)}, got {','.join(header)}"
        )
    for lineno, row in enumerate(reader, start=2):
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
        return ResponseCurve.from_points(rows)
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
