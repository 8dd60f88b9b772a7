"""Inverse design of the fingerprint beam array.

Searches the (side, length) space of solid square beams so the first
mode lands inside a microphone sensitivity band, subject to the printer's
minimum width (`feasible_region`), then picks each hand segment's beam
under its finger-clearance cap from that one scan (`segment_layouts`),
and produces the plot-ready frequency-vs-length sweep (`frequency_sweep`).

Both tables keep their cells as columns: one read-only numpy record array
filled from a single `beams.modal_frequencies` call.  Their CSV writers,
and the layouts', hand those columns to `units.write_csv`, which formats
every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .beams import CrossSection, modal_frequencies
from .errors import EmptyRegionError, LayoutError
from .materials import Material, PrinterConstraints, default_printer_constraints
from .mic import MIC_LOW_BAND, SensitivityBand
from .units import hz_to_khz, m_to_mm, mm_to_m, write_csv


class Segment(str, Enum):
    FINGER_TIP = "FingerTip"
    FINGER_PHALANX = "FingerPhalanx"
    THUMB_PHALANX = "ThumbPhalanx"
    PALM = "Palm"


# Per stiffness class: the published search ranges for solid square beams
# (side mm, length mm) and the finger-clearance caps (mm, in Segment order),
# i.e. the longest beam each hand segment can carry without blocking
# flexion.  Rigid covers the GPa-modulus materials (PLA, ST45B); flexible
# covers the MPa-modulus ones (TPU).  The caps are inputs to the layout
# selection, not derived here.
_CLASS_REFERENCE_MM = {
    "rigid": ((0.4, 1.0), (3.4, 4.0), (4.0, 3.5, 3.2, 3.5)),
    "flexible": ((2.0, 2.6), (1.4, 2.0), (2.0, 1.8, 1.6, 1.8)),
}

# Materials stiffer than this are "rigid" for range selection.
_RIGID_MODULUS_THRESHOLD = 100e6

DEFAULT_GRID_STEP = mm_to_m(0.1)

# Cells one design scan or sweep may hold: at a peak of about 113 B per
# design cell and 136 B per sweep row, near 1 GiB.
MAX_SCAN_CELLS = 10**7


def material_class(material: Material) -> str:
    """'rigid' or 'flexible', by Young's modulus."""
    return "rigid" if material.youngs_modulus > _RIGID_MODULUS_THRESHOLD else "flexible"


@dataclass(frozen=True)
class DesignConstraints:
    """Inputs to the feasibility search (SI units).

    `target_band` is a (low, high) Hz pair with 0 <= low <= high < inf; a
    point band low == high keeps only the cells whose first-mode interval
    is exactly that frequency.  `max_length_per_segment` maps Segment ->
    clearance cap (m).
    """

    material: Material
    printer: PrinterConstraints
    target_band: tuple[float, float]
    side_range: tuple[float, float]
    length_range: tuple[float, float]
    max_length_per_segment: dict[Segment, float] | None = None

    def __post_init__(self):
        b_lo, b_hi = self.target_band
        if not 0 <= b_lo <= b_hi < math.inf:  # also rejects NaN
            raise ValueError(f"target band needs 0 <= low <= high < inf, got [{b_lo}, {b_hi}] Hz")
        s_lo, s_hi = self.side_range
        l_lo, l_hi = self.length_range
        if not 0 < s_lo <= s_hi < math.inf:
            raise ValueError(
                f"side_range must be non-empty, positive and finite, got {self.side_range}"
            )
        if not 0 < l_lo <= l_hi < math.inf:
            raise ValueError(
                f"length_range must be non-empty, positive and finite, got {self.length_range}"
            )
        min_side = self.printer.min_side_supported
        if s_lo < min_side:
            raise ValueError(
                f"side_range minimum {s_lo} m is below the printable width {min_side} m"
            )


@dataclass(frozen=True)
class FeasibleRegion:
    """Kept cells as columns: `grid` is a read-only numpy record array with
    fields `side`, `length` (m), `freq_low` and `freq_high` (Hz), one record
    per kept cell in side-major order.  The envelopes are plain floats."""

    grid: np.recarray
    side_envelope: tuple[float, float]
    length_envelope: tuple[float, float]
    grid_step: float


def _axis_points(lo: float, hi: float, step: float) -> float:
    """How many points `_axis_grid` puts on [lo, hi]: a float, inf past float range."""
    span = (hi - lo) / step + 1e-9
    return math.floor(span) + 1.0 if span < math.inf else span


def _axis_grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(_axis_points(lo, hi, step)) - 1
    if abs(lo + n * step - hi) <= 1e-9 * max(hi, step):
        return np.linspace(lo, hi, n + 1)
    return lo + step * np.arange(n + 1)


def feasible_region(constraints: DesignConstraints, grid_step: float = DEFAULT_GRID_STEP) -> FeasibleRegion:
    """Exhaustive grid scan of side x length for solid square beams.

    A cell is kept iff its whole first-mode frequency interval (over the
    material's density bounds) lies inside the target band.  The whole
    grid is one `beams.modal_frequencies` call, so each cell equals the
    per-beam value bit for bit.  Raises EmptyRegionError
    with nearest-miss diagnostics (the first closest cell, side-major) when
    nothing fits.  A grid past MAX_SCAN_CELLS raises ValueError before any
    array is built.
    """
    s_lo, s_hi = constraints.side_range
    l_lo, l_hi = constraints.length_range
    if not 0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    for name, width in (("side_range", s_hi - s_lo), ("length_range", l_hi - l_lo)):
        if width > 0 and grid_step > width:
            raise ValueError(f"grid_step {grid_step} exceeds the {name} width {width}")

    n_side, n_length = _axis_points(s_lo, s_hi, grid_step), _axis_points(l_lo, l_hi, grid_step)
    if n_side * n_length > MAX_SCAN_CELLS:
        name, lo, hi = ("side_range", s_lo, s_hi) if n_side > n_length else ("length_range", l_lo, l_hi)
        raise ValueError(
            f"cannot build the {name} axis [{lo}, {hi}] m at step {grid_step} m: "
            f"{n_side:.4g} sides x {n_length:.4g} lengths = {n_side * n_length:.4g} cells, "
            f"above the {MAX_SCAN_CELLS:.0e} of one scan"
        )

    band_lo, band_hi = constraints.target_band
    sides = _axis_grid(s_lo, s_hi, grid_step)
    lengths = _axis_grid(l_lo, l_hi, grid_step)
    sections = [CrossSection.square(side) for side in sides.tolist()]
    f_lo, f_hi, _ = modal_frequencies(constraints.material, sections, lengths)
    miss = np.maximum(np.maximum(band_lo - f_lo, f_hi - band_hi), 0.0)

    keep = miss == 0.0
    if not keep.any():
        i, j = np.unravel_index(np.argmin(miss), miss.shape)
        side, length = sides[i].item(), lengths[j].item()
        lo, hi, distance = f_lo[i, j].item(), f_hi[i, j].item(), miss[i, j].item()
        raise EmptyRegionError(
            f"no (side, length) grid point lands in [{band_lo}, {band_hi}] Hz; "
            f"closest miss: side {m_to_mm(side):.3g} mm, "
            f"length {m_to_mm(length):.3g} mm at "
            f"[{lo:.4g}, {hi:.4g}] Hz ({distance:.4g} Hz outside)",
            nearest_side=side,
            nearest_length=length,
            nearest_frequency=(lo, hi),
            distance=distance,
        )

    i, j = np.nonzero(keep)
    grid = np.rec.fromarrays(
        [sides[i], lengths[j], f_lo[keep], f_hi[keep]], names="side,length,freq_low,freq_high"
    )
    grid.flags.writeable = False
    return FeasibleRegion(
        grid=grid,
        side_envelope=(grid.side.min().item(), grid.side.max().item()),
        length_envelope=(grid.length.min().item(), grid.length.max().item()),
        grid_step=grid_step,
    )


def frequency_sweep(
    material: Material,
    sections: list[CrossSection],
    length_range: tuple[float, float],
    steps: int,
) -> np.recarray:
    """First-mode frequency of each section over a span of lengths.

    One series per section, `steps` lengths from length_range (collapsed
    to a single row per section when the range is degenerate), all from
    one `modal_frequencies` call.  A table past MAX_SCAN_CELLS rows raises
    ValueError before any array is built.

    Returns the cells as columns: a read-only numpy record array with
    fields `shape` (the section's `label`), `dimension` (side or radius) and
    `length` (m), and `freq_low`, `freq_high` and `freq_nominal` (Hz), one
    record per (section, length) cell in section-major order.  `ndarray.shape`
    hides the first field as an attribute, so read it as ``rows["shape"]``.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    l_lo, l_hi = length_range
    if not 0 < l_lo <= l_hi < math.inf:
        raise ValueError(f"length_range must be positive, finite and ordered, got {length_range}")
    n = 1 if l_lo == l_hi else steps
    if len(sections) * n > MAX_SCAN_CELLS:
        raise ValueError(
            f"steps {n} x {len(sections)} section(s) = {len(sections) * n} rows, "
            f"above the {MAX_SCAN_CELLS:.0e} of one sweep"
        )
    lengths = np.linspace(l_lo, l_hi, n)

    low, high, nominal = modal_frequencies(material, sections, lengths)
    rows = np.rec.fromarrays(
        [
            np.repeat([section.label for section in sections], lengths.size),
            np.repeat([section.outer for section in sections], lengths.size),
            np.tile(lengths, len(sections)),
            low.ravel(),
            high.ravel(),
            nominal.ravel(),
        ],
        names="shape,dimension,length,freq_low,freq_high,freq_nominal",
    )
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class SegmentLayout:
    """Final beam dimensions for one hand segment.

    Beams sit on a pitch (center-to-center spacing) of exactly twice the
    side: the gap between beams equals the beam side.
    """

    segment: Segment
    side: float
    length: float
    freq_low: float
    freq_high: float

    @property
    def pitch(self) -> float:
        return 2.0 * self.side


def segment_layouts(region: FeasibleRegion, caps: dict[Segment, float] | None) -> list[SegmentLayout]:
    """Pick the final beam per segment from a scanned feasible region.

    `caps` maps Segment -> clearance cap (m), as in
    `DesignConstraints.max_length_per_segment`.  Selection: the largest
    feasible side (printability), then per segment the longest feasible
    length not exceeding its clearance cap (longer beams keep the
    frequency low), with a tolerance of a millionth of the region's grid
    step.  Raises LayoutError naming each segment whose cap admits no
    feasible point, with its reason; layouts for the other segments ride
    along on the exception.
    """
    if not caps:
        raise ValueError("no segment clearance caps given")

    grid = region.grid
    tol = region.grid_step * 1e-6
    column = grid[grid.side == grid.side.max()]

    layouts: list[SegmentLayout] = []
    failures: dict[str, str] = {}
    for segment in Segment:
        if segment not in caps:
            continue
        cap = caps[segment]
        fits = column.length <= cap + tol
        if not fits.any():
            failures[segment.value] = (
                f"clearance cap {m_to_mm(cap):.3g} mm admits no feasible length "
                f"(at side {m_to_mm(column.side[0].item()):.2f} mm, "
                f"lengths start at {m_to_mm(column.length.min().item()):.2f} mm)"
            )
            continue
        side, length, f_lo, f_hi = column[np.argmax(np.where(fits, column.length, -np.inf))].tolist()
        layouts.append(SegmentLayout(segment, side, length, f_lo, f_hi))

    if failures:
        raise LayoutError(
            "no feasible beam for segment(s): "
            + "; ".join(f"{name}: {failures[name]}" for name in sorted(failures)),
            segment_errors=failures,
            layouts=tuple(layouts),
        )
    return layouts


def reference_design_constraints(
    material: Material, target_band: tuple[float, float] = (MIC_LOW_BAND.low, MIC_LOW_BAND.high)
) -> DesignConstraints:
    """Published search ranges for the material's stiffness class."""
    sides, lengths, _ = _CLASS_REFERENCE_MM[material_class(material)]
    return DesignConstraints(
        material=material,
        printer=default_printer_constraints(),
        target_band=target_band,
        side_range=(mm_to_m(sides[0]), mm_to_m(sides[1])),
        length_range=(mm_to_m(lengths[0]), mm_to_m(lengths[1])),
    )


def reference_layout_constraints(
    material: Material, target_band: tuple[float, float] = (MIC_LOW_BAND.low, MIC_LOW_BAND.high)
) -> DesignConstraints:
    """Search constraints for the final per-segment layouts.

    Same as the reference ranges, except the length range extends down to
    the smallest clearance cap so capped segments stay reachable (the
    thumb cap of the rigid class sits below the published length range),
    and the class's clearance caps are attached.
    """
    base = reference_design_constraints(material, target_band)
    caps_mm = _CLASS_REFERENCE_MM[material_class(material)][2]
    caps = {seg: mm_to_m(v) for seg, v in zip(Segment, caps_mm)}
    length_lo = min(base.length_range[0], min(caps.values()))
    return replace(
        base,
        length_range=(length_lo, base.length_range[1]),
        max_length_per_segment=caps,
    )


def write_feasible_csv(region: FeasibleRegion, path: str | Path) -> None:
    """Columns: side_mm, length_mm, frequency_hz_min, frequency_hz_max.
    Rows are formatted by `units.write_csv`."""
    grid = region.grid
    write_csv(
        path,
        "side_mm,length_mm,frequency_hz_min,frequency_hz_max",
        [grid.side, grid.length, grid.freq_low, grid.freq_high],
    )


def write_sweep_csv(rows: np.recarray, path: str | Path, band: SensitivityBand | None = None) -> None:
    """Columns: row_type, shape, dimension_mm, length_mm, frequency_hz_min,
    frequency_hz_max, frequency_hz_nominal, for the `frequency_sweep` rows.
    The optional band's annotations appear as row_type
    band_low/band_high/band_peak with the frequency, as a float, in the
    nominal column.  Rows are formatted by `units.write_csv`."""
    notes = () if band is None else (
        ("band_low", band.low), ("band_high", band.high), ("band_peak", band.peak_frequency)
    )
    write_csv(
        path,
        "row_type,shape,dimension_mm,length_mm,frequency_hz_min,frequency_hz_max,frequency_hz_nominal",
        ["series", *(rows[name] for name in rows.dtype.names)],
        tail=[(label, "", "", "", "", "", float(value)) for label, value in notes],
    )


def write_layout_csv(layouts: list[SegmentLayout], path: str | Path) -> None:
    """Columns: segment, side_mm, length_mm, pitch_mm, frequency_hz_min,
    frequency_hz_max.  Rows are formatted by `units.write_csv`."""
    values = np.array([(lay.side, lay.length, lay.pitch, lay.freq_low, lay.freq_high) for lay in layouts])
    write_csv(
        path,
        "segment,side_mm,length_mm,pitch_mm,frequency_hz_min,frequency_hz_max",
        [np.array([layout.segment.value for layout in layouts]), *values.reshape(-1, 5).T],
    )


def layout_report(layouts: list[SegmentLayout]) -> str:
    """Human-readable layout table (mm / kHz)."""
    lines = [
        f"{'segment':<16} {'side mm':>8} {'length mm':>10} {'pitch mm':>9} {'f1 kHz':>16}"
    ]
    for layout in layouts:
        if abs(layout.freq_high - layout.freq_low) < 1e-9:
            freq = f"{hz_to_khz(layout.freq_low):.2f}"
        else:
            freq = f"{hz_to_khz(layout.freq_low):.2f}..{hz_to_khz(layout.freq_high):.2f}"
        lines.append(
            f"{layout.segment.value:<16} {m_to_mm(layout.side):>8.2f} "
            f"{m_to_mm(layout.length):>10.2f} {m_to_mm(layout.pitch):>9.2f} {freq:>16}"
        )
    return "\n".join(lines)
