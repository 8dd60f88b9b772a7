"""Feasibility search, sweeps, and segment layouts."""

import csv
from dataclasses import replace

import numpy as np
import pytest

import vibroprint as vp
from vibroprint import floatrepr
from vibroprint.cli import run
from vibroprint.errors import EmptyRegionError, LayoutError
from vibroprint.units import m_to_mm, mm_to_m

BAND = vp.MIC_LOW_BAND
STEP = mm_to_m(0.1)


def mm_pair(values):
    return tuple(round(m_to_mm(v), 9) for v in values)


def scan_then_pick(constraints, caps=None):
    """The layouts a `design` run picks: one scan, then the pick from its region."""
    region = vp.feasible_region(constraints, STEP)
    return vp.segment_layouts(region, constraints.max_length_per_segment if caps is None else caps)


# ---------------------------------------------------------------------------
# feasible_region


def test_rigid_reference_ranges_fully_feasible(materials):
    for name in ("PLA", "ST45B"):
        region = vp.feasible_region(vp.reference_design_constraints(materials[name]), STEP)
        assert len(region.grid) == 49  # full 7 x 7 rectangle
        assert mm_pair(region.side_envelope) == (0.4, 1.0)
        assert mm_pair(region.length_envelope) == (3.4, 4.0)


def test_flexible_reference_ranges_fully_feasible(materials):
    region = vp.feasible_region(vp.reference_design_constraints(materials["TPU"]), STEP)
    assert len(region.grid) == 49
    assert mm_pair(region.side_envelope) == (2.0, 2.6)
    assert mm_pair(region.length_envelope) == (1.4, 2.0)


def test_every_kept_point_is_in_band(materials):
    region = vp.feasible_region(vp.reference_design_constraints(materials["PLA"]), STEP)
    for p in region.grid:
        assert BAND.low <= p.freq_low and p.freq_high <= BAND.high


def test_envelopes_are_attained(materials):
    region = vp.feasible_region(vp.reference_design_constraints(materials["TPU"]), STEP)
    sides = {p.side for p in region.grid}
    lengths = {p.length for p in region.grid}
    assert region.side_envelope[0] in sides and region.side_envelope[1] in sides
    assert region.length_envelope[0] in lengths and region.length_envelope[1] in lengths


def test_degenerate_band_reports_nearest_miss(materials):
    constraints = vp.DesignConstraints(
        material=materials["ST45B"],
        printer=vp.default_printer_constraints(),
        target_band=(17000.0, 17000.0),
        side_range=(mm_to_m(0.4), mm_to_m(1.0)),
        length_range=(mm_to_m(3.4), mm_to_m(4.0)),
    )
    with pytest.raises(EmptyRegionError) as excinfo:
        vp.feasible_region(constraints, STEP)
    err = excinfo.value
    assert err.nearest_side > 0 and err.nearest_length > 0
    assert err.distance > 0
    lo, hi = err.nearest_frequency
    assert lo <= hi
    assert "closest miss" in str(err)


def test_band_enlargement_is_monotone(materials):
    c_small = vp.reference_design_constraints(
        materials["ST45B"], target_band=(8000.0, 15000.0)
    )
    c_big = vp.reference_design_constraints(materials["ST45B"], target_band=(BAND.low, BAND.high))
    small = vp.feasible_region(c_small, STEP)
    big = vp.feasible_region(c_big, STEP)
    small_pts = {(p.side, p.length) for p in small.grid}
    big_pts = {(p.side, p.length) for p in big.grid}
    assert small_pts <= big_pts


def test_grid_refinement_shifts_envelopes_at_most_one_coarse_step(materials):
    # A band that clips the rectangle so the envelope actually moves.
    band = (8000.0, 18000.0)
    constraints = vp.reference_design_constraints(materials["ST45B"], target_band=band)
    coarse = vp.feasible_region(constraints, STEP)
    fine = vp.feasible_region(constraints, STEP / 2.0)
    for axis in ("side_envelope", "length_envelope"):
        c_lo, c_hi = getattr(coarse, axis)
        f_lo, f_hi = getattr(fine, axis)
        assert f_lo <= c_lo + 1e-12 and f_hi >= c_hi - 1e-12  # refinement only grows
        assert c_lo - f_lo <= STEP + 1e-12
        assert f_hi - c_hi <= STEP + 1e-12


def test_grid_step_validation(materials):
    constraints = vp.reference_design_constraints(materials["ST45B"])
    with pytest.raises(ValueError):
        vp.feasible_region(constraints, 0.0)
    with pytest.raises(ValueError):
        vp.feasible_region(constraints, mm_to_m(2.0))


def test_constraints_validation(materials):
    printer = vp.default_printer_constraints()
    with pytest.raises(ValueError, match="printable width"):
        vp.DesignConstraints(
            material=materials["ST45B"],
            printer=printer,
            target_band=(BAND.low, BAND.high),
            side_range=(mm_to_m(0.2), mm_to_m(1.0)),
            length_range=(mm_to_m(3.4), mm_to_m(4.0)),
        )
    with pytest.raises(ValueError):
        vp.DesignConstraints(
            material=materials["ST45B"],
            printer=printer,
            target_band=(BAND.low, BAND.high),
            side_range=(mm_to_m(1.0), mm_to_m(0.4)),
            length_range=(mm_to_m(3.4), mm_to_m(4.0)),
        )
    with pytest.raises(ValueError):
        vp.DesignConstraints(
            material=materials["ST45B"],
            printer=printer,
            target_band=(26000.0, 3200.0),
            side_range=(mm_to_m(0.4), mm_to_m(1.0)),
            length_range=(mm_to_m(3.4), mm_to_m(4.0)),
        )


@pytest.mark.parametrize("axis", ["side_range", "length_range"])
def test_range_bounds_must_be_finite(materials, axis):
    ranges = {"side_range": (mm_to_m(0.4), mm_to_m(1.0)), "length_range": (mm_to_m(3.4), mm_to_m(4.0))}
    ranges[axis] = (ranges[axis][0], float("inf"))
    with pytest.raises(ValueError, match=f"{axis} must be non-empty, positive and finite"):
        vp.DesignConstraints(
            material=materials["ST45B"],
            printer=vp.default_printer_constraints(),
            target_band=(BAND.low, BAND.high),
            **ranges,
        )


@pytest.mark.parametrize("step", [float("nan"), float("inf"), -float("inf")])
def test_grid_step_must_be_finite(materials, step):
    constraints = vp.reference_design_constraints(materials["ST45B"])
    with pytest.raises(ValueError, match="grid_step must be positive"):
        vp.feasible_region(constraints, step)


def test_cli_rejects_nan_grid_step(tmp_path, capsys):
    argv = ["design", "--material", "ST45B", "--grid-step-mm", "nan", "--output-dir", str(tmp_path)]
    assert run(argv) == 1
    assert "grid_step must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("band", [(3200.0, float("nan")), (float("nan"), 26000.0)])
def test_nan_band_is_rejected(materials, band):
    with pytest.raises(ValueError, match="low <= high"):
        vp.DesignConstraints(
            material=materials["ST45B"],
            printer=vp.default_printer_constraints(),
            target_band=band,
            side_range=(mm_to_m(0.4), mm_to_m(1.0)),
            length_range=(mm_to_m(3.4), mm_to_m(4.0)),
        )


# ---------------------------------------------------------------------------
# Scalar oracle: the per-cell scan, one BeamSpec and frequency_bounds call per cell


def scalar_scan(constraints, step):
    """(kept cells in side-major order, (miss, cell) of the first strictly smallest miss)."""
    band_lo, band_hi = constraints.target_band
    kept, nearest = [], None
    for side in vp.design._axis_grid(*constraints.side_range, step):
        for length in vp.design._axis_grid(*constraints.length_range, step):
            beam = vp.BeamSpec(constraints.material, vp.CrossSection.square(float(side)), float(length))
            f_lo, f_hi = vp.frequency_bounds(beam, 1)
            cell = (float(side), float(length), f_lo, f_hi)
            miss = max(band_lo - f_lo, f_hi - band_hi, 0.0)
            if miss == 0.0:
                kept.append(cell)
            elif nearest is None or miss < nearest[0]:
                nearest = (miss, cell)
    return kept, nearest


ORACLE_STEP = mm_to_m(0.01)
CLIPPED_BAND = (8000.0, 18000.0)


def region_cells(region):
    cells = region.grid.tolist()
    assert all(type(v) is float for cell in cells for v in cell)
    return cells


@pytest.mark.parametrize("name", ["PLA", "ST45B", "TPU"])
def test_scan_matches_scalar_oracle_exactly(materials, name):
    for constraints in (
        vp.reference_design_constraints(materials[name]),
        vp.reference_layout_constraints(materials[name]),
    ):
        kept, _ = scalar_scan(constraints, ORACLE_STEP)
        assert region_cells(vp.feasible_region(constraints, ORACLE_STEP)) == kept


def test_clipped_band_matches_scalar_oracle_exactly(materials):
    constraints = vp.reference_layout_constraints(materials["ST45B"], target_band=CLIPPED_BAND)
    kept, nearest = scalar_scan(constraints, ORACLE_STEP)
    region = vp.feasible_region(constraints, ORACLE_STEP)
    assert nearest is not None  # the band clips the grid, so the mask drops cells
    assert region_cells(region) == kept
    sides = [cell[0] for cell in kept]
    lengths = [cell[1] for cell in kept]
    assert region.side_envelope == (min(sides), max(sides))
    assert region.length_envelope == (min(lengths), max(lengths))


def test_kept_lengths_are_the_closed_form_interval(materials):
    # Solid square: f1 = c * side / length^2, so a side keeps exactly the lengths in
    # [sqrt(c_high * side / band_high), sqrt(c_low * side / band_low)], one contiguous run.
    constraints = vp.reference_layout_constraints(materials["PLA"], target_band=CLIPPED_BAND)
    c_low, c_high = vp.frequency_bounds(vp.BeamSpec(materials["PLA"], vp.CrossSection.square(1.0), 1.0))
    region = vp.feasible_region(constraints, ORACLE_STEP)
    lengths = list(vp.design._axis_grid(*constraints.length_range, ORACLE_STEP))
    by_side = {}
    for p in region.grid:
        by_side.setdefault(p.side, []).append(lengths.index(p.length))
    assert len(by_side) > 1
    for side, index in by_side.items():
        assert index == list(range(index[0], index[-1] + 1))
        shortest = (c_high * side / CLIPPED_BAND[1]) ** 0.5
        longest = (c_low * side / CLIPPED_BAND[0]) ** 0.5
        inside = [i for i, length in enumerate(lengths) if shortest < length < longest]
        assert set(inside) <= set(index)
        assert index[0] >= inside[0] - 1 and index[-1] <= inside[-1] + 1


def test_band_edge_on_a_cell_keeps_that_cell(materials):
    # ST45B has a point density, so a degenerate band at one cell's computed
    # frequency has miss == 0.0 exactly there.
    constraints = vp.reference_design_constraints(materials["ST45B"])
    side = float(vp.design._axis_grid(*constraints.side_range, STEP)[3])
    length = float(vp.design._axis_grid(*constraints.length_range, STEP)[3])
    beam = vp.BeamSpec(materials["ST45B"], vp.CrossSection.square(side), length)
    f, _ = vp.frequency_bounds(beam)
    constraints = replace(constraints, target_band=(f, f))
    kept, _ = scalar_scan(constraints, STEP)
    region = vp.feasible_region(constraints, STEP)
    assert (side, length, f, f) in region_cells(region)
    assert region_cells(region) == kept


def test_nearest_miss_matches_scalar_oracle(materials):
    constraints = vp.DesignConstraints(
        material=materials["ST45B"],
        printer=vp.default_printer_constraints(),
        target_band=(17000.0, 17000.0),
        side_range=(mm_to_m(0.4), mm_to_m(1.0)),
        length_range=(mm_to_m(3.4), mm_to_m(4.0)),
    )
    kept, (miss, (side, length, f_lo, f_hi)) = scalar_scan(constraints, STEP)
    assert kept == []
    with pytest.raises(EmptyRegionError) as excinfo:
        vp.feasible_region(constraints, STEP)
    err = excinfo.value
    assert (err.nearest_side, err.nearest_length) == (side, length)
    assert err.nearest_frequency == (f_lo, f_hi)
    assert err.distance == miss
    assert all(type(v) is float for v in (err.nearest_side, err.nearest_length, err.distance))


def test_nearest_miss_tie_goes_to_the_first_cell(materials):
    # f1 ~ side / length^2 and scaling by powers of two is exact, so the corner
    # cells (0.5, 2.0) and (2.0, 4.0) mm share one frequency bit for bit.
    material = materials["ST45B"]
    first = vp.BeamSpec(material, vp.CrossSection.square(mm_to_m(0.5)), mm_to_m(2.0))
    last = vp.BeamSpec(material, vp.CrossSection.square(mm_to_m(2.0)), mm_to_m(4.0))
    f, _ = vp.frequency_bounds(first)
    assert vp.frequency_bounds(last) == (f, f)
    constraints = vp.DesignConstraints(
        material=material,
        printer=vp.default_printer_constraints(),
        target_band=(1.001 * f, 1.001 * f),
        side_range=(mm_to_m(0.5), mm_to_m(2.0)),
        length_range=(mm_to_m(2.0), mm_to_m(4.0)),
    )
    step = mm_to_m(0.5)
    _, (miss, (side, length, _, _)) = scalar_scan(constraints, step)
    with pytest.raises(EmptyRegionError) as excinfo:
        vp.feasible_region(constraints, step)
    err = excinfo.value
    assert (err.nearest_side, err.nearest_length) == (side, length) == (first.section.outer, first.length)
    assert err.nearest_frequency == (f, f) and err.distance == miss


# ---------------------------------------------------------------------------
# segment_layouts


RIGID_TABLE = {
    vp.Segment.FINGER_TIP: (1.0, 4.0),
    vp.Segment.FINGER_PHALANX: (1.0, 3.5),
    vp.Segment.THUMB_PHALANX: (1.0, 3.2),
    vp.Segment.PALM: (1.0, 3.5),
}
FLEXIBLE_TABLE = {
    vp.Segment.FINGER_TIP: (2.6, 2.0),
    vp.Segment.FINGER_PHALANX: (2.6, 1.8),
    vp.Segment.THUMB_PHALANX: (2.6, 1.6),
    vp.Segment.PALM: (2.6, 1.8),
}


@pytest.mark.parametrize(
    "material_name, table",
    [("ST45B", RIGID_TABLE), ("PLA", RIGID_TABLE), ("TPU", FLEXIBLE_TABLE)],
)
def test_layouts_reproduce_final_design_table(materials, material_name, table):
    layouts = scan_then_pick(vp.reference_layout_constraints(materials[material_name]))
    assert len(layouts) == 4
    for layout in layouts:
        side_mm, length_mm = table[layout.segment]
        assert m_to_mm(layout.side) == pytest.approx(side_mm, abs=1e-9)
        assert m_to_mm(layout.length) == pytest.approx(length_mm, abs=1e-9)


def test_layout_pitch_is_twice_side(materials):
    for layout in scan_then_pick(vp.reference_layout_constraints(materials["TPU"])):
        assert layout.pitch == 2.0 * layout.side  # exact


def test_layout_frequencies_inside_band(materials):
    for name in ("PLA", "ST45B", "TPU"):
        for layout in scan_then_pick(vp.reference_layout_constraints(materials[name])):
            assert BAND.low <= layout.freq_low
            assert layout.freq_high <= BAND.high


def test_cap_below_length_range_fails_only_that_segment(materials):
    constraints = vp.reference_design_constraints(materials["TPU"])
    caps = {
        vp.Segment.FINGER_TIP: mm_to_m(2.0),
        vp.Segment.FINGER_PHALANX: mm_to_m(1.8),
        vp.Segment.THUMB_PHALANX: mm_to_m(1.0),  # below length_range minimum 1.4
        vp.Segment.PALM: mm_to_m(1.8),
    }
    with pytest.raises(LayoutError) as excinfo:
        scan_then_pick(constraints, caps)
    err = excinfo.value
    assert list(err.segment_errors) == ["ThumbPhalanx"]
    done = {l.segment for l in err.layouts}
    assert done == {vp.Segment.FINGER_TIP, vp.Segment.FINGER_PHALANX, vp.Segment.PALM}


def test_layouts_need_caps(materials):
    with pytest.raises(ValueError, match="caps"):
        scan_then_pick(vp.reference_design_constraints(materials["TPU"]))


# ---------------------------------------------------------------------------
# frequency_sweep


def test_degenerate_length_range_gives_one_row_per_section(materials):
    rows = vp.frequency_sweep(
        materials["ST45B"],
        [vp.CrossSection.square(mm_to_m(1.0)), vp.CrossSection.circle(mm_to_m(1.0))],
        (mm_to_m(3.5), mm_to_m(3.5)),
        steps=10,
    )
    assert len(rows) == 2


def test_sweep_orders_shapes_at_every_length(materials):
    dim = mm_to_m(1.0)
    sections = [
        vp.CrossSection.square(dim),
        vp.CrossSection.hexagon(dim),
        vp.CrossSection.circle(dim),
    ]
    rows = vp.frequency_sweep(materials["ST45B"], sections, (mm_to_m(2.0), mm_to_m(5.0)), 7)
    by_length = {}
    for shape, length, nominal in zip(rows["shape"].tolist(), rows.length.tolist(), rows.freq_nominal.tolist()):
        by_length.setdefault(length, {})[shape] = nominal
    for freqs in by_length.values():
        assert freqs["square"] < freqs["hexagon"] < freqs["circle"]


def test_doubling_lengths_quarters_frequencies(materials):
    section = [vp.CrossSection.square(mm_to_m(1.0))]
    t1 = vp.frequency_sweep(materials["ST45B"], section, (mm_to_m(2.0), mm_to_m(4.0)), 5)
    t2 = vp.frequency_sweep(materials["ST45B"], section, (mm_to_m(4.0), mm_to_m(8.0)), 5)
    for f1, f2 in zip(t1.freq_nominal.tolist(), t2.freq_nominal.tolist()):
        assert f2 == pytest.approx(f1 / 4.0, rel=1e-9)


@pytest.mark.parametrize("name", ["PLA", "ST45B", "TPU"])
@pytest.mark.parametrize("length_range_mm", [(1.4, 4.0), (3.5, 3.5)], ids=["span", "degenerate"])
def test_sweep_matches_per_beam_frequencies_exactly(materials, name, length_range_mm):
    material = materials[name]
    sections = [
        vp.CrossSection.square(mm_to_m(1.0)),
        vp.CrossSection.hexagon(mm_to_m(0.8), mm_to_m(0.4)),
        vp.CrossSection.circle(mm_to_m(0.5)),
    ]
    length_range = tuple(mm_to_m(v) for v in length_range_mm)
    table = vp.frequency_sweep(material, sections, length_range, 9)
    rows = table.tolist()
    lengths = sorted(set(table.length.tolist()))
    assert len(rows) == len(sections) * len(lengths)
    assert len(lengths) == (1 if length_range_mm[0] == length_range_mm[1] else 9)
    for row, (section, length) in zip(rows, ((s, x) for s in sections for x in lengths)):
        beam = vp.BeamSpec(material, section, length)
        shape, dimension, row_length, freq_low, freq_high, freq_nominal = row
        assert (shape, dimension, row_length) == (
            section.shape.value + ("_hollow" if section.hollow else ""),
            section.outer,
            length,
        )
        assert (freq_low, freq_high) == vp.frequency_bounds(beam)
        assert freq_nominal == vp.nominal_frequency(beam)
        assert all(type(v) is float for v in (row_length, freq_low, freq_high, freq_nominal))


def test_sweep_table_is_read_only(materials):
    rows = vp.frequency_sweep(
        materials["PLA"], [vp.CrossSection.square(mm_to_m(1.0))], (mm_to_m(3.0), mm_to_m(4.0)), 3
    )
    assert not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows.freq_low[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        rows["shape"][0] = "circle"


def test_sweep_requires_two_steps(materials):
    with pytest.raises(ValueError):
        vp.frequency_sweep(
            materials["ST45B"], [vp.CrossSection.square(1e-3)], (1e-3, 2e-3), steps=1
        )


# ---------------------------------------------------------------------------
# CSV artifacts


def test_feasible_csv_schema(tmp_path, materials):
    region = vp.feasible_region(vp.reference_design_constraints(materials["TPU"]), STEP)
    path = tmp_path / "grid.csv"
    vp.design.write_feasible_csv(region, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["side_mm", "length_mm", "frequency_hz_min", "frequency_hz_max"]
    assert len(rows) == 1 + len(region.grid)


# Six reference-feasible cells per material: PLA has a density range, so each
# cell's two frequencies differ; ST45B and TPU have a point density, so they
# are equal.
FEASIBLE_PIN = {
    "PLA": ((0.9, 1.0), (3.4, 3.6), [
        "0.9,3.4,18354.319795894145,18895.40504924389",
        "0.9,3.5,17320.484640043782,17831.09243830689",
        "0.9,3.6,16371.600064856195,16854.234750714455",
        "1,3.4,20393.688662104607,20994.894499159876",
        "1,3.5,19244.98293338198,19812.324931452098",
        "1,3.6,18190.666738729105,18726.927500793845",
    ]),
    "ST45B": ((0.9, 1.0), (3.8, 4.0), [
        "0.9,3.8,12998.102338303133,12998.102338303133",
        "0.9,3.9,12340.078748527103,12340.078748527103",
        "0.9,4,11730.787360318578,11730.787360318578",
        "1,3.8,14442.33593144793,14442.33593144793",
        "1,3.9,13711.19860947456,13711.19860947456",
        "1,4,13034.208178131752,13034.208178131752",
    ]),
    "TPU": ((2.4, 2.6), (1.9, 2.0), [
        "2.4,1.9,9224.134781297324,9224.134781297324",
        "2.4,2,8324.781640120835,8324.781640120835",
        "2.5,1.9,9608.473730518046,9608.473730518046",
        "2.5,2,8671.647541792536,8671.647541792536",
        "2.6,1.9,9992.81267973877,9992.81267973877",
        "2.6,2,9018.513443464239,9018.513443464239",
    ]),
}


@pytest.mark.parametrize("name", sorted(FEASIBLE_PIN))
def test_feasible_csv_bytes_are_pinned(tmp_path, materials, name):
    sides_mm, lengths_mm, rows = FEASIBLE_PIN[name]
    constraints = replace(
        vp.reference_design_constraints(materials[name]),
        side_range=tuple(mm_to_m(v) for v in sides_mm),
        length_range=tuple(mm_to_m(v) for v in lengths_mm),
    )
    path = tmp_path / "grid.csv"
    vp.design.write_feasible_csv(vp.feasible_region(constraints, STEP), path)
    header = "side_mm,length_mm,frequency_hz_min,frequency_hz_max"
    assert path.read_bytes() == "".join(line + "\r\n" for line in [header, *rows]).encode()


def chunk_input(materials, name):
    """(writer, table, data rows) for one input of the chunk test below."""
    if name == "sweep":
        # A banded sweep: its band rows follow the last chunk.
        rows = vp.frequency_sweep(materials["PLA"], SWEEP_PIN_SECTIONS, (mm_to_m(3.0), mm_to_m(4.0)), 7)
        return lambda rows, path: vp.design.write_sweep_csv(rows, path, BAND), rows, len(rows)
    if name == "spectrum":
        samples = np.sin(2 * np.pi * 9000.0 * np.arange(1000) / 48000.0)
        spec = vp.spectrum(vp.Recording(samples, 48000.0), "hann")
        return vp.signals.write_spectrum_csv, spec, spec.frequencies.size
    region = vp.feasible_region(vp.reference_design_constraints(materials[name]), STEP)
    return vp.design.write_feasible_csv, region, len(region.grid)


@pytest.mark.parametrize("name", ["TPU", "PLA", "sweep", "spectrum"])
def test_feasible_csv_chunks_match_one_pass(tmp_path, monkeypatch, materials, name):
    write, table, rows = chunk_input(materials, name)
    assert rows % 5 and rows < vp.units._CSV_CHUNK_ROWS
    write(table, tmp_path / "whole.csv")
    monkeypatch.setattr(vp.units, "_CSV_CHUNK_ROWS", 5)
    write(table, tmp_path / "chunked.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_sweep_csv_schema_and_annotations(tmp_path, materials):
    table = vp.frequency_sweep(
        materials["ST45B"],
        [vp.CrossSection.square(mm_to_m(1.0))],
        (mm_to_m(3.0), mm_to_m(4.0)),
        3,
    )
    path = tmp_path / "sweep.csv"
    vp.design.write_sweep_csv(table, path, BAND)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "row_type",
        "shape",
        "dimension_mm",
        "length_mm",
        "frequency_hz_min",
        "frequency_hz_max",
        "frequency_hz_nominal",
    ]
    labels = [r[0] for r in rows[1:]]
    assert labels.count("series") == 3
    assert labels[-3:] == ["band_low", "band_high", "band_peak"]
    annotation = {r[0]: float(r[6]) for r in rows[-3:]}
    assert annotation == {"band_low": 3200.0, "band_high": 26000.0, "band_peak": 9000.0}


SWEEP_PIN_SECTIONS = [
    vp.CrossSection.square(mm_to_m(1.0)),
    vp.CrossSection.hexagon(mm_to_m(0.8)),
    vp.CrossSection.hexagon(mm_to_m(0.8), mm_to_m(0.4)),
    vp.CrossSection.circle(mm_to_m(0.5)),
]
SWEEP_PIN_HEADER = "row_type,shape,dimension_mm,length_mm,frequency_hz_min,frequency_hz_max,frequency_hz_nominal"
SWEEP_PIN_BAND = ["band_low,,,,,,3200.0", "band_high,,,,,,26000.0", "band_peak,,,,,,9000.0"]
SWEEP_PIN_SPAN = [
    "series,square,1,3,26194.56010376991,26966.77560114313,26572.25605211074",
    "series,square,1,3.5,19244.982933381976,19812.324931452094,19522.47383420381",
    "series,square,1,4,14734.440058370574,15168.81127564301,14946.894029312292",
    "series,hexagon,0.8,3,33133.7888936358,34110.57282010745,33611.54067754553",
    "series,hexagon,0.8,3.5,24343.191840222218,25060.82901069119,24694.19315084977",
    "series,hexagon,0.8,4,18637.756252670133,19187.197211310442,18906.491631119356",
    "series,hexagon_hollow,0.8,3,37044.7021591486,38136.77978860848,37578.84489174556",
    "series,hexagon_hollow,0.8,3.5,27216.515872027536,28018.858620202154,27608.947267404903",
    "series,hexagon_hollow,0.8,4,20837.64496452109,21451.93863109227,21138.100251606877",
    "series,circle,0.5,3,22685.154490823083,23353.912728744323,23012.2487769927",
    "series,circle,0.5,3.5,16666.644115706753,17157.976698669303,16906.958285137494",
    "series,circle,0.5,4,12760.399401087985,13136.575909918683,12944.389937058393",
]


# TPU has a point density: each row's three frequencies are equal.
SWEEP_PIN_TPU_SPAN = [
    "series,square,1,3,1541.6262296520067,1541.6262296520067,1541.6262296520067",
    "series,square,1,3.5,1132.6233523973926,1132.6233523973926,1132.6233523973926",
    "series,square,1,4,867.1647541792538,867.1647541792538,867.1647541792538",
    "series,hexagon,0.8,3,1950.0200745432594,1950.0200745432594,1950.0200745432594",
    "series,hexagon,0.8,3.5,1432.667809868517,1432.667809868517,1432.667809868517",
    "series,hexagon,0.8,4,1096.8862919305834,1096.8862919305834,1096.8862919305834",
    "series,hexagon_hollow,0.8,3,2180.1887220839676,2180.1887220839676,2180.1887220839676",
    "series,hexagon_hollow,0.8,3.5,1601.7713060208741,1601.7713060208741,1601.7713060208741",
    "series,hexagon_hollow,0.8,4,1226.3561561722315,1226.3561561722315,1226.3561561722315",
    "series,circle,0.5,3,1335.087478019061,1335.087478019061,1335.087478019061",
    "series,circle,0.5,3.5,980.8805960956365,980.8805960956365,980.8805960956365",
    "series,circle,0.5,4,750.9867063857216,750.9867063857216,750.9867063857216",
]


@pytest.mark.parametrize(
    "name, length_range_mm, series",
    # The degenerate range keeps each section's 3.5 mm row.
    [
        ("PLA", (3.0, 4.0), SWEEP_PIN_SPAN),
        ("PLA", (3.5, 3.5), SWEEP_PIN_SPAN[1::3]),
        ("TPU", (3.0, 4.0), SWEEP_PIN_TPU_SPAN),
    ],
    ids=["span", "degenerate", "point-density-span"],
)
def test_sweep_csv_bytes_are_pinned(tmp_path, materials, name, length_range_mm, series):
    table = vp.frequency_sweep(materials[name], SWEEP_PIN_SECTIONS, tuple(mm_to_m(v) for v in length_range_mm), 3)
    path = tmp_path / "sweep.csv"
    vp.design.write_sweep_csv(table, path, BAND)
    expected = "".join(line + "\r\n" for line in [SWEEP_PIN_HEADER, *series, *SWEEP_PIN_BAND])
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("number", [np.float64, int], ids=["numpy-floats", "ints"])
def test_a_band_of_numpy_floats_writes_plain_float_text(tmp_path, materials, number):
    """A band built from numpy scalars or ints writes the same tail rows as
    one of Python floats: `3200.0`, not `np.float64(3200.0)` or `3200`."""
    band = vp.SensitivityBand(*(number(v) for v in (3200, 26000, 9000, -30)))
    table = vp.frequency_sweep(materials["PLA"], SWEEP_PIN_SECTIONS, (mm_to_m(3.0), mm_to_m(4.0)), 3)
    path = tmp_path / "sweep.csv"
    vp.design.write_sweep_csv(table, path, band)
    assert path.read_bytes().decode().split("\r\n")[-4:] == [*SWEEP_PIN_BAND, ""]


def test_one_unequal_row_in_a_point_density_chunk_writes_both_values(tmp_path, materials):
    """TPU has a point density, so every row's frequencies are equal.  Change
    row 3: move its freq_high up one ulp, or set its freq_low to 0.0 and its
    freq_high to -0.0, equal as floats but not in bits.  That row must write
    both values, and every other row the one text of its frequency in each
    column."""
    region = vp.feasible_region(vp.reference_design_constraints(materials["TPU"]), STEP)
    table = vp.frequency_sweep(materials["TPU"], SWEEP_PIN_SECTIONS, (mm_to_m(3.0), mm_to_m(4.0)), 3)
    for change in (lambda lo, hi: (lo, np.nextafter(hi, np.inf)), lambda lo, hi: (0.0, -0.0)):
        grid, rows = region.grid.copy(), table.copy()
        for columns in (grid, rows):
            columns.freq_low[3], columns.freq_high[3] = change(columns.freq_low[3], columns.freq_high[3])
        vp.design.write_feasible_csv(replace(region, grid=grid), tmp_path / "grid.csv")
        vp.design.write_sweep_csv(rows, tmp_path / "sweep.csv")

        for name, columns, first in (
            ("grid.csv", (grid.freq_low, grid.freq_high), 2),
            ("sweep.csv", (rows.freq_low, rows.freq_high, rows.freq_nominal), 4),
        ):
            with (tmp_path / name).open() as fh:
                written = [row[first:] for row in list(csv.reader(fh))[1:]]
            assert written == [[repr(v) for v in row] for row in zip(*(c.tolist() for c in columns))]
            assert written[3][1] != written[3][0]
            assert all(len(set(row)) == 1 for i, row in enumerate(written) if i != 3)


@pytest.mark.parametrize("name, per_row", [("TPU", 1), ("PLA", 2), ("sweep", 1)])
def test_equal_float_chunks_are_formatted_once(tmp_path, monkeypatch, materials, name, per_row):
    """TPU has a point density, so its frequency columns share one formatted
    value per row; PLA's differ, so it formats two.  A banded sweep's three
    tail rows format one each."""
    calls = []
    kernel = floatrepr.repr_block

    def counting(values):
        calls.extend(values.tolist())
        return kernel(values)

    monkeypatch.setattr(floatrepr, "repr_block", counting)
    if name == "sweep":
        table = vp.frequency_sweep(materials["TPU"], SWEEP_PIN_SECTIONS, (mm_to_m(3.0), mm_to_m(4.0)), 3)
        vp.design.write_sweep_csv(table, tmp_path / "sweep.csv", BAND)
        rows, tail = len(table), 3
    else:
        region = vp.feasible_region(vp.reference_design_constraints(materials[name]), STEP)
        vp.design.write_feasible_csv(region, tmp_path / "grid.csv")
        rows, tail = len(region.grid), 0
    assert len(calls) == per_row * rows + tail


def test_layout_csv_schema(tmp_path, materials):
    layouts = scan_then_pick(vp.reference_layout_constraints(materials["ST45B"]))
    path = tmp_path / "layouts.csv"
    vp.design.write_layout_csv(layouts, path)
    with path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "segment",
        "side_mm",
        "length_mm",
        "pitch_mm",
        "frequency_hz_min",
        "frequency_hz_max",
    ]
    assert [r[0] for r in rows[1:]] == ["FingerTip", "FingerPhalanx", "ThumbPhalanx", "Palm"]


def test_material_class_split(materials):
    assert vp.material_class(materials["PLA"]) == "rigid"
    assert vp.material_class(materials["ST45B"]) == "rigid"
    assert vp.material_class(materials["TPU"]) == "flexible"
