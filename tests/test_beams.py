"""Cross-section geometry and modal analysis.

Oracles used here are coded independently of the library:
 - polygon second moments by the exact triangulation (shoelace) formula,
 - characteristic-equation roots via scipy brentq on cos(x)cosh(x) + 1,
 - frequencies by direct evaluation of the closed-form modal relation.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import vibroprint as vp
from vibroprint.beams import _fixed_free_root
from vibroprint.units import mm_to_m

MM = 1e-3


# ---------------------------------------------------------------------------
# Oracles


def polygon_second_moment_x(vertices):
    """I about the x-axis for a CCW polygon via the shoelace triangulation."""
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        cross = x0 * y1 - x1 * y0
        total += cross * (y0 * y0 + y0 * y1 + y1 * y1)
    return total / 12.0


def polygon_area(vertices):
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2.0


def hexagon_vertices(side):
    # Circumradius equals the side; flats parallel to the x-axis.
    return [
        (side * math.cos(k * math.pi / 3.0), side * math.sin(k * math.pi / 3.0))
        for k in range(6)
    ]


_BETA_BRACKETS = {1: (0.1, math.pi), 2: (math.pi + 0.1, 2 * math.pi), 3: (2 * math.pi + 0.1, 3 * math.pi)}


def beta_oracle(n):
    """Root of cos(x)cosh(x) = -1 found by an independent solver."""
    lo, hi = _BETA_BRACKETS[n]
    return brentq(lambda x: math.cos(x) * math.cosh(x) + 1.0, lo, hi, xtol=1e-13)


def eq_frequency(e, i, rho, a, length, beta_l):
    """Direct evaluation of the fixed-free modal frequency relation."""
    return beta_l**2 / (2.0 * math.pi) * math.sqrt(e * i / (rho * a * length**4))


# ---------------------------------------------------------------------------
# Section geometry


def test_square_area():
    assert vp.area(vp.CrossSection.square(1 * MM)) == pytest.approx(1.0e-6, rel=1e-12)


def test_circle_area():
    assert vp.area(vp.CrossSection.circle(1 * MM)) == pytest.approx(math.pi * 1e-6, rel=1e-12)


def test_hollow_square_area_is_difference():
    assert vp.area(vp.CrossSection.square(1 * MM, 0.5 * MM)) == pytest.approx(7.5e-7, rel=1e-12)


def test_hexagon_area_matches_polygon_oracle():
    side = 1 * MM
    expected = polygon_area(hexagon_vertices(side))
    assert vp.area(vp.CrossSection.hexagon(side)) == pytest.approx(expected, rel=1e-12)


def test_square_second_moment():
    assert vp.second_moment(vp.CrossSection.square(1 * MM)) == pytest.approx(
        1e-12 / 12.0, rel=1e-12
    )


def test_circle_second_moment():
    assert vp.second_moment(vp.CrossSection.circle(1 * MM)) == pytest.approx(
        math.pi / 4.0 * 1e-12, rel=1e-12
    )


def test_hexagon_second_moment_matches_polygon_oracle():
    side = 1 * MM
    expected = polygon_second_moment_x(hexagon_vertices(side))
    got = vp.second_moment(vp.CrossSection.hexagon(side))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(5.4127e-13, rel=1e-4)  # frozen from the oracle


def test_hollow_second_moment_is_difference():
    outer = vp.second_moment(vp.CrossSection.circle(2 * MM))
    inner = vp.second_moment(vp.CrossSection.circle(1 * MM))
    hollow = vp.second_moment(vp.CrossSection.circle(2 * MM, 1 * MM))
    assert hollow == pytest.approx(outer - inner, rel=1e-12)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: vp.CrossSection.square(0.0),
        lambda: vp.CrossSection.circle(-1e-3),
        lambda: vp.CrossSection.square(1e-3, 1e-3),  # inner == outer
        lambda: vp.CrossSection.hexagon(1e-3, 2e-3),  # inner > outer
        lambda: vp.CrossSection.square(1e-3, 0.0),
    ],
)
def test_invalid_sections_rejected(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: vp.CrossSection.square(v),
        lambda v: vp.CrossSection.circle(v),
        lambda v: vp.BeamSpec(vp.get_material("TPU"), vp.CrossSection.square(1 * MM), v),
    ],
    ids=["square_side", "circle_radius", "beam_length"],
)
def test_non_finite_sizes_rejected(make, value):
    with pytest.raises(ValueError, match="must be positive"):
        make(value)


def test_wall_thickness():
    assert vp.CrossSection.square(1 * MM).wall_thickness is None
    assert vp.CrossSection.square(1 * MM, 0.5 * MM).wall_thickness == pytest.approx(0.25 * MM)
    assert vp.CrossSection.circle(1 * MM, 0.4 * MM).wall_thickness == pytest.approx(0.6 * MM)


# ---------------------------------------------------------------------------
# Mode constants


def test_first_mode_constant_matches_published_value():
    assert vp.mode_constant(1) == pytest.approx(1.875104, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mode_constants_match_independent_solver(n):
    assert vp.mode_constant(n) == pytest.approx(beta_oracle(n), abs=1e-9)


def test_mode_constants_frozen_values():
    assert vp.mode_constant(2) == pytest.approx(4.694091, abs=1e-6)
    assert vp.mode_constant(3) == pytest.approx(7.854757, abs=1e-6)


def test_mode_constant_residual_small():
    # Above mode 6 the residual of this form exceeds 1e-6 for *any* float64
    # root, because a one-ulp error in x is amplified by cosh(x) > 1e8; the
    # roots themselves stay at machine precision (see the solver test).
    for n in range(1, 7):
        x = vp.mode_constant(n)
        assert abs(math.cos(x) * math.cosh(x) + 1.0) < 1e-6


def test_mode_constants_strictly_increasing():
    values = [vp.mode_constant(n) for n in range(1, 12)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_high_mode_roots_approach_asymptote():
    # cos(x) -> -sech(x) pins roots ever closer to (n - 1/2) pi; the solver
    # must not overflow there.
    for n in (10, 50, 300):
        x = vp.mode_constant(n)
        assert x == pytest.approx((n - 0.5) * math.pi, abs=1e-3)


@pytest.mark.parametrize(
    "n", [0, -1, 1.5, "1", 2**53 + 1, 10**400], ids=["0", "-1", "1.5", "1", "2**53+1", "10**400"]
)
def test_mode_constant_rejects_bad_index(n):
    with pytest.raises(ValueError):
        vp.mode_constant(n)


def test_mode_constant_takes_the_highest_index():
    x = vp.mode_constant(2**53)
    assert (2**53 - 1) * math.pi <= x <= 2**53 * math.pi


def test_mode_constant_is_fast():
    _fixed_free_root.cache_clear()
    start = time.perf_counter()
    for n in (1, 2, 3):
        vp.mode_constant(n)
    assert time.perf_counter() - start < 1e-3


# ---------------------------------------------------------------------------
# Natural frequency


def test_st45b_design_point(st45b_beam):
    # square side 1.0 mm, length 3.5 mm
    expected = eq_frequency(2.0e9, 1e-12 / 12.0, 1200.0, 1e-6, 3.5 * MM, beta_oracle(1))
    got = vp.nominal_frequency(st45b_beam, 1)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(1.702e4, rel=1e-3)


def test_tpu_design_point_hits_mic_peak(tpu_beam):
    expected = eq_frequency(9e6, (2.6 * MM) ** 4 / 12.0, 1220.0, (2.6 * MM) ** 2, 2.0 * MM, beta_oracle(1))
    got = vp.nominal_frequency(tpu_beam, 1)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(9.02e3, rel=1e-3)


def test_pla_returns_density_interval(materials):
    beam = vp.BeamSpec(materials["PLA"], vp.CrossSection.square(1 * MM), 4 * MM)
    low, high = vp.frequency_bounds(beam, 1)
    nominal = vp.nominal_frequency(beam, 1)
    i, a = 1e-12 / 12.0, 1e-6
    assert low == pytest.approx(eq_frequency(2.641e9, i, 1240.0, a, 4 * MM, beta_oracle(1)), rel=1e-9)
    assert high == pytest.approx(eq_frequency(2.641e9, i, 1170.0, a, 4 * MM, beta_oracle(1)), rel=1e-9)
    assert low == pytest.approx(1.47e4, rel=1e-2)
    assert high == pytest.approx(1.52e4, rel=1e-2)
    assert low < nominal < high
    grid = vp.modal_frequencies(beam.material, [beam.section], [beam.length])
    assert [f.item() for f in grid] == [low, high, nominal]


def test_inverse_square_length_scaling(st45b_beam):
    f1 = vp.nominal_frequency(st45b_beam, 1)
    doubled = vp.BeamSpec(st45b_beam.material, st45b_beam.section, 2.0 * st45b_beam.length)
    f2 = vp.nominal_frequency(doubled, 1)
    assert f2 == pytest.approx(f1 / 4.0, rel=1e-9)


def test_square_frequency_linear_in_side(materials):
    m = materials["ST45B"]
    f1 = vp.nominal_frequency(vp.BeamSpec(m, vp.CrossSection.square(0.5 * MM), 4 * MM), 1)
    f2 = vp.nominal_frequency(vp.BeamSpec(m, vp.CrossSection.square(1.0 * MM), 4 * MM), 1)
    assert f2 == pytest.approx(2.0 * f1, rel=1e-9)


def test_frequency_monotone_in_material_constants():
    section = vp.CrossSection.square(1 * MM)
    base = vp.Material(name="base", density=1000.0, youngs_modulus=1e9)
    stiffer = vp.Material(name="stiff", density=1000.0, youngs_modulus=2e9)
    denser = vp.Material(name="dense", density=2000.0, youngs_modulus=1e9)
    f = lambda mat: vp.nominal_frequency(vp.BeamSpec(mat, section, 3 * MM), 1)
    assert f(stiffer) > f(base)
    assert f(denser) < f(base)


def test_shape_ordering_and_hollow_property():
    # At equal characteristic dimension the square is lowest, the circle
    # highest; a hollow section beats its solid twin.
    rng = np.random.default_rng(20240)
    for _ in range(200):
        e = 10.0 ** rng.uniform(6.5, 11.0)
        rho = rng.uniform(400.0, 9000.0)
        dim = rng.uniform(0.2, 5.0) * MM
        length = rng.uniform(1.0, 50.0) * MM
        mat = vp.Material(name="r", density=rho, youngs_modulus=e)
        freqs = {
            shape: vp.nominal_frequency(vp.BeamSpec(mat, ctor(dim), length), 1)
            for shape, ctor in (
                ("square", vp.CrossSection.square),
                ("hexagon", vp.CrossSection.hexagon),
                ("circle", vp.CrossSection.circle),
            )
        }
        assert freqs["square"] < freqs["hexagon"] < freqs["circle"]

        inner = dim * rng.uniform(0.2, 0.9)
        solid = vp.nominal_frequency(vp.BeamSpec(mat, vp.CrossSection.square(dim), length), 1)
        hollow = vp.nominal_frequency(
            vp.BeamSpec(mat, vp.CrossSection.square(dim, inner), length), 1
        )
        assert hollow > solid


def test_unit_boundary_path_equivalence(materials):
    # Building the beam from mm-converted values matches SI literals.
    m = materials["ST45B"]
    si = vp.BeamSpec(m, vp.CrossSection.square(0.0013), 0.0037)
    mm = vp.BeamSpec(m, vp.CrossSection.square(mm_to_m(1.3)), mm_to_m(3.7))
    assert vp.nominal_frequency(mm, 1) == pytest.approx(vp.nominal_frequency(si, 1), rel=1e-12)


def test_higher_modes_increase_frequency(st45b_beam):
    f1 = vp.nominal_frequency(st45b_beam, 1)
    f2 = vp.nominal_frequency(st45b_beam, 2)
    b1, b2 = vp.mode_constant(1), vp.mode_constant(2)
    assert f2 == pytest.approx(f1 * (b2 / b1) ** 2, rel=1e-9)


@pytest.mark.parametrize("name", ["PLA", "ST45B", "TPU"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_modal_frequencies_match_scalar_formula_exactly(materials, name, n):
    # The closed form evaluated in Python floats, with the library's own
    # section properties and mode constant: equal bit for bit, not approximately.
    m = materials[name]
    sections = [
        vp.CrossSection.square(0.4 * MM),
        vp.CrossSection.square(2.6 * MM, 1.3 * MM),
        vp.CrossSection.hexagon(0.7 * MM),
        vp.CrossSection.hexagon(1.0 * MM, 0.5 * MM),
        vp.CrossSection.circle(0.35 * MM),
        vp.CrossSection.circle(1.2 * MM, 0.9 * MM),
    ]
    # A numpy grid of lengths, as the design search passes: numpy's array x**4
    # differs from Python's in the last bit on some of these values.
    lengths = np.linspace(1.4, 4.0, 27) * MM
    low, high, nominal = vp.modal_frequencies(m, sections, lengths, n)
    assert low.shape == high.shape == nominal.shape == (len(sections), len(lengths))
    rho_min, rho_max = m.density_bounds
    beta_l = vp.mode_constant(n)
    for i, section in enumerate(sections):
        e_i, a = vp.second_moment(section), vp.area(section)
        for j, length in enumerate(lengths.tolist()):
            want = [
                eq_frequency(m.youngs_modulus, e_i, rho, a, length, beta_l)
                for rho in (rho_max, rho_min, m.density)
            ]
            assert [low[i, j], high[i, j], nominal[i, j]] == want
            beam = vp.BeamSpec(m, section, length)
            assert [*vp.frequency_bounds(beam, n), vp.nominal_frequency(beam, n)] == want
            if m.density_range is None:
                assert want[0] == want[1] == want[2]


def test_beam_requires_positive_length(materials):
    with pytest.raises(ValueError):
        vp.BeamSpec(materials["TPU"], vp.CrossSection.square(1 * MM), 0.0)


def test_huge_length_is_a_value_error_naming_it(materials):
    beam = vp.BeamSpec(materials["PLA"], vp.CrossSection.square(1 * MM), 1e97)
    with pytest.raises(ValueError, match=r"length 1e\+97 m is too large"):
        vp.nominal_frequency(beam)
    with pytest.raises(ValueError, match=r"length 1e\+97 m is too large"):
        vp.modal_frequencies(materials["PLA"], [vp.CrossSection.square(1 * MM)], [1e-3, 1e97])
    # The largest lengths whose fourth power is still a float keep their value.
    assert vp.nominal_frequency(vp.BeamSpec(materials["PLA"], vp.CrossSection.square(1 * MM), 1e77)) > 0


@pytest.mark.parametrize(
    "section, length, message",
    [
        (vp.CrossSection.square(1 * MM), 1e-123, r"square dimension 0\.001 m at length 1e-123 m is out of range"),
        (vp.CrossSection.square(1e-103), 3 * MM, r"square dimension 1e-103 m at length 0\.003 m is out of range"),
        (vp.CrossSection.hexagon(1e97), 3 * MM, r"hexagon dimension 1e\+97 m is too large"),
        (vp.CrossSection.circle(1e97), 3 * MM, r"circle dimension 1e\+97 m is too large"),
    ],
    ids=["length_underflow", "side_underflow", "hexagon_overflow", "circle_overflow"],
)
def test_extreme_sizes_are_value_errors_naming_them(materials, section, length, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy divide-by-zero warning on the way
        with pytest.raises(ValueError, match=message):
            vp.nominal_frequency(vp.BeamSpec(materials["PLA"], section, length))
        # In a grid, the offending cell is named, not the first one.
        with pytest.raises(ValueError, match=message):
            vp.modal_frequencies(materials["PLA"], [vp.CrossSection.square(1 * MM), section], [3 * MM, length])
