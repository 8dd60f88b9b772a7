"""Cross-section geometry and fixed-free beam modal analysis.

A beam is a prismatic solid clamped at one end and free at the other.
Its n-th natural frequency is

    f_n = (1 / 2 pi) * (beta_n l)^2 * sqrt(E I / (rho A l^4))

where beta_n l solves the fixed-free characteristic equation
cos(x) cosh(x) = -1, E is Young's modulus (Pa), I the second moment of
area (m^4), rho the density (kg/m^3), A the section area (m^2), and l
the beam length (m).

`modal_frequencies` is the one evaluation of this relation: the scalar
helpers read its 1x1 case and the design search and sweep broadcast it
over whole grids.  Its per-section E I and rho A and per-length l^4 are
Python floats, combined in the order of the formula above, so every cell
equals the scalar expression evaluated in Python arithmetic bit for bit
(numpy's `x**4` can differ from Python's in the last bit, which would
change the written design tables).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .materials import Material

_SQRT3 = math.sqrt(3.0)


class Shape(str, Enum):
    SQUARE = "square"
    HEXAGON = "hexagon"
    CIRCLE = "circle"


@dataclass(frozen=True)
class CrossSection:
    """A symmetric beam cross-section, optionally hollow.

    `outer` is the side length for square/hexagon and the radius for
    circle (m).  A hollow section subtracts a concentric inner copy of
    the same shape with dimension `inner`.
    """

    shape: Shape
    outer: float
    inner: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "shape", Shape(self.shape))
        if not 0 < self.outer < math.inf:
            raise ValueError(f"outer dimension must be positive and finite, got {self.outer}")
        if self.inner is not None and not 0 < self.inner < self.outer:
            raise ValueError(
                f"hollow inner dimension must be in (0, outer), got {self.inner}"
            )

    @classmethod
    def square(cls, side: float, inner: float | None = None) -> "CrossSection":
        return cls(Shape.SQUARE, side, inner)

    @classmethod
    def hexagon(cls, side: float, inner: float | None = None) -> "CrossSection":
        return cls(Shape.HEXAGON, side, inner)

    @classmethod
    def circle(cls, radius: float, inner: float | None = None) -> "CrossSection":
        return cls(Shape.CIRCLE, radius, inner)

    @property
    def hollow(self) -> bool:
        return self.inner is not None

    @property
    def wall_thickness(self) -> float | None:
        """Material thickness between inner and outer boundary (m); None if solid.

        For square/hexagon this is the apothem difference, for circles the
        radius difference.
        """
        if self.inner is None:
            return None
        if self.shape is Shape.SQUARE:
            return (self.outer - self.inner) / 2.0
        if self.shape is Shape.HEXAGON:
            return (self.outer - self.inner) * _SQRT3 / 2.0
        return self.outer - self.inner


def _solid_area(shape: Shape, dim: float) -> float:
    if shape is Shape.SQUARE:
        return dim * dim
    if shape is Shape.HEXAGON:
        return 1.5 * _SQRT3 * dim * dim
    return math.pi * dim * dim


def _solid_second_moment(shape: Shape, dim: float) -> float:
    # Centroidal axis; for the square this is the axis parallel to a side,
    # for the regular hexagon the axis parallel to a flat (its second
    # moment is the same about every centroidal axis).
    if shape is Shape.SQUARE:
        return dim**4 / 12.0
    if shape is Shape.HEXAGON:
        return 5.0 * _SQRT3 / 16.0 * dim**4
    return math.pi * dim**4 / 4.0


def area(section: CrossSection) -> float:
    """Cross-sectional area (m^2); hollow sections subtract the inner shape."""
    a = _solid_area(section.shape, section.outer)
    if section.inner is not None:
        a -= _solid_area(section.shape, section.inner)
    return a


def second_moment(section: CrossSection) -> float:
    """Second moment of area (m^4) about the centroidal bending axis."""
    i = _solid_second_moment(section.shape, section.outer)
    if section.inner is not None:
        i -= _solid_second_moment(section.shape, section.inner)
    return i


@dataclass(frozen=True)
class BeamSpec:
    """Material + cross-section + length: the unit of design."""

    material: Material
    section: CrossSection
    length: float

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValueError(f"length must be positive and finite, got {self.length}")


def _characteristic(x: float) -> float:
    # cos(x) + sech(x) has the same roots as cos(x) cosh(x) = -1 but stays
    # bounded, so high mode indices cannot overflow cosh.
    if x > 350.0:
        sech = 2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x))
    else:
        sech = 1.0 / math.cosh(x)
    return math.cos(x) + sech


@lru_cache(maxsize=None)
def _fixed_free_root(n: int) -> float:
    # Exactly one root per interval ((n-1) pi, n pi); the endpoints have
    # opposite characteristic signs because cos(k pi) = +/-1 dominates sech.
    lo = (n - 1) * math.pi
    hi = n * math.pi
    f_lo = _characteristic(lo)
    # Bisect to machine resolution: the residual of cos*cosh + 1 scales
    # with cosh(x), so a loose x-tolerance would leave visible residuals
    # at higher modes.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = _characteristic(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mode_constant(n: int) -> float:
    """n-th root (beta_n l) of the fixed-free characteristic equation.

    Roots are found by bisection and cached; mode 1 is 1.875104...
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"mode index must be an integer >= 1, got {n!r}")
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    return _fixed_free_root(n)


@dataclass(frozen=True)
class FrequencyInterval:
    """Frequency bounds (Hz) induced by a material's density range.

    `low` is the frequency at maximum density, `high` at minimum density,
    `nominal` at the nominal (midpoint) density.
    """

    low: float
    high: float
    nominal: float


def modal_frequencies(
    material: Material, sections: Sequence[CrossSection], lengths: Sequence[float], n: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mode-n frequencies (Hz) of every (section, length) pair.

    Returns (low, high, nominal) arrays of shape (len(sections),
    len(lengths)), at the maximum, minimum and nominal density; for a
    point-density material all three are equal.  This is the library's
    one evaluation of the modal relation; see the module docstring for
    why its factors are Python floats.  Raises ValueError naming the size
    when a fourth power overflows, or when a frequency would not be finite
    and positive (a size so small or large that a factor underflows or
    overflows).
    """
    k = mode_constant(n) ** 2 / (2.0 * math.pi)
    rho_min, rho_max = material.density_bounds
    rho = np.array([rho_max, rho_min, material.density])[:, None, None]
    try:
        ei = np.array([material.youngs_modulus * second_moment(s) for s in sections])[:, None]
    except OverflowError:
        big = max(sections, key=lambda s: s.outer)
        raise ValueError(
            f"{big.shape.value} dimension {big.outer!r} m is too large: its fourth power overflows"
        ) from None
    a = np.array([area(s) for s in sections])[:, None]
    lengths = np.asarray(lengths, dtype=float).tolist()
    try:
        l4 = np.array([length**4 for length in lengths])
    except OverflowError:
        raise ValueError(
            f"length {max(lengths, key=abs)!r} m is too large: its fourth power overflows"
        ) from None
    with np.errstate(all="ignore"):
        freqs = k * np.sqrt(ei / (rho * a * l4))
    ok = (freqs > 0.0) & (freqs < math.inf)
    if not ok.all():
        i, j = np.argwhere(~ok.all(axis=0))[0]
        raise ValueError(
            f"{sections[i].shape.value} dimension {sections[i].outer!r} m at length "
            f"{lengths[j]!r} m is out of range: its mode-{n} frequency is not finite and positive"
        )
    low, high, nominal = freqs
    return low, high, nominal


def _beam_frequencies(beam: BeamSpec, n: int) -> tuple[float, float, float]:
    return tuple(f.item() for f in modal_frequencies(beam.material, [beam.section], [beam.length], n))


def natural_frequency(beam: BeamSpec, n: int = 1) -> float | FrequencyInterval:
    """Natural frequency (Hz) of mode n.

    Returns a plain float for point-density materials and a
    FrequencyInterval for materials with a density range (frequency is
    decreasing in density, so low = f(rho_max), high = f(rho_min)).
    """
    low, high, nominal = _beam_frequencies(beam, n)
    if beam.material.density_range is None:
        return nominal
    return FrequencyInterval(low=low, high=high, nominal=nominal)


def frequency_bounds(beam: BeamSpec, n: int = 1) -> tuple[float, float]:
    """(low, high) frequency over the material's density bounds; collapses
    to a width-zero pair for point densities."""
    low, high, _ = _beam_frequencies(beam, n)
    return (low, high)


def nominal_frequency(beam: BeamSpec, n: int = 1) -> float:
    """Frequency at the nominal density, as a plain float."""
    return _beam_frequencies(beam, n)[2]
