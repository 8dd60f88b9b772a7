"""Printable materials and printer limits.

All stored values are SI.  Material config files use bench units
(g/cm3, MPa) and are converted once on load; see `load_material_config`
for the file grammar.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import MaterialConfigError
from .units import g_cm3_to_kg_m3, mm_to_m, mpa_to_pa


@dataclass(frozen=True)
class Material:
    """A printable material.

    Attributes:
        name: registry identifier (e.g. "PLA").
        density: nominal density (kg/m3).  For materials quoted as a
            range this is the range midpoint.
        youngs_modulus: Young's modulus (Pa).
        density_range: optional (min, max) density (kg/m3) for materials
            whose datasheet quotes a range; frequency predictions then
            report an interval instead of a single number.
    """

    name: str
    density: float
    youngs_modulus: float
    density_range: tuple[float, float] | None = None

    def __post_init__(self):
        for name in ("density", "youngs_modulus"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.density_range is not None:
            lo, hi = self.density_range
            if not hi < math.inf:
                raise ValueError(f"density_range bounds must be finite, got [{lo}, {hi}]")
            if not (0 < lo <= self.density <= hi):
                raise ValueError(
                    f"density {self.density} outside declared range [{lo}, {hi}]"
                )

    @property
    def density_bounds(self) -> tuple[float, float]:
        """(min, max) density; collapses to the nominal value for point densities."""
        if self.density_range is None:
            return (self.density, self.density)
        return self.density_range


@dataclass(frozen=True)
class PrinterConstraints:
    """Printability limits for beam-sized features (SI: m)."""

    min_side_supported: float
    min_hole_diameter: float

    def __post_init__(self):
        for name in ("min_side_supported", "min_hole_diameter"):
            value = getattr(self, name)
            if not value > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive, got {value}")


def default_printer_constraints() -> PrinterConstraints:
    """Print guidelines used for the beam designs: 0.4 mm minimum width of
    a supported feature, 0.75 mm minimum hole diameter."""
    return PrinterConstraints(min_side_supported=mm_to_m(0.4), min_hole_diameter=mm_to_m(0.75))


# Datasheet constants for the three tested materials.  PLA density is
# quoted as a range; its nominal value is the midpoint.
_PLA = Material(
    name="PLA",
    density=1205.0,
    youngs_modulus=2.641e9,
    density_range=(1170.0, 1240.0),
)
_TPU = Material(name="TPU", density=1220.0, youngs_modulus=9e6)
_ST45B = Material(name="ST45B", density=1200.0, youngs_modulus=2.0e9)

_BUILTINS = (_PLA, _TPU, _ST45B)


def builtin_materials() -> list[Material]:
    """The three bundled materials (PLA, TPU, ST45B), in stable order."""
    return list(_BUILTINS)


_CONFIG_KEYS = {"density_g_cm3", "density_range_g_cm3", "youngs_modulus_mpa"}


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise MaterialConfigError(
            f"material '{section}': value for '{key}' is not a number: {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise MaterialConfigError(
            f"material '{section}': value for '{key}' must be finite, got {raw!r}"
        )
    return value


def _material_from_section(name: str, entries: dict[str, str]) -> Material:
    unknown = set(entries) - _CONFIG_KEYS
    if unknown:
        raise MaterialConfigError(
            f"material '{name}': unknown key(s) {sorted(unknown)}; "
            f"expected {sorted(_CONFIG_KEYS)}"
        )

    if "youngs_modulus_mpa" not in entries:
        raise MaterialConfigError(f"material '{name}': missing key 'youngs_modulus_mpa'")
    e_mpa = _parse_float(name, "youngs_modulus_mpa", entries["youngs_modulus_mpa"])
    if e_mpa <= 0:
        raise MaterialConfigError(
            f"material '{name}': youngs_modulus_mpa must be positive, got {e_mpa}"
        )

    density_range = None
    if "density_range_g_cm3" in entries:
        parts = entries["density_range_g_cm3"].replace(",", " ").split()
        if len(parts) != 2:
            raise MaterialConfigError(
                f"material '{name}': density_range_g_cm3 needs two values "
                f"(min max), got {entries['density_range_g_cm3']!r}"
            )
        lo = _parse_float(name, "density_range_g_cm3", parts[0])
        hi = _parse_float(name, "density_range_g_cm3", parts[1])
        if not 0 < lo <= hi:
            raise MaterialConfigError(
                f"material '{name}': density_range_g_cm3 must satisfy 0 < min <= max, "
                f"got [{lo}, {hi}]"
            )
        density_range = (g_cm3_to_kg_m3(lo), g_cm3_to_kg_m3(hi))

    if "density_g_cm3" in entries:
        rho = g_cm3_to_kg_m3(_parse_float(name, "density_g_cm3", entries["density_g_cm3"]))
    elif density_range is not None:
        rho = 0.5 * (density_range[0] + density_range[1])
    else:
        raise MaterialConfigError(
            f"material '{name}': needs 'density_g_cm3' or 'density_range_g_cm3'"
        )
    youngs_modulus = mpa_to_pa(e_mpa)
    if not all(map(math.isfinite, (rho, youngs_modulus, *(density_range or ())))):
        raise MaterialConfigError(
            f"material '{name}': values overflow when converted to kg/m3 and Pa"
        )
    if rho <= 0:
        raise MaterialConfigError(f"material '{name}': density_g_cm3 must be positive")
    if density_range is not None and not density_range[0] <= rho <= density_range[1]:
        raise MaterialConfigError(
            f"material '{name}': density_g_cm3 lies outside density_range_g_cm3"
        )

    return Material(
        name=name, density=rho, youngs_modulus=youngs_modulus, density_range=density_range
    )


def load_material_config(path: str | Path) -> list[Material]:
    """Load user materials and merge them over the builtins.

    The file is INI-style: one ``[MaterialName]`` block per material with
    keys ``density_g_cm3``, ``density_range_g_cm3`` (two values), and
    ``youngs_modulus_mpa``.  A user entry whose name matches a builtin
    (case-insensitively) replaces it.  An empty file yields the builtins.
    """
    path = Path(path)
    if not path.is_file():
        raise MaterialConfigError(f"material config not found: {path}")

    # Values are plain numbers; without interpolation a stray '%' reads as text.
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case as written
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise MaterialConfigError(f"cannot decode {path}: {exc}") from None
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise MaterialConfigError(f"cannot parse {path}: {exc}") from exc

    user = [
        _material_from_section(section, dict(parser.items(section)))
        for section in parser.sections()
    ]

    merged: dict[str, Material] = {m.name.lower(): m for m in _BUILTINS}
    merged.update({m.name.lower(): m for m in user})
    # builtins keep their canonical position; new names append in file order
    ordered = [merged[m.name.lower()] for m in _BUILTINS]
    ordered += [m for m in user if m.name.lower() not in {b.name.lower() for b in _BUILTINS}]
    return ordered


def get_material(name: str, catalog: list[Material] | None = None) -> Material:
    """Look a material up by name, case-insensitively."""
    catalog = builtin_materials() if catalog is None else catalog
    for material in catalog:
        if material.name.lower() == name.lower():
            return material
    available = ", ".join(m.name for m in catalog)
    raise MaterialConfigError(f"unknown material '{name}'; available: {available}")
