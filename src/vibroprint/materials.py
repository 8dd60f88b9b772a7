"""Printable materials and printer limits.

All stored values are SI.  Material config files use bench units
(g/cm3, MPa) and are converted once on load; see `load_material_config`
for the file grammar.  The loader checks only what belongs to the file
(keys, numbers as written, and their conversion to SI); `Material`
checks every value, whichever way it was built.
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

    Rules, checked in this order; each failure is a ValueError naming
    the field:
        - density and youngs_modulus are positive and finite;
        - density_range's bounds are finite;
        - density_range is ordered, 0 < min <= max;
        - density lies inside density_range, min <= density <= max.
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
            if not 0 < lo <= hi:
                raise ValueError(f"density_range must satisfy 0 < min <= max, got [{lo}, {hi}]")
            if not lo <= self.density <= hi:
                raise ValueError(f"density {self.density} outside declared range [{lo}, {hi}]")

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
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


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


# INI key -> (Material field, bench-to-SI conversion, number of values).
_CONFIG_KEYS = {
    "density_g_cm3": ("density", g_cm3_to_kg_m3, 1),
    "density_range_g_cm3": ("density_range", g_cm3_to_kg_m3, 2),
    "youngs_modulus_mpa": ("youngs_modulus", mpa_to_pa, 1),
}


def _material_from_section(name: str, entries: dict[str, str]) -> Material:
    where = f"material '{name}'"
    fields: dict[str, float | tuple[float, ...]] = {}
    for key, raw in entries.items():
        if key not in _CONFIG_KEYS:
            raise MaterialConfigError(f"{where}: unknown key '{key}'; expected {sorted(_CONFIG_KEYS)}")
        field, to_si, count = _CONFIG_KEYS[key]
        parts = raw.replace(",", " ").split() if count > 1 else [raw]
        if len(parts) != count:
            raise MaterialConfigError(f"{where}: {key} needs {count} values, got {raw!r}")
        values = []
        for part in parts:
            try:
                written = float(part)
            except ValueError:
                raise MaterialConfigError(
                    f"{where}: value for '{key}' is not a number: {part!r}"
                ) from None
            values.append(to_si(written))
            if not math.isfinite(values[-1]):
                problem = "overflows in SI units" if math.isfinite(written) else "must be finite"
                raise MaterialConfigError(f"{where}: value for '{key}' {problem}, got {part!r}")
        fields[field] = values[0] if count == 1 else tuple(values)

    if "youngs_modulus" not in fields:
        raise MaterialConfigError(f"{where}: missing key 'youngs_modulus_mpa'")
    if "density" not in fields:
        if "density_range" not in fields:
            raise MaterialConfigError(f"{where}: needs 'density_g_cm3' or 'density_range_g_cm3'")
        lo, hi = fields["density_range"]
        fields["density"] = 0.5 * (lo + hi)
        if not math.isfinite(fields["density"]):
            raise MaterialConfigError(f"{where}: midpoint of 'density_range_g_cm3' overflows in kg/m3")
    try:
        return Material(name=name, **fields)
    except ValueError as exc:
        raise MaterialConfigError(f"{where}: {exc}") from None


def load_material_config(path: str | Path) -> list[Material]:
    """Load user materials and merge them over the builtins.

    The file is INI-style: one ``[MaterialName]`` block per material with
    keys ``density_g_cm3``, ``density_range_g_cm3`` (two values), and
    ``youngs_modulus_mpa``.  A user entry whose name matches a builtin
    (case-insensitively) replaces it in its place; new names follow in
    file order.  An empty file yields the builtins.

    The loader keeps only the file's own rules: no two sections name one
    material (case-insensitively), every key is known and holds its count
    of numbers, each number parses and is finite as written and in SI (so
    is a range's midpoint), and the modulus and a density or a range are
    given.  `Material` checks the values.  A fault in a section is a
    MaterialConfigError naming the section.
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

    user: dict[str, Material] = {}
    for section in parser.sections():
        if section.lower() in user:
            first = user[section.lower()].name
            raise MaterialConfigError(
                f"material '{section}': sections [{first}] and [{section}] name one material in {path}"
            )
        user[section.lower()] = _material_from_section(section, dict(parser.items(section)))
    return list(({m.name.lower(): m for m in _BUILTINS} | user).values())


def get_material(name: str, catalog: list[Material] | None = None) -> Material:
    """Look a material up by name, case-insensitively."""
    catalog = builtin_materials() if catalog is None else catalog
    for material in catalog:
        if material.name.lower() == name.lower():
            return material
    available = ", ".join(m.name for m in catalog)
    raise MaterialConfigError(f"unknown material '{name}'; available: {available}")
