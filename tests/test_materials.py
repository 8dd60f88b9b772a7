"""Material constants, config parsing, and the hardware envelope types."""

import math

import pytest

import vibroprint as vp
from vibroprint.cli import run
from vibroprint.errors import MaterialConfigError


def test_builtins_carry_datasheet_constants(materials):
    pla = materials["PLA"]
    assert pla.youngs_modulus == pytest.approx(2.641e9)
    assert pla.density_range == (1170.0, 1240.0)
    assert pla.density == pytest.approx(1205.0)  # range midpoint

    tpu = materials["TPU"]
    assert tpu.youngs_modulus == pytest.approx(9e6)
    assert tpu.density == pytest.approx(1220.0)
    assert tpu.density_range is None

    st = materials["ST45B"]
    assert st.youngs_modulus == pytest.approx(2.0e9)
    assert st.density == pytest.approx(1200.0)


def test_builtins_are_deterministic_and_ordered():
    assert vp.builtin_materials() == vp.builtin_materials()
    assert [m.name for m in vp.builtin_materials()] == ["PLA", "TPU", "ST45B"]


def test_density_bounds_collapse_for_point_density(materials):
    assert materials["TPU"].density_bounds == (1220.0, 1220.0)
    assert materials["PLA"].density_bounds == (1170.0, 1240.0)


def test_material_validation():
    with pytest.raises(ValueError):
        vp.Material(name="x", density=-1.0, youngs_modulus=1e9)
    with pytest.raises(ValueError):
        vp.Material(name="x", density=1000.0, youngs_modulus=0.0)
    with pytest.raises(ValueError):
        vp.Material(name="x", density=1000.0, youngs_modulus=1e9, density_range=(1100.0, 1200.0))
    with pytest.raises(ValueError, match="density must be positive and finite, got nan"):
        vp.Material(name="x", density=math.nan, youngs_modulus=1e9)
    with pytest.raises(ValueError, match="youngs_modulus must be positive and finite, got inf"):
        vp.Material(name="x", density=1000.0, youngs_modulus=math.inf)
    with pytest.raises(ValueError, match="density_range bounds must be finite"):
        vp.Material(name="x", density=1000.0, youngs_modulus=1e9, density_range=(900.0, math.inf))


def test_get_material_is_case_insensitive():
    assert vp.get_material("st45b").name == "ST45B"
    with pytest.raises(MaterialConfigError, match="PLA"):
        vp.get_material("unobtainium")


# ---------------------------------------------------------------------------
# Config files


def test_config_pass_through(tmp_path):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text("[MyResin]\ndensity_g_cm3 = 1.2\nyoungs_modulus_mpa = 2000\n")
    catalog = vp.load_material_config(cfg)
    resin = vp.get_material("MyResin", catalog)
    assert resin.density == pytest.approx(1200.0)
    assert resin.youngs_modulus == pytest.approx(2.0e9)


def test_config_negative_modulus_names_key(tmp_path):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text("[Bad]\ndensity_g_cm3 = 1.2\nyoungs_modulus_mpa = -1\n")
    with pytest.raises(MaterialConfigError, match="youngs_modulus"):
        vp.load_material_config(cfg)


def test_empty_config_yields_builtins(tmp_path):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text("")
    assert vp.load_material_config(cfg) == vp.builtin_materials()


def test_config_overrides_builtin_by_name(tmp_path):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text("[tpu]\ndensity_g_cm3 = 1.30\nyoungs_modulus_mpa = 12\n")
    catalog = vp.load_material_config(cfg)
    assert len(catalog) == 3
    tpu = vp.get_material("TPU", catalog)
    assert tpu.density == pytest.approx(1300.0)
    assert tpu.youngs_modulus == pytest.approx(12e6)


def test_config_range_only_uses_midpoint(tmp_path):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text("[Ranged]\ndensity_range_g_cm3 = 1.0 1.5\nyoungs_modulus_mpa = 100\n")
    ranged = vp.get_material("Ranged", vp.load_material_config(cfg))
    assert ranged.density == pytest.approx(1250.0)
    assert ranged.density_range == (1000.0, 1500.0)


@pytest.mark.parametrize(
    "body, key",
    [
        ("[M]\nyoungs_modulus_mpa = 100\n", "density"),
        ("[M]\ndensity_g_cm3 = 1.0\n", "youngs_modulus_mpa"),
        ("[M]\ndensity_g_cm3 = abc\nyoungs_modulus_mpa = 100\n", "density_g_cm3"),
        ("[M]\ndensity_range_g_cm3 = 1.0\nyoungs_modulus_mpa = 100\n", "density_range_g_cm3"),
        # Material checks the order, in SI units
        (
            "[M]\ndensity_range_g_cm3 = 1.5 1.0\nyoungs_modulus_mpa = 100\n",
            "density_range must satisfy 0 < min <= max",
        ),
        ("[M]\ndensity_g_cm3 = 1.0\nyoungs_modulus_mpa = 100\nbogus_key = 2\n", "bogus_key"),
    ],
)
def test_config_malformed_entries_name_offender(tmp_path, body, key):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text(body)
    with pytest.raises(MaterialConfigError, match=key):
        vp.load_material_config(cfg)


def test_config_missing_file():
    with pytest.raises(MaterialConfigError, match="not found"):
        vp.load_material_config("/nonexistent/materials.cfg")


@pytest.mark.parametrize(
    "body, key",
    [
        ("[M]\ndensity_g_cm3 = nan\nyoungs_modulus_mpa = 100\n", "density_g_cm3"),
        ("[M]\ndensity_g_cm3 = 1.0\nyoungs_modulus_mpa = inf\n", "youngs_modulus_mpa"),
        ("[M]\ndensity_range_g_cm3 = 1.0 inf\nyoungs_modulus_mpa = 100\n", "density_range_g_cm3"),
        ("[M]\ndensity_g_cm3 = 1.0\nyoungs_modulus_mpa = 5%\n", "youngs_modulus_mpa"),
    ],
    ids=["nan_density", "inf_modulus", "inf_density_range", "percent_modulus"],
)
def test_config_rejects_non_finite_values(tmp_path, body, key):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text(body)
    with pytest.raises(MaterialConfigError, match=key):
        vp.load_material_config(cfg)
    argv = ["freq", "--materials", str(cfg), "--material", "M", "--square-side-mm", "1.0"]
    assert run(argv + ["--length-mm", "3.5", "--output-dir", str(tmp_path)]) == 1
    assert not (tmp_path / "freq.csv").exists()


@pytest.mark.parametrize(
    "body",
    [
        "[M]\ndensity_g_cm3 = 1e306\nyoungs_modulus_mpa = 100\n",
        "[M]\ndensity_g_cm3 = 1.0\nyoungs_modulus_mpa = 1e303\n",
        "[M]\ndensity_range_g_cm3 = 1.0 1e306\nyoungs_modulus_mpa = 100\n",
        "[M]\ndensity_range_g_cm3 = 1e305 1.7e305\nyoungs_modulus_mpa = 100\n",
    ],
    ids=["density", "modulus", "density_range", "range_midpoint"],
)
def test_config_rejects_values_that_overflow_in_si(tmp_path, body, capsys):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text(body)
    with pytest.raises(MaterialConfigError, match="overflow"):
        vp.load_material_config(cfg)
    argv = ["freq", "--materials", str(cfg), "--material", "M", "--square-side-mm", "1"]
    assert run(argv + ["--length-mm", "4", "--output-dir", str(tmp_path)]) == 1
    assert "overflow" in capsys.readouterr().err


def test_config_not_utf8_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "materials.cfg"
    cfg.write_bytes(b"[M]\ndensity_g_cm3 = 1.0\xff\nyoungs_modulus_mpa = 100\n")
    with pytest.raises(MaterialConfigError, match="materials.cfg"):
        vp.load_material_config(cfg)
    argv = ["freq", "--materials", str(cfg), "--material", "M", "--square-side-mm", "1"]
    assert run(argv + ["--length-mm", "4", "--output-dir", str(tmp_path)]) == 1
    assert str(cfg) in capsys.readouterr().err


def test_config_converts_bench_units_to_si(tmp_path):
    # g/cm3 -> kg/m3 and MPa -> Pa, within 1e-12 relative
    cfg = tmp_path / "materials.cfg"
    cfg.write_text(
        "[RT]\ndensity_g_cm3 = 1.234\ndensity_range_g_cm3 = 1.1, 1.3\n"
        "youngs_modulus_mpa = 2641.7\n"
    )
    rt = vp.get_material("RT", vp.load_material_config(cfg))
    assert rt.density == pytest.approx(1234.0, rel=1e-12)
    assert rt.youngs_modulus == pytest.approx(2641.7e6, rel=1e-12)
    assert rt.density_range[0] == pytest.approx(1100.0, rel=1e-12)
    assert rt.density_range[1] == pytest.approx(1300.0, rel=1e-12)


PINNED_SECTIONS = """\
[Point]
density_g_cm3 = 1.234
youngs_modulus_mpa = 2641.7
[Ranged]
density_range_g_cm3 = 1.17 1.24
youngs_modulus_mpa = 3500
[Nominal]
density_g_cm3 = 1.21
density_range_g_cm3 = 1.1, 1.3
youngs_modulus_mpa = 12.5
[pla]
density_g_cm3 = 1.25
youngs_modulus_mpa = 2700
"""


def test_config_sections_load_to_pinned_materials(tmp_path):
    # Exact SI values: a point density, a range alone (its midpoint), a
    # range with a nominal value in the comma form, and a builtin override,
    # which keeps the builtin's position under the file's spelling.
    cfg = tmp_path / "materials.cfg"
    cfg.write_text(PINNED_SECTIONS)
    assert vp.load_material_config(cfg) == [
        vp.Material("pla", 1250.0, 2700000000.0),
        vp.Material("TPU", 1220.0, 9000000.0),
        vp.Material("ST45B", 1200.0, 2000000000.0),
        vp.Material("Point", 1234.0, 2641700000.0),
        vp.Material("Ranged", 1205.0, 3500000000.0, (1170.0, 1240.0)),
        vp.Material("Nominal", 1210.0, 12500000.0, (1100.0, 1300.0)),
    ]


@pytest.mark.parametrize(
    "first, second", [("Resin", "resin"), ("pla", "PLA")], ids=["new_name", "builtin_name"]
)
def test_config_refuses_sections_that_name_one_material(tmp_path, capsys, first, second):
    cfg = tmp_path / "materials.cfg"
    cfg.write_text(
        f"[{first}]\ndensity_g_cm3 = 1.0\nyoungs_modulus_mpa = 100\n"
        f"[{second}]\ndensity_g_cm3 = 1.3\nyoungs_modulus_mpa = 100\n"
    )
    with pytest.raises(MaterialConfigError, match=rf"\[{first}\].*\[{second}\]"):
        vp.load_material_config(cfg)
    argv = ["freq", "--materials", str(cfg), "--material", second, "--square-side-mm", "1"]
    assert run(argv + ["--length-mm", "4", "--output-dir", str(tmp_path)]) == 1
    assert f"[{first}]" in capsys.readouterr().err
    assert not (tmp_path / "freq.csv").exists()


# ---------------------------------------------------------------------------
# Printer


def test_default_printer_constraints():
    p = vp.default_printer_constraints()
    assert p.min_side_supported == pytest.approx(0.4e-3)
    assert p.min_hole_diameter == pytest.approx(0.75e-3)


def test_printer_constraints_validation():
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="min_side_supported"):
            vp.PrinterConstraints(bad, 0.75e-3)
        with pytest.raises(ValueError, match="min_hole_diameter"):
            vp.PrinterConstraints(0.4e-3, bad)
