"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every expected value is either a published constant or computed by an
oracle coded independently in this file (bisection on the characteristic
equation, direct evaluation of the modal frequency relation).
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import vibroprint as vp
from vibroprint.beams import _fixed_free_root
from vibroprint.cli import run
from vibroprint.units import mm_to_m


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


# ---------------------------------------------------------------------------
# Independent oracles


def bisect_characteristic(lo, hi, tol=1e-12):
    """Bisection on cos(x)cosh(x) + 1 = 0 over a sign-changing bracket."""
    f = lambda x: math.cos(x) * math.cosh(x) + 1.0
    f_lo = f(lo)
    assert f_lo * f(hi) < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) == 0.0:
            return mid
        if (f(mid) < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


ORACLE_BETA = {
    1: bisect_characteristic(0.1, math.pi),
    2: bisect_characteristic(math.pi, 2.0 * math.pi),
    3: bisect_characteristic(2.0 * math.pi, 3.0 * math.pi),
}


def oracle_frequency(e, rho, shape, dim, inner, length, mode):
    """Direct evaluation of the modal relation with its own section formulas."""
    if shape == "square":
        area = dim**2 - (inner**2 if inner else 0.0)
        second = (dim**4 - (inner**4 if inner else 0.0)) / 12.0
    elif shape == "hexagon":
        area = 1.5 * math.sqrt(3.0) * (dim**2 - (inner**2 if inner else 0.0))
        second = 5.0 * math.sqrt(3.0) / 16.0 * (dim**4 - (inner**4 if inner else 0.0))
    else:
        area = math.pi * (dim**2 - (inner**2 if inner else 0.0))
        second = math.pi / 4.0 * (dim**4 - (inner**4 if inner else 0.0))
    bl = ORACLE_BETA[mode]
    return bl**2 / (2.0 * math.pi) * math.sqrt(e * second / (rho * area * length**4))


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_01_mode_constants():
    with criterion(1, "fixed-free mode constants match 1.875104 and the bisection oracle, < 1 ms"):
        _fixed_free_root.cache_clear()
        start = time.perf_counter()
        got = [vp.mode_constant(n) for n in (1, 2, 3)]
        elapsed = time.perf_counter() - start
        assert abs(got[0] - 1.875104) < 1e-6
        for value, n in zip(got, (1, 2, 3)):
            assert abs(value - ORACLE_BETA[n]) < 1e-6
        assert elapsed < 1e-3, f"mode constants took {elapsed * 1e3:.2f} ms"


def test_criterion_02_frequency_matches_direct_evaluation():
    with criterion(2, "1000 random beams match direct modal-relation evaluation to 1e-9, < 1 s"):
        rng = np.random.default_rng(424242)
        shapes = ("square", "hexagon", "circle")
        ctors = {
            "square": vp.CrossSection.square,
            "hexagon": vp.CrossSection.hexagon,
            "circle": vp.CrossSection.circle,
        }
        start = time.perf_counter()
        for _ in range(1000):
            shape = shapes[rng.integers(3)]
            e = 10.0 ** rng.uniform(6.5, 11.0)
            dim = rng.uniform(0.1, 10.0) * 1e-3
            inner = dim * rng.uniform(0.2, 0.9) if rng.random() < 0.3 else None
            length = rng.uniform(0.5, 100.0) * 1e-3
            mode = int(rng.integers(1, 4))
            ranged = rng.random() < 0.3
            if ranged:
                lo = rng.uniform(400.0, 8000.0)
                hi = lo * rng.uniform(1.01, 1.15)
                material = vp.Material(
                    name="r", density=0.5 * (lo + hi), youngs_modulus=e, density_range=(lo, hi)
                )
            else:
                material = vp.Material(name="r", density=rng.uniform(400.0, 9000.0), youngs_modulus=e)
            frequencies = vp.modal_frequencies(material, [ctors[shape](dim, inner)], [length], mode)
            low, high, nominal = (f.item() for f in frequencies)
            rho_min, rho_max = material.density_bounds
            for value, rho in ((low, rho_max), (high, rho_min), (nominal, material.density)):
                expected = oracle_frequency(e, rho, shape, dim, inner, length, mode)
                assert abs(value - expected) <= 1e-9 * expected
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"1000 beams took {elapsed:.2f} s"


def test_criterion_03_published_ranges_stay_in_band():
    with criterion(3, "published side/length ranges land in [3.2, 26] kHz at 0.1 mm steps, < 1 s"):
        start = time.perf_counter()
        cases = [
            ("PLA", (0.4, 1.0), (3.4, 4.0)),
            ("ST45B", (0.4, 1.0), (3.4, 4.0)),
            ("TPU", (2.0, 2.6), (1.4, 2.0)),
        ]
        for name, (s_lo, s_hi), (l_lo, l_hi) in cases:
            material = vp.get_material(name)
            sides = np.linspace(s_lo, s_hi, int(round((s_hi - s_lo) / 0.1)) + 1)
            lengths = np.linspace(l_lo, l_hi, int(round((l_hi - l_lo) / 0.1)) + 1)
            for side in sides:
                for length in lengths:
                    beam = vp.BeamSpec(
                        material, vp.CrossSection.square(mm_to_m(side)), mm_to_m(length)
                    )
                    f_lo, f_hi = vp.frequency_bounds(beam, 1)
                    assert 3200.0 <= f_lo and f_hi <= 26000.0, (
                        f"{name} side {side} mm length {length} mm "
                        f"-> [{f_lo:.0f}, {f_hi:.0f}] Hz out of band"
                    )
        assert time.perf_counter() - start < 1.0


def test_criterion_04_final_design_table():
    with criterion(4, "segment layouts reproduce the final-design table exactly"):
        expected = {
            "rigid": {
                vp.Segment.FINGER_TIP: (1.0, 4.0),
                vp.Segment.FINGER_PHALANX: (1.0, 3.5),
                vp.Segment.THUMB_PHALANX: (1.0, 3.2),
                vp.Segment.PALM: (1.0, 3.5),
            },
            "flexible": {
                vp.Segment.FINGER_TIP: (2.6, 2.0),
                vp.Segment.FINGER_PHALANX: (2.6, 1.8),
                vp.Segment.THUMB_PHALANX: (2.6, 1.6),
                vp.Segment.PALM: (2.6, 1.8),
            },
        }
        pairs_checked = 0
        for name in ("ST45B", "TPU"):
            material = vp.get_material(name)
            table = expected[vp.material_class(material)]
            constraints = vp.reference_layout_constraints(material)
            region = vp.feasible_region(constraints)
            layouts = vp.segment_layouts(region, constraints.max_length_per_segment)
            assert len(layouts) == 4
            for layout in layouts:
                side_mm, length_mm = table[layout.segment]
                assert layout.side * 1e3 == pytest.approx(side_mm, abs=1e-9)
                assert layout.length * 1e3 == pytest.approx(length_mm, abs=1e-9)
                pairs_checked += 1
        assert pairs_checked == 8


def test_criterion_05_soft_design_point_hits_mic_peak():
    with criterion(5, "TPU square 2.6 mm x 2.0 mm first mode in [8.7, 9.3] kHz"):
        beam = vp.BeamSpec(
            vp.get_material("TPU"), vp.CrossSection.square(mm_to_m(2.6)), mm_to_m(2.0)
        )
        f = vp.nominal_frequency(beam, 1)
        assert 8700.0 <= f <= 9300.0


def test_criterion_06_shape_ordering():
    with criterion(6, "square < hexagon < circle and hollow > solid on 200 random triples"):
        rng = np.random.default_rng(99)
        violations = 0
        for _ in range(200):
            e = 10.0 ** rng.uniform(6.5, 11.0)
            material = vp.Material(name="r", density=rng.uniform(400, 9000), youngs_modulus=e)
            dim = rng.uniform(0.2, 5.0) * 1e-3
            length = rng.uniform(1.0, 50.0) * 1e-3
            f = lambda section: vp.nominal_frequency(vp.BeamSpec(material, section, length), 1)
            f_sq = f(vp.CrossSection.square(dim))
            f_hex = f(vp.CrossSection.hexagon(dim))
            f_circ = f(vp.CrossSection.circle(dim))
            inner = dim * rng.uniform(0.2, 0.9)
            f_hollow = f(vp.CrossSection.square(dim, inner))
            if not (f_sq < f_hex < f_circ and f_hollow > f_sq):
                violations += 1
        assert violations == 0


def test_criterion_07_spectral_pipeline_properties():
    with criterion(7, "sine recovery 1e-9, AUC additivity 1e-12, AUC linearity 1e-9"):
        fs, n = 500e3, 5000
        t = np.arange(n) / fs
        rec = vp.Recording(np.sin(2.0 * np.pi * 9000.0 * t), fs)
        spec = vp.spectrum(rec, "rectangular")
        k = int(round(9000.0 / spec.resolution))
        assert abs(spec.magnitudes[k] - 1.0) <= 1e-9

        rng = np.random.default_rng(3)
        noisy = vp.Recording(rng.normal(0.0, 0.1, 4096), fs)
        nspec = vp.spectrum(noisy, "hann")
        a, b, c = 1500.0, 9000.0, 24000.0
        whole = vp.band_auc(nspec, (a, c))
        assert abs(vp.band_auc(nspec, (a, b)) + vp.band_auc(nspec, (b, c)) - whole) <= 1e-12 * whole

        k_scale = 5.75
        louder = replace(noisy, samples=noisy.samples * k_scale)
        scaled = vp.band_auc(vp.spectrum(louder, "hann"), (a, c))
        assert abs(scaled - k_scale * whole) <= 1e-9 * k_scale * whole


def test_criterion_08_elevenfold_pipeline(tmp_path):
    with criterion(8, "11x-amplitude group analyzes to normalized AUC 11.0 +/- 1%, < 30 s"):
        start = time.perf_counter()
        data = tmp_path / "dataset"
        data.mkdir()
        beam = vp.BeamSpec(
            vp.get_material("TPU"), vp.CrossSection.square(mm_to_m(2.6)), mm_to_m(2.0)
        )
        base = np.array([0.02, 0.01, 0.005])
        for mic in ("Left", "Right"):
            for material_label, scale in (("Default", 1.0), ("ST45B", 11.0)):
                for rep in range(1, 6):
                    scenario = vp.SlideScenario(
                        beam=beam,
                        pitch=mm_to_m(5.2),
                        velocity=mm_to_m(953.3),
                        duration=0.12,
                        mode_amplitudes=tuple(base * scale),
                        noise_floor_db=-160.0,
                        seed=1000 + rep,
                        sample_rate=500e3,
                    )
                    rec = vp.slide_signal(
                        scenario,
                        meta=vp.RecordingMeta(
                            object="wooden stick",
                            fingerprint_material=material_label,
                            microphone=mic,
                            repetition=rep,
                        ),
                    )
                    vp.write_recording_bundle(
                        rec,
                        data / f"{mic}_{material_label}_{rep}.wav",
                        scenario=vp.scenario_to_dict(scenario),
                    )

        out = tmp_path / "analysis"
        assert run(["analyze", str(data / "*.wav"), "--output-dir", str(out)]) == 0
        ratios = json.loads((out / "ratios.json").read_text())
        for mic in ("Left", "Right"):
            groups = ratios["microphones"][mic]["groups"]
            assert groups["Default"]["normalized_mean"] == 1.0
            assert groups["ST45B"]["normalized_mean"] == pytest.approx(11.0, rel=0.01)
        assert time.perf_counter() - start < 30.0


def test_criterion_09_band_extraction():
    with criterion(9, "bundled curve yields two bands peaking at 9 and 150 kHz, edges to 1%"):
        curve = vp.bundled_mic_curve()
        bands = vp.sensitive_bands(curve, -42.0)
        assert len(bands) == 2
        assert bands[0].peak_frequency == pytest.approx(9000.0)
        assert bands[1].peak_frequency == pytest.approx(150000.0)

        # analytic crossings of the stored polyline with the threshold line
        crossings = []
        xs, ys = curve.x, curve.amplitude_db
        for i in range(len(xs) - 1):
            y0, y1 = ys[i] + 42.0, ys[i + 1] + 42.0
            if y0 * y1 < 0.0:
                crossings.append(xs[i] - y0 * (xs[i + 1] - xs[i]) / (y1 - y0))
            elif y1 == 0.0 and y0 != 0.0:
                crossings.append(xs[i + 1])
        edges = [bands[0].low, bands[0].high, bands[1].low, bands[1].high]
        assert len(crossings) == 4
        for edge, crossing in zip(edges, sorted(crossings)):
            assert abs(edge - crossing) <= 0.01 * crossing


def test_criterion_10_deterministic_artifacts(tmp_path):
    with criterion(10, "fixed-seed simulate and analyze runs are byte-identical"):
        argv = lambda d: [
            "simulate",
            "--material",
            "TPU",
            "--square-side-mm",
            "2.6",
            "--length-mm",
            "2.0",
            "--duration-s",
            "0.05",
            "--seed",
            "11",
            "--microphone",
            "Left",
            "--tag-material",
            "Default",
            "--output-dir",
            str(d),
        ]
        d1, d2 = tmp_path / "sim1", tmp_path / "sim2"
        assert run(argv(d1)) == 0
        assert run(argv(d2)) == 0
        assert (d1 / "slide.wav").read_bytes() == (d2 / "slide.wav").read_bytes()

        a1, a2 = tmp_path / "an1", tmp_path / "an2"
        assert run(["analyze", str(d1 / "slide.wav"), "--output-dir", str(a1)]) == 0
        assert run(["analyze", str(d1 / "slide.wav"), "--output-dir", str(a2)]) == 0
        assert (a1 / "auc.csv").read_bytes() == (a2 / "auc.csv").read_bytes()
        assert (a1 / "ratios.json").read_bytes() == (a2 / "ratios.json").read_bytes()
