"""Response curves and band extraction."""

import math

import numpy as np
import pytest

import vibroprint as vp
from vibroprint.cli import run
from vibroprint.errors import CurveFormatError

THRESHOLD = -42.0


def curve(*points):
    x, amplitude_db = zip(*points)
    return vp.ResponseCurve(x=x, amplitude_db=amplitude_db)


def analytic_crossings(c, threshold):
    """Threshold crossings solved per segment: the independent edge oracle."""
    out = []
    for (x0, y0), (x1, y1) in zip(zip(c.x, c.amplitude_db), zip(c.x[1:], c.amplitude_db[1:])):
        if (y0 - threshold) * (y1 - threshold) < 0:
            out.append(x0 + (threshold - y0) * (x1 - x0) / (y1 - y0))
        elif y1 == threshold and y0 != threshold:
            out.append(x1)
        elif y0 == threshold and y1 != threshold:
            out.append(x0)
    return sorted(set(out))


def segment_walk_bands(c, threshold):
    """Per-segment interval walk with greedy merging: the reference that the
    array pass in `sensitive_bands` must match exactly."""
    xs, ys = c.x, c.amplitude_db
    intervals = []

    def add(lo, hi):
        if intervals and intervals[-1][1] >= lo:
            intervals[-1][1] = max(intervals[-1][1], hi)
        else:
            intervals.append([lo, hi])

    for i in range(len(xs) - 1):
        x0, x1 = float(xs[i]), float(xs[i + 1])
        y0, y1 = float(ys[i]), float(ys[i + 1])
        above0, above1 = y0 >= threshold, y1 >= threshold
        if above0 and above1:
            add(x0, x1)
        elif above0 or above1:
            xc = x0 + (threshold - y0) * (x1 - x0) / (y1 - y0)
            if above0:
                add(x0, xc)
            else:
                add(xc, x1)

    bands = []
    for lo, hi in intervals:
        if not lo < hi:
            continue
        inside = (xs >= lo) & (xs <= hi)
        cand_x = np.concatenate(([lo], xs[inside], [hi]))
        cand_a = np.concatenate(([np.interp(lo, xs, ys)], ys[inside], [np.interp(hi, xs, ys)]))
        order = np.argsort(cand_x, kind="stable")
        cand_x, cand_a = cand_x[order], cand_a[order]
        best = int(np.argmax(cand_a))
        bands.append((lo, hi, float(cand_x[best]), float(cand_a[best])))
    return bands


# ---------------------------------------------------------------------------
# sensitive_bands


def test_flat_curve_below_threshold_gives_no_bands():
    flat = curve((1e3, -70.0), (1e4, -70.0), (3e4, -70.0))
    assert vp.sensitive_bands(flat, THRESHOLD) == []


def test_triangle_curve_edges_match_line_intersections():
    tri = curve((1000.0, -70.0), (9000.0, -30.0), (30000.0, -70.0))
    bands = vp.sensitive_bands(tri, THRESHOLD)
    assert len(bands) == 1
    band = bands[0]
    # rising edge: -70 + (x-1000)/8000*40 = -42  ->  x = 6600
    # falling edge: -30 - (x-9000)/21000*40 = -42 ->  x = 15300
    assert band.low == pytest.approx(6600.0, abs=1e-9)
    assert band.high == pytest.approx(15300.0, abs=1e-9)
    assert band.peak_frequency == pytest.approx(9000.0)
    assert band.peak_amplitude == pytest.approx(-30.0)


def test_bundled_curve_has_two_documented_bands():
    bands = vp.sensitive_bands(vp.bundled_mic_curve(), THRESHOLD)
    assert len(bands) == 2
    low, high = bands
    assert low.peak_frequency == pytest.approx(9000.0)
    assert high.peak_frequency == pytest.approx(150000.0)
    assert (low.low, low.high) == (pytest.approx(3200.0), pytest.approx(26000.0))
    assert (high.low, high.high) == (pytest.approx(110000.0), pytest.approx(280000.0))


def test_band_peak_at_crossing_when_no_interior_vertex():
    # Rising staircase cut by the threshold inside one segment: the peak is
    # the higher band endpoint.
    c = curve((0.0, -80.0), (10.0, -20.0))
    (band,) = vp.sensitive_bands(c, -50.0)
    assert band.low == pytest.approx(5.0)
    assert band.high == pytest.approx(10.0)
    assert band.peak_frequency == pytest.approx(10.0)
    assert band.peak_amplitude == pytest.approx(-20.0)


def test_zero_width_touch_is_dropped():
    c = curve((0.0, -60.0), (5.0, THRESHOLD), (10.0, -60.0))
    assert vp.sensitive_bands(c, THRESHOLD) == []


def test_bands_are_disjoint_sorted_and_maximal():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(4, 40)
        x = np.sort(rng.uniform(0, 1e5, n))
        x += np.arange(n) * 1e-3  # enforce strictly increasing
        y = rng.uniform(-80, -10, n)
        c = vp.ResponseCurve(x=x, amplitude_db=y)
        bands = vp.sensitive_bands(c, THRESHOLD)
        for a, b in zip(bands, bands[1:]):
            assert a.high < b.low  # sorted and disjoint
        for band in bands:
            assert band.low < band.high
            assert np.interp(band.peak_frequency, c.x, c.amplitude_db) == pytest.approx(
                band.peak_amplitude, abs=1e-9
            )
        # maximality: just outside each interior edge the curve dips below
        for band in bands:
            for edge, direction in ((band.low, -1.0), (band.high, +1.0)):
                probe = edge + direction * 1e-6 * (c.x[-1] - c.x[0])
                if c.x[0] <= probe <= c.x[-1]:
                    assert np.interp(probe, c.x, c.amplitude_db) <= THRESHOLD + 1e-6


@pytest.mark.parametrize("threshold", [-42.0, -30.0, -50.0, -5.0])
def test_bands_equal_the_segment_walk(threshold):
    rng = np.random.default_rng(19)
    curves = [vp.bundled_mic_curve()]
    for k in range(400):
        n = int(rng.integers(2, 30))
        # every fourth curve has ulp-spaced samples, where rounded crossings touch
        step = np.spacing(1e5) if k % 4 == 3 else rng.uniform(1.0, 5e3)
        x = 1e5 + np.cumsum(rng.integers(1, 4, n)) * step
        y = rng.uniform(-80.0, 0.0, n)
        y[rng.random(n) < 0.3] = threshold  # vertices exactly on the threshold
        near = rng.random(n) < 0.15
        y[near] = threshold + rng.choice([-1e-13, 1e-13], near.sum())
        curves.append(vp.ResponseCurve(x=x, amplitude_db=y))
    for c in curves:
        bands = [
            (b.low, b.high, b.peak_frequency, b.peak_amplitude)
            for b in vp.sensitive_bands(c, threshold)
        ]
        assert bands == segment_walk_bands(c, threshold)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_threshold_is_rejected(threshold):
    with pytest.raises(ValueError, match="threshold_db must be finite"):
        vp.sensitive_bands(vp.bundled_mic_curve(), threshold)


def test_raising_threshold_shrinks_bands():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = rng.integers(4, 30)
        x = np.sort(rng.uniform(0, 5e4, n)) + np.arange(n) * 1e-3
        y = rng.uniform(-80, -10, n)
        c = vp.ResponseCurve(x=x, amplitude_db=y)
        lo_bands = vp.sensitive_bands(c, -50.0)
        hi_bands = vp.sensitive_bands(c, -35.0)
        total = lambda bands: sum(b.high - b.low for b in bands)
        assert total(hi_bands) <= total(lo_bands) + 1e-9
        for hb in hi_bands:
            assert any(lb.low - 1e-9 <= hb.low and hb.high <= lb.high + 1e-9 for lb in lo_bands)


def test_collinear_point_insertion_is_invisible():
    base = vp.bundled_mic_curve()
    xs, ys = list(base.x), list(base.amplitude_db)
    dense_x, dense_y = [], []
    for i in range(len(xs) - 1):
        dense_x += [xs[i], 0.5 * (xs[i] + xs[i + 1])]
        dense_y += [ys[i], 0.5 * (ys[i] + ys[i + 1])]
    dense_x.append(xs[-1])
    dense_y.append(ys[-1])
    dense = vp.ResponseCurve(x=np.array(dense_x), amplitude_db=np.array(dense_y))

    for a, b in zip(vp.sensitive_bands(base, THRESHOLD), vp.sensitive_bands(dense, THRESHOLD)):
        assert a.low == pytest.approx(b.low, abs=1e-9)
        assert a.high == pytest.approx(b.high, abs=1e-9)
        assert a.peak_frequency == pytest.approx(b.peak_frequency, abs=1e-9)


# ---------------------------------------------------------------------------
# Curve type and attenuation


def test_curve_validation():
    with pytest.raises(ValueError):
        curve((1.0, -10.0))  # one point
    with pytest.raises(ValueError):
        curve((1.0, -10.0), (1.0, -20.0))  # not strictly increasing
    with pytest.raises(ValueError):
        curve((1.0, -10.0), (2.0, float("nan")))


def test_sensitivity_band_validation():
    with pytest.raises(ValueError):
        vp.SensitivityBand(low=10.0, high=5.0, peak_frequency=7.0, peak_amplitude=-30.0)
    with pytest.raises(ValueError):
        vp.SensitivityBand(low=5.0, high=10.0, peak_frequency=12.0, peak_amplitude=-30.0)


# ---------------------------------------------------------------------------
# CSV loader


def test_load_curve_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("frequency_hz,amplitude_db\n100,-70\n200,-42\n300,-70\n")
    c = vp.load_response_curve(path)
    assert list(c.x) == [100.0, 200.0, 300.0]


def test_load_curve_rejects_distance_header(tmp_path, capsys):
    path = tmp_path / "att.csv"
    path.write_text("distance_m,amplitude_db\n0.0,-10\n0.2,-26\n")
    with pytest.raises(CurveFormatError, match="att.csv: header must be frequency_hz,amplitude_db"):
        vp.load_response_curve(path)
    assert run(["bands", "--curve", str(path), "--output-dir", str(tmp_path)]) == 1
    assert str(path) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["att.csv"]


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "empty"),
        ("freq,amp\n1,-70\n2,-60\n", "header"),
        ("frequency_hz,amplitude_db\n1,-70\n", "at least 2"),
        ("frequency_hz,amplitude_db\n1,-70\nx,-60\n", "non-numeric"),
        ("frequency_hz,amplitude_db\n2,-70\n1,-60\n", "increasing"),
        ("frequency_hz,amplitude_db\n1,-70,9\n2,-60\n", "2 columns"),
        # A row is named by its line in the file, comment lines counted.
        ("# a\n# b\nfrequency_hz,amplitude_db\n100,-70\n200,abc\n", "bad.csv:5: non-numeric value"),
        ("# a\nfrequency_hz,amplitude_db\n\n1,-70,9\n2,-60\n", "bad.csv:4: expected 2 columns"),
        ("frequency_hz,amplitude_db\n-100,-30\n100,-30\n200,-60\n", "bad.csv: curve frequencies must be >= 0"),
    ],
)
def test_load_curve_rejects_malformed(tmp_path, capsys, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(CurveFormatError, match=message):
        vp.load_response_curve(path)
    assert run(["bands", "--curve", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    assert f"error: {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_curve_missing_file():
    with pytest.raises(CurveFormatError, match="not found"):
        vp.load_response_curve("/nonexistent/curve.csv")


def test_load_curve_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_bytes(b"frequency_hz,amplitude_db\n100,-70\xff\n200,-42\n")
    with pytest.raises(CurveFormatError, match="curve.csv"):
        vp.load_response_curve(path)
    assert run(["bands", "--curve", str(path), "--output-dir", str(tmp_path)]) == 1
    assert str(path) in capsys.readouterr().err


def test_bundled_curve_edges_match_analytic_crossings():
    c = vp.bundled_mic_curve()
    crossings = analytic_crossings(c, THRESHOLD)
    bands = vp.sensitive_bands(c, THRESHOLD)
    edges = sorted([b.low for b in bands] + [b.high for b in bands])
    assert len(crossings) == len(edges)
    for edge, crossing in zip(edges, crossings):
        assert edge == pytest.approx(crossing, rel=1e-9)
