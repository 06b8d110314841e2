import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ventrc import svg

POLYLINE = "{http://www.w3.org/2000/svg}polyline"
LINE = "{http://www.w3.org/2000/svg}line"


def per_point_points(series) -> list[str]:
    """Each non-empty polyline's points, one point at a time in Python floats:
    the formula line_plot must keep bit for bit."""
    series = [(list(map(float, x)), list(map(float, y))) for x, y in series]
    xs = [v for x, _ in series for v in x]
    ys = [v for _, y in series for v in y]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    iw = svg._WIDTH - svg._MARGIN_L - svg._MARGIN_R
    ih = svg._HEIGHT - svg._MARGIN_T - svg._MARGIN_B

    def px(x):
        return svg._MARGIN_L + (x - x_lo) / (x_hi - x_lo) * iw

    def py(y):
        return svg._MARGIN_T + ih - (y - y_lo) / (y_hi - y_lo) * ih

    points = [" ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y)) for x, y in series]
    return [p for p in points if p]


# values to the millisecond, so that no span is too small for the axis ticks
VALUES = st.floats(-1e6, 1e6).map(lambda v: round(v, 3))
SERIES = st.lists(st.tuples(st.lists(VALUES, max_size=60), st.lists(VALUES, max_size=60)),
                  max_size=3)


@settings(deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(SERIES)
@example([([-3.0, -2.0, -1.0], [-1e6, -5.5, -0.001])])               # negative
@example([([1.0, 2.0, 3.0], [4.25, 4.25, 4.25]), ([2.0] * 3, [4.25] * 3)])  # constant
@example([([], []), ([0.0, 1.0], [])])                                  # empty
@example([([0.0, 1.0, 2.0], [1.0, 2.0]), (np.arange(5), np.arange(5) * 0.002)])
# x = -83.163 lands on 673.87 px; dividing after the scaling by iw gives 673.88
@example([([-240.005, -83.163, -29.125], [0.0, 1.0, 2.0])])
def test_points_are_the_per_point_formula(tmp_path, series):
    path = tmp_path / "plot.svg"
    svg.line_plot([(x, y, f"s{i}") for i, (x, y) in enumerate(series)], path)
    got = [el.get("points") for el in ET.parse(path).getroot().iter(POLYLINE)]
    assert got == per_point_points(series)


@pytest.mark.parametrize("values", [
    [np.nan, 1.0], [np.inf, 1.0], [np.nan, np.nan],
    [0.0, 5e-324],                   # a subnormal span
    [0.0, 1e308, -1e308],            # a span that overflows
    [1e16, 1e16 + 2.0],              # a step below the precision of the values
    [2.0 ** 60] * 2,                 # v + 1 rounds to v
], ids=["nan first", "inf", "all nan", "subnormal", "overflow", "precision", "huge constant"])
def test_any_series_gets_a_finite_axis(tmp_path, values):
    # the values are both axes' series; every finite value maps into the plot
    path = tmp_path / "plot.svg"
    svg.line_plot([(values, values, "s")], path)
    root = ET.parse(path).getroot()
    for line in root.iter(LINE):
        assert all(math.isfinite(float(line.get(k))) for k in ("x1", "y1", "x2", "y2"))
    left, top = svg._MARGIN_L, svg._MARGIN_T
    right, bottom = svg._WIDTH - svg._MARGIN_R, svg._HEIGHT - svg._MARGIN_B
    points = [tuple(map(float, p.split(","))) for polyline in root.iter(POLYLINE)
              for p in polyline.get("points").split()]
    finite = [value for value in values if math.isfinite(value)]
    for value, (x, y) in zip(finite, points, strict=True):
        assert left <= x <= right and top <= y <= bottom, (value, x, y)


def test_non_finite_points_split_the_polyline(tmp_path):
    # each run of finite points is a polyline of its own; a NaN or inf point
    # is dropped, and the axes are those of the finite points
    path = tmp_path / "plot.svg"
    svg.line_plot([([0, 1, 2], [1.0, np.nan, 2.0], "a")], path)
    got = [el.get("points") for el in ET.parse(path).getroot().iter(POLYLINE)]
    assert got == ["64.00,398.64", "884.00,51.36"]

    x = [0.0, 1.0, 2.0, 3.0, 4.0, np.nan, 6.0]
    y = [1.0, np.nan, 2.0, 3.0, -np.inf, 4.0, 5.0]
    svg.line_plot([(x, y, "a"), ([1.0, 2.0], [np.nan, np.nan], "b")], path)
    got = [el.get("points") for el in ET.parse(path).getroot().iter(POLYLINE)]
    (finite,) = per_point_points([([0.0, 2.0, 3.0, 6.0], [1.0, 2.0, 3.0, 5.0])])
    p0, p2, p3, p6 = finite.split()
    assert got == [p0, f"{p2} {p3}", p6]
    assert "nan" not in path.read_text() and "inf" not in path.read_text()


@pytest.mark.parametrize("lo, hi", [
    (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (0.0, 5e-324), (1e16, 1e16 + 2.0),
    (2.0 ** 60, 2.0 ** 60)])
def test_ticks_fall_back_to_the_ends(lo, hi):
    assert list(map(repr, svg._ticks(lo, hi))) == [repr(lo), repr(hi)]
