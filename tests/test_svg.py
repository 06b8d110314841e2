import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ventrc import svg

POLYLINE = "{http://www.w3.org/2000/svg}polyline"


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
