"""Minimal standalone SVG line plots (no plotting dependency).

CSV stays the canonical artifact; these plots are quick-look companions.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

from .lti import open_output

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_WIDTH, _HEIGHT = 900, 460   # px
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 44


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """About n round values in [lo, hi]; just lo and hi where the span is not
    a positive finite float, or where a step is below the precision of the
    values it steps."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    if not 0.0 < span / max(n, 1) < math.inf:
        return [lo, hi]
    step = 10.0 ** round(math.log10(span / max(n, 1)))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = step * round(lo / step)
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        if t >= lo - 1e-12 * span:
            ticks.append(t)
        if t + step == t:
            return [lo, hi]
        t += step
    return ticks or [lo, hi]


def _axis(values: np.ndarray, pad: float) -> tuple[float, float, float]:
    """The range (lo, hi) of an axis that plots values * scale.

    The range is that of the finite values, or (0, 1) without one, widened by
    `pad` of its span at each end.  A single value v spans (v, v + 1), or v
    and its neighbour toward zero where v + 1 rounds to v.  scale is 1, or
    1/4 where the widened span overflows; a power of two scales exactly.
    """
    finite = values[np.isfinite(values)].tolist()
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 1.0)
    if hi == lo:
        hi = lo + 1.0
    if hi == lo:
        lo, hi = sorted((lo, math.nextafter(lo, 0.0)))
    for scale in (1.0, 0.25):
        a, b = lo * scale, hi * scale
        if pad:
            d = pad * (b - a)
            a, b = a - d, b + d
        if b - a < math.inf:
            break
    return a, b, scale


def line_plot(series, path, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Render polyline series to an SVG file.

    series: iterable of (x_values, y_values, label) triples; empty series
    produce an empty-axes plot.  The axes span the finite values (see _axis).
    Each run of points that map to finite pixels is a polyline of its own; a
    point that maps to NaN or inf is dropped.  px and py map a scaled value,
    or an array of them (a polyline's points), to pixels by the same
    operations.
    """
    series = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float), str(label))
              for x, y, label in series]
    x_lo, x_hi, x_scale = _axis(np.concatenate([x for x, _, _ in series] or [[]]), 0.0)
    y_lo, y_hi, y_scale = _axis(np.concatenate([y for _, y, _ in series] or [[]]), 0.05)

    iw = _WIDTH - _MARGIN_L - _MARGIN_R
    ih = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * iw

    def py(y):
        return _MARGIN_T + ih - (y - y_lo) / (y_hi - y_lo) * ih

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(_WIDTH), height=str(_HEIGHT),
                     viewBox=f"0 0 {_WIDTH} {_HEIGHT}")
    ET.SubElement(svg, "rect", x="0", y="0", width=str(_WIDTH), height=str(_HEIGHT),
                  fill="white")
    if title:
        ET.SubElement(svg, "text", x=str(_WIDTH / 2), y="20", fill="black",
                      attrib={"text-anchor": "middle", "font-size": "15",
                              "font-family": "sans-serif"}).text = title

    axis_style = {"stroke": "#333333", "stroke-width": "1"}
    ET.SubElement(svg, "line", x1=str(_MARGIN_L), y1=str(_MARGIN_T + ih),
                  x2=str(_MARGIN_L + iw), y2=str(_MARGIN_T + ih), **axis_style)
    ET.SubElement(svg, "line", x1=str(_MARGIN_L), y1=str(_MARGIN_T),
                  x2=str(_MARGIN_L), y2=str(_MARGIN_T + ih), **axis_style)

    label_attr = {"font-size": "11", "font-family": "sans-serif", "fill": "#333333"}
    for t in _ticks(x_lo, x_hi):
        ET.SubElement(svg, "line", x1=str(px(t)), y1=str(_MARGIN_T + ih),
                      x2=str(px(t)), y2=str(_MARGIN_T + ih + 4), **axis_style)
        ET.SubElement(svg, "text", x=str(px(t)), y=str(_MARGIN_T + ih + 16),
                      attrib={**label_attr, "text-anchor": "middle"}).text = f"{t / x_scale:g}"
    for t in _ticks(y_lo, y_hi):
        ET.SubElement(svg, "line", x1=str(_MARGIN_L - 4), y1=str(py(t)),
                      x2=str(_MARGIN_L), y2=str(py(t)), **axis_style)
        ET.SubElement(svg, "text", x=str(_MARGIN_L - 7), y=str(py(t) + 4),
                      attrib={**label_attr, "text-anchor": "end"}).text = f"{t / y_scale:g}"
    if xlabel:
        ET.SubElement(svg, "text", x=str(_MARGIN_L + iw / 2), y=str(_HEIGHT - 8),
                      attrib={**label_attr, "text-anchor": "middle",
                              "font-size": "13"}).text = xlabel
    if ylabel:
        el = ET.SubElement(svg, "text", x="16", y=str(_MARGIN_T + ih / 2),
                           attrib={**label_attr, "text-anchor": "middle",
                                   "font-size": "13"})
        el.set("transform", f"rotate(-90 16 {_MARGIN_T + ih / 2})")
        el.text = ylabel

    for i, (x, y, label) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        n = min(len(x), len(y))
        with np.errstate(all="ignore"):  # inf and nan pass silently, as with floats
            xs, ys = px(x[:n] * x_scale), py(y[:n] * y_scale)
        # the starts and stops of the runs of finite points, alternately
        finite = np.concatenate([[False], np.isfinite(xs) & np.isfinite(ys), [False]])
        edges = np.flatnonzero(finite[1:] != finite[:-1]).tolist()
        for start, stop in zip(edges[::2], edges[1::2]):
            pts = " ".join(map("{:.2f},{:.2f}".format, xs[start:stop].tolist(),
                               ys[start:stop].tolist()))
            ET.SubElement(svg, "polyline", points=pts, fill="none",
                          stroke=color, attrib={"stroke-width": "1.5"})
        if label:
            ly = _MARGIN_T + 14 + 16 * i
            ET.SubElement(svg, "line", x1=str(_MARGIN_L + iw - 120), y1=str(ly - 4),
                          x2=str(_MARGIN_L + iw - 96), y2=str(ly - 4),
                          stroke=color, attrib={"stroke-width": "2"})
            ET.SubElement(svg, "text", x=str(_MARGIN_L + iw - 90), y=str(ly),
                          attrib=label_attr).text = label

    with open_output(path) as fh:
        ET.ElementTree(svg).write(fh, xml_declaration=True, encoding="unicode")
