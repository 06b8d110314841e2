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
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
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
        t += step
    return ticks or [lo, hi]


def line_plot(series, path, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Render polyline series to an SVG file.

    series: iterable of (x_values, y_values, label) triples; empty series
    produce an empty-axes plot.  px and py map a value, or an array of them
    (a polyline's points), to pixels by the same operations.
    """
    series = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float), str(label))
              for x, y, label in series]
    xs = [v for x, _, _ in series for v in x.tolist()]
    ys = [v for _, y, _ in series for v in y.tolist()]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

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
                      attrib={**label_attr, "text-anchor": "middle"}).text = f"{t:g}"
    for t in _ticks(y_lo, y_hi):
        ET.SubElement(svg, "line", x1=str(_MARGIN_L - 4), y1=str(py(t)),
                      x2=str(_MARGIN_L), y2=str(py(t)), **axis_style)
        ET.SubElement(svg, "text", x=str(_MARGIN_L - 7), y=str(py(t) + 4),
                      attrib={**label_attr, "text-anchor": "end"}).text = f"{t:g}"
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
            pts = " ".join(map("{:.2f},{:.2f}".format, px(x[:n]).tolist(), py(y[:n]).tolist()))
        if pts:
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
