"""Minimal SVG line charts: mean curves with optional +/- band fills.

Everything is emitted with fixed-precision coordinates so identical
inputs yield byte-identical files.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 720, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 44


def _nice_ticks(lo: float, hi: float, n: int = 6) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(round(v, 10))
        v += step
    return ticks


class Series:
    def __init__(self, label: str, x, mean, band=None):
        self.label = label
        self.x = np.asarray(x, float)
        self.mean = np.asarray(mean, float)
        self.band = None if band is None else np.asarray(band, float)


def line_chart(series: Sequence[Series], title: str = "",
               x_label: str = "", y_label: str = "") -> str:
    """Render the series list to an SVG document string."""
    xs = [s for s in series if s.x.size > 0]
    if xs:
        x_lo = min(float(s.x.min()) for s in xs)
        x_hi = max(float(s.x.max()) for s in xs)
        y_lo, y_hi = math.inf, -math.inf
        for s in xs:
            lo_curve = s.mean - (s.band if s.band is not None else 0.0)
            hi_curve = s.mean + (s.band if s.band is not None else 0.0)
            y_lo = min(y_lo, float(np.min(lo_curve)))
            y_hi = max(y_hi, float(np.max(hi_curve)))
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_lo = min(y_lo, 0.0)
    pad = 0.04 * (y_hi - y_lo)
    y_hi += pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    # px and py map a coordinate, or an array of them elementwise.
    def px(v):
        if x_hi == x_lo:
            return np.full_like(v, MARGIN_L, dtype=float)
        return MARGIN_L + pw * (v - x_lo) / (x_hi - x_lo)

    def py(v):
        return MARGIN_T + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    def points(x: np.ndarray, y: np.ndarray) -> str:
        return " ".join(map("{:.2f},{:.2f}".format, px(x).tolist(), py(y).tolist()))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{title}</text>')

    # Axes frame and ticks.
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')
    for tx in _nice_ticks(x_lo, x_hi):
        if tx < x_lo - 1e-9 or tx > x_hi + 1e-9:
            continue
        x = px(tx)
        out.append(f'<line x1="{x:.1f}" y1="{MARGIN_T + ph}" x2="{x:.1f}" '
                   f'y2="{MARGIN_T + ph + 5}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{MARGIN_T + ph + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{tx:g}</text>')
    for ty in _nice_ticks(y_lo, y_hi):
        y = py(ty)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" '
                   f'y2="{y:.1f}" stroke="#333"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{ty:g}</text>')
    if x_label:
        out.append(f'<text x="{MARGIN_L + pw / 2:.1f}" y="{HEIGHT - 8}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="12">'
                   f'{x_label}</text>')
    if y_label:
        cy = MARGIN_T + ph / 2
        out.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {cy:.1f})">{y_label}</text>')

    for i, s in enumerate(xs):
        color = PALETTE[i % len(PALETTE)]
        if s.band is not None and np.any(s.band > 0):
            upper = points(s.x, s.mean + s.band)
            lower = points(s.x[::-1], s.mean[::-1] - s.band[::-1])
            out.append(f'<polygon points="{upper} {lower}" '
                       f'fill="{color}" fill-opacity="0.15" stroke="none"/>')
        pts = points(s.x, s.mean)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"/>')

    # Legend, top-left inside the frame.
    for i, s in enumerate(xs):
        color = PALETTE[i % len(PALETTE)]
        ly = MARGIN_T + 16 + 16 * i
        out.append(f'<line x1="{MARGIN_L + 10}" y1="{ly}" x2="{MARGIN_L + 34}" '
                   f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{MARGIN_L + 40}" y="{ly + 4}" '
                   f'font-family="sans-serif" font-size="12">{s.label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_chart(path, series, title="", x_label="", y_label=""):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line_chart(series, title, x_label, y_label))
