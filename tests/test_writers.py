"""CSV and SVG writers against per-value reference formatters.

The writers format whole columns and whole point arrays at once.  Each
reference below formats one value at a time, the way the writers once did,
and the two must agree byte for byte on awkward floats and large ints.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from hte_bandit import svg
from hte_bandit.runner import (CURVE_HEADER, RUN_HEADER, RegretCurve, RunResult,
                               write_curve_csv, write_run_csv)
from hte_bandit.svg import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE,
                            WIDTH, Series, line_chart)

# -0.0, the smallest subnormal, a sum that is not 0.3, and a float past 2^53.
AWKWARD = (-0.0, 5e-324, 0.1 + 0.2, 1e16, 1.0 / 3.0, -2.5e-7, 123456789.125)
BIG_INTS = (1, 2 ** 62, -(2 ** 63), 2 ** 63 - 1, 0, 7, 10 ** 18)


def _f(v) -> str:
    return repr(float(v))


def reference_run_csv(result: RunResult) -> str:
    lines = [RUN_HEADER]
    for i in range(result.t.size):
        lines.append(",".join((
            str(int(result.t[i])), str(int(result.epoch[i])),
            str(int(result.safe[i])), _f(result.gamma[i]),
            str(int(result.action[i])), _f(result.propensity[i]),
            _f(result.reward[i]), _f(result.expected_regret[i]),
            _f(result.cum_expected_regret[i]))))
    return "\n".join(lines) + "\n"


def reference_curve_csv(curve: RegretCurve) -> str:
    lines = [CURVE_HEADER]
    for i in range(curve.t.size):
        lines.append(",".join((str(int(curve.t[i])), _f(curve.mean[i]),
                               _f(curve.std[i]))))
    return "\n".join(lines) + "\n"


def awkward_result(T: int) -> RunResult:
    def floats(shift):
        return np.array([AWKWARD[(i + shift) % len(AWKWARD)] for i in range(T)])

    def ints(shift):
        return np.array([BIG_INTS[(i + shift) % len(BIG_INTS)] for i in range(T)],
                        dtype=np.int64)

    return RunResult(seed=1, t=ints(0), epoch=ints(1), safe=ints(2),
                     gamma=floats(0), action=ints(3), propensity=floats(1),
                     reward=floats(2), expected_regret=floats(3),
                     cum_expected_regret=floats(4))


@pytest.mark.parametrize("T", [0, 1, 7])
def test_csv_writers_match_per_value_formatting(tmp_path, T):
    res = awkward_result(T)
    write_run_csv(tmp_path / "run.csv", res)
    assert (tmp_path / "run.csv").read_bytes() == reference_run_csv(res).encode()
    curve = RegretCurve(res.t, res.gamma, res.reward)
    write_curve_csv(tmp_path / "curve.csv", curve)
    assert (tmp_path / "curve.csv").read_bytes() == reference_curve_csv(curve).encode()
    if T == 0:
        assert (tmp_path / "run.csv").read_text() == RUN_HEADER + "\n"
        assert (tmp_path / "curve.csv").read_text() == CURVE_HEADER + "\n"


def reference_line_chart(series, title="", x_label="", y_label="") -> str:
    """The chart with every point mapped and formatted one at a time."""
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

    def px(v: float) -> float:
        if x_hi == x_lo:
            return MARGIN_L
        return MARGIN_L + pw * (v - x_lo) / (x_hi - x_lo)

    def py(v: float) -> float:
        return MARGIN_T + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    if title:
        out.append(f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{title}</text>')
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
               f'fill="none" stroke="#333" stroke-width="1"/>')
    for tx in svg._nice_ticks(x_lo, x_hi):
        if tx < x_lo - 1e-9 or tx > x_hi + 1e-9:
            continue
        x = px(tx)
        out.append(f'<line x1="{x:.1f}" y1="{MARGIN_T + ph}" x2="{x:.1f}" '
                   f'y2="{MARGIN_T + ph + 5}" stroke="#333"/>')
        out.append(f'<text x="{x:.1f}" y="{MARGIN_T + ph + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{tx:g}</text>')
    for ty in svg._nice_ticks(y_lo, y_hi):
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
            upper = [f"{px(x):.2f},{py(m + b):.2f}"
                     for x, m, b in zip(s.x, s.mean, s.band)]
            lower = [f"{px(x):.2f},{py(m - b):.2f}"
                     for x, m, b in zip(s.x[::-1], s.mean[::-1], s.band[::-1])]
            out.append(f'<polygon points="{" ".join(upper + lower)}" '
                       f'fill="{color}" fill-opacity="0.15" stroke="none"/>')
        pts = " ".join(f"{px(x):.2f},{py(m):.2f}" for x, m in zip(s.x, s.mean))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.6"/>')
    for i, s in enumerate(xs):
        color = PALETTE[i % len(PALETTE)]
        ly = MARGIN_T + 16 + 16 * i
        out.append(f'<line x1="{MARGIN_L + 10}" y1="{ly}" x2="{MARGIN_L + 34}" '
                   f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{MARGIN_L + 40}" y="{ly + 4}" '
                   f'font-family="sans-serif" font-size="12">{s.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def chart_cases():
    rng = np.random.default_rng(7)
    t = np.arange(1, 301, dtype=float)
    walk = np.cumsum(rng.uniform(0.0, 1.0, (3, t.size)), axis=1)
    return {
        "one point": [Series("a", [5.0], [0.1 + 0.2], [0.5])],
        "zero band": [Series("a", t, walk[0], np.zeros(t.size)),
                      Series("b", t, -walk[1], None)],
        "banded": [Series(f"s{i}", t, walk[i] * (i + 1), 0.1 * walk[i] + 1e-9 * i)
                   for i in range(3)] + [Series("empty", [], [], [])],
    }


@pytest.mark.parametrize("case", ["one point", "zero band", "banded"])
def test_line_chart_matches_per_point_formatting(tmp_path, case):
    series = chart_cases()[case]
    got = line_chart(series, title="t", x_label="round", y_label="regret")
    assert got == reference_line_chart(series, "t", "round", "regret")
    assert ("<polygon" in got) == (case != "zero band")
    svg.write_chart(tmp_path / "c.svg", series, "t", "round", "regret")
    assert Path(tmp_path / "c.svg").read_text(encoding="utf-8") == got
